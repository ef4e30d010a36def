"""Extraction quality metrics: matching, PRF, fingerprints, similarity.

Reaction equality is decided on canonical SMILES multisets, so atom
renumbering between systems never costs a match. The fingerprint is a
hashed-linear-path scheme; all comparisons are internal, so the exact
construction matters only for self-consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .molgraph import MolecularGraph, RxnscopeError
from .reaction import ReactionRecord
from .smiles import SmilesParseError, canonicalize, is_valid, parse_smiles

FP_WIDTH = 2048
MAX_PATH_BONDS = 7

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


class FingerprintError(RxnscopeError, ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    bits: int
    width: int = FP_WIDTH

    def popcount(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class MatchCounts:
    correct: int
    predicted: int
    gold: int
    mode: str

    def __post_init__(self) -> None:
        if self.correct > min(self.predicted, self.gold):
            raise ValueError("correct exceeds predicted or gold count")


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def _atom_descriptor(g: MolecularGraph, idx: int) -> str:
    atom = g.atoms[idx]
    return f"{atom.text}|{atom.charge}|{int(atom.aromatic)}"


def fingerprint(g: MolecularGraph) -> Fingerprint:
    """Hash every simple linear path of 0..7 bonds into a 2048-bit set.

    Each path contributes one bit derived from the lexicographically
    smaller of its two traversal directions, which makes the fingerprint
    independent of atom numbering.
    """
    for atom in g.atoms:
        if atom.kind == "placeholder":
            raise FingerprintError(
                f"cannot fingerprint a graph with placeholder {atom.text!r}"
            )
    adj = g.adjacency()
    bits = 0

    def emit(path_atoms: list[int], path_bonds: list[str]) -> int:
        forward: list[str] = []
        for i, a in enumerate(path_atoms):
            if i:
                forward.append(path_bonds[i - 1])
            forward.append(_atom_descriptor(g, a))
        text = ".".join(forward)
        back = ".".join(reversed(forward))
        return _fnv1a(min(text, back).encode())

    def walk(path_atoms: list[int], path_bonds: list[str]) -> None:
        nonlocal bits
        bits |= 1 << (emit(path_atoms, path_bonds) % FP_WIDTH)
        if len(path_bonds) == MAX_PATH_BONDS:
            return
        cur = path_atoms[-1]
        for mate, bond in adj[cur]:
            if mate in path_atoms:
                continue
            walk(path_atoms + [mate], path_bonds + [bond.order])

    for start in range(len(g.atoms)):
        walk([start], [])
    return Fingerprint(bits=bits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    if a.width != b.width:
        raise FingerprintError(f"width mismatch: {a.width} vs {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


# ---------------------------------------------------------------------------
# Reaction matching
# ---------------------------------------------------------------------------


def _safe_canonical(smiles: str) -> str:
    try:
        return canonicalize(smiles)
    except SmilesParseError:
        return f"<unparseable {smiles}>"


def _normalized_text(text: str) -> str:
    return " ".join(text.lower().split())


def _reaction_key(record: ReactionRecord, mode: str, strict: bool):
    def canon(entries):
        out = []
        for e in entries:
            if strict:
                out.append(canonicalize(e.smiles))
            else:
                out.append(_safe_canonical(e.smiles))
        return tuple(sorted(out))

    key = (canon(record.reactants), canon(record.products))
    if mode == "hard":
        conds = tuple(
            sorted((c.role, _normalized_text(c.text)) for c in record.conditions)
        )
        key = key + (conds,)
    return key


def _max_bipartite(edges: list[list[int]], n_right: int) -> dict[int, int]:
    """Kuhn's augmenting-path matching; returns left index -> right index."""
    match_right: list[Optional[int]] = [None] * n_right

    def try_augment(left: int, visited: set[int]) -> bool:
        for right in edges[left]:
            if right in visited:
                continue
            visited.add(right)
            if match_right[right] is None or try_augment(match_right[right], visited):
                match_right[right] = left
                return True
        return False

    for left in range(len(edges)):
        try_augment(left, set())
    return {left: right for right, left in enumerate(match_right) if left is not None}


def match_reactions(
    pred: Sequence[ReactionRecord],
    gold: Sequence[ReactionRecord],
    mode: str = "soft",
) -> tuple[MatchCounts, list[tuple[int, int]]]:
    """One-to-one pairing of equal reactions; soft ignores conditions.

    Gold SMILES must parse (raises otherwise); unparseable predictions
    simply never match anything.
    """
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown match mode {mode!r}")
    gold_keys = [_reaction_key(r, mode, strict=True) for r in gold]
    pred_keys = [_reaction_key(r, mode, strict=False) for r in pred]
    edges = [
        [j for j, gk in enumerate(gold_keys) if pk == gk] for pk in pred_keys
    ]
    pairing_map = _max_bipartite(edges, len(gold))
    pairing = sorted(pairing_map.items())
    counts = MatchCounts(
        correct=len(pairing), predicted=len(pred), gold=len(gold), mode=mode
    )
    return counts, pairing


def prf(
    counts: Union[MatchCounts, int],
    predicted: Optional[int] = None,
    gold: Optional[int] = None,
) -> tuple[float, float, float]:
    """Precision, recall, F1 from counts; zero-denominator cases give 0."""
    if isinstance(counts, MatchCounts):
        correct, n_pred, n_gold = counts.correct, counts.predicted, counts.gold
    else:
        if predicted is None or gold is None:
            raise ValueError("prf needs (correct, predicted, gold)")
        correct, n_pred, n_gold = counts, predicted, gold
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Molecule-level similarity
# ---------------------------------------------------------------------------


def _fingerprint_or_none(smiles: str) -> Optional[Fingerprint]:
    try:
        return fingerprint(parse_smiles(smiles))
    except (SmilesParseError, FingerprintError):
        return None


def similarity_report(
    pred_smiles: Sequence[str], gold_smiles: Sequence[str]
) -> tuple[float, float]:
    """Greedy gold-to-prediction pairing; returns (avg Tanimoto, Tani@1.0).

    Each gold molecule takes the most similar unused prediction; gold
    left without a partner scores 0. Tani@1.0 counts pairs whose
    fingerprints are identical.
    """
    gold_fps = [fingerprint(parse_smiles(s)) for s in gold_smiles]
    pred_fps = [_fingerprint_or_none(s) for s in pred_smiles]
    if not gold_fps:
        return 0.0, 0.0
    used: set[int] = set()
    total = 0.0
    exact = 0
    for gfp in gold_fps:
        best_idx = None
        best_sim = -1.0
        for i, pfp in enumerate(pred_fps):
            if i in used or pfp is None:
                continue
            sim = tanimoto(gfp, pfp)
            if sim > best_sim:
                best_sim = sim
                best_idx = i
        if best_idx is None:
            continue
        used.add(best_idx)
        total += best_sim
        if pred_fps[best_idx].bits == gfp.bits:
            exact += 1
    n = len(gold_fps)
    return total / n, exact / n


# ---------------------------------------------------------------------------
# Validity and the full report
# ---------------------------------------------------------------------------


def _record_smiles(records: Sequence[ReactionRecord]) -> list[str]:
    out: list[str] = []
    for r in records:
        for e in r.reactants + r.products:
            out.append(e.smiles)
    return out


def valid_rate(
    pred: Sequence[ReactionRecord], gold: Sequence[ReactionRecord]
) -> tuple[float, float, float]:
    pred_smiles = _record_smiles(pred)
    gold_smiles = _record_smiles(gold)
    n_valid = sum(1 for s in pred_smiles if is_valid(s))
    precision = n_valid / len(pred_smiles) if pred_smiles else 0.0
    if gold_smiles:
        recall = min(1.0, n_valid / len(gold_smiles))
    else:
        recall = 1.0 if n_valid else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def _placeholder_free(smiles: str) -> bool:
    try:
        return not parse_smiles(smiles).placeholder_indices()
    except SmilesParseError:
        return True  # unparseable predictions stay in, scoring 0


def evaluate(
    pred: Sequence[ReactionRecord], gold: Sequence[ReactionRecord]
) -> dict:
    """Full report: soft/hard PRF, similarity, validity.

    Placeholder-bearing template molecules are excluded from the
    similarity section (fingerprints are undefined for them) but still
    participate in reaction matching.
    """
    report: dict = {}
    for mode in ("soft", "hard"):
        counts, _ = match_reactions(pred, gold, mode)
        p, r, f1 = prf(counts)
        report[mode] = {
            "precision": p,
            "recall": r,
            "f1": f1,
            "correct": counts.correct,
            "predicted": counts.predicted,
            "gold": counts.gold,
        }
    pred_molecules = [s for s in _record_smiles(pred) if _placeholder_free(s)]
    gold_molecules = [s for s in _record_smiles(gold) if _placeholder_free(s)]
    avg_tani, tani_at_1 = similarity_report(pred_molecules, gold_molecules)
    report["avg_tanimoto"] = avg_tani
    report["tani_at_1"] = tani_at_1
    vp, vr, vf = valid_rate(pred, gold)
    report["valid_rate"] = {"precision": vp, "recall": vr, "f1": vf}
    return report
