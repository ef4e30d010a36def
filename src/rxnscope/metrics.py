"""Extraction quality metrics: matching, PRF, fingerprints, similarity.

Reaction equality is decided on canonical SMILES multisets, so atom
renumbering between systems never costs a match. The fingerprint is a
hashed-linear-path scheme that hashes each path once, from its canonical
direction; all comparisons are internal, so the exact construction
matters only for self-consistency, and a golden test pins its bits.
``evaluate`` shares one memo across its sections and runs in a parse
scope, so each distinct SMILES text is parsed, canonicalized,
fingerprinted and checked once per call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .molgraph import MolecularGraph, RxnscopeError
from .reaction import ReactionRecord
from .smiles import SmilesParseError, canonicalize, is_valid, parse_scope, parse_smiles

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


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a over ``data``, continuing from state ``h``."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def _atom_descriptor(g: MolecularGraph, idx: int) -> str:
    atom = g.atoms[idx]
    return f"{atom.text}|{atom.charge}|{int(atom.aromatic)}"


def fingerprint(g: MolecularGraph) -> Fingerprint:
    """Hash every simple linear path of 0..7 bonds into a 2048-bit set.

    A path's text joins its atom descriptors and bond orders with ".".
    Each path contributes one bit, the FNV-1a hash of the lexicographically
    smaller of its two traversal texts, which makes the fingerprint
    independent of atom numbering. The walk carries the hash of the text
    so far and extends it by each new bond and atom, so each path is
    hashed once; a path with bonds is walked from both ends, and only the
    walk whose text is the smaller one sets the bit.
    """
    for atom in g.atoms:
        if atom.kind == "placeholder":
            raise FingerprintError(
                f"cannot fingerprint a graph with placeholder {atom.text!r}"
            )
    adj = g.adjacency()
    descriptors = [_atom_descriptor(g, i) for i in range(len(g.atoms))]
    # Per atom: (mate, text appended going forward, its bytes, text
    # prepended to the reverse traversal).
    steps = []
    for i in range(len(g.atoms)):
        out = []
        for mate, bond in adj[i]:
            ahead = f".{bond.order}.{descriptors[mate]}"
            out.append((mate, ahead, ahead.encode(), f"{descriptors[mate]}.{bond.order}."))
        steps.append(out)
    bits = 0
    path: list[int] = []

    def walk(cur: int, text: str, back: str, h: int) -> None:
        nonlocal bits
        if text <= back:
            bits |= 1 << (h % FP_WIDTH)
        if len(path) == MAX_PATH_BONDS:
            return
        path.append(cur)
        for mate, ahead, ahead_bytes, behind in steps[cur]:
            if mate not in path:
                walk(mate, text + ahead, behind + back, _fnv1a(ahead_bytes, h))
        path.pop()

    for start, text in enumerate(descriptors):
        walk(start, text, text, _fnv1a(text.encode()))
    return Fingerprint(bits=bits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    if a.width != b.width:
        raise FingerprintError(f"width mismatch: {a.width} vs {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


# ---------------------------------------------------------------------------
# What one scoring call knows about each molecule
# ---------------------------------------------------------------------------


class _Molecules:
    """Per-call memo over distinct SMILES texts.

    Each text is canonicalized, fingerprinted and checked for validity at
    most once, through the public functions and only when asked. A
    failure is kept and raised again on every later request. Parsed
    graphs are not kept here: inside ``evaluate``'s parse scope
    ``parse_smiles`` returns the graph it already built for a text,
    including the parses inside ``canonicalize`` and ``is_valid``. One
    instance lives for one scoring call, so nothing accumulates across
    calls.
    """

    def __init__(self) -> None:
        self._canonical: dict = {}
        self._fingerprints: dict = {}
        self._valid: dict = {}

    @staticmethod
    def _lookup(table: dict, smiles: str, compute):
        if smiles not in table:
            try:
                table[smiles] = compute(smiles)
            except (SmilesParseError, FingerprintError) as exc:
                table[smiles] = exc
        value = table[smiles]
        if isinstance(value, RxnscopeError):
            # A fresh traceback: raising the kept exception as it is would
            # chain every earlier raise's frames onto it.
            raise value.with_traceback(None)
        return value

    def canonical(self, smiles: str) -> str:
        return self._lookup(self._canonical, smiles, canonicalize)

    def fingerprint(self, smiles: str) -> Fingerprint:
        return self._lookup(
            self._fingerprints, smiles, lambda s: fingerprint(parse_smiles(s))
        )

    def valid(self, smiles: str) -> bool:
        return self._lookup(self._valid, smiles, is_valid)


# ---------------------------------------------------------------------------
# Reaction matching
# ---------------------------------------------------------------------------


def _normalized_text(text: str) -> str:
    return " ".join(text.lower().split())


def _reaction_key(
    record: ReactionRecord, mode: str, strict: bool, molecules: _Molecules
):
    def canon(entries):
        out = []
        for e in entries:
            try:
                out.append(molecules.canonical(e.smiles))
            except SmilesParseError:
                if strict:
                    raise
                out.append(f"<unparseable {e.smiles}>")
        return tuple(sorted(out))

    key = (canon(record.reactants), canon(record.products))
    if mode == "hard":
        conds = tuple(
            sorted((c.role, _normalized_text(c.text)) for c in record.conditions)
        )
        key = key + (conds,)
    return key


def _match(
    pred: Sequence[ReactionRecord],
    gold: Sequence[ReactionRecord],
    mode: str,
    molecules: _Molecules,
) -> tuple[MatchCounts, list[tuple[int, int]]]:
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown match mode {mode!r}")
    # Only equal keys can pair, so a maximum matching pairs min(#pred,
    # #gold) records per key; each prediction takes the first unpaired
    # gold record with its key.
    unpaired: dict[tuple, deque[int]] = {}
    for j, record in enumerate(gold):
        key = _reaction_key(record, mode, True, molecules)
        unpaired.setdefault(key, deque()).append(j)
    pairing = []
    for i, record in enumerate(pred):
        golds = unpaired.get(_reaction_key(record, mode, False, molecules))
        if golds:
            pairing.append((i, golds.popleft()))
    counts = MatchCounts(
        correct=len(pairing), predicted=len(pred), gold=len(gold), mode=mode
    )
    return counts, pairing


def match_reactions(
    pred: Sequence[ReactionRecord],
    gold: Sequence[ReactionRecord],
    mode: str = "soft",
) -> tuple[MatchCounts, list[tuple[int, int]]]:
    """One-to-one pairing of equal reactions; soft ignores conditions.

    Gold SMILES must parse (raises otherwise); unparseable predictions
    simply never match anything. Among records with equal keys, the
    pairing follows index order.
    """
    return _match(pred, gold, mode, _Molecules())


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


def _similarity(
    pred_smiles: Sequence[str], gold_smiles: Sequence[str], molecules: _Molecules
) -> tuple[float, float]:
    gold_fps = [molecules.fingerprint(s) for s in gold_smiles]
    pred_fps: list[Optional[Fingerprint]] = []
    for s in pred_smiles:
        try:
            pred_fps.append(molecules.fingerprint(s))
        except (SmilesParseError, FingerprintError):
            pred_fps.append(None)
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


def similarity_report(
    pred_smiles: Sequence[str], gold_smiles: Sequence[str]
) -> tuple[float, float]:
    """Greedy gold-to-prediction pairing; returns (avg Tanimoto, Tani@1.0).

    Each gold molecule takes the most similar unused prediction; gold
    left without a partner scores 0. Tani@1.0 counts pairs whose
    fingerprints are identical.
    """
    return _similarity(pred_smiles, gold_smiles, _Molecules())


# ---------------------------------------------------------------------------
# Validity and the full report
# ---------------------------------------------------------------------------


def _record_smiles(records: Sequence[ReactionRecord]) -> list[str]:
    out: list[str] = []
    for r in records:
        for e in r.reactants + r.products:
            out.append(e.smiles)
    return out


def _valid_rate(
    pred: Sequence[ReactionRecord],
    gold: Sequence[ReactionRecord],
    molecules: _Molecules,
) -> tuple[float, float, float]:
    pred_smiles = _record_smiles(pred)
    gold_smiles = _record_smiles(gold)
    n_valid = sum(1 for s in pred_smiles if molecules.valid(s))
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


def valid_rate(
    pred: Sequence[ReactionRecord], gold: Sequence[ReactionRecord]
) -> tuple[float, float, float]:
    return _valid_rate(pred, gold, _Molecules())


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
    participate in reaction matching. The call is one parse scope, so
    each SMILES text that parses is parsed once.
    """
    with parse_scope():
        molecules = _Molecules()
        report: dict = {}
        for mode in ("soft", "hard"):
            counts, _ = _match(pred, gold, mode, molecules)
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
        avg_tani, tani_at_1 = _similarity(pred_molecules, gold_molecules, molecules)
        report["avg_tanimoto"] = avg_tani
        report["tani_at_1"] = tani_at_1
        vp, vr, vf = _valid_rate(pred, gold, molecules)
        report["valid_rate"] = {"precision": vp, "recall": vr, "f1": vf}
        return report
