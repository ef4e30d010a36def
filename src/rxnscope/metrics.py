"""Extraction quality metrics: matching, PRF, fingerprints, similarity.

Reaction equality is decided on canonical SMILES multisets, so atom
renumbering between systems never costs a match. The fingerprint is a
hashed-linear-path scheme that hashes each path once, from its canonical
direction; all comparisons are internal, so the exact construction
matters only for self-consistency, and a golden test pins its bits.
Record molecules arrive read: each ``MoleculeEntry`` holds the graph of
its text, parsed once by ``decode_records`` or built by the writer of the
run that made the entry, so scoring records parses nothing. ``evaluate``
shares one memo across its sections, so each distinct SMILES text is
fingerprinted and checked at most once per call. It is canonicalized
only when another distinct text of the call shares its
``smiles.identity_key`` (bond count and atom texts), and then once:
keys are equal whenever canonical forms are, so a text alone with its
key can equal no other molecule and is compared as itself.

The path hash is FNV-1a, and the walk carries only ``h mod FP_WIDTH``.
``FP_WIDTH`` is 2**11, which divides 2**64, and an FNV-1a step maps the
state's residue mod 2**11 to a residue that depends on nothing else: XOR
with a byte touches only the low 8 bits, and a product's low 11 bits are
those of the product of its factors' low 11 bits. So the bit a text sets,
``fnv1a(text) % FP_WIDTH``, follows from the residue alone, and extending
the text by one step is one lookup in that step's ``FP_WIDTH``-entry
transition table. ``_step_table`` builds one table per distinct step
text, in a cache of fixed size that holds pure functions of bytes and no
molecule data. The walk sets each bit as a flag in a ``FP_WIDTH``-byte
array, which becomes the ``Fingerprint`` integer once, and finishes the
last bond level in its parent's loop rather than in a call per path.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .molgraph import MolecularGraph, RxnscopeError
from .reaction import MoleculeEntry, ReactionRecord
from .smiles import canonicalize, identity_key, is_valid

FP_WIDTH = 2048
MAX_PATH_BONDS = 7

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Distinct step texts whose tables are kept; each table is FP_WIDTH
# 16-bit entries (4 KB), so the cache holds at most about 512 KB.
_STEP_TABLES = 128
# Flag bytes 0 and 1 as the ASCII digits "0" and "1".
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class FingerprintError(RxnscopeError, ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    bits: int


@dataclass(frozen=True)
class MatchCounts:
    correct: int
    predicted: int
    gold: int

    def __post_init__(self) -> None:
        if self.correct > min(self.predicted, self.gold):
            raise ValueError("correct exceeds predicted or gold count")


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a over ``data``, continuing from state ``h``, byte by byte."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) % (1 << 64)
    return h


@lru_cache(maxsize=_STEP_TABLES)
def _step_table(data: bytes) -> array:
    """``T`` with ``T[h % FP_WIDTH] == _fnv1a(data, h) % FP_WIDTH`` for every
    64-bit ``h`` (see the module docstring). Filled from 256 hashes of
    ``data``: ``_fnv1a(data, h) - h * P**len(data)`` depends only on
    ``h & 0xFF``, since the XORs touch only the low 8 bits."""
    mult = pow(_FNV_PRIME, len(data), FP_WIDTH)
    low = [(_fnv1a(data, b) - b * mult) % FP_WIDTH for b in range(256)]
    return array("H", [(h * mult + low[h & 0xFF]) % FP_WIDTH for h in range(FP_WIDTH)])


def _atom_descriptor(g: MolecularGraph, idx: int) -> str:
    atom = g.atoms[idx]
    return f"{atom.text}|{atom.charge}|{int(atom.aromatic)}"


def fingerprint(g: MolecularGraph) -> Fingerprint:
    """Hash every simple linear path of 0..7 bonds into a 2048-bit set.

    A path's text joins its atom descriptors and bond orders with ".".
    Each path contributes one bit, ``fnv1a(text) % FP_WIDTH`` of the
    lexicographically smaller of its two traversal texts, which makes the
    fingerprint independent of atom numbering. The walk carries the text
    so far and that bit position, the FNV-1a state mod 2**11, which is all
    of the state the bit reads and all that its next step needs; each new
    bond and atom is one lookup in the step text's table. A path with
    bonds is walked from both ends, and only the walk whose text is the
    smaller one sets the bit. Bits are flags in a ``FP_WIDTH``-byte array,
    read into one integer at the end. A walk of ``MAX_PATH_BONDS - 1``
    bonds sets the bits of its one-bond extensions in its own loop, so the
    paths of the last level, about a fifth of all, cost no call.
    """
    for atom in g.atoms:
        if atom.kind == "placeholder":
            raise FingerprintError(
                f"cannot fingerprint a graph with placeholder {atom.text!r}"
            )
    adj = g.adjacency()
    descriptors = [_atom_descriptor(g, i) for i in range(len(g.atoms))]
    # Per atom: (mate, text appended going forward, its step table, text
    # prepended to the reverse traversal).
    steps = []
    for i in range(len(g.atoms)):
        out = []
        for mate, bond in adj[i]:
            ahead = f".{bond.order}.{descriptors[mate]}"
            out.append((mate, ahead, _step_table(ahead.encode()), f"{descriptors[mate]}.{bond.order}."))
        steps.append(out)
    flags = bytearray(FP_WIDTH)
    on_path = [False] * len(g.atoms)
    last = MAX_PATH_BONDS - 1

    def walk(cur: int, text: str, back: str, h: int, bonds: int) -> None:
        if text <= back:
            flags[h] = 1
        on_path[cur] = True
        if bonds == last:
            for mate, ahead, table, behind in steps[cur]:
                if not on_path[mate] and text + ahead <= behind + back:
                    flags[table[h]] = 1
        else:
            for mate, ahead, table, behind in steps[cur]:
                if not on_path[mate]:
                    walk(mate, text + ahead, behind + back, table[h], bonds + 1)
        on_path[cur] = False

    for start, text in enumerate(descriptors):
        walk(start, text, text, _step_table(text.encode())[_FNV_OFFSET % FP_WIDTH], 0)
    # Flag p becomes bit p: the digits, highest position first, in base 2.
    return Fingerprint(bits=int(flags.translate(_BINARY_DIGITS)[::-1], 2))


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


# ---------------------------------------------------------------------------
# What one scoring call knows about each molecule
# ---------------------------------------------------------------------------


class _Molecules:
    """Per-call memo of what scoring computes from record molecules.

    Built from the entries of both documents of one scoring call, it
    groups their distinct texts by :func:`~rxnscope.smiles.identity_key`.
    Molecules with unequal keys are never the same, so a text whose key no
    other text of the call shares stands for itself, and only texts that
    share a key are canonicalized. One dict keyed by (kind, SMILES text)
    holds each entry's canonical form, fingerprint and validity, computed
    from ``entry.graph`` at most once and only when asked. One instance
    lives for one scoring call, so nothing accumulates across calls.
    """

    def __init__(self, entries: Iterable[MoleculeEntry]) -> None:
        self._memo: dict[tuple[str, str], object] = {}
        graphs = {e.smiles: e.graph for e in entries}
        self._keys = {text: identity_key(g) for text, g in graphs.items()}
        counts = Counter(self._keys.values())
        self._shared = {key for key, n in counts.items() if n > 1}

    def _get(self, kind: str, entry: MoleculeEntry, compute):
        key = (kind, entry.smiles)
        if key not in self._memo:
            self._memo[key] = compute(entry.graph)
        return self._memo[key]

    def identity(self, entry: MoleculeEntry) -> tuple:
        """Equal for two entries of the call exactly when their canonical
        forms are: ``(key, text)`` for a text alone with its key, else
        ``(key, canonical form)``."""
        key = self._keys[entry.smiles]
        if key in self._shared:
            return key, self._get("canonical", entry, canonicalize)
        return key, entry.smiles

    def fingerprint(self, entry: MoleculeEntry) -> Fingerprint:
        return self._get("fingerprint", entry, fingerprint)

    def valid(self, entry: MoleculeEntry) -> bool:
        return self._get("valid", entry, is_valid)


# ---------------------------------------------------------------------------
# Reaction matching
# ---------------------------------------------------------------------------


def _normalized_text(text: str) -> str:
    return " ".join(text.lower().split())


def _reaction_key(record: ReactionRecord, mode: str, molecules: _Molecules):
    def identities(entries):
        return tuple(sorted(molecules.identity(e) for e in entries))

    key = (identities(record.reactants), identities(record.products))
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
    """One-to-one pairing of equal reactions; ``"soft"`` ignores conditions,
    ``"hard"`` compares them."""
    # Only equal keys can pair, so a maximum matching pairs min(#pred,
    # #gold) records per key; each prediction takes the first unpaired
    # gold record with its key.
    unpaired: dict[tuple, deque[int]] = {}
    for j, record in enumerate(gold):
        key = _reaction_key(record, mode, molecules)
        unpaired.setdefault(key, deque()).append(j)
    pairing = []
    for i, record in enumerate(pred):
        golds = unpaired.get(_reaction_key(record, mode, molecules))
        if golds:
            pairing.append((i, golds.popleft()))
    return MatchCounts(len(pairing), len(pred), len(gold)), pairing


def prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    """Precision, recall, F1 from counts; zero-denominator cases give 0."""
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    return _with_f1(precision, recall)


def _with_f1(precision: float, recall: float) -> tuple[float, float, float]:
    """``precision``, ``recall`` and their harmonic mean (0 when both are 0)."""
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Molecule-level similarity
# ---------------------------------------------------------------------------


def _similarity(
    pred_fps: Sequence[Fingerprint], gold_fps: Sequence[Fingerprint]
) -> tuple[float, float]:
    """Greedy gold-to-prediction pairing; returns (avg Tanimoto, Tani@1.0).

    Each gold molecule takes the most similar unused prediction; gold
    left without a partner scores 0. Tani@1.0 counts pairs whose
    fingerprints are identical.
    """
    if not gold_fps:
        return 0.0, 0.0
    used: set[int] = set()
    total = 0.0
    exact = 0
    for gfp in gold_fps:
        best_idx = None
        best_sim = -1.0
        for i, pfp in enumerate(pred_fps):
            if i in used:
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


def _record_molecules(records: Sequence[ReactionRecord]) -> list[MoleculeEntry]:
    return [e for r in records for e in r.reactants + r.products]


def _valid_rate(
    pred: Sequence[ReactionRecord],
    gold: Sequence[ReactionRecord],
    molecules: _Molecules,
) -> tuple[float, float, float]:
    pred_entries = _record_molecules(pred)
    n_gold = len(_record_molecules(gold))
    n_valid = sum(1 for e in pred_entries if molecules.valid(e))
    precision = n_valid / len(pred_entries) if pred_entries else 0.0
    if n_gold:
        recall = min(1.0, n_valid / n_gold)
    else:
        recall = 1.0 if n_valid else 0.0
    return _with_f1(precision, recall)


def evaluate(
    pred: Sequence[ReactionRecord], gold: Sequence[ReactionRecord]
) -> dict:
    """Full report: soft/hard PRF, similarity, validity.

    Placeholder-bearing template molecules are excluded from the
    similarity section (fingerprints are undefined for them) but still
    participate in reaction matching. Every section reads the graphs the
    records hold, so the call parses nothing. Reactions match on their
    molecules' canonical forms, but a molecule is canonicalized only when
    another distinct text of the call shares its identity key; every other
    text can equal no other and is compared as itself.
    """
    molecules = _Molecules(_record_molecules(pred) + _record_molecules(gold))
    report: dict = {}
    for mode in ("soft", "hard"):
        counts, _ = _match(pred, gold, mode, molecules)
        p, r, f1 = prf(counts.correct, counts.predicted, counts.gold)
        report[mode] = {
            "precision": p,
            "recall": r,
            "f1": f1,
            "correct": counts.correct,
            "predicted": counts.predicted,
            "gold": counts.gold,
        }

    def fingerprints(records):
        return [
            molecules.fingerprint(e)
            for e in _record_molecules(records)
            if not e.graph.placeholder_indices()
        ]

    avg_tani, tani_at_1 = _similarity(fingerprints(pred), fingerprints(gold))
    report["avg_tanimoto"] = avg_tani
    report["tani_at_1"] = tani_at_1
    vp, vr, vf = _valid_rate(pred, gold, molecules)
    report["valid_rate"] = {"precision": vp, "recall": vr, "f1": vf}
    return report
