"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: exhaustive enumeration and numpy
linear algebra instead of the pruned algorithms in the package. Slow but
obviously correct, which is the point.
"""

from dataclasses import replace
from itertools import permutations
from typing import Optional
import random
import re

import numpy as np

from rxnscope import chemops, metrics, smiles
from rxnscope.molgraph import (
    AROMATIC_SYMBOLS,
    ELEMENTS,
    PLAIN_ATOMS,
    AtomToken,
    Bond,
    Fragment,
    GraphError,
    MolecularGraph,
    atom_token_from_symbol,
    connected_components,
    is_placeholder_label,
    permutation_parity,
    renumber_chiral,
    subgraph,
)
from rxnscope.smiles import _atom_bracket, _bond_text, _emittable_directions
from rxnscope.substructure import MatchError, find_matches


# --- exhaustive subgraph matching -----------------------------------------

def _atom_ok(patom: AtomToken, tatom: AtomToken) -> bool:
    if patom.kind in ("placeholder", "wildcard"):
        return True
    if patom.kind != tatom.kind or patom.text != tatom.text:
        return False
    if patom.kind == "element":
        return patom.charge == tatom.charge and patom.aromatic == tatom.aromatic
    return True


def _bond_ok(pattern: MolecularGraph, pbond: Bond, tbond: Bond) -> bool:
    if pbond.order == tbond.order:
        return True
    ends = (pattern.atoms[pbond.a].kind, pattern.atoms[pbond.b].kind)
    lenient = any(k in ("placeholder", "wildcard") for k in ends)
    return lenient and {pbond.order, tbond.order} == {"single", "aromatic"}


def brute_force_matches(
    pattern: MolecularGraph, target: MolecularGraph
) -> list[dict[int, int]]:
    """Every injective mapping, found by trying all target permutations."""
    n = len(pattern.atoms)
    out = []
    for combo in permutations(range(len(target.atoms)), n):
        if not all(_atom_ok(pattern.atoms[p], target.atoms[t]) for p, t in enumerate(combo)):
            continue
        ok = True
        for pbond in pattern.bonds:
            tbond = target.bond_between(combo[pbond.a], combo[pbond.b])
            if tbond is None or not _bond_ok(pattern, pbond, tbond):
                ok = False
                break
        if ok:
            out.append({p: t for p, t in enumerate(combo)})
    return out


def verify_mapping(
    pattern: MolecularGraph, target: MolecularGraph, mapping: dict[int, int]
) -> bool:
    """Re-check one mapping atom by atom and bond by bond."""
    if len(mapping) != len(pattern.atoms) or len(set(mapping.values())) != len(mapping):
        return False
    if not all(_atom_ok(pattern.atoms[p], target.atoms[t]) for p, t in mapping.items()):
        return False
    for pbond in pattern.bonds:
        tbond = target.bond_between(mapping[pbond.a], mapping[pbond.b])
        if tbond is None or not _bond_ok(pattern, pbond, tbond):
            return False
    return True


def reference_scaffold_align(
    template: MolecularGraph, variant: MolecularGraph
) -> tuple[dict[int, int], dict[int, list[int]], int]:
    """``scaffold_align`` by scoring every embedding ``find_matches`` returns.

    Returns the chosen mapping, its fragments and the number of ambiguity
    warnings the alignment logs (0 or 1). Raises ``MatchError`` where
    ``scaffold_align`` must.
    """
    placeholders = template.placeholder_indices()
    matches = find_matches(template, variant) if placeholders else []
    if not matches:
        raise MatchError("no placeholder or no embedding")

    def fragments(m):
        scaffold = {t for p, t in m.items() if template.atoms[p].kind != "placeholder"}
        out = {}
        for p in placeholders:
            seen = {m[p]}
            frontier = [m[p]]
            while frontier:
                for mate in variant.neighbors(frontier.pop()):
                    if mate not in scaffold and mate not in seen:
                        seen.add(mate)
                        frontier.append(mate)
            out[p] = sorted(seen)
        return out, scaffold

    def score(m):
        frags, covered = fragments(m)
        for atoms in frags.values():
            covered |= set(atoms)
        aromatic = sum(
            template.atoms[p].label.startswith("Ar") and variant.atoms[m[p]].aromatic
            for p in placeholders
        )
        return len(covered), aromatic

    scores = [score(m) for m in matches]
    contenders = [m for m, s in zip(matches, scores) if s == max(scores)]
    placements = {tuple(m[p] for p in placeholders) for m in contenders}
    mapping = contenders[0]
    frags, _ = fragments(mapping)
    claimed = [t for atoms in frags.values() for t in atoms]
    if len(claimed) != len(set(claimed)):
        raise MatchError("substituent regions overlap")
    return mapping, frags, int(len(placements) > 1)


# --- exhaustive canonical search ------------------------------------------

def _dense(keys: list) -> list[int]:
    lookup = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [lookup[k] for k in keys]


def fixpoint_ranks(g: MolecularGraph, seed: list) -> list[int]:
    """Re-rank every atom by (rank, sorted neighbour (order, rank) pairs)
    until no cell splits."""
    adj = g.adjacency()
    ranks = _dense(seed)
    while True:
        keys = [
            (ranks[i], tuple(sorted((smiles._ORDER_RANK[b.order], ranks[m]) for m, b in adj[i])))
            for i in range(len(g.atoms))
        ]
        new_ranks = _dense(keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def _smallest_leaf(g: MolecularGraph, ranks: list[int]) -> str:
    """The smallest string over every leaf of the individualize-and-refine
    tree below ``ranks``: no pruning, no budget."""
    cells: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = [r for r, members in cells.items() if len(members) > 1]
    if not tied:
        return smiles.write_smiles(smiles._assign_directions(g, ranks), ranks=ranks)
    return min(
        _smallest_leaf(g, fixpoint_ranks(g, [(r, 0 if i == v else 1) for i, r in enumerate(ranks)]))
        for v in cells[min(tied)]
    )


def exhaustive_canonical(s: str | MolecularGraph) -> str:
    """``canonicalize`` by the exhaustive search: the smallest string any
    leaf writes, per component, components sorted."""
    g = s if isinstance(s, MolecularGraph) else smiles.parse_smiles(s)
    g = smiles._fold_explicit_hydrogens(g)
    pieces = []
    for comp in connected_components(g):
        sub = subgraph(g, comp)
        pieces.append(_smallest_leaf(sub, fixpoint_ranks(sub, smiles._initial_keys(sub))))
    return ".".join(sorted(pieces))


# --- brute-force path fingerprint -----------------------------------------

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a(data: bytes, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a, one byte at a time."""
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) % 2**64
    return h


def reference_fingerprint(g: MolecularGraph, width: int = 2048, max_bonds: int = 7) -> int:
    """The fingerprint bits from every simple path of 0..``max_bonds`` bonds.

    Each path is found by brute force from each of its ends; both full
    texts are built, and the smaller one, hashed from the FNV offset, sets
    one bit.
    """
    def descriptor(i: int) -> str:
        atom = g.atoms[i]
        return f"{atom.text}|{atom.charge}|{int(atom.aromatic)}"

    def text(path: list[int]) -> str:
        parts = [descriptor(path[0])]
        for a, b in zip(path, path[1:]):
            parts += [g.bond_between(a, b).order, descriptor(b)]
        return ".".join(parts)

    neighbours = {i: set() for i in range(len(g.atoms))}
    for bond in g.bonds:
        neighbours[bond.a].add(bond.b)
        neighbours[bond.b].add(bond.a)
    paths = []
    stack = [[i] for i in range(len(g.atoms))]
    while stack:
        path = stack.pop()
        paths.append(path)
        if len(path) <= max_bonds:
            stack.extend(path + [m] for m in neighbours[path[-1]] if m not in path)
    bits = 0
    for path in paths:
        smaller = min(text(path), text(path[::-1]))
        bits |= 1 << (fnv1a(smaller.encode()) % width)
    return bits


# --- evaluate with every molecule canonicalized ----------------------------

def reference_evaluate(pred, gold) -> dict:
    """The ``evaluate`` report with every molecule canonicalized.

    Reactions pair one to one on their sorted canonical reactant and
    product forms (hard mode adds the sorted roles and whitespace-folded,
    lower-cased condition texts); each prediction takes the first unpaired
    gold record with its key. Similarity scores the placeholder-free
    fingerprints with ``metrics._similarity``; validity counts
    ``is_valid`` over the predicted molecules.
    """

    def molecules(records):
        return [e for r in records for e in r.reactants + r.products]

    def key(record, mode):
        def canon(entries):
            return tuple(sorted(smiles.canonicalize(e.graph) for e in entries))

        k = (canon(record.reactants), canon(record.products))
        if mode == "hard":
            k += (tuple(sorted((c.role, " ".join(c.text.lower().split())) for c in record.conditions)),)
        return k

    report: dict = {}
    for mode in ("soft", "hard"):
        unpaired: dict = {}
        for j, record in enumerate(gold):
            unpaired.setdefault(key(record, mode), []).append(j)
        correct = 0
        for record in pred:
            golds = unpaired.get(key(record, mode))
            if golds:
                golds.pop(0)
                correct += 1
        p, r, f1 = metrics.prf(correct, len(pred), len(gold))
        report[mode] = {
            "precision": p, "recall": r, "f1": f1,
            "correct": correct, "predicted": len(pred), "gold": len(gold),
        }

    def fingerprints(records):
        return [metrics.fingerprint(e.graph) for e in molecules(records) if not e.graph.placeholder_indices()]

    report["avg_tanimoto"], report["tani_at_1"] = metrics._similarity(fingerprints(pred), fingerprints(gold))
    n_pred, n_gold = len(molecules(pred)), len(molecules(gold))
    n_valid = sum(smiles.is_valid(e.graph) for e in molecules(pred))
    precision = n_valid / n_pred if n_pred else 0.0
    recall = min(1.0, n_valid / n_gold) if n_gold else (1.0 if n_valid else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    report["valid_rate"] = {"precision": precision, "recall": recall, "f1": f1}
    return report


# --- wedge perception via numpy --------------------------------------------

def numpy_wedge_tag(g: MolecularGraph, center: int) -> str | None:
    """Signed-volume tag for one wedge-bearing center.

    Same z-lift convention as the package (solid raises the wide end,
    dashed lowers it; implicit-H slot sits opposite the neighbor mean)
    but the determinant comes from numpy rather than a hand-rolled 3x3.
    """
    mates = sorted(g.neighbors(center))
    if not 3 <= len(mates) <= 4:
        return None
    cx, cy = g.atoms[center].coords
    pts = []
    for m in mates:
        bond = g.bond_between(center, m)
        z = {"solid": 1.0, "dashed": -1.0, "none": 0.0}[bond.wedge]
        if bond.wedge != "none" and bond.a != center:
            z = 0.0  # narrow end elsewhere: not a wedge at this center
        x, y = g.atoms[m].coords
        pts.append([x - cx, y - cy, z])
    if len(pts) == 3:
        pts.append(list(-np.mean(pts, axis=0)))
    pts = np.asarray(pts)
    vol = np.linalg.det(pts[1:] - pts[0])
    if abs(vol) < 1e-9:
        return None
    return "@" if vol < 0 else "@@"


# --- SMILES writer -----------------------------------------------------------

ORGANIC_SUBSET = frozenset(("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"))
ORGANIC_AROMATIC = frozenset(("b", "c", "n", "o", "p", "s"))


def _atom_text(atom: AtomToken, tag: Optional[str]) -> str:
    if atom.kind == "placeholder":
        return atom.text
    if atom.kind == "abbreviation":
        return f"[{atom.text}]"
    if atom.kind == "wildcard":
        return "*" if atom.charge == 0 and atom.isotope is None else _atom_bracket(atom, None)
    need_bracket = (
        tag is not None
        or atom.charge != 0
        or atom.isotope is not None
        or atom.explicit_h is not None
        or atom.text == "H"
        or atom.text not in ORGANIC_SUBSET
        or (atom.aromatic and atom.text.lower() not in ORGANIC_AROMATIC)
    )
    if not need_bracket:
        return atom.text.lower() if atom.aromatic else atom.text
    return _atom_bracket(atom, tag)


def reference_write_smiles(
    g: MolecularGraph,
    ranks: Optional[list[int]] = None,
    emitted: Optional[list[int]] = None,
) -> str:
    """``write_smiles`` as it was before its one-walk rewrite, kept verbatim:
    components found and sorted first, and ring closures keyed by a
    ``frozenset`` per visited edge. Digits past 99 come out as ``%100``."""
    if not g.atoms:
        raise GraphError("cannot write an empty graph")
    order = ranks if ranks is not None else list(range(len(g.atoms)))
    adj = [sorted(mates, key=lambda pair: order[pair[0]]) for mates in g.adjacency()]
    emit_dirs = _emittable_directions(g)

    visited: set[int] = set()
    ring_partner_at: dict[int, list[tuple[int, Bond]]] = {}

    # First pass: find spanning-tree structure and ring-closure bonds per
    # component in deterministic traversal order.
    components = connected_components(g)
    components.sort(key=lambda comp: min(order[i] for i in comp))
    tree_children: list[list[tuple[int, Bond]]] = [[] for _ in g.atoms]
    ring_bonds: list[Bond] = []
    ring_pairs: set[frozenset[int]] = set()
    roots: list[int] = []
    for comp in components:
        root = min(comp, key=lambda i: order[i])
        roots.append(root)
        visited.add(root)
        parent: dict[int, int] = {}
        # Iterative DFS honoring neighbor order.
        stack = [(root, iter(adj[root]))]
        while stack:
            cur, it = stack[-1]
            advanced = False
            for mate, bond in it:
                if mate not in visited:
                    visited.add(mate)
                    parent[mate] = cur
                    tree_children[cur].append((mate, bond))
                    stack.append((mate, iter(adj[mate])))
                    advanced = True
                    break
                else:
                    key = frozenset((cur, mate))
                    if parent.get(cur) == mate or parent.get(mate) == cur:
                        continue
                    if key not in ring_pairs:
                        ring_pairs.add(key)
                        ring_bonds.append(bond)
            if not advanced:
                stack.pop()

    for bond in ring_bonds:
        ring_partner_at.setdefault(bond.a, []).append((bond.b, bond))
        ring_partner_at.setdefault(bond.b, []).append((bond.a, bond))

    # Second pass: emit text, depth first from each root. The stack holds
    # atoms still to write, as (atom, atom it is reached from), and the
    # literal text that goes between them.
    open_digits: dict[frozenset[int], int] = {}
    free_digits: list[int] = []
    next_digit = 1
    out: list[str] = []
    for root in roots:
        if out:
            out.append(".")
        stack: list = [(root, None)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            cur, from_atom = item
            if emitted is not None:
                emitted.append(cur)
            closures = sorted(ring_partner_at.get(cur, []), key=lambda c: order[c[0]])
            out_slots: list[int] = []
            if from_atom is not None:
                out_slots.append(from_atom)
            atom = g.atoms[cur]
            if atom.kind == "element" and atom.explicit_h == 1:
                out_slots.append(-1)
            closure_parts: list[str] = []
            for mate, bond in closures:
                key = frozenset((cur, mate))
                if key in open_digits:
                    digit = open_digits.pop(key)
                    free_digits.append(digit)
                else:
                    # The lowest digit free again, else a new one.
                    digit = min(free_digits, default=next_digit)
                    if free_digits:
                        free_digits.remove(digit)
                    else:
                        next_digit += 1
                    open_digits[key] = digit
                mark = _bond_text(g, bond, cur, emit_dirs)
                closure_parts.append(mark + (str(digit) if digit < 10 else f"%{digit:02d}"))
                out_slots.append(mate)
            children = tree_children[cur]
            for mate, bond in children:
                out_slots.append(mate)
            tag = None
            if atom.chiral is not None and atom.chiral_order is not None:
                if sorted(out_slots) == sorted(atom.chiral_order):
                    parity = permutation_parity(atom.chiral_order, out_slots)
                    tag = atom.chiral if parity == 0 else ("@@" if atom.chiral == "@" else "@")
            out.append(_atom_text(atom, tag))
            out.extend(closure_parts)
            # Every child but the last goes in a branch; pushed in reverse
            # so the first child is written first.
            last = len(children) - 1
            for i in range(last, -1, -1):
                mate, bond = children[i]
                bond_str = _bond_text(g, bond, cur, emit_dirs)
                if i == last:
                    stack += [(mate, cur), bond_str]
                else:
                    stack += [")", (mate, cur), "(" + bond_str]
    return "".join(out)


def read_back(g: MolecularGraph) -> MolecularGraph:
    """The graph the text ``write_smiles`` writes for ``g`` parses to."""
    return smiles.parse_smiles(smiles.write_smiles(g))


# --- renumbering -------------------------------------------------------------

def renumbered(g: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """The same molecule with atom ``perm[i]`` of ``g`` as its atom ``i``.

    Bonds are remapped with their orientation kept, and chiral neighbour
    orders follow their atoms. ``subgraph(g, perm)`` is no substitute: it
    sorts the indices, so it renumbers nothing.
    """
    new_index = {old: new for new, old in enumerate(perm)}
    atoms = tuple(renumber_chiral(g.atoms[old], new_index.__getitem__) for old in perm)
    bonds = tuple(replace(b, a=new_index[b.a], b=new_index[b.b]) for b in g.bonds)
    return MolecularGraph(atoms=atoms, bonds=bonds)


# --- random structure generators -------------------------------------------

def random_molecular_graph(rng: random.Random, max_atoms: int = 10) -> MolecularGraph:
    """Connected random graph over C/N/O with single/double bonds."""
    n = rng.randint(2, max_atoms)
    atoms = [
        AtomToken(kind="element", text=rng.choice(["C", "C", "C", "N", "O"]))
        for _ in range(n)
    ]
    bonds = []
    for i in range(1, n):
        j = rng.randrange(i)
        bonds.append(Bond(a=j, b=i, order=rng.choice(["single", "single", "double"])))
    have = {frozenset((b.a, b.b)) for b in bonds}
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(range(n), 2)
        key = frozenset((i, j))
        if key not in have:
            have.add(key)
            bonds.append(Bond(a=min(i, j), b=max(i, j), order="single"))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


# Atoms for fingerprint fuzzing: plain, aromatic, charged and bracket atoms,
# plus the non-element kinds a fingerprint accepts, some with non-ASCII text:
# a step table indexed by the low 7 bits alone agrees with FNV-1a on ASCII
# text, so only non-ASCII bytes check bit 7 of the index.
_FP_ATOM_SYMBOLS = ["C", "C", "N", "O", "S", "Cl", "Br", "P", "c", "c", "n", "o", "s", "*", "Ts", "Ph′", "µ-Cl"]
_FP_BRACKET_ATOMS = ["[13CH3-]", "[NH4+]", "[O-]", "[N+]", "[Fe+2]", "[2H]", "[S+]", "[Cl+9]", "[C-12]"]
_FP_BOND_ORDERS = ["single", "single", "double", "triple", "aromatic"]


def random_fingerprint_graph(rng: random.Random, max_atoms: int = 14) -> MolecularGraph:
    """Random graph of up to two components with charged, aromatic and
    bracket atoms and every bond order; fingerprints need no valences."""
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            atoms.append(smiles.parse_smiles(rng.choice(_FP_BRACKET_ATOMS)).atoms[0])
        elif roll < 0.4:
            symbol = rng.choice(["C", "N", "O", "c", "n"])
            atoms.append(atom_token_from_symbol(symbol, charge=rng.randint(-3, 3)))
        else:
            atoms.append(atom_token_from_symbol(rng.choice(_FP_ATOM_SYMBOLS)))
    split = rng.randint(1, n) if rng.random() < 0.2 else n
    bonds = []
    have = set()
    for i in range(1, n):
        if i == split:
            continue
        j = rng.randrange(split if i > split else 0, i)
        have.add(frozenset((i, j)))
        bonds.append(Bond(a=j, b=i, order=rng.choice(_FP_BOND_ORDERS)))
    for _ in range(rng.randint(0, 3) if n > 2 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        if frozenset((i, j)) not in have:
            have.add(frozenset((i, j)))
            bonds.append(Bond(a=i, b=j, order=rng.choice(_FP_BOND_ORDERS)))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def random_pattern(rng: random.Random, max_atoms: int = 4) -> MolecularGraph:
    """Small connected pattern, sometimes carrying a placeholder."""
    g = random_molecular_graph(rng, max_atoms)
    atoms = list(g.atoms)
    if rng.random() < 0.4:
        slot = rng.randrange(len(atoms))
        atoms[slot] = AtomToken(kind="placeholder", text=f"[R{rng.randint(1, 3)}]")
    return MolecularGraph(atoms=tuple(atoms), bonds=g.bonds)


def random_wedge_drawing(rng: random.Random) -> tuple[MolecularGraph, int]:
    """One stereocenter with 3 or 4 drawn neighbors and a single wedge."""
    k = rng.choice([3, 4])
    symbols = rng.sample(["F", "Cl", "Br", "N", "O", "C"], k)
    angles = sorted(rng.uniform(0, 2 * np.pi) for _ in range(k))
    # Collapsed neighbors make the signed volume degenerate; space them out.
    while min(
        (b - a) for a, b in zip(angles, angles[1:] + [angles[0] + 2 * np.pi])
    ) < 0.3:
        angles = sorted(rng.uniform(0, 2 * np.pi) for _ in range(k))
    atoms = [AtomToken(kind="element", text="C", coords=(0.0, 0.0))]
    bonds = []
    wedge_slot = rng.randrange(k)
    for i, (sym, theta) in enumerate(zip(symbols, angles)):
        r = rng.uniform(0.8, 1.4)
        atoms.append(
            AtomToken(kind="element", text=sym, coords=(r * np.cos(theta), r * np.sin(theta)))
        )
        wedge = rng.choice(["solid", "dashed"]) if i == wedge_slot else "none"
        bonds.append(Bond(a=0, b=i + 1, order="single", wedge=wedge))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds)), 0


def mirror_drawing(g: MolecularGraph) -> MolecularGraph:
    """Flip y and swap wedge senses: same 3D object, so tags must hold."""
    atoms = tuple(
        AtomToken(
            kind=a.kind,
            text=a.text,
            charge=a.charge,
            explicit_h=a.explicit_h,
            isotope=a.isotope,
            coords=(a.coords[0], -a.coords[1]) if a.coords else None,
            aromatic=a.aromatic,
        )
        for a in g.atoms
    )
    swap = {"solid": "dashed", "dashed": "solid", "none": "none"}
    bonds = tuple(
        Bond(a=b.a, b=b.b, order=b.order, wedge=swap[b.wedge], direction=b.direction)
        for b in g.bonds
    )
    return MolecularGraph(atoms=atoms, bonds=bonds)


def flip_wedges(g: MolecularGraph) -> MolecularGraph:
    """Swap wedge senses only: inverts the center."""
    swap = {"solid": "dashed", "dashed": "solid", "none": "none"}
    bonds = tuple(
        Bond(a=b.a, b=b.b, order=b.order, wedge=swap[b.wedge], direction=b.direction)
        for b in g.bonds
    )
    return MolecularGraph(atoms=g.atoms, bonds=bonds)


def random_polyene_drawing(rng: random.Random) -> MolecularGraph:
    """Acyclic 2D chain with scattered double bonds and side branches, bonds
    listed in random order; every atom has coordinates, and every other
    drawing carries a few preset cis/trans marks."""
    n = rng.randint(4, 10)
    coords = [(i + rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 1.0)) for i in range(n)]
    bonds = []
    last_double = False
    for i in range(1, n):
        last_double = not last_double and rng.random() < 0.8
        bonds.append((i - 1, i, "double" if last_double else "single"))
    for i in range(n):
        if rng.random() < 0.3:
            x, y = coords[i]
            coords.append((x + rng.uniform(-1.0, 1.0), y + rng.uniform(-1.5, 1.5)))
            bonds.append((i, len(coords) - 1, "single"))
    atoms = tuple(AtomToken(kind="element", text="C", coords=c) for c in coords)
    mark_rate = rng.choice([0.0, 0.2])
    rng.shuffle(bonds)
    drawn = []
    for a, b, order in bonds:
        direction = None
        if order == "single" and rng.random() < mark_rate:
            direction = rng.choice(["up", "down"])
        if rng.random() < 0.5:
            a, b = b, a
        drawn.append(Bond(a=a, b=b, order=order, direction=direction))
    return MolecularGraph(atoms=atoms, bonds=tuple(drawn))


def double_bond_geometry(g: MolecularGraph) -> list[tuple[int, int, int, int, bool]]:
    """``(end1, ref1, end2, ref2, same_side)`` per double bond of an acyclic
    drawing whose ends both have a single-bonded reference neighbour (the
    lowest-numbered one) off the double-bond line."""
    facts = []
    for bond in g.bonds:
        if bond.order != "double":
            continue
        refs = []
        for end in (bond.a, bond.b):
            mates = sorted(
                b.b if b.a == end else b.a
                for b in g.bonds
                if end in (b.a, b.b) and b.order == "single"
            )
            if not mates:
                break
            refs.append(mates[0])
        if len(refs) < 2:
            continue
        tail = np.array(g.atoms[bond.a].coords)
        line = np.array(g.atoms[bond.b].coords) - tail
        sides = [
            np.linalg.det(np.array([line, np.array(g.atoms[r].coords) - tail])) for r in refs
        ]
        if min(abs(s) for s in sides) < 1e-9:
            continue
        facts.append((bond.a, refs[0], bond.b, refs[1], bool((sides[0] > 0) == (sides[1] > 0))))
    return facts


# --- aromaticity perception ------------------------------------------------

def reference_perceive_aromaticity(g: MolecularGraph) -> MolecularGraph:
    """Upgrade qualifying Kekulé 6-rings to aromatic form, walking every
    simple 6-atom path from every atom.

    A ring qualifies when all six atoms are C/N/O/S elements and the ring
    bonds alternate single/double (or are already all aromatic).  All rings
    are judged against the original bond orders, then upgraded at once.
    Only atoms and bonds not yet in aromatic form are replaced, and ``g``
    itself comes back when there are none, as for every ring the writer
    emits.
    """
    adj = g.adjacency()
    rings: dict[frozenset[int], list[int]] = {}

    def extend(path: list[int]) -> None:
        last = path[-1]
        if len(path) == 6:
            key = frozenset(path)
            if key not in rings and path[0] in (mate for mate, _ in adj[last]):
                rings[key] = [g.bond_index(path[k], path[(k + 1) % 6]) for k in range(6)]
            return
        for mate, _ in adj[last]:
            if mate in path or mate < path[0]:
                continue
            extend(path + [mate])

    for start in range(len(g.atoms)):
        extend([start])

    upgrade_atoms: set[int] = set()
    upgrade_bonds: set[int] = set()
    for members, walk_bonds in rings.items():
        if not all(
            g.atoms[i].kind == "element" and g.atoms[i].text in ("C", "N", "O", "S")
            for i in members
        ):
            continue
        orders = [g.bonds[b].order for b in walk_bonds]
        if all(o == "aromatic" for o in orders):
            qualified = True
        else:
            qualified = all(
                {orders[i], orders[(i + 1) % 6]} == {"single", "double"} for i in range(6)
            )
        if qualified:
            upgrade_atoms.update(i for i in members if not g.atoms[i].aromatic)
            upgrade_bonds.update(
                b for b in walk_bonds
                if g.bonds[b].order != "aromatic" or g.bonds[b].direction is not None
            )

    if not upgrade_atoms and not upgrade_bonds:
        return g
    atoms = [replace(a, aromatic=True) if i in upgrade_atoms else a for i, a in enumerate(g.atoms)]
    bonds = [
        replace(b, order="aromatic", direction=None) if i in upgrade_bonds else b
        for i, b in enumerate(g.bonds)
    ]
    return replace(g, atoms=tuple(atoms), bonds=tuple(bonds))



def unperceived_graph(text: str) -> MolecularGraph:
    """The graph of a SMILES text as written, before aromaticity perception."""
    stripped = text.rstrip()
    return smiles._Parser(stripped, len(stripped) - len(stripped.lstrip())).parse()


def random_ring_graph(rng: random.Random, max_rings: int = 3) -> MolecularGraph:
    """Rings, mostly of six atoms, planted Kekulé, aromatic or mixed, with chains.

    A ring may share a bond with an earlier ring (a fused system) or hang
    off one. An aromatic ring leaves some atoms unflagged, as ``C1:C:...``
    does; some single and aromatic bonds carry direction marks; a few
    atoms are P, Cl or placeholders; a chord sometimes gives one atom set
    two 6-cycles.
    """
    atoms: list[AtomToken] = []
    bonds: dict[frozenset, Bond] = {}

    def add_atom() -> int:
        roll = rng.random()
        if roll < 0.9:
            atoms.append(AtomToken(kind="element", text=rng.choice("CCCCNOS")))
        elif roll < 0.96:
            atoms.append(AtomToken(kind="element", text=rng.choice(["P", "Cl"])))
        else:
            atoms.append(AtomToken(kind="placeholder", text="[R1]"))
        return len(atoms) - 1

    def add_bond(i: int, j: int, order: str) -> None:
        if i != j and frozenset((i, j)) not in bonds:
            marked = order in ("single", "aromatic") and rng.random() < 0.08
            direction = rng.choice(["up", "down"]) if marked else None
            bonds[frozenset((i, j))] = Bond(a=i, b=j, order=order, direction=direction)

    rings: list[list[int]] = []
    for _ in range(rng.randint(1, max_rings)):
        size = rng.choice([6, 6, 6, 6, 5, 7])
        if rings and rng.random() < 0.6:
            prev = rng.choice(rings)
            k = rng.randrange(len(prev))
            members = [prev[(k + 1) % len(prev)], prev[k]] + [add_atom() for _ in range(size - 2)]
        else:
            members = [add_atom() for _ in range(size)]
            if rings:
                add_bond(rng.choice(rng.choice(rings)), members[0], "single")
        style = rng.choice(["kekule", "kekule", "aromatic", "aromatic", "mixed"])
        phase = rng.randrange(2)
        for k in range(size):
            if style == "kekule":
                order = "double" if (k + phase) % 2 else "single"
            elif style == "aromatic":
                order = "aromatic"
            else:
                order = rng.choice(["single", "double", "aromatic", "triple"])
            add_bond(members[k], members[(k + 1) % size], order)
        if style == "aromatic":
            for i in members:
                if atoms[i].kind == "element" and rng.random() < 0.85:
                    atoms[i] = replace(atoms[i], aromatic=True)
        rings.append(members)
    for _ in range(rng.randint(0, 3)):
        add_bond(rng.randrange(len(atoms)), add_atom(), rng.choice(["single", "double", "aromatic"]))
    if rng.random() < 0.25:
        i, j = rng.sample(range(len(atoms)), 2)
        add_bond(i, j, rng.choice(["single", "double", "aromatic"]))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds.values()))


# --- molecule-text readings, each rule stated where it is used ------------
# Each reader below states its element, aromatic, placeholder and
# abbreviation choice (or its substituted-phenyl grammar) on its own; the
# package reads all of them through one rule each. The regular
# expressions here backtrack in quadratic time on long runs, so only short
# texts go through them.

TEMP_VALUE_TWO_BLANK_RUNS = re.compile(r"(^|[\s(])-?\d+(\.\d+)?\s*°?\s*[CK]\b")

_BRACKET_CHIRAL = re.compile(r"^([A-Z][a-z]?|[a-z]{1,2})(@{1,2})?$")


def reference_atom_token_from_symbol(
    symbol: str,
    charge: int = 0,
    explicit_h: Optional[int] = None,
    isotope: Optional[int] = None,
    coords: Optional[tuple[float, float]] = None,
) -> AtomToken:
    """The atom a drawing symbol reads as, bracketed and bare symbols apart."""
    text = symbol.strip()
    if text in PLAIN_ATOMS and charge == 0 and explicit_h is None and isotope is None and coords is None:
        return PLAIN_ATOMS[text]
    base = dict(charge=charge, explicit_h=explicit_h, isotope=isotope, coords=coords)
    if not text:
        raise GraphError("empty atom symbol")
    if text == "*":
        return AtomToken(kind="wildcard", text="*", **base)
    inner = text[1:-1] if text.startswith("[") and text.endswith("]") else None
    if inner is not None:
        if is_placeholder_label(inner):
            return AtomToken(kind="placeholder", text=f"[{inner}]", **base)
        m = _BRACKET_CHIRAL.match(inner)
        if m:
            sym, chiral = m.group(1), m.group(2)
            if sym in ELEMENTS:
                return AtomToken(kind="element", text=sym, chiral=chiral, **base)
            if sym.lower() in AROMATIC_SYMBOLS and sym.capitalize() in ELEMENTS:
                return AtomToken(
                    kind="element", text=sym.capitalize(), aromatic=True, chiral=chiral, **base
                )
        if inner == "*":
            return AtomToken(kind="wildcard", text="*", **base)
        return AtomToken(kind="abbreviation", text=inner, **base)
    if text in ELEMENTS:
        return AtomToken(kind="element", text=text, **base)
    if text in AROMATIC_SYMBOLS and text.capitalize() in ELEMENTS:
        return AtomToken(kind="element", text=text.capitalize(), aromatic=True, **base)
    if is_placeholder_label(text):
        return AtomToken(kind="placeholder", text=f"[{text}]", **base)
    return AtomToken(kind="abbreviation", text=text, **base)


def reference_bracket_token(inner: str, start: int) -> AtomToken:
    """The atom of the SMILES bracket text ``inner``, whose ``[`` is at ``start``."""
    if not inner:
        raise smiles.SmilesParseError("empty bracket atom", start)
    m = smiles._BRACKET_RE.match(inner)
    if m:
        sym = m.group("sym")
        iso = smiles._bracket_number(m, "isotope", start, 0) if m.group("isotope") else None
        if iso == 0:
            raise smiles.SmilesParseError("isotope 0", start)
        chi = m.group("chi")
        explicit_h = smiles._bracket_number(m, "hcount", start, 1) if m.group("hcount") else 0
        signs = m.group("charge")
        sign = -1 if signs and signs[0] == "-" else 1
        charge = sign * smiles._bracket_number(m, "charge", start, len(signs)) if signs else 0
        if sym == "*":
            return AtomToken(kind="wildcard", text="*", charge=charge, isotope=iso, explicit_h=None)
        if sym in ELEMENTS:
            return AtomToken(
                kind="element", text=sym, charge=charge, explicit_h=explicit_h, isotope=iso, chiral=chi
            )
        if sym in AROMATIC_SYMBOLS and sym.capitalize() in ELEMENTS:
            return AtomToken(
                kind="element",
                text=sym.capitalize(),
                charge=charge,
                explicit_h=explicit_h,
                isotope=iso,
                aromatic=True,
                chiral=chi,
            )
    if is_placeholder_label(inner):
        return AtomToken(kind="placeholder", text=f"[{inner}]")
    return AtomToken(kind="abbreviation", text=inner)


# One grammar in three patterns, tried in this order.
PHENYL_PAREN = re.compile(r"^(?P<loc>\d+(?:,\d+)*)-\((?P<grp>[^()]+)\)(?P<cnt>\d*)C6H(?P<h>\d)$")
PHENYL_PLAIN_COUNT = re.compile(
    r"^(?P<loc>\d+(?:,\d+)*)-(?P<grp>[A-Za-z][A-Za-z0-9]*?)(?P<cnt>\d*)C6H(?P<h>\d)$"
)
PHENYL_PLAIN = re.compile(r"^(?P<loc>\d+(?:,\d+)*)-(?P<grp>[A-Za-z][A-Za-z0-9]*)C6H(?P<h>\d)$")


def reference_phenyl(text: str, table: Optional[chemops.AbbreviationTable]) -> Optional[Fragment]:
    """The substituted phenyl ``text`` reads as, each pattern tried in turn."""
    for pattern in (PHENYL_PAREN, PHENYL_PLAIN_COUNT, PHENYL_PLAIN):
        m = pattern.match(text)
        if not m:
            continue
        locants = [int(x) for x in m.group("loc").split(",")]
        count = m.groupdict().get("cnt") or ""
        if count and int(count) != len(locants):
            continue
        if len(set(locants)) != len(locants) or any(not 2 <= k <= 6 for k in locants):
            continue
        if int(m.group("h")) != 6 - 1 - len(locants):
            continue
        try:
            group = chemops._group_fragment(m.group("grp"), table)
        except chemops.FormulaError:
            continue
        atoms = [AtomToken(kind="element", text="C", aromatic=True) for _ in range(6)]
        bonds = [Bond(a=i, b=(i + 1) % 6, order="aromatic") for i in range(6)]
        for k in locants:
            bonds.append(Bond(a=k - 1, b=group.graft_onto(atoms, bonds, k - 1)))
        return Fragment(graph=MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds)), attachment=0)
    return None


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)


# Pieces of atom symbols: elements, aromatic and non-element lower-case
# letters, R-group labels, abbreviations, tags and stray characters.
_SYMBOL_NAMES = [
    "C", "c", "N", "n", "Cl", "Br", "se", "Se", "as", "Te", "Xe", "B", "b", "H", "Fe", "Rh",
    "R", "R1", "R12", "Ar", "Ar2", "X", "X3", "Ts", "Ph", "Me", "Ac", "Pr", "Zz", "zz", "x",
]
_SYMBOL_PIECES = _SYMBOL_NAMES + ["*", "@", "@@", "[", "]", "+", "-", "2", "13", "H2", ":1", " ", "é", "٣"]


def random_symbol(rng: random.Random) -> str:
    """A drawing symbol: one to three pieces, sometimes in brackets."""
    text = "".join(rng.choice(_SYMBOL_PIECES) for _ in range(rng.choice([1, 1, 1, 2, 2, 3])))
    return f"[{text}]" if rng.random() < 0.5 else text


def random_bracket_inner(rng: random.Random) -> str:
    """The text of a SMILES bracket atom, mostly in the bracket grammar."""
    if rng.random() < 0.3:
        return random_symbol(rng).strip("[]").replace("]", "")
    return "".join((
        rng.choice(["", "", "", "13", "0", "2", "٣"]),
        rng.choice(_SYMBOL_NAMES + ["*", ""]),
        rng.choice(["", "", "@", "@@"]),
        rng.choice(["", "", "H", "H2", "H0"]),
        rng.choice(["", "", "+", "-", "++", "+2", "-3"]),
        rng.choice(["", "", ":1"]),
    ))


# Substituted-phenyl tokens: locants, a group in or out of parentheses, a
# count that may or may not match the locants, and the ring part.
_PHENYL_GROUPS = [
    "Me", "Cl", "Br", "F", "OMe", "CF3", "NO", "NO2", "SO2Me", "Et", "Ts", "Ph", "MeO",
    "C6H", "C6H5", "CH2CH3", "OCH3", "Q", "tBu", "OH", "N", "CN", "CO2Me", "(Me)", "a1b",
]


def random_phenyl_token(rng: random.Random) -> str:
    """Mostly with the ring's H count that the locants call for."""
    loc = rng.choice(["2", "3", "4", "2,4", "3,5", "3,4", "2,4,6", "2,2", "7", "1", "02", "٣", "2,3,4,5"])
    fits = str(4 - loc.count(","))
    group = rng.choice(_PHENYL_GROUPS)
    count = rng.choice(["", "", "1", "2", "3", "12", "٣", "2٣", str(1 + loc.count(","))])
    body = f"({group}){count}" if rng.random() < 0.3 else group + count
    ring = "C6H" + (fits if rng.random() < 0.7 else rng.choice("0123456789x٣"))
    return f"{loc}-{body}{ring}" if rng.random() < 0.95 else f"{loc}{body}{ring}"


_CONDITION_PIECES = [
    "1", "-", "20", "0.5", " ", "  ", "\t", "°", "C", "K", "x", "(", ")", "rt", "h", "°C", " K",
    "CK", "Kx", "é", "-78", ".", "_", "c",
]


def random_condition_text(rng: random.Random) -> str:
    """Mostly a number, a gap of blanks and degree signs, and a unit."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_CONDITION_PIECES) for _ in range(rng.randint(1, 8)))
    return "".join((
        rng.choice(["", " ", "(", "x", "-", "1"]),
        rng.choice(["20", "-78", "0.5", "1.", "12.5", "-", "0"]),
        rng.choice(["", " ", "  ", "°", " °", "° ", " ° ", "°°", "\t°\t", " x", "\n"]),
        rng.choice(["C", "K", "c", "CK", "Cx", "", "F", "C "]),
        rng.choice(["", " ", ",", "x", "é", " rt", "_"]),
    ))
