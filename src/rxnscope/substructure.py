"""Subgraph matching and template/variant scaffold alignment.

The matcher is a backtracking search, kept on an explicit stack, that
places pattern atoms in an order fixed once per call. As in VF2++
(Juttner & Madarasi, 2018), the order starts where the target offers
fewest choices: in each component, the inner (degree >= 2) atom that is
no joker and has the fewest target atoms of its label, ties to the
higher degree, then the lower index. Inner atoms follow breadth-first,
then terminal atoms, jokers last, so symmetric branches of a template
(swapped sulfonyl oxygens, two placeholders on one carbon) part only in
the last placements. As in VF2 (Cordella et al., 2004), an atom bonded
to one already placed takes its candidates from the neighbours of that
atom's image; an atom with none (a root) takes the target atoms of its
label, or every atom for a joker. Results are collected and sorted once,
so they come out lexicographic by mapped target tuple whatever the
placement order. Placeholder atoms in the pattern match any single
target atom; bonds touching them are order-lenient.
"""

from __future__ import annotations

import logging

from .molgraph import AtomToken, Bond, GraphError, MolecularGraph, RxnscopeError, connected_components

log = logging.getLogger(__name__)


class MatchError(RxnscopeError, ValueError):
    """Raised when an alignment that must exist cannot be found."""


def _is_joker(atom: AtomToken) -> bool:
    return atom.kind in ("placeholder", "wildcard")


def atoms_compatible(pattern_atom: AtomToken, target_atom: AtomToken) -> bool:
    if _is_joker(pattern_atom):
        return True
    if pattern_atom.kind != target_atom.kind:
        return False
    if pattern_atom.text != target_atom.text:
        return False
    if pattern_atom.kind == "element":
        if pattern_atom.charge != target_atom.charge:
            return False
        if pattern_atom.aromatic != target_atom.aromatic:
            return False
    return True


def bonds_compatible(pattern: MolecularGraph, pbond: Bond, tbond: Bond) -> bool:
    if pbond.order == tbond.order:
        return True
    lenient = _is_joker(pattern.atoms[pbond.a]) or _is_joker(pattern.atoms[pbond.b])
    return lenient and {pbond.order, tbond.order} == {"single", "aromatic"}


def _label_key(atom: AtomToken) -> tuple:
    """What ``atoms_compatible`` compares for a pattern atom that is no joker."""
    if atom.kind == "element":
        return atom.kind, atom.text, atom.charge, atom.aromatic
    return atom.kind, atom.text


def find_matches(pattern: MolecularGraph, target: MolecularGraph) -> list[dict[int, int]]:
    """All injective pattern-to-target mappings preserving atoms and bonds.

    Results are ordered by the tuple (mapping[0], mapping[1], ...). Extra
    target bonds between mapped atoms are allowed; only pattern bonds
    constrain the search. Pattern atoms are placed inner atoms first, from
    the rarest one in each component, then terminal atoms, jokers last (see
    the module docstring); every result is collected and sorted once.
    """
    if not pattern.atoms:
        raise GraphError("empty pattern")
    n = len(pattern.atoms)
    target_adj = target.adjacency()
    pattern_adj = pattern.adjacency()
    every_atom = range(len(target.atoms))
    by_label: dict[tuple, list[int]] = {}
    for t, atom in enumerate(target.atoms):
        by_label.setdefault(_label_key(atom), []).append(t)
    # The target atoms an unanchored pattern atom can take.
    pools = [
        every_atom if _is_joker(atom) else by_label.get(_label_key(atom), [])
        for atom in pattern.atoms
    ]

    def rarity(p: int) -> tuple:
        return _is_joker(pattern.atoms[p]), len(pools[p]), -len(pattern_adj[p]), p

    order: list[int] = []
    placed = [False] * n
    for comp in connected_components(pattern):
        inner = [p for p in comp if len(pattern_adj[p]) >= 2]
        root = min(inner or comp, key=rarity)
        head = len(order)
        placed[root] = True
        order.append(root)
        # Inner atoms induce a connected subgraph, so this reaches them all.
        while head < len(order):
            p = order[head]
            head += 1
            for mate in sorted(mate for mate, _ in pattern_adj[p]):
                if not placed[mate] and len(pattern_adj[mate]) >= 2:
                    placed[mate] = True
                    order.append(mate)
    terminals = [p for p in range(n) if not placed[p]]
    order += sorted(terminals, key=lambda p: (_is_joker(pattern.atoms[p]), p))

    position = {p: k for k, p in enumerate(order)}
    # Pattern bonds from each atom to atoms placed before it.
    back_edges = [
        [b for mate, b in pattern_adj[p] if position[mate] < position[p]] for p in range(n)
    ]
    # The image of p must be bonded to the image of any earlier neighbour,
    # so the first-placed one's target neighbours hold every candidate.
    anchors = [
        min((b.other(p) for b in back), key=position.__getitem__) if back else None
        for p, back in enumerate(back_edges)
    ]
    target_mates = [[mate for mate, _ in row] for row in target_adj]

    def candidates(p: int):
        anchor = anchors[p]
        return iter(pools[p] if anchor is None else target_mates[image[anchor]])

    def feasible(p: int, t: int) -> bool:
        if not atoms_compatible(pattern.atoms[p], target.atoms[t]):
            return False
        if len(pattern_adj[p]) > len(target_adj[t]):
            return False
        for pbond in back_edges[p]:
            tbond = target.bond_between(image[pbond.other(p)], t)
            if tbond is None or not bonds_compatible(pattern, pbond, tbond):
                return False
        return True

    # Depth-first search with an explicit stack of candidate iterators, one
    # per placed atom, so pattern size is not bounded by the recursion limit.
    results: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * len(target.atoms)
    pending = [candidates(order[0])]
    while pending:
        depth = len(pending) - 1
        p = order[depth]
        if image[p] >= 0:
            used[image[p]] = False
            image[p] = -1
        for t in pending[-1]:
            if not used[t] and feasible(p, t):
                break
        else:
            pending.pop()
            continue
        image[p] = t
        used[t] = True
        if depth + 1 < n:
            pending.append(candidates(order[depth + 1]))
        else:
            results.append(tuple(image))
    results.sort()
    return [dict(enumerate(r)) for r in results]


def _placeholder_aromatic_score(
    template: MolecularGraph, target: MolecularGraph, mapping: dict[int, int]
) -> int:
    score = 0
    for p, t in mapping.items():
        atom = template.atoms[p]
        if atom.kind == "placeholder" and atom.label.startswith("Ar"):
            if target.atoms[t].aromatic:
                score += 1
    return score


def _fragment_atoms(
    template: MolecularGraph,
    variant: MolecularGraph,
    mapping: dict[int, int],
    placeholders: list[int],
) -> dict[int, list[int]]:
    scaffold_atoms = {
        t for p, t in mapping.items() if template.atoms[p].kind != "placeholder"
    }
    adj = variant.adjacency()
    fragments: dict[int, list[int]] = {}
    for p in placeholders:
        root = mapping[p]
        seen = {root}
        stack = [root]
        while stack:
            cur = stack.pop()
            for mate, _ in adj[cur]:
                if mate in scaffold_atoms or mate in seen:
                    continue
                seen.add(mate)
                stack.append(mate)
        fragments[p] = sorted(seen)
    return fragments


def scaffold_align(
    template: MolecularGraph, variant: MolecularGraph
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Match a placeholder-bearing template onto a concrete variant.

    Returns the chosen mapping and, per placeholder atom, the set of
    variant atoms belonging to its substituent: everything reachable from
    the mapped atom without stepping onto a scaffold (non-placeholder
    mapped) atom. Among candidate embeddings the one whose scaffold plus
    fragments cover the most variant atoms wins (a dangling atom means
    the extraction lost material); aryl placeholders ("Ar", "Ar1", ...)
    then prefer aromatic atoms; remaining ties go to the lexicographically
    first mapping and are logged.
    """
    placeholders = template.placeholder_indices()
    if not placeholders:
        raise MatchError("template contains no placeholder atoms")
    matches = find_matches(template, variant)
    if not matches:
        raise MatchError("template does not match variant structure")

    # A score depends only on where the placeholders land and on which
    # atoms the scaffold covers, so scaffold automorphisms that agree on
    # both (a flipped tosyl ring, swapped sulfonyl oxygens) share one.
    scored: dict[tuple, tuple[int, int]] = {}

    def score(m: dict[int, int]) -> tuple[int, int]:
        # The mapping is injective, so with the placeholder images fixed its
        # image set fixes the scaffold's.
        key = (tuple(m[p] for p in placeholders), frozenset(m.values()))
        if key not in scored:
            covered = {t for p, t in m.items() if template.atoms[p].kind != "placeholder"}
            for atoms in _fragment_atoms(template, variant, m, placeholders).values():
                covered.update(atoms)
            scored[key] = len(covered), _placeholder_aromatic_score(template, variant, m)
        return scored[key]

    scores = [score(m) for m in matches]
    best = max(scores)
    contenders = [m for m, s in zip(matches, scores) if s == best]
    placeholder_images = {tuple(m[p] for p in placeholders) for m in contenders}
    if len(placeholder_images) > 1:
        # Scaffold automorphisms (a flipped tosyl ring, swapped sulfonyl
        # oxygens) produce multiple matches harmlessly; only disagreement
        # about where the placeholders land is worth reporting.
        log.warning(
            "ambiguous scaffold alignment: %d candidate placeholder placements, "
            "keeping the lexicographically first",
            len(placeholder_images),
        )
    mapping = contenders[0]
    fragments = _fragment_atoms(template, variant, mapping, placeholders)
    claimed: set[int] = set()
    for atoms in fragments.values():
        if claimed & set(atoms):
            raise MatchError(
                "template does not isolate its placeholders: substituent "
                "regions overlap"
            )
        claimed.update(atoms)
    return mapping, fragments
