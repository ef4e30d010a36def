"""Subgraph matching and template/variant scaffold alignment.

The matcher is a backtracking search over pattern atoms in index order.
As in VF2 (Cordella et al., 2004), a pattern atom bonded to an atom
already mapped takes its candidates from the sorted neighbours of that
atom's image rather than from the whole target; an atom with no earlier
neighbour tries every target atom. Candidates are tried in ascending
order, so the result order is lexicographic by mapped target tuple and
therefore reproducible. Placeholder atoms in the pattern match any
single target atom; bonds touching them are order-lenient.
"""

from __future__ import annotations

import logging
from typing import Optional

from .molgraph import AtomToken, Bond, GraphError, MolecularGraph, RxnscopeError

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


def find_matches(
    pattern: MolecularGraph,
    target: MolecularGraph,
    limit: Optional[int] = None,
) -> list[dict[int, int]]:
    """All injective pattern-to-target mappings preserving atoms and bonds.

    Results are ordered by the tuple (mapping[0], mapping[1], ...) and
    truncated at ``limit`` when given; a ``limit`` of 0 or less gives no
    results. Extra target bonds between mapped atoms are allowed; only
    pattern bonds constrain the search. Pattern atoms are placed in index
    order; one with an earlier pattern neighbour is tried only on the
    target neighbours of that neighbour's image, in ascending order, which
    prunes the search without changing the result order.
    """
    if not pattern.atoms:
        raise GraphError("empty pattern")
    if limit is not None and limit <= 0:
        return []
    n = len(pattern.atoms)
    target_adj = target.adjacency()
    pattern_adj = pattern.adjacency()
    # Pattern bonds from atom i to already-placed atoms j < i.
    back_edges = [[b for mate, b in pattern_adj[p] if mate < p] for p in range(n)]
    # The image of p must be bonded to the image of any earlier neighbour,
    # so the first one's sorted target neighbours hold every candidate.
    anchors = [back[0].other(p) if back else None for p, back in enumerate(back_edges)]
    target_mates = [sorted({mate for mate, _ in row}) for row in target_adj]
    every_atom = range(len(target.atoms))

    results: list[dict[int, int]] = []
    assigned: list[int] = []
    used: set[int] = set()

    def feasible(p: int, t: int) -> bool:
        if not atoms_compatible(pattern.atoms[p], target.atoms[t]):
            return False
        if len(pattern_adj[p]) > len(target_adj[t]):
            return False
        for pbond in back_edges[p]:
            other = pbond.other(p)
            tbond = target.bond_between(assigned[other], t)
            if tbond is None or not bonds_compatible(pattern, pbond, tbond):
                return False
        return True

    def search(p: int) -> bool:
        if p == n:
            results.append({i: assigned[i] for i in range(n)})
            return limit is not None and len(results) >= limit
        anchor = anchors[p]
        candidates = every_atom if anchor is None else target_mates[assigned[anchor]]
        for t in candidates:
            if t in used:
                continue
            if feasible(p, t):
                assigned.append(t)
                used.add(t)
                done = search(p + 1)
                used.remove(t)
                assigned.pop()
                if done:
                    return True
        return False

    search(0)
    return results


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

    def score(m: dict[int, int]) -> tuple[int, int]:
        frags = _fragment_atoms(template, variant, m, placeholders)
        covered = {t for p, t in m.items() if template.atoms[p].kind != "placeholder"}
        for atoms in frags.values():
            covered.update(atoms)
        return len(covered), _placeholder_aromatic_score(template, variant, m)

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
