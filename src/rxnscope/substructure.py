"""Subgraph matching and template/variant scaffold alignment.

The matcher is a backtracking search, kept on an explicit stack, that
places pattern atoms in an order fixed before it starts. As in VF2++
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

What depends on the template alone (label keys, components, the
placement plan for each choice of roots, symmetry conditions) is a
:class:`Pattern`. ``find_matches`` and ``scaffold_align`` take a graph,
prepared for the one call, or a ready pattern: ``ReactionTemplate``
keeps one for all of its variants.

``find_matches`` returns every embedding. ``scaffold_align`` breaks the
template's symmetry in the manner of Grochow & Kellis (2007, RECOMB).
Its generators are those of the automorphisms that fix every
placeholder atom: the canonical search's kept automorphisms plus twin
transpositions (:func:`rxnscope.smiles.automorphism_generators`); the
group itself is never listed. The chain picks ``v``, the lowest atom
the generators move, asks ``image[v] < image[u]`` for every other ``u``
in its orbit, keeps the generators that fix ``v``, and repeats. Every
orbit of embeddings keeps its lexicographically first member (see
:func:`scaffold_align`), and when the generators kept at each level
generate that level's stabilizer, nothing else: the fig2 template's 8
embeddings per variant (tolyl flip, sulfonyl oxygen swap, 2 placements)
become 2, and a B27-like template's 10,368 become 1.
"""

from __future__ import annotations

import logging
from functools import cached_property
from itertools import repeat
from typing import Optional, Union

from .molgraph import AtomToken, Bond, GraphError, MolecularGraph, RxnscopeError, connected_components
from .smiles import automorphism_generators

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


class Pattern:
    """The template half of a match, prepared once per template graph.

    Holds what no target changes: the label key of each atom that is no
    joker (None for a joker), the components with their inner atoms, the placement plan for each choice of component roots (cached:
    most targets choose the same roots), and the symmetry conditions that
    :func:`scaffold_align` adds to the search.
    """

    def __init__(self, graph: MolecularGraph):
        self.graph = graph
        adj = graph.adjacency()
        self.keys = [None if _is_joker(atom) else _label_key(atom) for atom in graph.atoms]
        self.components = [
            (comp, [p for p in comp if len(adj[p]) >= 2]) for comp in connected_components(graph)
        ]
        self._plans: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def of(cls, template: Union[MolecularGraph, "Pattern"]) -> "Pattern":
        """``template`` itself when prepared, else a pattern prepared for one call."""
        return template if isinstance(template, Pattern) else cls(template)

    def _plan(self, roots: tuple[int, ...]) -> tuple:
        """Placement order, positions, anchors and other back edges from these roots."""
        plan = self._plans.get(roots)
        if plan is not None:
            return plan
        adj = self.graph.adjacency()
        n = len(adj)
        order: list[int] = []
        placed = [False] * n
        for root in roots:
            head = len(order)
            placed[root] = True
            order.append(root)
            # Inner atoms induce a connected subgraph, so this reaches them all.
            while head < len(order):
                p = order[head]
                head += 1
                for mate in sorted(mate for mate, _ in adj[p]):
                    if not placed[mate] and len(adj[mate]) >= 2:
                        placed[mate] = True
                        order.append(mate)
        terminals = [p for p in range(n) if not placed[p]]
        order += sorted(terminals, key=lambda p: (self.keys[p] is None, p))
        position = [0] * n
        for k, p in enumerate(order):
            position[p] = k
        # Each atom's bonds to atoms placed before it. The image of p must be
        # bonded to the image of each, so the first-placed one, the anchor,
        # gives the candidates, each with the target bond the anchor's bond
        # must match; the rest are looked up.
        anchors: list[Optional[tuple[int, Bond]]] = []
        back_edges: list[list[tuple[int, Bond]]] = []
        for p in range(n):
            back = sorted((position[mate], mate, b) for mate, b in adj[p] if position[mate] < position[p])
            anchors.append(back[0][1:] if back else None)
            back_edges.append([(mate, b) for _, mate, b in back[1:]])
        plan = self._plans[roots] = order, position, anchors, back_edges
        return plan

    @cached_property
    def symmetry(self) -> list[tuple[int, int]]:
        """The condition chain ``(v, u)``, each asking ``image[v] < image[u]``.

        Built on first use from the generators of the automorphisms that
        fix every placeholder atom (see the module docstring).
        """
        generators = automorphism_generators(self.graph, self.graph.placeholder_indices())
        conditions: list[tuple[int, int]] = []
        while True:
            moved = [x for perm in generators for x, y in enumerate(perm) if x != y]
            if not moved:
                return conditions
            v = min(moved)
            orbit, frontier = {v}, [v]
            while frontier:
                x = frontier.pop()
                for perm in generators:
                    if perm[x] not in orbit:
                        orbit.add(perm[x])
                        frontier.append(perm[x])
            conditions += [(v, u) for u in sorted(orbit) if u != v]
            generators = [perm for perm in generators if perm[v] == v]


def _embeddings(
    pattern: Pattern, target: MolecularGraph, conditions: list[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Every embedding that keeps ``conditions``, as image tuples, in search order.

    Pattern atoms are placed inner atoms first, from the rarest one in each
    component, then terminal atoms, jokers last (see the module docstring).
    A condition ``(v, u)`` is checked when the later of its two atoms is
    placed.
    """
    patoms = pattern.graph.atoms
    n = len(patoms)
    if not n:
        raise GraphError("empty pattern")
    target_adj = target.adjacency()
    every_atom = range(len(target.atoms))
    by_label: dict[tuple, list[int]] = {}
    for t, atom in enumerate(target.atoms):
        by_label.setdefault(_label_key(atom), []).append(t)
    # The target atoms an unanchored pattern atom can take.
    pools = [every_atom if key is None else by_label.get(key, []) for key in pattern.keys]
    pattern_adj = pattern.graph.adjacency()

    def rarity(p: int) -> tuple:
        return pattern.keys[p] is None, len(pools[p]), -len(pattern_adj[p]), p

    roots = tuple(min(inner or comp, key=rarity) for comp, inner in pattern.components)
    order, position, anchors, back_edges = pattern._plan(roots)
    # Per atom, the atoms placed before it whose image must lie below or above its own.
    below: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for v, u in conditions:
        if position[v] < position[u]:
            below[u].append(v)
        else:
            above[v].append(u)
    graph = pattern.graph
    tatoms = target.atoms

    def candidates(p: int):
        """``(target atom, target bond to the anchor's image)`` pairs for p."""
        anchor = anchors[p]
        return zip(pools[p], repeat(None)) if anchor is None else iter(target_adj[image[anchor[0]]])

    def feasible(p: int, t: int, tbond: Optional[Bond]) -> bool:
        for q in below[p]:
            if image[q] > t:
                return False
        for q in above[p]:
            if image[q] < t:
                return False
        if not atoms_compatible(patoms[p], tatoms[t]):
            return False
        if len(pattern_adj[p]) > len(target_adj[t]):
            return False
        if tbond is not None and not bonds_compatible(graph, anchors[p][1], tbond):
            return False
        for q, pbond in back_edges[p]:
            tbond = target.bond_between(image[q], t)
            if tbond is None or not bonds_compatible(graph, pbond, tbond):
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
        for t, tbond in pending[-1]:
            if not used[t] and feasible(p, t, tbond):
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
    return results


def find_matches(
    pattern: Union[MolecularGraph, Pattern], target: MolecularGraph
) -> list[dict[int, int]]:
    """All injective pattern-to-target mappings preserving atoms and bonds.

    Results are ordered by the tuple (mapping[0], mapping[1], ...). Extra
    target bonds between mapped atoms are allowed; only pattern bonds
    constrain the search. ``pattern`` is a graph or a prepared
    :class:`Pattern`; the search adds no symmetry conditions, so every
    mapping is returned.
    """
    return [dict(enumerate(r)) for r in sorted(_embeddings(Pattern.of(pattern), target, []))]


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
    template: Union[MolecularGraph, Pattern], variant: MolecularGraph
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Match a placeholder-bearing template onto a concrete variant.

    Returns the chosen mapping and, per placeholder atom, the set of
    variant atoms belonging to its substituent: everything reachable from
    the mapped atom without stepping onto a scaffold (non-placeholder
    mapped) atom. Among candidate embeddings the one whose scaffold plus
    fragments cover the most variant atoms wins (a dangling atom means
    the extraction lost material); aryl placeholders ("Ar", "Ar1", ...)
    then prefer aromatic atoms; remaining ties go to the lexicographically
    first mapping and are logged. ``template`` is a graph or a prepared
    :class:`Pattern`.

    Only the embeddings that meet :attr:`Pattern.symmetry` are searched
    for. That changes no outcome. An automorphism that fixes every
    placeholder keeps an embedding's placeholder images and image set, so
    a whole orbit scores alike. And the lexicographically first member
    ``m`` of an orbit meets each condition ``(v, u)``: the generators kept
    at ``v``'s level fix every atom below ``v``, so composing ``m`` with
    the one of their products that takes ``v`` to ``u`` gives a member
    equal to ``m`` below ``v`` that maps ``v`` to ``m[u]``; as ``m`` comes
    first, ``m[v] < m[u]``. So the mapping chosen, its fragments and the
    placements the ambiguity warning counts are those of scoring every
    embedding.
    """
    pattern = Pattern.of(template)
    placeholders = pattern.graph.placeholder_indices()
    if not placeholders:
        raise MatchError("template contains no placeholder atoms")
    matches = [dict(enumerate(r)) for r in sorted(_embeddings(pattern, variant, pattern.symmetry))]
    if not matches:
        raise MatchError("template does not match variant structure")
    template = pattern.graph

    def score(m: dict[int, int]) -> tuple[int, int]:
        covered = {t for p, t in m.items() if template.atoms[p].kind != "placeholder"}
        for atoms in _fragment_atoms(template, variant, m, placeholders).values():
            covered.update(atoms)
        return len(covered), _placeholder_aromatic_score(template, variant, m)

    scores = [score(m) for m in matches]
    best = max(scores)
    contenders = [m for m, s in zip(matches, scores) if s == best]
    placeholder_images = {tuple(m[p] for p in placeholders) for m in contenders}
    if len(placeholder_images) > 1:
        # Contenders that part only off the placeholders (a variant ring
        # that a template chain can take either way round) are harmless;
        # only disagreement about where the placeholders land is worth
        # reporting.
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
