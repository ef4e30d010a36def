"""Molecular graph data model.

Atoms are typed tokens rather than plain element symbols: a graph coming out
of a drawing can contain real elements, R-group placeholders ("[R1]", "[Ar]"),
shorthand abbreviations ("Ts", "OMe") and opaque wildcards.

Every graph that exists is structurally sound, because the constructors
check it: an atom has no negative H count and no isotope below 1, and a
bond joins two different atoms of its graph, at most one bond per pair.
A value is checked once, when it is built: the plain atoms of
:data:`PLAIN_ATOMS` at import, and a renumbered bond by the constructor
call in :meth:`Bond.moved`.  So no caller validates a graph it was
handed.  Valence rules are not structural and live in
:mod:`rxnscope.smiles`, so that partially-specified drawings remain
representable.

A graph is the one owner of its neighbour lists: the pair index behind
:meth:`MolecularGraph.bond_index` is built with the checks, and
:meth:`MolecularGraph.adjacency` once per graph instance, on first use;
both are read-only (tuples and a private dict), so one graph can be
shared by every caller that parsed the same text.

Stereo bookkeeping is written once, here: :meth:`Bond.away` and
:meth:`Bond.with_away` orient cis/trans marks, :func:`chain_cis_trans`
turns double-bond geometry facts into marks, and :func:`renumber_chiral`
carries a chiral neighbour order through any atom renumbering.

So is fragment surgery: a :class:`Fragment` (a graph plus its attachment
atom) has one :meth:`~Fragment.cut` and one :meth:`~Fragment.graft_onto`,
used by the abbreviation table, the formula reader and the splice; a
chiral attachment atom keeps the slot of the atom it was cut from, for
the atom it is grafted onto.  Ring membership is :func:`ring_bonds`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

ATOM_KINDS = ("element", "placeholder", "abbreviation", "wildcard")
BOND_ORDERS = ("single", "double", "triple", "aromatic")
WEDGES = ("none", "solid", "dashed")

# Placeholder labels follow drawing conventions: an R/Ar/X stem with an
# optional numeric suffix.  A broader letters-then-digits rule would swallow
# ordinary abbreviations ("Ts") and table headers ("time"), so the stem set
# is deliberately narrow.
_PLACEHOLDER_STEMS = ("Ar", "R", "X")

# Recognized element symbols.  Ar, Ac, Pr and Ts are deliberately absent:
# in scope-table drawings those tokens mean aryl, acetyl, propyl and tosyl,
# and the noble gas / lanthanide / superheavy readings never occur there.
ELEMENTS = frozenset(
    """H He Li Be B C N O F Ne Na Mg Al Si P S Cl K Ca Sc Ti V Cr Mn Fe Co Ni
    Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I
    Xe Cs Ba La Ce Nd Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg
    Tl Pb Bi Po At Rn Fr Ra Th U""".split()
)

# Lowercase symbols allowed to carry an aromatic flag.
AROMATIC_SYMBOLS = frozenset(("b", "c", "n", "o", "p", "s", "se", "as", "te"))

# Each symbol that names an element, as (element symbol, aromatic flag).
ELEMENT_SYMBOLS: dict[str, tuple[str, bool]] = {
    **{sym: (sym, False) for sym in ELEMENTS},
    **{sym: (sym.capitalize(), True) for sym in AROMATIC_SYMBOLS if sym.capitalize() in ELEMENTS},
}


class RxnscopeError(Exception):
    """Base of every domain error: bad input, not a bug in the program.

    Each subclass also keeps a stdlib base (``ValueError`` or
    ``RuntimeError``), so callers that catch that base still work.
    """


class GraphError(RxnscopeError, ValueError):
    """Raised for structurally unusable graphs or fragment requests."""


def is_placeholder_label(text: str) -> bool:
    """True if ``text`` (without brackets) is an R-group label like R1 or Ar2."""
    for stem in _PLACEHOLDER_STEMS:
        if text.startswith(stem):
            rest = text[len(stem):]
            return rest == "" or rest.isdigit()
    return False


@dataclass(frozen=True)
class AtomToken:
    """One atom-level token of a molecular graph.

    ``text`` holds the element symbol for elements ("C", "Cl"), the bracketed
    label for placeholders ("[R1]"), the bare shorthand for abbreviations
    ("Ts") and "*" for wildcards.  ``chiral_order`` fixes the neighbor order
    that the ``chiral`` tag refers to; ``-1`` marks the implicit-H slot,
    and :data:`GRAFT_SLOT`, in a fragment's attachment atom, the atom the
    fragment will be grafted onto.
    ``explicit_h`` is at least 0 and ``isotope`` at least 1 when given.
    """

    kind: str
    text: str
    charge: int = 0
    explicit_h: Optional[int] = None
    isotope: Optional[int] = None
    coords: Optional[tuple[float, float]] = None
    aromatic: bool = False
    chiral: Optional[str] = None
    chiral_order: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ATOM_KINDS:
            raise GraphError(f"unknown atom kind {self.kind!r}")
        if self.kind == "placeholder":
            if not (self.text.startswith("[") and self.text.endswith("]")):
                raise GraphError(f"placeholder text must be bracketed: {self.text!r}")
            if not is_placeholder_label(self.text[1:-1]):
                raise GraphError(f"placeholder label out of grammar: {self.text!r}")
        if self.chiral is not None and self.chiral not in ("@", "@@"):
            raise GraphError(f"bad chiral tag {self.chiral!r}")
        if self.explicit_h is not None and self.explicit_h < 0:
            raise GraphError(f"negative-h: explicit_h={self.explicit_h}")
        if self.isotope is not None and self.isotope <= 0:
            raise GraphError(f"bad-isotope: isotope={self.isotope}")

    @property
    def label(self) -> str:
        """Placeholder label without brackets ("R1" for "[R1]")."""
        if self.kind != "placeholder":
            raise GraphError(f"atom {self.text!r} is not a placeholder")
        return self.text[1:-1]

    @property
    def is_heavy(self) -> bool:
        """Heavy means: any non-element token, or an element other than H."""
        return self.kind != "element" or self.text != "H"


# The chiral-order slot of the neighbour a fragment was cut from
# (:meth:`Fragment.cut`), which :meth:`Fragment.graft_onto` fills.
GRAFT_SLOT = -2


def flip(mark: str) -> str:
    """The opposite cis/trans mark."""
    return "down" if mark == "up" else "up"


@dataclass(frozen=True, slots=True, init=False)
class Bond:
    """Edge between two atom indices.

    ``wedge`` encodes a 2D depiction wedge with the narrow end at ``a``.
    ``direction`` encodes a cis/trans mark oriented a->b ("up" for "/").
    The endpoints are plain integers, not bools.

    The constructor is written out rather than generated: a run builds
    thousands of bonds, and the generated frozen ``__init__`` with a
    ``__post_init__`` costs a fifth more per bond. It checks every field;
    the membership tests stay tuple ``in``, so an unhashable field value
    is named in a :class:`GraphError`, never hashed.
    """

    a: int
    b: int
    order: str = "single"
    wedge: str = "none"
    direction: Optional[str] = None

    def __init__(
        self, a: int, b: int, order: str = "single", wedge: str = "none", direction: Optional[str] = None
    ) -> None:
        if type(a) is not int or type(b) is not int:
            raise GraphError(f"non-integer-endpoint: bond {a!r}-{b!r}")
        if order not in BOND_ORDERS:
            raise GraphError(f"unknown bond order {order!r}")
        if wedge not in WEDGES:
            raise GraphError(f"unknown wedge kind {wedge!r}")
        if wedge != "none" and order != "single":
            raise GraphError("wedges are only meaningful on single bonds")
        if direction not in (None, "up", "down"):
            raise GraphError(f"bad direction mark {direction!r}")
        set_field = object.__setattr__
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "order", order)
        set_field(self, "wedge", wedge)
        set_field(self, "direction", direction)

    def moved(self, a: int, b: int) -> "Bond":
        """This bond, joining atoms ``a`` and ``b`` instead."""
        return Bond(a, b, self.order, self.wedge, self.direction)

    def other(self, idx: int) -> int:
        if idx == self.a:
            return self.b
        if idx == self.b:
            return self.a
        raise GraphError(f"atom {idx} not on bond {self.a}-{self.b}")

    def away(self, end: int) -> Optional[str]:
        """The direction mark read from ``end`` outwards, or None if unmarked."""
        if self.direction is None or end == self.a:
            return self.direction
        return flip(self.direction)

    def with_away(self, end: int, mark: str) -> "Bond":
        """This bond marked so that it reads ``mark`` from ``end`` outwards."""
        return replace(self, direction=mark if end == self.a else flip(mark))


def _refuse_assignment(self, name: str, *value) -> None:
    raise FrozenInstanceError(f"cannot assign to or delete {name!r} of a frozen {type(self).__name__}")


# The generated frozen ones name the class ``slots=True`` replaced, and
# raise ``TypeError`` for a name that is not a field.
Bond.__setattr__ = Bond.__delattr__ = _refuse_assignment


# The atoms SMILES writes without brackets, keyed by that text: the organic
# subset, its aromatic forms and the wildcard.  No charge, H, isotope or coordinates.
PLAIN_ATOMS: dict[str, AtomToken] = {
    **{sym: AtomToken(kind="element", text=sym) for sym in "B C N O P S F Cl Br I".split()},
    **{sym: AtomToken(kind="element", text=sym.upper(), aromatic=True) for sym in "bcnops"},
    "*": AtomToken(kind="wildcard", text="*"),
}


def chain_cis_trans(bonds: list[Bond], facts: Iterable[tuple]) -> list[tuple]:
    """Mark ``bonds`` in place so that each double-bond geometry fact holds.

    A fact ``(end1, ref1, end2, ref2, same_side)`` says whether the single
    bonds ``bonds[ref1]`` at ``end1`` and ``bonds[ref2]`` at ``end2`` of one
    double bond sit on the same side of it.  A reference bond may be shared
    between conjugated double bonds, so facts chain from one anchor: a fact
    whose reference is already marked is always consumed before a fresh
    "up" anchor is opened, otherwise two anchors could meet mid-chain with
    incompatible marks.  Facts that contradict the marks already set are
    dropped and returned, in the order met.
    """
    dropped = []
    pending = list(facts)
    while pending:
        anchored = (f for f in pending if bonds[f[1]].away(f[0]) or bonds[f[3]].away(f[2]))
        fact = next(anchored, pending[0])
        pending.remove(fact)
        end1, ref1, end2, ref2, same_side = fact
        away1 = bonds[ref1].away(end1)
        away2 = bonds[ref2].away(end2)
        if away1 is None:
            away1 = "up" if away2 is None else away2 if same_side else flip(away2)
            bonds[ref1] = bonds[ref1].with_away(end1, away1)
        needed = away1 if same_side else flip(away1)
        if away2 is None:
            bonds[ref2] = bonds[ref2].with_away(end2, needed)
        elif away2 != needed:
            dropped.append(fact)
    return dropped


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class MolecularGraph:
    """Immutable, structurally sound molecular graph: atoms and bonds.

    Construction raises :class:`GraphError`, naming the rule and the bond
    index, when a bond has an endpoint out of range ("dangling-bond"),
    joins an atom to itself ("self-loop") or joins a pair that an earlier
    bond already joins ("duplicate-bond").  So a pair of atoms has at most
    one bond, and :meth:`bond_index` names it.
    """

    atoms: tuple[AtomToken, ...] = ()
    bonds: tuple[Bond, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        n = len(self.atoms)
        positions: dict[tuple[int, int], int] = {}
        for pos, bond in enumerate(self.bonds):
            lo, hi = (bond.a, bond.b) if bond.a <= bond.b else (bond.b, bond.a)
            if lo < 0 or hi >= n:
                raise GraphError(f"dangling-bond at bond {pos}: endpoint out of range 0..{n - 1}")
            if lo == hi:
                raise GraphError(f"self-loop at bond {pos}: atom {lo} bonded to itself")
            first = positions.setdefault((lo, hi), pos)
            if first != pos:
                raise GraphError(f"duplicate-bond at bond {pos}: same pair as bond {first}")
        object.__setattr__(self, "_positions", positions)

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        adj: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond))
            adj[bond.b].append((bond.a, bond))
        return tuple(map(tuple, adj))

    def adjacency(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        """Per atom, its ``(mate, bond)`` pairs in bond order; shared and read-only."""
        return self._adjacency

    def neighbors(self, idx: int) -> list[int]:
        return [other for other, _ in self._adjacency[idx]]

    def bond_index(self, i: int, j: int) -> Optional[int]:
        """Position in ``bonds`` of the bond joining ``i`` and ``j``, or None."""
        return self._positions.get(_pair(i, j))

    def bond_between(self, i: int, j: int) -> Optional[Bond]:
        pos = self._positions.get(_pair(i, j))
        return None if pos is None else self.bonds[pos]

    def placeholder_indices(self) -> list[int]:
        return [i for i, atom in enumerate(self.atoms) if atom.kind == "placeholder"]


def connected_components(g: MolecularGraph) -> list[list[int]]:
    """Atom index lists of connected components, each sorted, in first-seen order."""
    adj = g.adjacency()
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in range(len(g.atoms)):
        if start in seen:
            continue
        stack = [start]
        comp: list[int] = []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt, _ in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(sorted(comp))
    return components


def ring_bonds(g: MolecularGraph, keep: Callable[[Bond], bool] = lambda bond: True) -> set[int]:
    """Positions in ``g.bonds`` of the kept bonds that lie on a cycle of kept bonds.

    ``keep`` is called once per bond.  One depth-first search over the kept
    bonds, rooted only at atoms that have one, finds the bridges (Tarjan,
    1974); every other kept bond lies on a cycle.  So the time is linear
    in the bonds, and atoms with no kept bond cost nothing.
    """
    kept = [pos for pos, bond in enumerate(g.bonds) if keep(bond)]
    adj: dict[int, list[tuple[int, int]]] = {}  # atom -> (mate, bond position) pairs
    for pos in kept:
        bond = g.bonds[pos]
        adj.setdefault(bond.a, []).append((bond.b, pos))
        adj.setdefault(bond.b, []).append((bond.a, pos))
    disc: dict[int, int] = {}  # atom -> discovery time
    low: dict[int, int] = {}  # atom -> earliest discovery time reachable below it
    bridges: set[int] = set()
    for root, row in adj.items():
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(row))]  # (atom, bond it was reached by, its pairs)
        while stack:
            cur, via, mates = stack[-1]
            for mate, pos in mates:
                if pos == via:
                    continue
                if mate not in disc:
                    disc[mate] = low[mate] = len(disc)
                    stack.append((mate, pos, iter(adj[mate])))
                    break
                low[cur] = min(low[cur], disc[mate])
            else:
                stack.pop()
                if via >= 0:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[cur])
                    if low[cur] > disc[parent]:
                        bridges.add(via)
    return set(kept) - bridges


def subgraph(g: MolecularGraph, indices: Iterable[int]) -> MolecularGraph:
    """Induced subgraph over ``indices``, in ascending order of old index.

    An index that is no atom of ``g`` is a :class:`GraphError`. Indices naming
    every atom give ``g`` itself, not a copy.  Past ``g``'s shared
    :meth:`~MolecularGraph.adjacency`, a call costs only what it keeps: the
    kept atoms, their bonds, and sorting those bonds back into bond order.
    """
    index_list = list(indices)
    for i in index_list:
        if type(i) is not int or not 0 <= i < len(g.atoms):
            raise GraphError(f"subgraph index {i!r} is not an atom of a {len(g.atoms)}-atom graph")
    index_list = sorted(set(index_list))
    if len(index_list) == len(g.atoms):
        return g
    index_map = {old: new for new, old in enumerate(index_list)}
    atoms = [g.atoms[old] for old in index_list]
    # Only atoms that carry a chiral order pay for the renumbering call.
    atoms = [a if a.chiral_order is None else renumber_chiral(a, index_map.get) for a in atoms]
    # The pair index read directly: ``old < mate`` is already its key order.
    adj, pair_index = g.adjacency(), g._positions
    positions = sorted(
        [pair_index[old, mate] for old in index_list for mate, _ in adj[old] if old < mate and mate in index_map]
    )
    bonds = [g.bonds[pos] for pos in positions]
    bonds = [bond.moved(index_map[bond.a], index_map[bond.b]) for bond in bonds]
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def renumber_chiral(atom: AtomToken, new_index: Callable[[int], Optional[int]]) -> AtomToken:
    """``atom`` with its chiral neighbour order renumbered by ``new_index``.

    The implicit-H slot (-1) stays.  A reference mapped to None was cut
    away, which leaves the tag meaningless, so the atom loses it.
    """
    if atom.chiral_order is None:
        return atom
    order = tuple(-1 if ref == -1 else new_index(ref) for ref in atom.chiral_order)
    if None in order:
        return replace(atom, chiral=None, chiral_order=None)
    return replace(atom, chiral_order=order)


def main_component(g: MolecularGraph) -> MolecularGraph:
    """Largest component by heavy-atom count; ties break on lowest atom index.

    A one-component ``g`` is returned itself, not copied. Raises
    :class:`GraphError` on an empty graph.
    """
    if not g.atoms:
        raise GraphError("empty graph has no main component")
    components = connected_components(g)
    best = max(
        components,
        key=lambda comp: (
            sum(1 for i in comp if g.atoms[i].is_heavy),
            -min(comp),
        ),
    )
    return subgraph(g, best)


@dataclass(frozen=True)
class Fragment:
    """A connected graph plus the atom index where it attaches.

    Every move of a substituent between graphs is one :meth:`cut` out of a
    graph and one :meth:`graft_onto` the atom and bond lists of another.
    """

    graph: MolecularGraph
    attachment: int

    def __post_init__(self) -> None:
        if not (0 <= self.attachment < len(self.graph.atoms)):
            raise GraphError(f"attachment index {self.attachment} out of range")

    @classmethod
    def cut(cls, g: MolecularGraph, atoms: Iterable[int], attachment: int) -> "Fragment":
        """The induced subgraph of ``g`` over ``atoms``, attached at ``attachment``.

        When the attachment atom has one neighbour left out, that neighbour
        keeps its slot in the atom's chiral order as :data:`GRAFT_SLOT`.
        """
        kept = sorted(set(atoms))
        if attachment not in kept:
            raise GraphError(f"attachment atom {attachment} not among fragment atoms")
        sub = subgraph(g, kept)
        at = kept.index(attachment)
        atom = g.atoms[attachment]
        if atom.chiral_order is not None:
            index = {old: new for new, old in enumerate(kept)}
            left_out = [ref for ref in atom.chiral_order if ref >= 0 and ref not in index]
            if len(left_out) == 1:
                index[left_out[0]] = GRAFT_SLOT
                sub_atoms = list(sub.atoms)
                sub_atoms[at] = renumber_chiral(atom, index.get)
                sub = MolecularGraph(atoms=tuple(sub_atoms), bonds=sub.bonds)
        return cls(sub, at)

    def graft_onto(self, atoms: list[AtomToken], bonds: list[Bond], onto: Optional[int] = None) -> int:
        """Append this fragment to ``atoms`` and ``bonds``; return where it attaches.

        ``onto`` is the atom the caller bonds the attachment to, which
        fills a :data:`GRAFT_SLOT`; without it, a chiral order holding that
        slot loses its tag. The copies drop their coordinates, which belong
        to another drawing, and keep their chiral orders, renumbered to the
        new positions.
        """
        offset = len(atoms)
        for atom in self.graph.atoms:
            if atom.chiral_order is not None:
                atom = renumber_chiral(atom, lambda ref: onto if ref == GRAFT_SLOT else ref + offset)
            atoms.append(atom if atom.coords is None else replace(atom, coords=None))
        bonds.extend(b.moved(b.a + offset, b.b + offset) for b in self.graph.bonds)
        return offset + self.attachment


def permutation_parity(src: Iterable[int], dst: Iterable[int]) -> int:
    """0 if ``dst`` is an even permutation of ``src``, 1 if odd.

    Entries must be unique; raises :class:`GraphError` if the two sequences
    are not permutations of each other.
    """
    src = list(src)
    dst = list(dst)
    if sorted(src) != sorted(dst) or len(set(src)) != len(src):
        raise GraphError(f"{dst!r} is not a permutation of {src!r}")
    positions = {value: i for i, value in enumerate(src)}
    perm = [positions[value] for value in dst]
    swaps = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    return swaps % 2


def _normalized_chiral_order(atom: AtomToken, adj_mates: list[int]) -> tuple[int, ...]:
    order = sorted(adj_mates)
    if atom.explicit_h == 1 and len(order) < 4:
        order.append(-1)
    return tuple(order)


def normalize_chiral_orders(g: MolecularGraph) -> MolecularGraph:
    """Rewrite every chiral_order to (sorted neighbors, implicit-H slot last).

    Tags are flipped as needed so the described configuration is unchanged.
    This gives the graph JSON codec a fixed convention to rely on.
    """
    adj = g.adjacency()
    atoms = list(g.atoms)
    for idx, atom in enumerate(atoms):
        if atom.chiral is None:
            continue
        if atom.chiral_order is None:
            atoms[idx] = replace(atom, chiral=None)
            continue
        target = _normalized_chiral_order(atom, [m for m, _ in adj[idx]])
        if sorted(target) != sorted(atom.chiral_order):
            atoms[idx] = replace(atom, chiral=None, chiral_order=None)
            continue
        parity = permutation_parity(atom.chiral_order, target)
        tag = atom.chiral
        if parity:
            tag = "@@" if tag == "@" else "@"
        atoms[idx] = replace(atom, chiral=tag, chiral_order=target)
    return replace(g, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Graph JSON codec.  The wire form mirrors optical-recognition tool output:
# {"atoms": [{"symbol": ..., "charge": ..., "h": ..., "isotope": ..., "x": ...,
#   "y": ...}], "bonds": [{"a": ..., "b": ..., "order": ..., "wedge": ...}]}
# Chirality rides inside the symbol text ("[C@@]"), aromaticity as lowercase.
# Other keys, such as the "label" and "role" of older files, are ignored.
# ---------------------------------------------------------------------------


def symbol_atom(
    symbol: str,
    charge: int = 0,
    explicit_h: Optional[int] = None,
    isotope: Optional[int] = None,
    coords: Optional[tuple[float, float]] = None,
    chiral: Optional[str] = None,
) -> AtomToken:
    """The atom ``symbol`` names: a symbol of :data:`ELEMENT_SYMBOLS` is an
    element, aromatic if written lower-case, ``*`` a wildcard, an R-group
    label a placeholder, and anything else an abbreviation. Only an
    element takes the ``chiral`` tag."""
    element = ELEMENT_SYMBOLS.get(symbol)
    if element is not None:
        return AtomToken("element", element[0], charge, explicit_h, isotope, coords, element[1], chiral)
    if symbol == "*":
        return AtomToken("wildcard", "*", charge, explicit_h, isotope, coords)
    if is_placeholder_label(symbol):
        return AtomToken("placeholder", f"[{symbol}]", charge, explicit_h, isotope, coords)
    return AtomToken("abbreviation", symbol, charge, explicit_h, isotope, coords)


def atom_token_from_symbol(
    symbol: str,
    charge: int = 0,
    explicit_h: Optional[int] = None,
    isotope: Optional[int] = None,
    coords: Optional[tuple[float, float]] = None,
) -> AtomToken:
    """Build an AtomToken from a drawing symbol string.

    Accepts bare element symbols ("C", lowercase aromatic "c"), bracketed
    placeholders ("[R1]"), bracketed element+chirality ("[C@@]"), "*" for a
    wildcard, and falls back to an abbreviation token for anything else.
    """
    text = symbol.strip()
    if text in PLAIN_ATOMS and charge == 0 and explicit_h is None and isotope is None and coords is None:
        return PLAIN_ATOMS[text]
    if not text:
        raise GraphError("empty atom symbol")
    if text.startswith("[") and text.endswith("]"):
        # Brackets may hold an element's chiral tag; else only the symbol.
        text = text[1:-1]
        bare = text.rstrip("@")
        if bare in ELEMENT_SYMBOLS and text[len(bare):] in ("@", "@@"):
            return symbol_atom(bare, charge, explicit_h, isotope, coords, text[len(bare):])
    return symbol_atom(text, charge, explicit_h, isotope, coords)


def atom_symbol(atom: AtomToken) -> str:
    """Inverse of :func:`atom_token_from_symbol` (charge/h/isotope ride separately)."""
    if atom.kind == "wildcard":
        return "*"
    if atom.kind == "placeholder":
        return atom.text
    if atom.kind == "abbreviation":
        return f"[{atom.text}]"
    sym = atom.text.lower() if atom.aromatic else atom.text
    if atom.chiral is not None:
        return f"[{sym}{atom.chiral}]"
    return sym


def graph_to_json(g: MolecularGraph) -> dict:
    g = normalize_chiral_orders(g)
    atoms = []
    for atom in g.atoms:
        entry: dict = {"symbol": atom_symbol(atom), "charge": atom.charge}
        if atom.explicit_h is not None:
            entry["h"] = atom.explicit_h
        if atom.isotope is not None:
            entry["isotope"] = atom.isotope
        if atom.coords is not None:
            entry["x"], entry["y"] = atom.coords
        atoms.append(entry)
    bonds = []
    for bond in g.bonds:
        entry = {"a": bond.a, "b": bond.b, "order": bond.order, "wedge": bond.wedge}
        if bond.direction is not None:
            entry["dir"] = bond.direction
        bonds.append(entry)
    return {"atoms": atoms, "bonds": bonds}


def _json_int(value: object, name: str, optional: bool = False) -> Optional[int]:
    """``value`` if it is an integer (not a bool), else :class:`GraphError`."""
    if (value is None and optional) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise GraphError(f"{name} must be an integer, got {value!r}")


def graph_from_json(data: Mapping) -> MolecularGraph:
    try:
        raw_atoms = data["atoms"]
        raw_bonds = data.get("bonds", [])
    except (TypeError, KeyError) as exc:
        raise GraphError(f"graph JSON missing required key: {exc}") from exc
    if not isinstance(raw_atoms, (list, tuple)) or not isinstance(raw_bonds, (list, tuple)):
        raise GraphError("graph JSON atoms and bonds must be lists")
    atoms = []
    for i, entry in enumerate(raw_atoms):
        try:
            coords = None
            if "x" in entry and "y" in entry:
                coords = (float(entry["x"]), float(entry["y"]))
            symbol = entry["symbol"]
            if not isinstance(symbol, str):
                raise GraphError(f"symbol must be a string, got {symbol!r}")
            atoms.append(
                atom_token_from_symbol(
                    symbol,
                    charge=_json_int(entry.get("charge", 0), "charge"),
                    explicit_h=_json_int(entry.get("h"), "h", optional=True),
                    isotope=_json_int(entry.get("isotope"), "isotope", optional=True),
                    coords=coords,
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"atoms[{i}]: {exc}") from exc
    bonds = []
    for i, entry in enumerate(raw_bonds):
        try:
            bonds.append(
                Bond(
                    a=entry["a"],
                    b=entry["b"],
                    order=entry.get("order", "single"),
                    wedge=entry.get("wedge", "none"),
                    direction=entry.get("dir"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bonds[{i}]: {exc}") from exc
    # Chirality parsed from symbols refers to the codec's fixed convention.
    mates: dict[int, list[int]] = {i: [] for i, atom in enumerate(atoms) if atom.chiral is not None}
    for bond in bonds if mates else ():
        mates.get(bond.a, []).append(bond.b)
        mates.get(bond.b, []).append(bond.a)
    for i, row in mates.items():
        atoms[i] = replace(atoms[i], chiral_order=_normalized_chiral_order(atoms[i], row))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))
