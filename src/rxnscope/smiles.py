"""SMILES parsing, writing, canonicalization and validity checking.

Everything here is built directly on :mod:`rxnscope.molgraph` so that R-group
placeholders and drawing abbreviations survive a round trip: "[R1]" stays a
placeholder atom, "[Ts]" stays an abbreviation token, and unknown bracket
atoms never hard-fail the parse.  The canonical form produced by
:func:`canonicalize` is an internal contract only; callers must compare
canonical-to-canonical rather than against strings from other toolkits.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from collections import Counter
from dataclasses import replace
from typing import Callable, Iterable, Iterator, Optional, Union

from .molgraph import (
    ELEMENT_SYMBOLS,
    PLAIN_ATOMS,
    AtomToken,
    Bond,
    GraphError,
    MolecularGraph,
    RxnscopeError,
    chain_cis_trans,
    connected_components,
    flip,
    permutation_parity,
    ring_bonds,
    subgraph,
    symbol_atom,
)

log = logging.getLogger(__name__)

# Allowed valences per element, before charge adjustment.
VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Each bond symbol as (order, cis/trans mark). "/" and "\" are single
# bonds marked "up" and "down" from the atom written before them.
_BOND_MARKS = {
    "-": ("single", None), "=": ("double", None), "#": ("triple", None), ":": ("aromatic", None),
    "/": ("single", "up"), "\\": ("single", "down"),
}
# The order of a bond written without a mark, indexed by whether both of
# its atoms are aromatic.
_UNMARKED_ORDER = ("single", "aromatic")
_ORDER_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

_BRACKET_RE = re.compile(
    r"^(?P<isotope>\d+)?"
    r"(?P<sym>[A-Z][a-z]?|[a-z]{1,2}|\*)"
    r"(?P<chi>@@|@)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>\+\d+|-\d+|\++|-+)?"
    r"(?::\d+)?$"
)


class SmilesParseError(RxnscopeError, ValueError):
    """Parse failure with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _bracket_number(m: re.Match, field: str, start: int, bare: int) -> int:
    """The number bracket ``field`` gives: its digits, or ``bare`` without any."""
    digits = m.group(field).lstrip("H+-")
    try:
        return int(digits) if digits else bare
    except ValueError:  # more digits than ``int`` converts
        raise SmilesParseError(f"{field} field too long", start + 1 + m.start(field)) from None


def _bracket_token(inner: str, start: int) -> AtomToken:
    """The atom of the bracket text ``inner``, whose ``[`` is at ``start``."""
    if not inner:
        raise SmilesParseError("empty bracket atom", start)
    m = _BRACKET_RE.match(inner)
    if m:
        sym = m.group("sym")
        iso = _bracket_number(m, "isotope", start, 0) if m.group("isotope") else None
        if iso == 0:
            raise SmilesParseError("isotope 0", start)
        chi = m.group("chi")
        explicit_h = _bracket_number(m, "hcount", start, 1) if m.group("hcount") else 0
        signs = m.group("charge")
        sign = -1 if signs and signs[0] == "-" else 1
        charge = sign * _bracket_number(m, "charge", start, len(signs)) if signs else 0
        if sym == "*":
            return AtomToken(
                kind="wildcard", text="*", charge=charge, isotope=iso, explicit_h=None
            )
        if sym in ELEMENT_SYMBOLS:
            return symbol_atom(sym, charge, explicit_h, iso, None, chi)
    # Unknown bracket content: placeholder when it fits the label
    # grammar, otherwise an opaque abbreviation.  Never a hard error.
    return symbol_atom(inner)


class _Parser:
    """The graph one SMILES text spells, before the perception and checks
    of :func:`_parse`.

    :meth:`parse` reads organic atoms and makes chain bonds in its own
    loop, in local variables, so that the common tokens cost no call;
    bracket atoms and ring closures call out. Per atom it keeps where its
    text starts (``offsets``, for the errors of those checks) and its
    neighbour slots in order of appearance (``slots``): atom indices, -1
    for the in-bracket H, or ``("ring", n)`` until ring ``n`` closes. A
    chiral tag takes its atom's slots as its order once every ring is
    closed, so the graph is built once.
    """

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.start = start
        self.tokens: list[AtomToken] = []
        self.offsets: list[int] = []
        self.slots: list[list] = []
        self.bonds: list[Bond] = []
        # Ring number -> (opening atom, order, direction, digit offset).
        self.ring_open: dict[int, tuple[int, Optional[str], Optional[str], int]] = {}

    def _close_ring(
        self, number: int, atom: int, order: Optional[str], direction: Optional[str], offset: int
    ) -> None:
        partner, p_order, p_dir, _ = self.ring_open.pop(number)
        if order is not None and p_order is not None and order != p_order:
            raise SmilesParseError(f"ring {number} closed with conflicting bond order", offset)
        final_order = order if order is not None else p_order
        if final_order is None:
            final_order = _UNMARKED_ORDER[self.tokens[partner].aromatic and self.tokens[atom].aromatic]
        # Direction marks are stored oriented a->b (opener->closer).  A mark
        # written at the closing digit reads closer->opener, so flip it.
        closing_dir = None if direction is None else flip(direction)
        if closing_dir is not None and p_dir is not None and closing_dir != p_dir:
            raise SmilesParseError(f"ring {number} closed with conflicting direction", offset)
        final_dir = p_dir if p_dir is not None else closing_dir
        # Only a ring closure can repeat a pair: the closing atom's slots
        # already name every atom it is bonded to.
        if partner == atom:
            raise SmilesParseError("ring bond to the same atom", offset)
        if partner in self.slots[atom]:
            raise SmilesParseError("duplicate bond", offset)
        self.bonds.append(Bond(partner, atom, final_order, "none", final_dir))
        opener = self.slots[partner]
        opener[opener.index(("ring", number))] = atom
        self.slots[atom].append(partner)

    def parse(self) -> MolecularGraph:
        text = self.text
        end_of_text = len(text)
        pos = self.start
        tokens, offsets, slots, bonds = self.tokens, self.offsets, self.slots, self.bonds
        ring_open = self.ring_open
        plain = PLAIN_ATOMS
        chiral: list[int] = []
        prev = -1  # the atom the next chain bond starts at; -1 for none
        pending: Optional[tuple[str, Optional[str]]] = None  # a bond mark's (order, direction)
        pending_offset = 0
        branch_stack: list[int] = []

        while pos < end_of_text:
            ch = text[pos]
            offset = pos
            token = plain.get(ch)
            if token is not None:
                pos += 1
                if pos < end_of_text and (ch == "C" and text[pos] == "l" or ch == "B" and text[pos] == "r"):
                    token = plain[text[offset : pos + 1]]
                    pos += 1
            elif ch == "[":
                pos = text.find("]", offset) + 1
                if not pos:
                    raise SmilesParseError("unclosed bracket atom", offset)
                token = _bracket_token(text[offset + 1 : pos - 1], offset)
                if token.chiral is not None:
                    chiral.append(len(tokens))
            elif ch.isdecimal() or ch == "%":
                if prev < 0:
                    raise SmilesParseError("ring digit with no preceding atom", offset)
                if ch == "%":
                    digits = text[pos + 1 : pos + 3]
                    if len(digits) != 2 or not digits.isdecimal():
                        raise SmilesParseError("% must be followed by two digits", offset)
                    number = int(digits)
                    pos += 3
                else:
                    number = int(ch)
                    pos += 1
                order, direction = pending or (None, None)
                pending = None
                if number in ring_open:
                    self._close_ring(number, prev, order, direction, offset)
                else:
                    ring_open[number] = (prev, order, direction, offset)
                    slots[prev].append(("ring", number))
                continue
            elif ch in _BOND_MARKS:
                if pending is not None:
                    raise SmilesParseError("two bond symbols in a row", offset)
                pending = _BOND_MARKS[ch]
                pending_offset = offset
                pos += 1
                continue
            elif ch == "(":
                if prev < 0:
                    raise SmilesParseError("branch with no preceding atom", offset)
                branch_stack.append(prev)
                pos += 1
                continue
            elif ch == ")":
                if not branch_stack:
                    raise SmilesParseError("unmatched closing parenthesis", offset)
                if pending is not None:
                    raise SmilesParseError("dangling bond symbol before ')'", pending_offset)
                prev = branch_stack.pop()
                pos += 1
                continue
            elif ch == ".":
                if branch_stack:
                    raise SmilesParseError("component separator inside a branch", offset)
                if pending is not None:
                    raise SmilesParseError("bond symbol before component separator", pending_offset)
                prev = -1
                pos += 1
                continue
            else:
                raise SmilesParseError(f"unexpected character {ch!r}", offset)

            # An atom: bonded to ``prev`` by the pending mark, if any.
            idx = len(tokens)
            tokens.append(token)
            offsets.append(offset)
            if prev >= 0:
                if pending is None:
                    bonds.append(Bond(prev, idx, _UNMARKED_ORDER[tokens[prev].aromatic and token.aromatic]))
                else:
                    bonds.append(Bond(prev, idx, pending[0], "none", pending[1]))
                    pending = None
                slots[prev].append(idx)
                here = [prev]
            elif pending is not None:
                raise SmilesParseError("bond symbol with no preceding atom", pending_offset)
            else:
                here = []
            if token.explicit_h == 1 and token.kind == "element":
                here.append(-1)
            slots.append(here)
            prev = idx

        if branch_stack:
            raise SmilesParseError("unclosed branch", end_of_text - 1)
        if pending is not None:
            raise SmilesParseError("dangling bond symbol", pending_offset)
        if ring_open:
            number, (_, _, _, offset) = next(iter(ring_open.items()))
            raise SmilesParseError(f"unclosed ring bond {number}", offset)
        for i in chiral:
            tokens[i] = _tagged(tokens[i], slots[i])
        return MolecularGraph(atoms=tuple(tokens), bonds=tuple(bonds))


def _perceive_aromaticity(g: MolecularGraph) -> MolecularGraph:
    """Upgrade qualifying Kekulé 6-rings to aromatic form.

    A 6-atom set qualifies when all its atoms are C/N/O/S elements and the
    bonds of its first 6-cycle, depth first from its lowest atom in
    adjacency order, alternate single/double (or are already all
    aromatic).  All sets are judged against the original bond orders, then
    upgraded at once.  Only atoms and bonds not yet in aromatic form are
    replaced, a plain atom by its aromatic :data:`PLAIN_ATOMS` value, and
    ``g`` itself comes back when there are none, as for every ring written.

    The search starts only from seed bonds: a bond between two C/N/O/S
    elements that is double, or aromatic with a direction mark or an end
    not flagged aromatic.  That is exact, because an alternating cycle has
    three double bonds and an all-aromatic cycle changes only at an
    unflagged atom or a marked bond; so every set that changes has a seed
    on its deciding cycle, and a graph without seeds comes back at once.
    """
    adj = g.adjacency()
    ring_atom = [a.kind == "element" and a.text in ("C", "N", "O", "S") for a in g.atoms]

    def cycles(path: list[int], allowed: Callable[[int], bool]) -> Iterator[list[int]]:
        last = path[-1]
        if len(path) == 6:
            if g.bond_index(last, path[0]) is not None:
                yield path
            return
        for mate, _ in adj[last]:
            if allowed(mate) and mate not in path:
                yield from cycles(path + [mate], allowed)

    # The atom sets of the 6-cycles through each seed bond.
    atom_sets = {
        frozenset(path)
        for b in g.bonds
        if ring_atom[b.a] and ring_atom[b.b] and (
            b.order == "double"
            or b.order == "aromatic"
            and (b.direction is not None or not (g.atoms[b.a].aromatic and g.atoms[b.b].aromatic))
        )
        for path in cycles([b.a, b.b], ring_atom.__getitem__)
    }
    upgrade_atoms: set[int] = set()
    upgrade_bonds: set[int] = set()
    for members in atom_sets:
        path = next(cycles([min(members)], members.__contains__))
        walk_bonds = [g.bond_index(path[k], path[(k + 1) % 6]) for k in range(6)]
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
    atoms = list(g.atoms)
    for i in upgrade_atoms:
        a = atoms[i]
        atoms[i] = PLAIN_ATOMS[a.text.lower()] if a is PLAIN_ATOMS[a.text] else AtomToken(
            a.kind, a.text, a.charge, a.explicit_h, a.isotope, a.coords, True, a.chiral, a.chiral_order
        )
    bonds = [
        Bond(b.a, b.b, "aromatic", b.wedge) if i in upgrade_bonds else b for i, b in enumerate(g.bonds)
    ]
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def _check_aromatic_rings(g: MolecularGraph, offsets: list[int]) -> None:
    flagged = {i for i, a in enumerate(g.atoms) if a.aromatic}
    if not flagged:
        return
    # An aromatic atom needs an aromatic bond on a cycle of aromatic bonds;
    # a chain of them between two rings does not qualify.
    cycle = ring_bonds(
        g, lambda b: b.order == "aromatic" and b.a in flagged and b.b in flagged
    )
    dead = flagged - {end for pos in cycle for end in (g.bonds[pos].a, g.bonds[pos].b)}
    if dead:
        atom = min(dead)
        raise SmilesParseError(f"aromatic atom {atom} is not part of an aromatic ring", offsets[atom])


def _check_direction_consistency(g: MolecularGraph, offsets: list[int]) -> None:
    adj = g.adjacency()
    for bond in g.bonds:
        if bond.order != "double":
            continue
        for end in (bond.a, bond.b):
            marked = [
                b for _, b in adj[end] if b.direction is not None and b.order == "single"
            ]
            # Read outwards from the double-bond end, two marks must disagree.
            if len(marked) == 2 and len({b.away(end) for b in marked}) == 1:
                raise SmilesParseError(f"conflicting direction marks at atom {end}", offsets[end])


def _tagged(token: AtomToken, slots: list[int]) -> AtomToken:
    """``token``, whose chiral tag was read with the neighbour ``slots``
    in text order: a tag with fewer than three slots is dropped, and
    otherwise the slots become its order."""
    if len(slots) < 3:
        return replace(token, chiral=None)
    return replace(token, chiral_order=tuple(slots))


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a :class:`MolecularGraph`.

    Unknown bracket tokens become placeholder or abbreviation atoms rather
    than failing; genuine syntax errors raise :class:`SmilesParseError`
    carrying the byte offset.
    """
    if not isinstance(text, str):
        raise SmilesParseError("input is not a string", 0)
    return _parse(text)


def _parse(text: str) -> MolecularGraph:
    # Surrounding blanks are skipped, not cut off, so that error offsets
    # count from the start of ``text``.
    stripped = text.rstrip()
    start = len(stripped) - len(stripped.lstrip())
    if start == len(stripped):
        raise SmilesParseError("empty SMILES string", 0)
    parser = _Parser(stripped, start)
    # Qualifying Kekulé rings are perceived aromatic; then every aromatic
    # atom must lie on an aromatic ring, and no double bond may have two
    # direction marks that agree at one end. A check names the offset
    # where its atom's text starts.
    g = _perceive_aromaticity(parser.parse())
    _check_aromatic_rings(g, parser.offsets)
    _check_direction_consistency(g, parser.offsets)
    return g


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _specified_double_bonds(g: MolecularGraph) -> set[int]:
    """Indices of double bonds with a direction mark on both ends."""
    adj = g.adjacency()
    specified = set()
    for bidx, bond in enumerate(g.bonds):
        if bond.order != "double":
            continue
        if all(
            any(b.direction is not None for _, b in adj[end] if b.order == "single")
            for end in (bond.a, bond.b)
        ):
            specified.add(bidx)
    return specified


def _emittable_directions(g: MolecularGraph) -> set[tuple[int, int]]:
    """(a, b) pairs of single bonds whose direction marks should be written."""
    specified = _specified_double_bonds(g)
    ends = set()
    for bidx in specified:
        ends.add(g.bonds[bidx].a)
        ends.add(g.bonds[bidx].b)
    out = set()
    for bond in g.bonds:
        if bond.direction is None or bond.order != "single":
            continue
        if bond.a in ends or bond.b in ends:
            out.add((bond.a, bond.b))
    return out


def _atom_bracket(atom: AtomToken, tag: Optional[str]) -> str:
    sym = atom.text.lower() if atom.aromatic else atom.text
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(sym)
    if tag:
        parts.append(tag)
    h = atom.explicit_h or 0
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 1:
        parts.append(f"+{atom.charge}")
    elif atom.charge < -1:
        parts.append(str(atom.charge))
    parts.append("]")
    return "".join(parts)


def _atom_text(atom: AtomToken, tag: Optional[str]) -> str:
    if atom.kind == "placeholder":
        return atom.text
    if atom.kind == "abbreviation":
        return f"[{atom.text}]"
    if atom.kind == "wildcard":
        return "*" if atom.charge == 0 and atom.isotope is None else _atom_bracket(atom, None)
    sym = atom.text.lower() if atom.aromatic else atom.text
    plain = tag is None and atom.charge == 0 and atom.isotope is None and atom.explicit_h is None
    return sym if plain and sym in PLAIN_ATOMS else _atom_bracket(atom, tag)


def _bond_text(
    g: MolecularGraph,
    bond: Bond,
    src: int,
    emit_dirs: set[tuple[int, int]],
) -> str:
    if bond.order == "double":
        return "="
    if bond.order == "triple":
        return "#"
    both_aromatic = g.atoms[bond.a].aromatic and g.atoms[bond.b].aromatic
    if bond.order == "aromatic":
        return "" if both_aromatic else ":"
    if bond.direction is not None and (bond.a, bond.b) in emit_dirs:
        return "/" if bond.away(src) == "up" else "\\"
    if both_aromatic:
        return "-"
    return ""


def write_smiles(
    g: MolecularGraph,
    ranks: Optional[list[int]] = None,
    emitted: Optional[list[int]] = None,
) -> str:
    """Serialize a graph to SMILES; the output re-parses isomorphic to ``g``.

    ``ranks``, one distinct rank per atom, fixes traversal order (used by
    the canonicalizer); without it, atom index order is used. A list
    passed as ``emitted`` receives the atom indices in the order their
    atoms are written. SMILES numbers ring bonds 1 to 99 (``%nn`` from
    10 on), so a graph that needs more of them open at once is a
    :class:`GraphError`.
    """
    if not g.atoms:
        raise GraphError("cannot write an empty graph")
    n = len(g.atoms)
    # Sorting ``(mate, bond)`` pairs never compares bonds: a graph has at
    # most one bond per pair of atoms, so an atom's mates are unique.
    by_rank = None if ranks is None else (lambda pair: ranks[pair[0]])
    adj = [sorted(row, key=by_rank) for row in g.adjacency()]
    emit_dirs = _emittable_directions(g)

    # First pass: depth first, trying atoms in rank order; the first atom
    # not yet reached roots its component. A bond to a reached atom above
    # the parent on the current path closes a ring.
    depth = [-1] * n
    tree_children: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
    closures: dict[int, list[tuple[int, Bond]]] = {}
    roots: list[int] = []
    for root in range(n) if ranks is None else sorted(range(n), key=ranks.__getitem__):
        if depth[root] >= 0:
            continue
        roots.append(root)
        depth[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            cur, mates = stack[-1]
            for mate, bond in mates:
                if depth[mate] < 0:
                    depth[mate] = depth[cur] + 1
                    tree_children[cur].append((mate, bond))
                    stack.append((mate, iter(adj[mate])))
                    break
                if depth[mate] < depth[cur] - 1:
                    closures.setdefault(cur, []).append((mate, bond))
                    closures.setdefault(mate, []).append((cur, bond))
            else:
                stack.pop()

    # Second pass: emit text, depth first from each root. The stack holds
    # atoms still to write, as (atom, atom it is reached from, bond text
    # before it), and the branch parentheses between them.
    open_digits: dict[Bond, int] = {}
    free_digits: list[int] = []  # a heap: the lowest free digit is reused first
    out: list[str] = []
    for root in roots:
        if out:
            out.append(".")
        stack: list = [(root, None, "")]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            cur, from_atom, mark = item
            if emitted is not None:
                emitted.append(cur)
            atom = g.atoms[cur]
            ring = closures.get(cur, ())
            if ring:
                ring.sort(key=by_rank)
            children = tree_children[cur]
            tag = None
            if atom.chiral is not None and atom.chiral_order is not None:
                out_slots = [] if from_atom is None else [from_atom]
                if atom.kind == "element" and atom.explicit_h == 1:
                    out_slots.append(-1)
                out_slots += [mate for mate, _ in ring] + [mate for mate, _ in children]
                if sorted(out_slots) == sorted(atom.chiral_order):
                    parity = permutation_parity(atom.chiral_order, out_slots)
                    tag = atom.chiral if parity == 0 else ("@@" if atom.chiral == "@" else "@")
            if mark:
                out.append(mark)
            out.append(_atom_text(atom, tag))
            for mate, bond in ring:
                digit = open_digits.pop(bond, None)
                if digit is not None:
                    heapq.heappush(free_digits, digit)
                else:
                    # With no digit free, digits 1 to len(open_digits) are all open.
                    digit = heapq.heappop(free_digits) if free_digits else len(open_digits) + 1
                    if digit > 99:
                        raise GraphError(f"{digit} ring bonds open at once; SMILES numbers only 1 to 99")
                    open_digits[bond] = digit
                out.append(_bond_text(g, bond, cur, emit_dirs) + (str(digit) if digit < 10 else f"%{digit:02d}"))
            # Every child but the last goes in a branch; pushed in reverse
            # so the first child is written first.
            last = len(children) - 1
            for i in range(last, -1, -1):
                mate, bond = children[i]
                bond_str = _bond_text(g, bond, cur, emit_dirs)
                if i == last:
                    stack.append((mate, cur, bond_str))
                else:
                    stack += [")", (mate, cur, bond_str), "("]
    return "".join(out)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

# Nodes one canonicalize call may explore. Past it, each node explores
# only its first candidate, so the form may depend on atom order; the
# call then logs a warning.
CANONICAL_NODE_BUDGET = 4096

_KIND_RANK = {"element": 0, "placeholder": 1, "abbreviation": 2, "wildcard": 3}
_ORDER_RANK = {"single": 0, "double": 1, "triple": 2, "aromatic": 3}


def _initial_keys(g: MolecularGraph) -> list[tuple]:
    keys = []
    adj = g.adjacency()
    for i, atom in enumerate(g.atoms):
        keys.append(
            (
                _KIND_RANK[atom.kind],
                atom.text,
                atom.charge,
                atom.isotope or 0,
                int(atom.aromatic),
                len(adj[i]),
                -1 if atom.explicit_h is None else atom.explicit_h,
            )
        )
    return keys


def _mate_pairs(g: MolecularGraph) -> list[list[tuple[int, int]]]:
    """Per atom, its neighbours as ``(order * n, mate)`` pairs.

    With ``n`` atoms, ``order * n + rank`` of the mate sorts as the
    (bond order, rank) pair does.
    """
    n = len(g.atoms)
    return [[(_ORDER_RANK[b.order] * n, m) for m, b in row] for row in g.adjacency()]


def _refine(mates: list, seed: list, moved: Optional[list[int]] = None) -> list[int]:
    """Dense ranks of the stable refinement of the ranks ``seed`` gives.

    Each round splits every tied cell by its members' sorted neighbour
    (bond order, rank) pairs, read off the ranks of the round before, and
    ranks the parts in that order. A cell's rank is the place of its first
    atom in rank order, so one part of a split cell keeps the cell and its
    atoms keep their rank; the other parts' atoms move to new cells. Only
    atoms next to a moved atom can tell apart from the rest of their cell
    in the next round, so a round reads the pairs of those atoms and of
    one other atom per cell, which makes a chain refine in linear time.
    When ``seed`` ranks a stable ranking except that the atoms ``moved``
    left their cells, the first round reads only their neighbours.
    ``mates`` is the graph's :func:`_mate_pairs`.
    """
    cell_of = _dense_ranks(seed)
    members: list[set[int]] = [set() for _ in range(max(cell_of) + 1)]
    for i, c in enumerate(cell_of):
        members[c].add(i)
    place, at = [], 0
    for cell in members:
        place.append(at)
        at += len(cell)

    def key(i: int) -> tuple[int, ...]:
        return tuple(sorted([base + place[cell_of[m]] for base, m in mates[i]]))

    def next_to(atoms: list[int]) -> dict[int, set[int]]:
        """Cell -> its atoms whose pairs may differ from the rest's."""
        hits: dict[int, set[int]] = {}
        for i in atoms:
            for _, m in mates[i]:
                hits.setdefault(cell_of[m], set()).add(m)
        return hits

    if moved is None:
        hits = {c: set(cell) for c, cell in enumerate(members) if len(cell) > 1}
    else:
        hits = next_to(moved)
    while hits:
        splits = []
        for c, hit in hits.items():
            cell = members[c]
            if len(cell) < 2:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for i in hit:
                parts.setdefault(key(i), []).append(i)
            rest = next((i for i in cell if i not in hit), None)
            kept = key(rest) if rest is not None else max(parts, key=lambda k: len(parts[k]))
            if len(parts) > 1 or kept not in parts:
                splits.append((c, parts, kept))
        moved = []
        for c, parts, kept in splits:
            cell = members[c]
            sizes = {k: len(atoms) for k, atoms in parts.items() if k != kept}
            sizes[kept] = len(cell) - sum(sizes.values())
            at = place[c]
            for k in sorted(sizes):
                if k == kept:
                    place[c] = at
                else:
                    place.append(at)
                    members.append(set(parts[k]))
                    cell -= members[-1]
                    for i in parts[k]:
                        cell_of[i] = len(members) - 1
                    moved += parts[k]
                at += sizes[k]
        hits = next_to(moved)
    return _dense_ranks([place[c] for c in cell_of])


def _dense_ranks(keys: list) -> list[int]:
    uniq = sorted(set(keys))
    lookup = {k: i for i, k in enumerate(uniq)}
    return [lookup[k] for k in keys]


def _twin_classes(g: MolecularGraph, keys: list[tuple]) -> list[int]:
    """Per atom, the first atom of its false-twin class (itself when alone).

    False twins are equal atoms with the same ``(neighbour, bond order)``
    pairs, which leaves no bond between them, so swapping two of them maps
    the graph onto itself and fixes every other atom. ``keys`` tell a
    missing isotope or H count from a given one, because no atom carries
    isotope 0 or a negative H count. An atom whose swap could move a
    stereo mark has no twin: one with a chiral tag, next to one, or on a
    direction-marked bond.
    """
    adj = g.adjacency()
    alone: set[int] = set()
    for i, atom in enumerate(g.atoms):
        if atom.chiral is not None:
            alone.add(i)
            alone.update(m for m, _ in adj[i])
    for bond in g.bonds:
        if bond.direction is not None:
            alone.update((bond.a, bond.b))
    first: dict[tuple, int] = {}
    twin = []
    for i, key in enumerate(keys):
        pairs = tuple(sorted((m, b.order) for m, b in adj[i]))
        twin.append(i if i in alone else first.setdefault((key, pairs), i))
    return twin


class _CanonicalSearch:
    """The smallest string any leaf of the individualize-and-refine tree writes.

    Each node individualizes, in turn, every atom of its first tied cell;
    each leaf (no ties left) writes the graph in its rank order. A leaf
    that writes the first leaf's string gives an automorphism: the map
    between the two leaves by position in that string, kept if it also
    keeps atom keys and bond orders. Subtrees that an automorphism maps
    onto explored ones write the same strings, so they are skipped:

    - a candidate that is a false twin (:func:`_twin_classes`) of an
      explored sibling: swapping the two fixes every other atom;
    - a candidate in the orbit of an explored sibling, under the
      automorphisms found so far that fix the node's individualized atoms;
    - the rest of a branch, once an automorphism that fixes the path it
      shares with the first leaf maps the first leaf's branch onto it.

    Twins make a chain of n gem-dimethyl carbons a path of about n nodes
    rather than n²/2. The atom keys, the refinement's neighbour pairs and
    the twin classes are built once per search. ``budget`` counts
    explored nodes; once it runs out, each node explores only its first
    candidate.
    """

    def __init__(self, g: MolecularGraph, budget: list[int], keys: Optional[list[tuple]] = None):
        self.g = g
        self.budget = budget
        self.keys = _initial_keys(g) if keys is None else keys
        self.mates = _mate_pairs(g)
        self.twin = _twin_classes(g, self.keys)
        self.first: Optional[tuple[str, list[int], list[int]]] = None  # text, emitted, path
        self.autos: list[list[int]] = []
        self.unwind_to: Optional[int] = None  # depth a given-up branch returns to

    def leaf(self, ranks: list[int], path: list[int]) -> str:
        emitted: list[int] = []
        final = _assign_directions(self.g, ranks)
        text = write_smiles(final, ranks=ranks, emitted=emitted)
        if self.first is None:
            self.first = (text, emitted, path)
            return text
        first_text, first_emitted, first_path = self.first
        if text != first_text:
            return text
        perm = [0] * len(emitted)
        for x, y in zip(first_emitted, emitted):
            perm[x] = y
        if not _preserves_keys_and_bonds(self.g, self.keys, perm):
            return text
        self.autos.append(perm)
        k = 0
        while first_path[k] == path[k]:
            k += 1
        if all(perm[p] == p for p in path[:k]) and perm[first_path[k]] == path[k]:
            self.unwind_to = k
        return text

    def smallest(self, ranks: list[int], path: list[int]) -> str:
        cells: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            cells.setdefault(r, []).append(i)
        tied = [r for r, members in cells.items() if len(members) > 1]
        if not tied:
            return self.leaf(ranks, path)
        members = cells[min(tied)]
        candidates = members if self.budget[0] > 0 else members[:1]
        # Orbits of the found automorphisms that fix ``path``, as a
        # union-find forest over the atoms, grown as automorphisms arrive;
        # it starts with each twin class of the cell joined.
        orbit = list(range(len(ranks)))
        lead: dict[int, int] = {}
        for i in members:
            orbit[i] = lead.setdefault(self.twin[i], i)
        used = 0

        def root(x: int) -> int:
            while orbit[x] != x:
                orbit[x] = x = orbit[orbit[x]]
            return x

        explored: list[int] = []
        best: Optional[str] = None
        for promoted in candidates:
            if explored:
                for perm in self.autos[used:]:
                    if all(perm[p] == p for p in path):
                        for x, y in enumerate(perm):
                            orbit[root(x)] = root(y)
                used = len(self.autos)
                if any(root(promoted) == root(done) for done in explored):
                    continue
            self.budget[0] -= 1
            seed = [(r, 0 if i == promoted else 1) for i, r in enumerate(ranks)]
            result = self.smallest(_refine(self.mates, seed, [promoted]), path + [promoted])
            if self.unwind_to is not None:
                if self.unwind_to < len(path):
                    return result
                self.unwind_to = None
            explored.append(promoted)
            if best is None or result < best:
                best = result
        assert best is not None
        return best


def automorphism_generators(g: MolecularGraph, fixed: Iterable[int] = ()) -> list[list[int]]:
    """Atom permutations that generate the automorphisms of ``g`` fixing ``fixed``.

    An automorphism keeps every atom key and bond order. Per false-twin
    class ``a1 < a2 < ...`` (:func:`_twin_classes`) the generators hold
    ``(a1 a2)``, ``(a2 a3)``, ...; consecutive pairs keep the class's
    symmetric group generated by those that fix its first atoms, which a
    chain of stabilizers needs. The rest are the automorphisms that a
    canonical search keeps when each atom of ``fixed`` has a key of its
    own and the k-th atom of each twin class the mark k: composed with
    twin swaps, every automorphism keeps those marks, and the search
    never branches on a twin. The group itself is never listed: a
    tris(3,5-bis-CF3-phenyl)methanol has 2,239,488 automorphisms.
    """
    keys = _initial_keys(g)
    for i in fixed:
        keys[i] += (1, i)
    classes: dict[int, list[int]] = {}
    for i, first in enumerate(_twin_classes(g, keys)):
        classes.setdefault(first, []).append(i)
    swaps = []
    for members in classes.values():
        if len(members) < 2:
            continue
        for k, i in enumerate(members):
            keys[i] += (0, k)
        for a, b in zip(members, members[1:]):
            perm = list(range(len(g.atoms)))
            perm[a], perm[b] = b, a
            swaps.append(perm)
    search = _CanonicalSearch(g, [CANONICAL_NODE_BUDGET], keys)
    search.smallest(_refine(search.mates, keys), [])
    return search.autos + swaps


def _preserves_keys_and_bonds(g: MolecularGraph, keys: list[tuple], perm: list[int]) -> bool:
    """True when the atom map ``perm`` keeps every atom key and bond order."""
    if any(keys[perm[x]] != keys[x] for x in range(len(perm))):
        return False
    for bond in g.bonds:
        image = g.bond_between(perm[bond.a], perm[bond.b])
        if image is None or image.order != bond.order:
            return False
    return True


def _assign_directions(g: MolecularGraph, ranks: list[int]) -> MolecularGraph:
    """Re-derive cis/trans marks in canonical form.

    Geometry facts are read off the existing marks; all marks are then
    cleared and reassigned so the first reference bond of each specified
    double bond points "up".  Unspecified geometry gets no marks, so a
    graph without marks comes back unchanged.
    """
    if all(b.direction is None for b in g.bonds):
        return g
    adj = g.adjacency()
    facts = []
    for bidx in sorted(_specified_double_bonds(g), key=lambda i: min(
        ranks[g.bonds[i].a], ranks[g.bonds[i].b]
    )):
        bond = g.bonds[bidx]
        end1, end2 = sorted((bond.a, bond.b), key=lambda e: ranks[e])
        refs = []
        aways = []
        for end in (end1, end2):
            single_mates = [
                (mate, g.bond_index(end, mate)) for mate, b in adj[end] if b.order == "single"
            ]
            probe = next(i for _, i in single_mates if g.bonds[i].direction is not None)
            # Canonical reference: lowest-ranked single-bond neighbor.
            _, ref = min(single_mates, key=lambda p: ranks[p[0]])
            refs.append(ref)
            # Substituents on the same end sit on opposite sides.
            probe_away = g.bonds[probe].away(end)
            aways.append(probe_away if ref == probe else flip(probe_away))
        facts.append((end1, refs[0], end2, refs[1], aways[0] == aways[1]))

    new_bonds = [replace(b, direction=None) for b in g.bonds]
    # A fact that contradicts the marks already set (odd rings of
    # conjugation) is left out.
    chain_cis_trans(new_bonds, facts)
    return replace(g, bonds=tuple(new_bonds))


def _fold_explicit_hydrogens(g: MolecularGraph) -> MolecularGraph:
    """Fold plain explicit-H atoms into their neighbor's hydrogen count."""
    adj = g.adjacency()
    fold: dict[int, int] = {}
    for idx, atom in enumerate(g.atoms):
        if (
            atom.kind == "element"
            and atom.text == "H"
            and atom.charge == 0
            and atom.isotope is None
            and (atom.explicit_h in (None, 0))
            and len(adj[idx]) == 1
        ):
            mate, bond = adj[idx][0]
            mate_atom = g.atoms[mate]
            if (
                bond.order == "single"
                and mate_atom.kind == "element"
                and mate_atom.text != "H"
            ):
                fold[idx] = mate
    if not fold:
        return g
    atoms = list(g.atoms)
    for host, count in Counter(fold.values()).items():
        atom = atoms[host]
        if atom.explicit_h is not None:
            atom = replace(atom, explicit_h=atom.explicit_h + count)
        elif atom.chiral is not None:
            atom = replace(atom, explicit_h=count)
        if atom.chiral_order is not None:
            # A hydrogen folded into this atom becomes its implicit-H slot.
            order = tuple(-1 if fold.get(ref) == host else ref for ref in atom.chiral_order)
            if order.count(-1) > 1:
                atom = replace(atom, chiral=None, chiral_order=None)
            else:
                atom = replace(atom, chiral_order=order)
        atoms[host] = atom
    return subgraph(MolecularGraph(atoms, g.bonds), [i for i in range(len(atoms)) if i not in fold])


def canonicalize(s: Union[str, MolecularGraph]) -> str:
    """Canonical SMILES form: deterministic, renumbering-invariant, idempotent.

    ``s`` is a SMILES text, which is parsed first, or a graph as
    :func:`parse_smiles` builds it. Explicit hydrogens are folded into
    neighbor H counts, qualifying Kekulé rings become aromatic (in the
    parse), and components are sorted, so equal molecules map to equal
    strings regardless of input atom order or ring-digit choices.

    Each component is written as the smallest string over all leaves of
    its canonical search. Branches that automorphisms map onto explored
    ones are pruned, which leaves that minimum unchanged: false twins,
    such as the methyls of a tert-butyl or the oxygens of a sulfonyl, are
    individualized once per class, and a molecule whose ties are all
    symmetries, such as tetra-tert-butylmethane, writes four leaves
    rather than tens of thousands. A call whose search runs past
    :data:`CANONICAL_NODE_BUDGET` nodes logs a warning.
    """
    g = s if isinstance(s, MolecularGraph) else parse_smiles(s)
    g = _fold_explicit_hydrogens(g)
    budget = [CANONICAL_NODE_BUDGET]
    pieces = []
    for comp in connected_components(g):
        sub = subgraph(g, comp)
        search = _CanonicalSearch(sub, budget)
        pieces.append(search.smallest(_refine(search.mates, search.keys), []))
    text = ".".join(sorted(pieces))
    if budget[0] < 0:
        log.warning(
            "canonical search of %s ran past its %d-node budget; the form may depend on atom order",
            text, CANONICAL_NODE_BUDGET,
        )
    return text


def identity_key(g: MolecularGraph) -> tuple[int, tuple[str, ...]]:
    """Bond count and sorted, case-folded atom texts, with explicit H folded.

    For graphs as :func:`parse_smiles` builds them, equal
    :func:`canonicalize` strings imply equal keys: the canonical text
    writes each atom of the H-folded graph exactly once as its text
    (lower-cased when aromatic) and each bond exactly once. So two
    molecules with unequal keys are different without a canonical search.
    The key is coarse on purpose: charge, isotope, H count and
    aromaticity stay out of it, so Kekulé and aromatic forms of a ring, or
    ``[CH3]C`` and ``CC``, share a key whether canonical forms merge them
    or not.
    """
    g = _fold_explicit_hydrogens(g)
    return len(g.bonds), tuple(sorted(atom.text.lower() for atom in g.atoms))


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------


def _valence(g: MolecularGraph, idx: int) -> tuple[int, list[int]]:
    """Bond valence of atom ``idx`` and its allowed valences, ascending.

    An aromatic atom counts each aromatic bond once plus the pi electron it
    gives its ring: one for carbon and pyridine-type N/P, none for
    pyrrole-type N, furan O or thiophene S.  Charge shifts the allowed
    valences; atoms outside :data:`VALENCES` have none.
    """
    atom = g.atoms[idx]
    if atom.kind != "element" or atom.text not in VALENCES:
        return 0, []
    adj = g.adjacency()[idx]
    allowed = sorted(v + atom.charge for v in VALENCES[atom.text] if v + atom.charge >= 0)
    if not atom.aromatic:
        return math.ceil(sum(_ORDER_VALUE[b.order] for _, b in adj)), allowed
    used = sum(1 if b.order == "aromatic" else _ORDER_VALUE[b.order] for _, b in adj)
    if atom.text == "C":
        used += 1
    elif atom.text in ("N", "P"):
        # Pyridine-type N contributes a pi electron; pyrrole-type does not.
        if (atom.explicit_h in (None, 0)) and len(adj) == 2 and atom.charge == 0:
            used += 1
        elif atom.charge == 1 and (atom.explicit_h or len(adj) == 3):
            used += 1
    return math.ceil(used), allowed


def implicit_h_count(g: MolecularGraph, idx: int) -> Optional[int]:
    """Hydrogens on atom ``idx`` beyond its drawn bonds.

    A bracket count is taken as written; otherwise the fewest that bring
    the bond valence up to an allowed valence.  None when none does, or
    the atom has no valence model (placeholders, unlisted elements).
    """
    atom = g.atoms[idx]
    if atom.explicit_h is not None:
        return atom.explicit_h
    used, allowed = _valence(g, idx)
    return next((v - used for v in allowed if v >= used), None)


def is_valid(s: Union[str, MolecularGraph]) -> bool:
    """True when ``s`` parses, has no placeholder atoms, and valences check out.

    ``s`` is a SMILES text or an already parsed graph.
    """
    try:
        g = s if isinstance(s, MolecularGraph) else parse_smiles(s)
    except SmilesParseError:
        return False
    for idx, atom in enumerate(g.atoms):
        used, allowed = _valence(g, idx)
        if atom.explicit_h is None:
            if not allowed or used > allowed[-1]:
                return False
        elif used + atom.explicit_h not in allowed:
            return False
    return True
