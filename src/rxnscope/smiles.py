"""SMILES parsing, writing, canonicalization and validity checking.

Everything here is built directly on :mod:`rxnscope.molgraph` so that R-group
placeholders and drawing abbreviations survive a round trip: "[R1]" stays a
placeholder atom, "[Ts]" stays an abbreviation token, and unknown bracket
atoms never hard-fail the parse.  The canonical form produced by
:func:`canonicalize` is an internal contract only; callers must compare
canonical-to-canonical rather than against strings from other toolkits.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import replace
from typing import Iterator, Optional, Union

from .molgraph import (
    AROMATIC_SYMBOLS,
    ELEMENTS,
    AtomToken,
    Bond,
    GraphError,
    MolecularGraph,
    RxnscopeError,
    chain_cis_trans,
    connected_components,
    flip,
    is_placeholder_label,
    permutation_parity,
    renumber_chiral,
    subgraph,
)

ORGANIC_SUBSET = frozenset(("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"))
ORGANIC_AROMATIC = frozenset(("b", "c", "n", "o", "p", "s"))

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

_BOND_CHAR_ORDERS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic"}
_ORDER_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

_BRACKET_RE = re.compile(
    r"^(?P<iso>\d+)?"
    r"(?P<sym>[A-Z][a-z]?|[a-z]{1,2}|\*)"
    r"(?P<chi>@@|@)?"
    r"(?P<h>H\d*)?"
    r"(?P<chg>\+\d+|-\d+|\++|-+)?"
    r"(?::\d+)?$"
)


class SmilesParseError(RxnscopeError, ValueError):
    """Parse failure with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class _AtomRec:
    __slots__ = ("token", "offset", "slots")

    def __init__(self, token: AtomToken, offset: int):
        self.token = token
        self.offset = offset  # where the atom's text starts
        # Neighbor slots in order of appearance; entries are atom indices,
        # -1 for the in-bracket H, or ("ring", n) until the ring closes.
        self.slots: list = []


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[_AtomRec] = []
        self.bonds: list[Bond] = []
        self.bond_pairs: set[tuple[int, int]] = set()
        self.ring_open: dict[int, tuple[int, Optional[str], Optional[str], int]] = {}

    def error(self, message: str, offset: Optional[int] = None) -> SmilesParseError:
        return SmilesParseError(message, self.pos if offset is None else offset)

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _parse_charge(self, raw: Optional[str]) -> int:
        if not raw:
            return 0
        if raw[0] == "+":
            return int(raw[1:]) if raw[1:].isdigit() else len(raw)
        return -int(raw[1:]) if raw[1:].isdigit() else -len(raw)

    def _bracket_atom(self) -> AtomToken:
        start = self.pos
        end = self.text.find("]", start)
        if end < 0:
            raise self.error("unclosed bracket atom", start)
        inner = self.text[start + 1 : end]
        self.pos = end + 1
        if not inner:
            raise self.error("empty bracket atom", start)
        m = _BRACKET_RE.match(inner)
        if m:
            sym = m.group("sym")
            iso = int(m.group("iso")) if m.group("iso") else None
            chi = m.group("chi")
            h = m.group("h")
            explicit_h = (int(h[1:]) if len(h) > 1 else 1) if h else 0
            charge = self._parse_charge(m.group("chg"))
            if sym == "*":
                return AtomToken(
                    kind="wildcard", text="*", charge=charge, isotope=iso, explicit_h=None
                )
            if sym in ELEMENTS:
                return AtomToken(
                    kind="element",
                    text=sym,
                    charge=charge,
                    explicit_h=explicit_h,
                    isotope=iso,
                    chiral=chi,
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
        # Unknown bracket content: placeholder when it fits the label
        # grammar, otherwise an opaque abbreviation.  Never a hard error.
        if is_placeholder_label(inner):
            return AtomToken(kind="placeholder", text=f"[{inner}]")
        return AtomToken(kind="abbreviation", text=inner)

    def _organic_atom(self) -> Optional[AtomToken]:
        two = self.text[self.pos : self.pos + 2]
        if two in ("Cl", "Br"):
            self.pos += 2
            return AtomToken(kind="element", text=two)
        ch = self._peek()
        if ch in ORGANIC_SUBSET:
            self.pos += 1
            return AtomToken(kind="element", text=ch)
        if ch in ORGANIC_AROMATIC:
            self.pos += 1
            return AtomToken(kind="element", text=ch.upper(), aromatic=True)
        if ch == "*":
            self.pos += 1
            return AtomToken(kind="wildcard", text="*")
        return None

    # -- bond bookkeeping --------------------------------------------------

    def _add_bond(
        self,
        a: int,
        b: int,
        order: Optional[str],
        direction: Optional[str],
        offset: int,
    ) -> None:
        if a == b:
            raise self.error("ring bond to the same atom", offset)
        pair = (a, b) if a < b else (b, a)
        if pair in self.bond_pairs:
            raise self.error("duplicate bond", offset)
        self.bond_pairs.add(pair)
        if order is None:
            both_aromatic = self.atoms[a].token.aromatic and self.atoms[b].token.aromatic
            order = "aromatic" if both_aromatic else "single"
        self.bonds.append(Bond(a=a, b=b, order=order, direction=direction))

    def _close_ring(
        self, number: int, atom: int, order: Optional[str], direction: Optional[str], offset: int
    ) -> None:
        partner, p_order, p_dir, _ = self.ring_open.pop(number)
        if order is not None and p_order is not None and order != p_order:
            raise self.error(f"ring {number} closed with conflicting bond order", offset)
        final_order = order if order is not None else p_order
        # Direction marks are stored oriented a->b (opener->closer).  A mark
        # written at the closing digit reads closer->opener, so flip it.
        closing_dir = None if direction is None else flip(direction)
        if closing_dir is not None and p_dir is not None and closing_dir != p_dir:
            raise self.error(f"ring {number} closed with conflicting direction", offset)
        final_dir = p_dir if p_dir is not None else closing_dir
        self._add_bond(partner, atom, final_order, final_dir, offset)
        opener = self.atoms[partner]
        for i, slot in enumerate(opener.slots):
            if slot == ("ring", number):
                opener.slots[i] = atom
                break
        self.atoms[atom].slots.append(partner)

    # -- main loop ---------------------------------------------------------

    def parse(self) -> tuple[list[_AtomRec], list[Bond]]:
        text = self.text
        prev: Optional[int] = None
        pending_order: Optional[str] = None
        pending_dir: Optional[str] = None
        pending_offset = 0
        branch_stack: list[int] = []

        def take_pending() -> tuple[Optional[str], Optional[str]]:
            nonlocal pending_order, pending_dir
            order, direction = pending_order, pending_dir
            pending_order = pending_dir = None
            return order, direction

        while self.pos < len(text):
            ch = text[self.pos]
            offset = self.pos
            if ch == "[":
                token = self._bracket_atom()
            else:
                token = self._organic_atom()
            if token is not None:
                idx = len(self.atoms)
                rec = _AtomRec(token, offset)
                self.atoms.append(rec)
                if prev is not None:
                    order, direction = take_pending()
                    self._add_bond(prev, idx, order, direction, offset)
                    self.atoms[prev].slots.append(idx)
                    rec.slots.append(prev)
                elif pending_order is not None or pending_dir is not None:
                    raise self.error("bond symbol with no preceding atom", pending_offset)
                if token.kind == "element" and token.explicit_h == 1:
                    rec.slots.append(-1)
                prev = idx
                continue
            if ch.isdigit() or ch == "%":
                if prev is None:
                    raise self.error("ring digit with no preceding atom", offset)
                if ch == "%":
                    digits = text[self.pos + 1 : self.pos + 3]
                    if len(digits) != 2 or not digits.isdigit():
                        raise self.error("% must be followed by two digits", offset)
                    number = int(digits)
                    self.pos += 3
                else:
                    number = int(ch)
                    self.pos += 1
                order, direction = take_pending()
                if number in self.ring_open:
                    self._close_ring(number, prev, order, direction, offset)
                else:
                    self.ring_open[number] = (prev, order, direction, offset)
                    self.atoms[prev].slots.append(("ring", number))
                continue
            if ch in _BOND_CHAR_ORDERS:
                if pending_order is not None:
                    raise self.error("two bond symbols in a row", offset)
                pending_order = _BOND_CHAR_ORDERS[ch]
                pending_offset = offset
                self.pos += 1
                continue
            if ch in ("/", "\\"):
                if pending_order is not None:
                    raise self.error("two bond symbols in a row", offset)
                pending_order = "single"
                pending_dir = "up" if ch == "/" else "down"
                pending_offset = offset
                self.pos += 1
                continue
            if ch == "(":
                if prev is None:
                    raise self.error("branch with no preceding atom", offset)
                branch_stack.append(prev)
                self.pos += 1
                continue
            if ch == ")":
                if not branch_stack:
                    raise self.error("unmatched closing parenthesis", offset)
                if pending_order is not None:
                    raise self.error("dangling bond symbol before ')'", pending_offset)
                prev = branch_stack.pop()
                self.pos += 1
                continue
            if ch == ".":
                if branch_stack:
                    raise self.error("component separator inside a branch", offset)
                if pending_order is not None:
                    raise self.error("bond symbol before component separator", pending_offset)
                prev = None
                self.pos += 1
                continue
            raise self.error(f"unexpected character {ch!r}", offset)

        if branch_stack:
            raise self.error("unclosed branch", len(text) - 1)
        if pending_order is not None:
            raise self.error("dangling bond symbol", pending_offset)
        if self.ring_open:
            number, (_, _, _, offset) = next(iter(self.ring_open.items()))
            raise self.error(f"unclosed ring bond {number}", offset)
        return self.atoms, self.bonds


def _perceive_aromaticity(g: MolecularGraph) -> MolecularGraph:
    """Upgrade qualifying Kekulé 6-rings to aromatic form.

    A ring qualifies when all six atoms are C/N/O/S elements and the ring
    bonds alternate single/double (or are already all aromatic).  All rings
    are judged against the original bond orders, then upgraded at once.
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
            upgrade_atoms.update(members)
            upgrade_bonds.update(walk_bonds)

    if not upgrade_atoms:
        return g
    atoms = [
        replace(a, aromatic=True) if i in upgrade_atoms and a.kind == "element" else a
        for i, a in enumerate(g.atoms)
    ]
    bonds = [
        replace(b, order="aromatic", direction=None) if i in upgrade_bonds else b
        for i, b in enumerate(g.bonds)
    ]
    return replace(g, atoms=tuple(atoms), bonds=tuple(bonds))


def _check_aromatic_rings(g: MolecularGraph, recs: list[_AtomRec]) -> None:
    flagged = {i for i, a in enumerate(g.atoms) if a.aromatic}
    if not flagged:
        return
    adj = g.adjacency()
    degree = {
        i: {m for m, b in adj[i] if b.order == "aromatic" and m in flagged} for i in flagged
    }
    # Iteratively strip leaves; whatever survives lies on an aromatic cycle.
    changed = True
    alive = set(flagged)
    while changed:
        changed = False
        for i in list(alive):
            mates = degree[i] & alive
            if len(mates) < 2:
                alive.discard(i)
                changed = True
    dead = flagged - alive
    if dead:
        atom = min(dead)
        raise SmilesParseError(
            f"aromatic atom {atom} is not part of an aromatic ring", recs[atom].offset
        )


def _check_direction_consistency(g: MolecularGraph, recs: list[_AtomRec]) -> None:
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
                raise SmilesParseError(
                    f"conflicting direction marks at atom {end}", recs[end].offset
                )


# Graphs parsed inside the current parse scope, keyed by exact input text;
# None outside a scope.
_scope_graphs: ContextVar[Optional[dict[str, MolecularGraph]]] = ContextVar(
    "rxnscope_scope_graphs", default=None
)


@contextmanager
def parse_scope() -> Iterator[None]:
    """Within the block, :func:`parse_smiles` parses each distinct text once.

    The memo lives exactly as long as the block and belongs to the current
    context (thread or task); a nested scope starts empty and the outer one
    resumes when it ends. ``execute_plan`` runs inside one, because a
    pipeline re-reads the SMILES texts it wrote, and so does
    ``decode_records``, because a document repeats molecule texts.
    """
    token = _scope_graphs.set({})
    try:
        yield
    finally:
        _scope_graphs.reset(token)


def parse_smiles(
    text: str, label: Optional[str] = None, role: str = "unknown"
) -> MolecularGraph:
    """Parse a SMILES string into a :class:`MolecularGraph`.

    Unknown bracket tokens become placeholder or abbreviation atoms rather
    than failing; genuine syntax errors raise :class:`SmilesParseError`
    carrying the byte offset.

    Inside a :func:`parse_scope`, a text parsed before returns the same
    graph object (graphs are immutable); a failure is not kept, so it is
    raised afresh each time. A call with a ``label`` or ``role`` gets a
    copy carrying them, and the kept graph stays label-less.
    """
    if not isinstance(text, str):
        raise SmilesParseError("input is not a string", 0)
    memo = _scope_graphs.get()
    g = memo.get(text) if memo is not None else None
    if g is None:
        g = _parse(text)
        if memo is not None:
            memo[text] = g
    if label is None and role == "unknown":
        return g
    return replace(g, label=label, role=role)


def _parse(text: str) -> MolecularGraph:
    stripped = text.strip()
    if not stripped:
        raise SmilesParseError("empty SMILES string", 0)
    parser = _Parser(stripped)
    recs, bonds = parser.parse()
    g = MolecularGraph(atoms=tuple(rec.token for rec in recs), bonds=tuple(bonds))
    g = _perceive_aromaticity(g)
    _check_aromatic_rings(g, recs)
    _check_direction_consistency(g, recs)
    # Resolve chiral neighbor orders from appearance slots.
    final_atoms: list[AtomToken] = []
    for atom, rec in zip(g.atoms, recs):
        if atom.chiral is not None:
            slots = tuple(s for s in rec.slots if not isinstance(s, tuple))
            if len(slots) < 3:
                atom = replace(atom, chiral=None)
            else:
                atom = replace(atom, chiral_order=slots)
        final_atoms.append(atom)
    return replace(g, atoms=tuple(final_atoms))


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
        if atom.isotope is not None:
            return f"[{atom.isotope}*]"
        return "*"
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


def _bond_text(
    g: MolecularGraph,
    bond: Bond,
    src: int,
    emit_dirs: set[tuple[int, int]],
    isomeric: bool,
) -> str:
    if bond.order == "double":
        return "="
    if bond.order == "triple":
        return "#"
    both_aromatic = g.atoms[bond.a].aromatic and g.atoms[bond.b].aromatic
    if bond.order == "aromatic":
        return "" if both_aromatic else ":"
    if isomeric and bond.direction is not None and (bond.a, bond.b) in emit_dirs:
        return "/" if bond.away(src) == "up" else "\\"
    if both_aromatic:
        return "-"
    return ""


def write_smiles(
    g: MolecularGraph, isomeric: bool = True, ranks: Optional[list[int]] = None
) -> str:
    """Serialize a graph to SMILES; the output re-parses isomorphic to ``g``.

    ``ranks`` fixes traversal order (used by the canonicalizer); without it,
    atom index order is used.
    """
    if not g.atoms:
        raise GraphError("cannot write an empty graph")
    order = ranks if ranks is not None else list(range(len(g.atoms)))
    adj = [sorted(mates, key=lambda pair: order[pair[0]]) for mates in g.adjacency()]
    emit_dirs = _emittable_directions(g) if isomeric else set()

    visited: set[int] = set()
    ring_numbers: dict[frozenset[int], int] = {}
    ring_partner_at: dict[int, list[tuple[int, int, Bond]]] = {}
    free_digits: list[int] = []
    next_digit = 1

    def alloc_digit() -> int:
        nonlocal next_digit
        if free_digits:
            free_digits.sort()
            return free_digits.pop(0)
        digit = next_digit
        next_digit += 1
        return digit

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
        ring_partner_at.setdefault(bond.a, []).append((bond.b, 0, bond))
        ring_partner_at.setdefault(bond.b, []).append((bond.a, 0, bond))

    # Second pass: emit text.
    open_digits: dict[frozenset[int], int] = {}

    def emit(cur: int, from_atom: Optional[int], via: Optional[Bond]) -> str:
        closures = sorted(
            ring_partner_at.get(cur, []), key=lambda item: order[item[0]]
        )
        out_slots: list[int] = []
        if from_atom is not None:
            out_slots.append(from_atom)
        atom = g.atoms[cur]
        if atom.kind == "element" and atom.explicit_h == 1:
            out_slots.append(-1)
        closure_parts: list[str] = []
        for mate, _, bond in closures:
            key = frozenset((cur, mate))
            if key in open_digits:
                digit = open_digits.pop(key)
                free_digits.append(digit)
            else:
                digit = alloc_digit()
                open_digits[key] = digit
            mark = _bond_text(g, bond, cur, emit_dirs, isomeric)
            closure_parts.append(mark + (str(digit) if digit < 10 else f"%{digit:02d}"))
            out_slots.append(mate)
        children = tree_children[cur]
        for mate, bond in children:
            out_slots.append(mate)
        tag = None
        if isomeric and atom.chiral is not None and atom.chiral_order is not None:
            if sorted(out_slots) == sorted(atom.chiral_order):
                parity = permutation_parity(atom.chiral_order, out_slots)
                tag = atom.chiral if parity == 0 else ("@@" if atom.chiral == "@" else "@")
        parts = [_atom_text(atom, tag)]
        parts.extend(closure_parts)
        for i, (mate, bond) in enumerate(children):
            bond_str = _bond_text(g, bond, cur, emit_dirs, isomeric)
            child_text = bond_str + emit(mate, cur, bond)
            if i < len(children) - 1:
                parts.append(f"({child_text})")
            else:
                parts.append(child_text)
        return "".join(parts)

    pieces = [emit(root, None, None) for root in roots]
    return ".".join(pieces)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

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


def _refine(g: MolecularGraph, seed: list) -> list[int]:
    adj = g.adjacency()
    keys = list(seed)
    ranks = _dense_ranks(keys)
    while True:
        new_keys = [
            (
                ranks[i],
                tuple(sorted((_ORDER_RANK[b.order], ranks[m]) for m, b in adj[i])),
            )
            for i in range(len(g.atoms))
        ]
        new_ranks = _dense_ranks(new_keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def _dense_ranks(keys: list) -> list[int]:
    uniq = sorted(set(keys))
    lookup = {k: i for i, k in enumerate(uniq)}
    return [lookup[k] for k in keys]


def _canonical_component(g: MolecularGraph, budget: list[int]) -> str:
    ranks = _refine(g, _initial_keys(g))
    return _canonical_search(g, ranks, budget)


def _canonical_search(g: MolecularGraph, ranks: list[int], budget: list[int]) -> str:
    n = len(g.atoms)
    cells: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = sorted((r for r, members in cells.items() if len(members) > 1))
    if not tied:
        final = _assign_directions(g, ranks)
        return write_smiles(final, isomeric=True, ranks=ranks)
    members = cells[tied[0]]
    candidates = members if budget[0] > 0 else members[:1]
    best: Optional[str] = None
    for promoted in candidates:
        budget[0] -= 1
        seed = [(r, 0 if i == promoted else 1) for i, r in enumerate(ranks)]
        sub_ranks = _refine(g, seed)
        result = _canonical_search(g, sub_ranks, budget)
        if best is None or result < best:
            best = result
    assert best is not None
    return best


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
    keep = [i for i in range(len(g.atoms)) if i not in fold]
    index_map = {old: new for new, old in enumerate(keep)}
    atoms = []
    for old in keep:
        atom = g.atoms[old]
        folded_here = [h for h, mate in fold.items() if mate == old]
        if folded_here:
            if atom.explicit_h is not None:
                atom = replace(atom, explicit_h=atom.explicit_h + len(folded_here))
            elif atom.chiral is not None:
                atom = replace(atom, explicit_h=len(folded_here))
        # A hydrogen folded into this atom becomes its implicit-H slot.
        atom = renumber_chiral(
            atom, lambda ref: -1 if fold.get(ref) == old else index_map.get(ref)
        )
        if atom.chiral_order is not None and atom.chiral_order.count(-1) > 1:
            atom = replace(atom, chiral=None, chiral_order=None)
        atoms.append(atom)
    bonds = [
        replace(b, a=index_map[b.a], b=index_map[b.b])
        for b in g.bonds
        if b.a in index_map and b.b in index_map
    ]
    return replace(g, atoms=tuple(atoms), bonds=tuple(bonds))


def canonicalize(s: Union[str, MolecularGraph]) -> str:
    """Canonical SMILES form: deterministic, renumbering-invariant, idempotent.

    ``s`` is a SMILES text, which is parsed first, or a graph as
    :func:`parse_smiles` builds it. Explicit hydrogens are folded into
    neighbor H counts, qualifying Kekulé rings become aromatic (in the
    parse), and components are sorted, so equal molecules map to equal
    strings regardless of input atom order or ring-digit choices.
    """
    g = s if isinstance(s, MolecularGraph) else parse_smiles(s)
    g = _fold_explicit_hydrogens(g)
    budget = [4096]
    pieces = []
    for comp in connected_components(g):
        sub = subgraph(g, comp, label=None, role="unknown", provenance={})
        pieces.append(_canonical_component(sub, budget))
    return ".".join(sorted(pieces))


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------


def _implied_valence_units(g: MolecularGraph, idx: int) -> float:
    atom = g.atoms[idx]
    adj = g.adjacency()[idx]
    if atom.aromatic:
        aromatic_bonds = sum(1 for _, b in adj if b.order == "aromatic")
        other = sum(_ORDER_VALUE[b.order] for _, b in adj if b.order != "aromatic")
        pi = 0
        if atom.text == "C":
            pi = 1
        elif atom.text in ("N", "P"):
            # Pyridine-type N contributes a pi electron; pyrrole-type does not.
            if (atom.explicit_h in (None, 0)) and len(adj) == 2 and atom.charge == 0:
                pi = 1
            elif atom.charge == 1 and (atom.explicit_h or len(adj) == 3):
                pi = 1
        return aromatic_bonds + other + pi
    return sum(_ORDER_VALUE[b.order] for _, b in adj)


def is_valid(s: Union[str, MolecularGraph]) -> bool:
    """True when ``s`` parses, has no placeholder atoms, and valences check out.

    ``s`` is a SMILES text or an already parsed graph.
    """
    try:
        g = s if isinstance(s, MolecularGraph) else parse_smiles(s)
    except SmilesParseError:
        return False
    for idx, atom in enumerate(g.atoms):
        if atom.kind != "element":
            return False
        if atom.text not in VALENCES:
            return False
        allowed = sorted(v + atom.charge for v in VALENCES[atom.text])
        allowed = [v for v in allowed if v >= 0]
        if not allowed:
            return False
        used = math.ceil(_implied_valence_units(g, idx))
        if atom.explicit_h is not None:
            if used + atom.explicit_h not in allowed:
                return False
        else:
            if used > max(allowed):
                return False
    return True
