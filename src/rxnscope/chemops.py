"""Chemistry utilities bridging drawings and clean structures.

Three concerns live here: the shorthand table that maps drawing tokens like
"Ts" or "OMe" to attachable fragments, a condensed-formula reader for tokens
the table does not list ("2-ClC6H4", "SO2Me"), and wedge/coordinate stereo
perception that turns 2D depictions into chiral tags and double-bond
geometry.  Fragments, and how they are cut and grafted, belong to
:mod:`rxnscope.molgraph`; hydrogen counts come from :mod:`rxnscope.smiles`.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from functools import cache
from importlib import resources
from typing import Mapping, Optional

from .jsonshape import read_json
from .molgraph import (
    ELEMENTS,
    AtomToken,
    Bond,
    Fragment,
    GraphError,
    MolecularGraph,
    RxnscopeError,
    chain_cis_trans,
    connected_components,
    ring_bonds,
)
from .smiles import VALENCES, implicit_h_count, is_valid, parse_smiles

HALOGENS = ("F", "Cl", "Br", "I")


class FormulaError(RxnscopeError, ValueError):
    """Raised when a token cannot be read as a condensed formula."""


class StereoPerceptionError(RxnscopeError, ValueError):
    """Raised when depiction stereo input is unusable (e.g. missing coords)."""


def _fragment_from_marked_smiles(token: str, smiles_text: str) -> Fragment:
    g = parse_smiles(smiles_text)
    markers = [
        i
        for i, atom in enumerate(g.atoms)
        if atom.kind == "wildcard" and atom.isotope is None
    ]
    if len(markers) != 1:
        raise GraphError(
            f"abbreviation {token!r} must contain exactly one '*' attachment marker"
        )
    marker = markers[0]
    mates = g.neighbors(marker)
    if len(mates) != 1:
        raise GraphError(f"abbreviation {token!r}: marker must have one neighbor")
    fragment = Fragment.cut(g, (i for i in range(len(g.atoms)) if i != marker), mates[0])
    if len(connected_components(fragment.graph)) != 1:
        raise GraphError(f"abbreviation {token!r} expands to a disconnected fragment")
    return fragment


class AbbreviationTable:
    """Token -> fragment lookup built from a {token: marked-SMILES} mapping."""

    def __init__(self, entries: Mapping[str, str]):
        self._fragments: dict[str, Fragment] = {}
        for token, smi in entries.items():
            self._fragments[token] = _fragment_from_marked_smiles(token, smi)

    @classmethod
    @cache
    def default(cls) -> "AbbreviationTable":
        """The packaged table, built on first use and shared by every caller."""
        text = resources.files("rxnscope.data").joinpath("abbreviations.json").read_text()
        return cls(read_json(text, {str: str}, "abbreviations.json", GraphError))

    def get(self, token: str) -> Optional[Fragment]:
        return self._fragments.get(token)

    def read(self, token: str) -> Optional[Fragment]:
        """The fragment ``token`` reads as, or None if it reads as nothing.

        The table row comes first, then the condensed formula read against
        this table.
        """
        hit = self._fragments.get(token)
        if hit is not None:
            return hit
        try:
            return parse_condensed_formula(token, self)
        except FormulaError:
            return None

    def tokens(self) -> list[str]:
        return sorted(self._fragments)


class AliasRegistry:
    """Document-scoped isotope aliases for tokens nothing can expand.

    The same unknown token always maps to the same wildcard isotope within
    one registry, so repeated occurrences stay identifiable. Isotopes are
    handed out from 100 on.
    """

    def __init__(self):
        self._aliases: dict[str, int] = {}
        self._next = 100

    def alias_for(self, token: str) -> int:
        if token not in self._aliases:
            self._aliases[token] = self._next
            self._next += 1
        return self._aliases[token]

    def wildcard(self, token: str) -> Fragment:
        """A wildcard atom standing for ``token``: its isotope is the alias."""
        atom = AtomToken(kind="wildcard", text="*", isotope=self.alias_for(token))
        return Fragment(graph=MolecularGraph(atoms=(atom,)), attachment=0)

    def items(self) -> dict[str, int]:
        return dict(self._aliases)


# ---------------------------------------------------------------------------
# Condensed formulas
# ---------------------------------------------------------------------------

# A substituted phenyl: locants, a group in parentheses or a plain one up
# to its last letter, the count of groups, and the ring. A plain group ends
# in a letter, so no digit run splits two ways and matching is linear.
_PHENYL = re.compile(
    r"^(?P<loc>\d+(?:,\d+)*)-"
    r"(?:\((?P<paren>[^()]+)\)|(?P<plain>[A-Za-z](?:[A-Za-z0-9]*[A-Za-z])?))"
    r"(?P<cnt>\d*)C6H(?P<h>\d)$"
)

# Alkyl shorthands the linear grammar itself understands, so formulas like
# "SO2Me" work even without a lookup table.
_BUILTIN_GROUPS = {"Me": 1, "Et": 2, "Pr": 3, "Bu": 4}


def _chain_fragment(length: int) -> Fragment:
    atoms = tuple(AtomToken(kind="element", text="C") for _ in range(length))
    bonds = tuple(Bond(a=i, b=i + 1, order="single") for i in range(length - 1))
    return Fragment(graph=MolecularGraph(atoms=atoms, bonds=bonds), attachment=0)


def _group_fragment(text: str, table: Optional[AbbreviationTable]) -> Fragment:
    if table is not None:
        hit = table.get(text)
        if hit is not None:
            return hit
    if text in _BUILTIN_GROUPS:
        return _chain_fragment(_BUILTIN_GROUPS[text])
    if text in ELEMENTS and (text in HALOGENS or text in VALENCES):
        atom = AtomToken(kind="element", text=text)
        return Fragment(graph=MolecularGraph(atoms=(atom,)), attachment=0)
    return parse_condensed_formula(text, table)


def _formula_number(digits: str, text: str) -> int:
    """The number the digit run ``digits`` of formula ``text`` writes; a
    run too long for ``int`` to convert reads as nothing."""
    try:
        return int(digits)
    except ValueError:
        raise FormulaError(f"{text!r} holds a number of {len(digits)} digits") from None


def _phenyl_pattern(text: str, table: Optional[AbbreviationTable]) -> Optional[Fragment]:
    m = _PHENYL.match(text)
    if not m:
        return None
    # A plain group's trailing digits are read first as the count, then,
    # where they are ASCII, as part of the group ("4-NO2C6H4").
    cnt = m.group("cnt")
    readings = [(m.group("paren") or m.group("plain"), cnt)]
    if m.group("plain") and cnt and cnt.isascii():
        readings.append((m.group("plain") + cnt, ""))
    locants = [_formula_number(x, text) for x in m.group("loc").split(",")]
    for grp, count in readings:
        if count and _formula_number(count, text) != len(locants):
            continue
        if len(set(locants)) != len(locants) or any(not 2 <= k <= 6 for k in locants):
            continue
        if int(m.group("h")) != 6 - 1 - len(locants):
            continue
        try:
            group = _group_fragment(grp, table)
        except FormulaError:
            continue
        atoms = [AtomToken(kind="element", text="C", aromatic=True) for _ in range(6)]
        bonds = [Bond(a=i, b=(i + 1) % 6, order="aromatic") for i in range(6)]
        for k in locants:
            bonds.append(Bond(a=k - 1, b=group.graft_onto(atoms, bonds, k - 1)))
        return Fragment(graph=MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds)), attachment=0)
    return None


# How deep parenthesized groups may nest in a linear formula: each level
# is read by a recursive call, so a deeper token is a FormulaError.
MAX_FORMULA_NESTING = 16

_LINEAR_TOKEN = re.compile(
    r"(?P<paren>\()|(?P<close>\))|(?P<count>\d+)|(?P<group>Me|Et|Pr|Bu)"
    r"|(?P<elem>Cl|Br|[BCNOSPFIH])"
)
_COUNT = re.compile(r"\d+")


def _parse_linear(text: str, table: Optional[AbbreviationTable]) -> Fragment:
    """Read a chain left to right; each atom hangs off the backbone atom.

    Chain shorthands before the first element atom ("MeO", "Me2NCH2") are
    its substituents, and the formula then attaches where the backbone
    ends, as a group written towards its attachment point is read.
    """
    atoms: list[AtomToken] = []
    bonds: list[Bond] = []
    explicit_h: dict[int, int] = {}
    leading: list[tuple[str, int]] = []

    def add_atom(symbol: str) -> int:
        atoms.append(AtomToken(kind="element", text=symbol))
        return len(atoms) - 1

    def check_fits(count: int) -> None:
        # Each counted group, atom or hydrogen takes at least one valence
        # of the backbone atom, so a count past its largest allowed
        # valence leaves no valid reading; it fails before any graft.
        atom = atoms[backbone]
        valences = VALENCES.get(atom.text, ()) if atom.kind == "element" else ()
        if count > max(valences, default=-atom.charge) + atom.charge:
            raise FormulaError(f"{text!r}: atom {atom.text} cannot carry {count} groups")

    def graft(token: str, count: int) -> None:
        check_fits(count)
        frag = _group_fragment(token, table)
        for _ in range(count):
            bonds.append(Bond(a=backbone, b=frag.graft_onto(atoms, bonds, backbone)))

    def read_count() -> int:
        nonlocal pos
        cm = _COUNT.match(text, pos)
        if cm:
            pos = cm.end()
            return _formula_number(cm.group(), text)
        return 1

    pos = 0
    backbone: Optional[int] = None
    while pos < len(text):
        m = _LINEAR_TOKEN.match(text, pos)
        if not m:
            raise FormulaError(f"cannot read condensed formula {text!r} at {pos}")
        pos = m.end()

        if m.group("count"):
            raise FormulaError(f"unexpected count in {text!r}")
        if m.group("close"):
            raise FormulaError(f"unbalanced ')' in {text!r}")
        if m.group("paren"):
            depth = 1
            end = pos
            while end < len(text) and depth:
                if text[end] == "(":
                    depth += 1
                    if depth > MAX_FORMULA_NESTING:
                        raise FormulaError(f"{text!r} nests groups deeper than {MAX_FORMULA_NESTING}")
                elif text[end] == ")":
                    depth -= 1
                end += 1
            if depth:
                raise FormulaError(f"unbalanced '(' in {text!r}")
            inner = text[pos : end - 1]
            pos = end
            count = read_count()
            if backbone is None:
                raise FormulaError(f"{text!r} starts with a parenthesized group")
            graft(inner, count)
            continue
        if m.group("group"):
            token = m.group("group")
            count = read_count()
            if backbone is None:
                leading.append((token, count))
                continue
            graft(token, count)
            if count == 1:
                backbone = bonds[-1].b
            continue
        symbol = m.group("elem")
        count = read_count()
        if symbol == "H":
            if backbone is None:
                raise FormulaError(f"{text!r} starts with hydrogen")
            check_fits(count)
            explicit_h[backbone] = explicit_h.get(backbone, 0) + count
            continue
        if backbone is None:
            if count != 1:
                raise FormulaError(f"{text!r}: leading atom cannot carry a count")
            backbone = add_atom(symbol)
            for token, n in leading:
                graft(token, n)
            continue
        check_fits(count)
        parent_symbol = atoms[backbone].text
        order = "double" if symbol == "O" and parent_symbol in ("N", "S") else "single"
        new_idx = None
        for _ in range(count):
            new_idx = add_atom(symbol)
            bonds.append(Bond(a=backbone, b=new_idx, order=order))
        if count == 1 and symbol not in HALOGENS and order == "single":
            backbone = new_idx

    if not atoms:
        raise FormulaError(f"condensed formula {text!r} has no element atom")
    final_atoms = [
        replace(atom, explicit_h=explicit_h[i]) if i in explicit_h else atom
        for i, atom in enumerate(atoms)
    ]
    return Fragment(
        graph=MolecularGraph(atoms=tuple(final_atoms), bonds=tuple(bonds)),
        attachment=backbone if leading else 0,
    )


def parse_condensed_formula(
    text: str, table: Optional[AbbreviationTable] = None
) -> Fragment:
    """Read a condensed group formula into an attachable fragment.

    Handles substituted-phenyl patterns ("4-BrC6H4", "3,5-(CF3)2C6H3"),
    plain phenyl ("C6H5") and linear chains ("CF3", "NO2", "SO2Me", "OMe",
    "MeO").
    Raises :class:`FormulaError` for anything else, and for a reading that
    is not a valid molecule once bonded at its attachment to one carbon
    ("OC2H5" would be an O carrying two carbons and five hydrogens).
    """
    token = text.strip()
    if not token:
        raise FormulaError("empty formula")
    if token == "C6H5":
        return _fragment_from_marked_smiles("C6H5", "*c1ccccc1")
    fragment = _phenyl_pattern(token, table) or _parse_linear(token, table)
    atoms, bonds = [AtomToken(kind="element", text="C")], []
    bonds.append(Bond(a=0, b=fragment.graft_onto(atoms, bonds, 0)))
    if not is_valid(MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))):
        raise FormulaError(f"condensed formula {text!r} reads as an invalid group")
    return fragment


# ---------------------------------------------------------------------------
# Stereo perception from 2D depictions
# ---------------------------------------------------------------------------


def _det3(m: list[list[float]]) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _orientation(points: list[tuple[float, float, float]]) -> float:
    p1, p2, p3, p4 = points
    rows = [
        [p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]],
        [p3[0] - p1[0], p3[1] - p1[1], p3[2] - p1[2]],
        [p4[0] - p1[0], p4[1] - p1[1], p4[2] - p1[2]],
    ]
    return _det3(rows)


def _tag_from_wedge(
    g: MolecularGraph, center: int, wedge_bond: Bond, order: tuple[int, ...]
) -> Optional[str]:
    cx, cy = g.atoms[center].coords
    points: list[tuple[float, float, float]] = []
    real = [r for r in order if r >= 0]
    for mate in real:
        atom = g.atoms[mate]
        if atom.coords is None:
            raise StereoPerceptionError(
                f"atom {mate} bonded to wedge at atom {center} has no coordinates"
            )
        z = 0.0
        if {wedge_bond.a, wedge_bond.b} == {center, mate}:
            z = 1.0 if wedge_bond.wedge == "solid" else -1.0
        points.append((atom.coords[0] - cx, atom.coords[1] - cy, z))
    if len(real) == 3:
        sx = sum(p[0] for p in points) / 3.0
        sy = sum(p[1] for p in points) / 3.0
        sz = sum(p[2] for p in points) / 3.0
        virtual = (-sx, -sy, -sz)
        if math.hypot(*virtual) < 1e-9:
            return None
        if order[-1] != -1:
            return None
        points.append(virtual)
    volume = _orientation(points)
    if abs(volume) < 1e-9:
        return None
    return "@" if volume < 0 else "@@"


def _cross_side(
    tail: tuple[float, float], head: tuple[float, float], point: tuple[float, float]
) -> float:
    return (head[0] - tail[0]) * (point[1] - tail[1]) - (head[1] - tail[1]) * (
        point[0] - tail[0]
    )


def perceive_stereo(g: MolecularGraph) -> tuple[MolecularGraph, list[str]]:
    """Derive chiral tags and double-bond geometry from 2D depiction data.

    Solid wedges lift the wide-end atom above the plane, dashed below; the
    sign of the resulting signed volume picks the tag.  Conflicting wedges
    at one center leave it untagged with a warning.  Double bonds outside
    rings get direction marks from a side-of-line test.
    """
    warnings: list[str] = []
    adj = g.adjacency()
    atoms = list(g.atoms)

    wedges_at: dict[int, list[Bond]] = {}
    for bond in g.bonds:
        if bond.wedge != "none":
            wedges_at.setdefault(bond.a, []).append(bond)

    for center, wedge_bonds in sorted(wedges_at.items()):
        atom = atoms[center]
        if atom.coords is None:
            raise StereoPerceptionError(f"wedge at atom {center} lacks coordinates")
        mates = sorted(m for m, _ in adj[center])
        if not 3 <= len(mates) <= 4:
            warnings.append(f"wedge at atom {center} with {len(mates)} neighbors ignored")
            continue
        # Three neighbors and no H: the lone pair stands in, order keeps three slots.
        has_h_slot = len(mates) == 3 and implicit_h_count(g, center) == 1
        order = tuple(mates + [-1] if has_h_slot else mates)
        tags = set()
        for wedge_bond in wedge_bonds:
            tags.add(_tag_from_wedge(g, center, wedge_bond, order))
        tags.discard(None)
        if len(tags) > 1:
            warnings.append(f"conflicting wedges at atom {center}; left untagged")
            continue
        if not tags:
            continue
        tag = tags.pop()
        new_atom = replace(atom, chiral=tag, chiral_order=order)
        if has_h_slot and atom.explicit_h is None:
            new_atom = replace(new_atom, explicit_h=1)
        atoms[center] = new_atom

    # Collect geometry facts first, then chain them: a conjugated chain
    # shares reference bonds between double bonds.
    facts = []
    ring = ring_bonds(g)
    for pos, bond in enumerate(g.bonds):
        if bond.order != "double" or pos in ring:
            continue
        if any(atoms[e].coords is None for e in (bond.a, bond.b)):
            continue
        refs: dict[int, int] = {}
        ok = True
        for end in (bond.a, bond.b):
            candidates = sorted(
                m
                for m, b in adj[end]
                if {b.a, b.b} != {bond.a, bond.b}
                and b.order == "single"
                and atoms[m].coords is not None
            )
            if not candidates:
                ok = False
                break
            refs[end] = candidates[0]
        if not ok:
            continue
        pa, pb = atoms[bond.a].coords, atoms[bond.b].coords
        side_a = _cross_side(pa, pb, atoms[refs[bond.a]].coords)
        side_b = _cross_side(pa, pb, atoms[refs[bond.b]].coords)
        if abs(side_a) < 1e-9 or abs(side_b) < 1e-9:
            continue
        same_side = (side_a > 0) == (side_b > 0)
        ref_a = g.bond_index(bond.a, refs[bond.a])
        ref_b = g.bond_index(bond.b, refs[bond.b])
        facts.append((bond.a, ref_a, bond.b, ref_b, same_side))

    bonds = list(g.bonds)
    for _, _, end, ref, _ in chain_cis_trans(bonds, facts):
        mate = bonds[ref].other(end)
        warnings.append(f"inconsistent double-bond geometry around atoms {end}-{mate}")
    return replace(g, atoms=tuple(atoms), bonds=tuple(bonds)), warnings
