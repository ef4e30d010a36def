import copy
import pickle
import random
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from rxnscope.molgraph import (
    AtomToken,
    Bond,
    GRAFT_SLOT,
    Fragment,
    GraphError,
    MolecularGraph,
    atom_token_from_symbol,
    connected_components,
    graph_from_json,
    graph_to_json,
    is_placeholder_label,
    main_component,
    normalize_chiral_orders,
    permutation_parity,
    ring_bonds,
    subgraph,
)
from rxnscope.smiles import parse_smiles, write_smiles, canonicalize

from oracles import outcome, random_molecular_graph, random_symbol, reference_atom_token_from_symbol


def carbon(**kw) -> AtomToken:
    return AtomToken(kind="element", text="C", **kw)


class TestAtomToken:
    def test_placeholder_grammar(self):
        assert is_placeholder_label("R1")
        assert is_placeholder_label("Ar2")
        assert is_placeholder_label("R")
        assert not is_placeholder_label("1R")
        assert not is_placeholder_label("")

    def test_placeholder_text_must_be_bracketed(self):
        AtomToken(kind="placeholder", text="[R1]")
        with pytest.raises(GraphError):
            AtomToken(kind="placeholder", text="R1")
        with pytest.raises(GraphError):
            AtomToken(kind="placeholder", text="[9R]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            AtomToken(kind="mystery", text="C")

    def test_label_property(self):
        assert AtomToken(kind="placeholder", text="[Ar2]").label == "Ar2"
        with pytest.raises(GraphError):
            _ = carbon().label

    def test_heavy(self):
        assert carbon().is_heavy
        assert not AtomToken(kind="element", text="H").is_heavy
        assert AtomToken(kind="wildcard", text="*").is_heavy


class TestBond:
    def test_wedge_requires_single_order(self):
        Bond(a=0, b=1, order="single", wedge="solid")
        with pytest.raises(GraphError):
            Bond(a=0, b=1, order="double", wedge="solid")

    def test_bad_direction_rejected(self):
        with pytest.raises(GraphError):
            Bond(a=0, b=1, direction="sideways")

    def test_other_endpoint(self):
        b = Bond(a=3, b=7)
        assert b.other(3) == 7
        assert b.other(7) == 3
        with pytest.raises(GraphError):
            b.other(5)

    def test_positional_and_keyword_construction_agree(self):
        bond = Bond(3, 2, "single", "dashed", "down")
        assert bond == Bond(a=3, b=2, order="single", wedge="dashed", direction="down")
        assert (bond.a, bond.b, bond.order, bond.wedge, bond.direction) == (3, 2, "single", "dashed", "down")
        assert Bond(0, 1) == Bond(a=0, b=1) == Bond(0, 1, "single", "none", None)
        assert Bond(0, 1, "double") == Bond(a=0, b=1, order="double")
        assert [(f.name, f.default) for f in fields(Bond)][2:] == [
            ("order", "single"), ("wedge", "none"), ("direction", None)
        ]

    def test_equal_however_built_and_hashed_alike(self):
        plain = Bond(2, 5, "single", direction="up")
        built = [
            Bond(0, 1, direction="up").moved(2, 5),
            Bond(2, 5).with_away(2, "up"),
            Bond(2, 5, direction="up").with_away(5, "down"),
            replace(Bond(2, 5, "double"), order="single", direction="up"),
        ]
        for bond in built:
            assert bond == plain and hash(bond) == hash(plain)
        assert len({plain, *built}) == 1
        assert plain != Bond(5, 2, direction="up")
        assert plain != Bond(2, 5, direction="down")
        assert plain != (2, 5, "single", "none", "up")

    def test_fields_cannot_be_assigned(self):
        bond = Bond(0, 1)
        with pytest.raises(FrozenInstanceError):
            bond.order = "double"
        with pytest.raises(FrozenInstanceError):
            del bond.a
        assert bond == Bond(0, 1)

    def test_other_names_cannot_be_assigned_either(self):
        # Not a TypeError from the generated frozen ``__setattr__``, which
        # names the class that ``slots=True`` replaced.
        bond = Bond(0, 1)
        with pytest.raises(FrozenInstanceError):
            bond.extra = 1
        with pytest.raises(FrozenInstanceError):
            del bond.extra
        assert bond == Bond(0, 1) and not hasattr(bond, "extra")

    def test_copies_and_pickles_are_equal_bonds(self):
        bond = Bond(3, 2, "single", "dashed", "down")
        for twin in (copy.copy(bond), copy.deepcopy(bond), pickle.loads(pickle.dumps(bond))):
            assert type(twin) is Bond and twin == bond and hash(twin) == hash(bond)
        assert replace(bond, a=4) == Bond(4, 2, "single", "dashed", "down")

    def test_repr(self):
        assert repr(Bond(0, 1)) == "Bond(a=0, b=1, order='single', wedge='none', direction=None)"
        assert repr(Bond(3, 2, "single", "dashed", "down")) == (
            "Bond(a=3, b=2, order='single', wedge='dashed', direction='down')"
        )

    @pytest.mark.parametrize(
        "fields_, message",
        [
            ({"order": "quadruple"}, "unknown bond order 'quadruple'"),
            ({"order": []}, "unknown bond order []"),
            ({"wedge": "wavy"}, "unknown wedge kind 'wavy'"),
            ({"wedge": {}}, "unknown wedge kind {}"),
            ({"order": "double", "wedge": "solid"}, "wedges are only meaningful on single bonds"),
            ({"direction": "sideways"}, "bad direction mark 'sideways'"),
            ({"direction": []}, "bad direction mark []"),
        ],
    )
    def test_a_bad_field_is_named_however_built(self, fields_, message):
        # Unhashable values too: the field checks never hash a value.
        with pytest.raises(GraphError) as built:
            Bond(0, 1, **fields_)
        with pytest.raises(GraphError) as replaced:
            replace(Bond(0, 1), **fields_)
        entry = {{"direction": "dir"}.get(key, key): value for key, value in fields_.items()}
        with pytest.raises(GraphError) as decoded:
            graph_from_json({"atoms": [{"symbol": "C"}, {"symbol": "C"}], "bonds": [{"a": 0, "b": 1, **entry}]})
        assert (str(built.value), str(replaced.value), str(decoded.value)) == (
            message, message, f"bonds[0]: {message}"
        )


def _on_cycle_by_deletion(g: MolecularGraph, pos: int) -> bool:
    """Oracle: a bond lies on a cycle iff its ends stay connected without it."""
    bond = g.bonds[pos]
    rest = [b for i, b in enumerate(g.bonds) if i != pos and {b.a, b.b} != {bond.a, bond.b}]
    pruned = MolecularGraph(atoms=g.atoms, bonds=rest)
    return any(bond.a in comp and bond.b in comp for comp in connected_components(pruned))


class TestRingBonds:
    def test_bridge_between_rings_is_not_a_ring_bond(self):
        g = parse_smiles("C1CC1CCC1CC1")
        ring = ring_bonds(g)
        assert {tuple(sorted((g.bonds[p].a, g.bonds[p].b))) for p in ring} == {
            (0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)
        }

    def test_keep_restricts_the_cycles(self):
        g = parse_smiles("C1=CCC1")
        assert ring_bonds(g, lambda b: b.order == "single") == set()
        assert len(ring_bonds(g)) == 4

    def test_agrees_with_deletion_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_molecular_graph(rng, max_atoms=12)
            expected = {p for p in range(len(g.bonds)) if _on_cycle_by_deletion(g, p)}
            assert ring_bonds(g) == expected

    def test_long_chain_needs_no_recursion(self):
        g = parse_smiles("C" * 5000 + "1CCC1")
        assert len(ring_bonds(g)) == 4


# Each case breaks one structural rule at atom or bond 1 of two carbons
# joined by bond 0: the fields atom 1 takes, and the bonds as pairs.
MALFORMED = {
    "dangling-bond": ({}, [(0, 1), (1, 2)]),
    "self-loop": ({}, [(0, 1), (1, 1)]),
    "duplicate-bond": ({}, [(0, 1), (1, 0)]),
    "negative-h": ({"explicit_h": -1}, [(0, 1)]),
    "bad-isotope": ({"isotope": 0}, [(0, 1)]),
}
JSON_KEYS = {"explicit_h": "h", "isotope": "isotope"}


class TestMalformedGraphs:
    """A malformed graph cannot be built, however it is built."""

    @staticmethod
    def where(rule):
        # An atom is checked on its own, so only the codec knows its index.
        return rule if MALFORMED[rule][0] else f"{rule} at bond 1"

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_constructor_rejects(self, rule):
        atom, pairs = MALFORMED[rule]
        with pytest.raises(GraphError, match=self.where(rule)):
            MolecularGraph(
                atoms=(carbon(), carbon(**atom)),
                bonds=tuple(Bond(a=a, b=b) for a, b in pairs),
            )

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_replace_rejects(self, rule):
        g = MolecularGraph(atoms=(carbon(), carbon()), bonds=(Bond(a=0, b=1),))
        atom, pairs = MALFORMED[rule]
        with pytest.raises(GraphError, match=self.where(rule)):
            replace(
                g,
                atoms=(g.atoms[0], replace(g.atoms[1], **atom)),
                bonds=tuple(Bond(a=a, b=b) for a, b in pairs),
            )

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_graph_json_rejects(self, rule):
        atom, pairs = MALFORMED[rule]
        fields = {JSON_KEYS[key]: value for key, value in atom.items()}
        data = {
            "atoms": [{"symbol": "C"}, {"symbol": "C", **fields}],
            "bonds": [{"a": a, "b": b} for a, b in pairs],
        }
        where = rf"atoms\[1\]: {rule}" if atom else f"{rule} at bond 1"
        with pytest.raises(GraphError, match=where):
            graph_from_json(data)


# Bond endpoints that are no atom index, though some compare equal to one.
NOT_AN_INDEX = {"bool": True, "float": 0.5, "integral-float": 1.0, "string": "1", "none": None, "list": [1]}


class TestNonIntegerEndpoints:
    """A bond endpoint whose type is not ``int``, a bool included, is
    rejected however the bond is built."""

    @pytest.mark.parametrize("end", ["a", "b"])
    @pytest.mark.parametrize("kind", sorted(NOT_AN_INDEX))
    def test_constructor_rejects(self, kind, end):
        with pytest.raises(GraphError, match="non-integer-endpoint"):
            MolecularGraph(
                atoms=(carbon(), carbon(), carbon()),
                bonds=(Bond(**{"a": 0, "b": 2, end: NOT_AN_INDEX[kind]}),),
            )

    @pytest.mark.parametrize("end", ["a", "b"])
    @pytest.mark.parametrize("kind", sorted(NOT_AN_INDEX))
    def test_replace_rejects(self, kind, end):
        with pytest.raises(GraphError, match="non-integer-endpoint"):
            replace(Bond(0, 2), **{end: NOT_AN_INDEX[kind]})

    @pytest.mark.parametrize("end", ["a", "b"])
    @pytest.mark.parametrize("kind", sorted(NOT_AN_INDEX))
    def test_graph_json_rejects(self, kind, end):
        data = {
            "atoms": [{"symbol": "C"}] * 3,
            "bonds": [{"a": 0, "b": 1}, {"a": 0, "b": 2, end: NOT_AN_INDEX[kind]}],
        }
        with pytest.raises(GraphError, match=r"bonds\[1\]: non-integer-endpoint"):
            graph_from_json(data)


def _scan_bond(g: MolecularGraph, i: int, j: int):
    return next((b for b in g.bonds if {b.a, b.b} == {i, j}), None)


def _assert_matches_bond_scan(g: MolecularGraph) -> None:
    adj = g.adjacency()
    assert len(adj) == len(g.atoms)
    for i in range(len(g.atoms)):
        expected = [(b.other(i), b) for b in g.bonds if i in (b.a, b.b)]
        assert list(adj[i]) == expected
        assert g.neighbors(i) == [mate for mate, _ in expected]
        for j in range(len(g.atoms)):
            first = _scan_bond(g, i, j)
            assert g.bond_between(i, j) is first
            pos = g.bond_index(i, j)
            assert (None if pos is None else g.bonds[pos]) is first


random_graphs = st.builds(
    lambda seed: random_molecular_graph(random.Random(seed)), st.integers(0, 2**32 - 1)
)


class TestIndexedAdjacency:
    @given(random_graphs, st.booleans())
    def test_agrees_with_bond_scan_first_bond_wins(self, g, duplicate):
        if duplicate:
            # A second bond on a pair cannot be built; the error names the first.
            pos = len(g.bonds) // 2
            first = g.bonds[pos]
            message = f"duplicate-bond at bond {len(g.bonds)}: same pair as bond {pos}"
            with pytest.raises(GraphError, match=message):
                replace(g, bonds=g.bonds + (Bond(a=first.b, b=first.a, order="triple"),))
        _assert_matches_bond_scan(g)

    @given(random_graphs)
    def test_shared_adjacency_is_read_only(self, g):
        adj = g.adjacency()
        assert g.adjacency() is adj
        with pytest.raises(TypeError):
            adj[0] = ()
        with pytest.raises(AttributeError):
            adj[0].append((0, g.bonds[0]))
        g.neighbors(0).clear()
        assert g.adjacency() == adj and adj[0]

    @given(random_graphs)
    def test_replaced_graph_answers_from_its_own_bonds(self, g):
        _assert_matches_bond_scan(g)
        dropped = g.bonds[0]
        h = replace(g, bonds=g.bonds[1:])
        assert h.bond_between(dropped.a, dropped.b) is None
        _assert_matches_bond_scan(h)

    def test_out_of_range_endpoint_is_a_graph_error(self):
        with pytest.raises(GraphError, match="dangling-bond at bond 0"):
            MolecularGraph(atoms=(carbon(),), bonds=(Bond(a=0, b=-1),))


class TestComponents:
    def test_single_component_identity(self):
        g = parse_smiles("CCO")
        assert main_component(g) is g  # one component: no copy
        assert canonicalize(write_smiles(main_component(g))) == canonicalize("CCO")

    def test_most_heavy_atoms_wins(self):
        g = parse_smiles("c1ccccc1.O")
        main = main_component(g)
        assert len(main.atoms) == 6
        assert all(a.aromatic for a in main.atoms)

    def test_tie_breaks_to_lowest_original_index(self):
        assert [a.text for a in main_component(parse_smiles("C.N")).atoms] == ["C"]
        assert [a.text for a in main_component(parse_smiles("N.C")).atoms] == ["N"]

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            main_component(MolecularGraph())

    def test_component_listing_sorted(self):
        g = parse_smiles("CC.O.N")
        assert connected_components(g) == [[0, 1], [2], [3]]


class TestSubgraph:
    @pytest.mark.parametrize(
        "indices, bad",
        [
            ([-1, 0], "-1"),  # not read as the last atom
            ([0, 1, 5], "5"),  # three indices, but not 0..2
            ([0, 1, 3], "3"),
            ([0, "a"], "'a'"),
            ([0, 1.0], "1.0"),
            ([True, 0], "True"),
            ([None], "None"),
        ],
    )
    def test_hostile_index_is_a_graph_error(self, indices, bad):
        with pytest.raises(GraphError, match=rf"subgraph index {re.escape(bad)} is not an atom of a 3-atom graph"):
            subgraph(parse_smiles("CCO"), indices)

    def test_full_index_list_returns_the_graph(self):
        g = parse_smiles("N[C@@H](C)O")
        assert subgraph(g, [3, 1, 0, 2, 1, 3]) is g
        assert subgraph(MolecularGraph(), []) == MolecularGraph()

    def test_induced_bonds_only(self):
        g = parse_smiles("CCNO")
        sub = subgraph(g, [3, 0, 1])
        assert [a.text for a in sub.atoms] == ["C", "C", "O"]
        # Bond 2-3 drops because atom 2 is missing; 0-1 survives.
        assert [(b.a, b.b) for b in sub.bonds] == [(0, 1)]

    def test_chiral_order_remapped_or_cleared(self):
        g = parse_smiles("N[C@@H](C)O")
        center = next(i for i, a in enumerate(g.atoms) if a.chiral)
        full = subgraph(g, range(len(g.atoms)))
        assert full.atoms[center].chiral == "@@"
        cut = subgraph(g, [center, 0])
        kept = [a for a in cut.atoms if a.chiral]
        assert kept == []  # reference atoms were cut away

    def test_fragment_attachment_round_trip(self):
        g = parse_smiles("CCc1ccccc1")
        frag = Fragment.cut(g, [1, 0], 1)
        assert frag.attachment == 1
        phenyl = Fragment.cut(g, range(2, 8), 2)
        assert (phenyl.attachment, write_smiles(phenyl.graph)) == (0, "c1ccccc1")
        # Grafting the phenyl back onto the ethyl rebuilds the molecule.
        atoms, bonds = list(frag.graph.atoms), list(frag.graph.bonds)
        bonds.append(Bond(a=frag.attachment, b=phenyl.graft_onto(atoms, bonds)))
        assert canonicalize(MolecularGraph(atoms=atoms, bonds=bonds)) == canonicalize(g)

    def test_attachment_missing(self):
        g = parse_smiles("CC")
        with pytest.raises(GraphError):
            Fragment.cut(g, [0, 1], 5)
        with pytest.raises(GraphError):
            Fragment(g, 2)

    def test_graft_renumbers_chiral_orders_and_drops_coords(self):
        g = parse_smiles("C[C@H](F)Cl")
        g = replace(g, atoms=tuple(replace(a, coords=(1.0, 2.0)) for a in g.atoms))
        fragment = Fragment(g, 0)
        atoms, bonds = [carbon(), carbon()], [Bond(a=0, b=1)]
        assert fragment.graft_onto(atoms, bonds) == 2
        assert atoms[3].chiral_order == tuple(
            -1 if ref < 0 else ref + 2 for ref in g.atoms[1].chiral_order
        )
        assert all(atom.coords is None for atom in atoms)
        assert [(b.a, b.b) for b in bonds[1:]] == [(2, 3), (3, 4), (3, 5)]


    def test_cut_keeps_the_slot_of_the_atom_cut_from(self):
        g = parse_smiles("*[C@H](F)Cl")
        fragment = Fragment.cut(g, [1, 2, 3], 1)
        centre = fragment.graph.atoms[0]
        assert (centre.chiral, centre.chiral_order) == ("@", (GRAFT_SLOT, -1, 1, 2))
        # Grafted onto atom 0, that atom fills the slot; onto nothing, the tag goes.
        atoms, bonds = [carbon()], []
        assert fragment.graft_onto(atoms, bonds, 0) == 1
        assert (atoms[1].chiral, atoms[1].chiral_order) == ("@", (0, -1, 2, 3))
        atoms = [carbon()]
        fragment.graft_onto(atoms, [])
        assert (atoms[1].chiral, atoms[1].chiral_order) == (None, None)

    def test_cut_from_two_atoms_drops_the_tag(self):
        g = parse_smiles("C[C@H](F)Cl")
        fragment = Fragment.cut(g, [1, 2], 1)
        assert fragment.graph.atoms[0].chiral is None


class TestParity:
    def test_identity_even(self):
        assert permutation_parity([1, 2, 3], [1, 2, 3]) == 0

    def test_single_swap_odd(self):
        assert permutation_parity([1, 2, 3], [2, 1, 3]) == 1

    def test_cycle_even(self):
        assert permutation_parity([1, 2, 3], [2, 3, 1]) == 0

    def test_non_permutation_rejected(self):
        with pytest.raises(GraphError):
            permutation_parity([1, 2], [1, 1])

    @given(st.permutations(list(range(6))))
    def test_parity_matches_swap_count(self, perm):
        # Building dst from src by k transpositions gives parity k mod 2.
        src = list(range(6))
        parity = permutation_parity(src, perm)
        swaps = 0
        work = list(perm)
        for i in range(len(work)):
            while work[i] != i:
                j = work[i]
                work[i], work[j] = work[j], work[i]
                swaps += 1
        assert parity == swaps % 2


class TestNormalizeChiralOrders:
    def test_tag_flips_with_odd_reorder(self):
        g = parse_smiles("N[C@@H](C)O")
        normalized = normalize_chiral_orders(g)
        center = next(i for i, a in enumerate(normalized.atoms) if a.chiral)
        order = normalized.atoms[center].chiral_order
        # Real neighbors ascending, implicit-H slot pinned to the tail.
        assert order[-1] == -1
        assert list(order[:-1]) == sorted(order[:-1])
        # Same molecule either way.
        assert canonicalize(write_smiles(normalized)) == canonicalize(
            "N[C@@H](C)O"
        )

    def test_idempotent(self):
        g = parse_smiles("C[C@H](N)C(=O)O")
        once = normalize_chiral_orders(g)
        assert normalize_chiral_orders(once) == once


class TestJsonCodec:
    def test_round_trip_small(self):
        g = parse_smiles("c1ccccc1C(=O)[O-]")
        assert graph_from_json(graph_to_json(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_molecular_graph(rng)
            assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize(
        "data",
        [
            {"atoms": 5},
            {"atoms": [{"symbol": "C", "h": "2"}]},
            {"atoms": [{"symbol": "C", "isotope": "13"}]},
            {"atoms": [{"symbol": "C", "charge": 1.5}]},
            {"atoms": [{"symbol": 6}]},
            {"atoms": [{"symbol": "C"}, {"symbol": "C"}], "bonds": [{"a": 0, "b": 1.7}]},
            {"atoms": [{"symbol": "C"}, {"symbol": "C"}], "bonds": [{"a": True, "b": 0}]},
        ],
    )
    def test_mistyped_fields_raise_graph_error(self, data):
        with pytest.raises(GraphError):
            graph_from_json(data)

    def test_coordinate_too_large_for_a_float_names_its_atom(self):
        # A JSON integer of 401 digits reads, but no float holds it.
        data = {"atoms": [{"symbol": "C"}, {"symbol": "C", "x": 10**400, "y": 0}]}
        with pytest.raises(GraphError, match=r"^atoms\[1\]: int too large to convert to float$"):
            graph_from_json(data)

    def test_placeholder_and_coords_survive(self):
        g = MolecularGraph(
            atoms=(
                AtomToken(kind="placeholder", text="[R1]", coords=(0.5, -1.0)),
                carbon(isotope=13),
            ),
            bonds=(Bond(a=0, b=1, wedge="dashed"),),
        )
        data = graph_to_json(g)
        assert sorted(data) == ["atoms", "bonds"]
        back = graph_from_json(data)
        assert back == g
        assert back.atoms[0].coords == (0.5, -1.0)

    def test_label_and_role_of_older_files_are_ignored(self):
        data = graph_to_json(parse_smiles("[R1]C(=O)O"))
        older = dict(data, label=3, role="bogus")
        assert graph_from_json(older) == graph_from_json(data)

    def test_graph_fields_are_atoms_and_bonds(self):
        assert [f.name for f in fields(MolecularGraph)] == ["atoms", "bonds"]

    def test_symbols_read_as_the_reference_reads_them(self):
        rng = random.Random(36)
        kinds = set()
        for _ in range(4000):
            symbol = random_symbol(rng)
            extra = {} if rng.random() < 0.5 else dict(
                charge=rng.randint(-2, 2),
                explicit_h=rng.choice([None, 0, 1, 3]),
                isotope=rng.choice([None, 13]),
                coords=rng.choice([None, (0.5, -1.0)]),
            )
            got = outcome(atom_token_from_symbol, symbol, **extra)
            assert got == outcome(reference_atom_token_from_symbol, symbol, **extra), (symbol, extra)
            if isinstance(got, AtomToken):
                kinds.add((got.kind, got.aromatic, got.chiral is not None))
        assert {k for k, _, _ in kinds} == {"element", "placeholder", "abbreviation", "wildcard"}
        assert ("element", True, True) in kinds


class TestErrorFamily:
    def test_every_error_class_derives_from_rxnscope_error(self):
        import importlib
        import inspect
        import pkgutil

        import rxnscope
        from rxnscope import RxnscopeError

        found = []
        for info in pkgutil.walk_packages(rxnscope.__path__, "rxnscope."):
            module = importlib.import_module(info.name)
            for name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == module.__name__ and name.endswith("Error"):
                    found.append(cls)
                    assert issubclass(cls, RxnscopeError), cls
        # The walk reaches both the chemistry modules and the agents package.
        names = {cls.__name__ for cls in found}
        assert {"GraphError", "SmilesParseError", "ToolError", "DescriptorError"} <= names
