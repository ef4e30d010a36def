import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from rxnscope import smiles
from rxnscope.metrics import evaluate
from rxnscope.smiles import (
    SmilesParseError,
    _assign_directions,
    canonicalize,
    is_valid,
    parse_scope,
    parse_smiles,
    write_smiles,
)

from corpus import MOLECULES
from oracles import renumbered


class TestParseScope:
    def test_repeat_returns_the_kept_graph_equal_to_a_fresh_parse(self):
        with parse_scope():
            kept = [parse_smiles(s) for s in MOLECULES]
            assert all(parse_smiles(s) is g for s, g in zip(MOLECULES, kept))
        assert kept == [parse_smiles(s) for s in MOLECULES]

    def test_each_text_parsed_once_and_failures_not_kept(self, monkeypatch):
        parsed = []
        real = smiles._parse
        monkeypatch.setattr(smiles, "_parse", lambda text: parsed.append(text) or real(text))
        with parse_scope():
            for _ in range(2):
                parse_smiles("CCO")
                with pytest.raises(SmilesParseError):
                    parse_smiles("C(")
        assert parsed == ["CCO", "C(", "C("]

    def test_label_and_role_do_not_leak_into_the_memo(self):
        with parse_scope():
            named = parse_smiles("CCO", label="3a", role="product")
            plain = parse_smiles("CCO")
            assert (named.label, named.role) == ("3a", "product")
            assert (plain.label, plain.role) == (None, "unknown")
            assert named.atoms == plain.atoms
            assert parse_smiles("CCO") is plain

    def test_no_memo_outside_a_scope(self):
        assert parse_smiles("CCO") is not parse_smiles("CCO")
        with parse_scope():
            pass
        evaluate([], [])
        assert parse_smiles("CCO") is not parse_smiles("CCO")


class TestParse:
    def test_ethanol_shape(self):
        g = parse_smiles("CCO")
        assert len(g.atoms) == 3
        assert len(g.bonds) == 2
        assert all(b.order == "single" for b in g.bonds)

    def test_toluene_aromatic_ring(self):
        g = parse_smiles("Cc1ccccc1")
        assert len(g.atoms) == 7
        assert sum(a.aromatic for a in g.atoms) == 6
        assert sum(b.order == "aromatic" for b in g.bonds) == 6

    def test_branches_and_orders(self):
        g = parse_smiles("CC(=O)C#N")
        orders = sorted(b.order for b in g.bonds)
        assert orders == ["double", "single", "single", "triple"]

    def test_percent_ring_closure(self):
        assert canonicalize("C%12CC%12") == canonicalize("C1CC1")

    def test_charge_isotope_hcount(self):
        g = parse_smiles("[13CH3-]")
        atom = g.atoms[0]
        assert atom.isotope == 13
        assert atom.charge == -1
        assert atom.explicit_h == 3

    def test_placeholder_and_abbreviation_brackets(self):
        g = parse_smiles("[Ar]C([R])=O")
        kinds = [a.kind for a in g.atoms]
        assert kinds.count("placeholder") == 2
        g2 = parse_smiles("[Ts]C")
        assert g2.atoms[0].kind == "abbreviation"

    def test_dot_components(self):
        g = parse_smiles("C.O")
        assert len(g.atoms) == 2
        assert g.bonds == ()

    @pytest.mark.parametrize(
        "bad",
        ["", "C1CC", "C(", "C)", "[CH3", "Xx", "cC", "C=", "1CC"],
    )
    def test_rejects(self, bad):
        with pytest.raises(SmilesParseError):
            parse_smiles(bad)

    def test_error_carries_offset(self):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles("CCXC")
        assert "offset 2" in str(err.value)

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("CC(c)C", 3),  # aromatic atom 2 lies on no aromatic ring
            ("F/C=C(/F)/F", 4),  # conflicting direction marks at atom 2
        ],
    )
    def test_post_parse_check_reports_atom_offset(self, bad, offset):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(bad)
        assert err.value.offset == offset
        assert f"(offset {offset})" in str(err.value)


class TestWrite:
    def test_round_trip_benzene(self):
        g = parse_smiles("c1ccccc1")
        out = write_smiles(g)
        h = parse_smiles(out)
        assert len(h.atoms) == 6
        assert all(a.aromatic for a in h.atoms)

    def test_placeholders_written_verbatim(self):
        s = canonicalize("[Ar]C([R])=O")
        assert "[Ar]" in s and "[R]" in s
        assert canonicalize(s) == s

    def test_wildcard_isotope_alias(self):
        g = parse_smiles("[13*]")
        assert write_smiles(g) == "[13*]"

    def test_non_isomeric_strips_marks(self):
        g = parse_smiles("N[C@@H](C)O")
        assert "@" not in write_smiles(g, isomeric=False)
        assert "@" in write_smiles(g, isomeric=True)


class TestCanonicalize:
    def test_renumbered_ethanol(self):
        assert canonicalize("OCC") == canonicalize("CCO")

    def test_benzene_all_traversals(self):
        """Every rotation/reflection/start atom of the ring collapses."""
        g = parse_smiles("c1ccccc1")
        forms = set()
        ring = list(range(6))
        for shift in range(6):
            for flip in (1, -1):
                order = [ring[(shift + flip * i) % 6] for i in range(6)]
                forms.add(canonicalize(renumbered(g, order)))
                forms.add(canonicalize(write_smiles(renumbered(g, order))))
        assert len(forms) == 1

    def test_ring_digit_choice_irrelevant(self):
        assert canonicalize("C1CCCCC1") == canonicalize("C2CCCCC2")

    def test_corpus_idempotent(self):
        for s in MOLECULES:
            c = canonicalize(s)
            assert canonicalize(c) == c, s

    def test_corpus_round_trip_fixpoint(self):
        for s in MOLECULES:
            assert canonicalize(write_smiles(parse_smiles(s), isomeric=True)) == canonicalize(s), s

    @given(st.sampled_from(MOLECULES), st.integers(0, 2**32 - 1))
    def test_renumbering_invariance(self, s, seed):
        g = parse_smiles(s)
        perm = list(range(len(g.atoms)))
        random.Random(seed).shuffle(perm)
        c = canonicalize(s)
        assert canonicalize(write_smiles(renumbered(g, perm), isomeric=True)) == c
        assert canonicalize(renumbered(g, perm)) == c

    def test_components_sorted(self):
        assert canonicalize("O.C") == canonicalize("C.O")


class TestStereoForms:
    def test_chiral_pair_distinct(self):
        assert canonicalize("N[C@@H](C)O") != canonicalize("N[C@H](C)O")

    def test_chiral_rewrites_converge(self):
        assert canonicalize("N[C@@H](C)O") == canonicalize("O[C@@H](N)C")
        assert canonicalize("N[C@@H](C)O") != canonicalize("O[C@H](N)C")

    def test_folded_hydrogen_takes_the_h_slot(self):
        # An explicit [H] atom becomes the implicit-H slot where it stood.
        assert canonicalize("[H][C@](F)(Cl)Br") == canonicalize("[C@H](F)(Cl)Br")
        assert canonicalize("F[C@]([H])(Cl)Br") == canonicalize("[C@@H](F)(Cl)Br")
        assert canonicalize("F[C@]([H])(Cl)Br") != canonicalize("[C@H](F)(Cl)Br")

    def test_cis_trans_distinct(self):
        assert canonicalize("C/C=C/C") != canonicalize("C/C=C\\C")

    def test_direction_convention_equivalents(self):
        assert canonicalize("F/C=C(/Cl)Br") == canonicalize("F/C=C(\\Br)Cl")
        assert canonicalize("F/C=C(/Cl)Br") != canonicalize("F/C=C(\\Cl)Br")
        assert canonicalize("C(/F)(\\Cl)=C/Br") == canonicalize("F/C(Cl)=C\\Br")

    def test_conjugated_chain_reversal(self):
        # Same triene written from either chain end.
        assert canonicalize("C/C=C/C=C\\C=C/C") == canonicalize("C/C=C\\C=C/C=C/C")
        assert canonicalize("C/C=C/C=C/C") == canonicalize("C(=C/C)\\C=C\\C")

    def test_unmarked_double_bond_stays_unmarked(self):
        assert "/" not in canonicalize("CC=CC")
        assert "\\" not in canonicalize("CC=CC")

    def test_direction_free_graph_comes_back_unchanged(self):
        g = parse_smiles("CC=CC")
        assert _assign_directions(g, list(range(len(g.atoms)))) is g
        marked = parse_smiles("C/C=C/C")
        assert _assign_directions(marked, list(range(len(marked.atoms)))) is not marked


class TestIsValid:
    @pytest.mark.parametrize(
        "good",
        [
            "CCC(=O)c1ccccc1",
            "B(O)(O)c1ccccc1",
            "S(=O)(=O)(O)O",
            "FC(F)(F)F",
            "[O-]C(C)=O",
            "[NH4+]",
            "O=P(O)(O)O",
        ],
    )
    def test_accepts(self, good):
        assert is_valid(good)

    @pytest.mark.parametrize(
        "bad",
        [
            "[Ar]C([R])=O",  # placeholders never count as valid molecules
            "C(C)(C)(C)(C)C",  # pentavalent carbon
            "O(C)(C)C",  # trivalent oxygen
            "C1CC",  # parse failure
            "F(C)C",
        ],
    )
    def test_rejects(self, bad):
        assert not is_valid(bad)

    def test_monotone_under_canonicalization(self):
        for s in MOLECULES:
            assert is_valid(s) == is_valid(canonicalize(s)), s

    def test_graph_input_matches_text(self):
        for s in MOLECULES:
            assert is_valid(parse_smiles(s)) == is_valid(s), s


def test_automorphism_count_does_not_blow_up():
    # Highly symmetric molecule: the tie-break search must stay bounded.
    s = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
    c = canonicalize(s)
    assert canonicalize(c) == c
