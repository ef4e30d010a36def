import random
import time
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from rxnscope.chemops import (
    AbbreviationTable,
    _phenyl_pattern,
    AliasRegistry,
    FormulaError,
    StereoPerceptionError,
    parse_condensed_formula,
    perceive_stereo,
)
from rxnscope.molgraph import AtomToken, Bond, MolecularGraph
from rxnscope.reaction import ConditionLexicon
from rxnscope.rgroup import expand_abbreviations, substitute_placeholders
from rxnscope.smiles import canonicalize, is_valid, parse_smiles, write_smiles

from oracles import (
    double_bond_geometry,
    flip_wedges,
    mirror_drawing,
    numpy_wedge_tag,
    outcome,
    random_phenyl_token,
    random_polyene_drawing,
    random_wedge_drawing,
    reference_phenyl,
)


def plug(template: str, **assignment) -> str:
    """Substitute tokens into a template and return the canonical result."""
    g = substitute_placeholders(parse_smiles(template), assignment)
    return canonicalize(write_smiles(g))


def on_carbon(fragment) -> MolecularGraph:
    """``fragment`` bonded at its attachment to one carbon."""
    atoms, bonds = [AtomToken(kind="element", text="C")], []
    bonds.append(Bond(a=0, b=fragment.graft_onto(atoms, bonds)))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def carbon_with(token: str) -> MolecularGraph:
    """One carbon bonded to one abbreviation atom reading ``token``."""
    atoms = (AtomToken(kind="element", text="C"), AtomToken(kind="abbreviation", text=token))
    return MolecularGraph(atoms=atoms, bonds=(Bond(0, 1),))


class TestAbbreviationTable:
    def test_seed_tokens_present(self):
        table = AbbreviationTable.default()
        for token in ["Ph", "Et", "Me", "nPr", "iPr", "Ts", "CF3", "OMe", "OEt"]:
            assert table.get(token) is not None, token

    def test_every_fragment_validates_with_attachment(self):
        table = AbbreviationTable.default()
        for token in table.tokens():
            frag = table.get(token)
            assert is_valid(on_carbon(frag)), token
            assert 0 <= frag.attachment < len(frag.graph.atoms), token

    def test_packaged_tables_are_built_once(self):
        assert AbbreviationTable.default() is AbbreviationTable.default()
        assert ConditionLexicon.default() is ConditionLexicon.default()

    def test_fragment_is_shared_and_a_splice_leaves_it_unchanged(self):
        table = AbbreviationTable.default()
        ph = table.get("Ph")
        assert table.get("Ph") is ph
        before = (ph.attachment, ph.graph.atoms, ph.graph.bonds)
        assert plug("[R1]CC(=O)[R2]", R1="Ph", R2="Ph") == canonicalize(
            "c1ccccc1CC(=O)c1ccccc1"
        )
        assert table.get("Ph") is ph
        assert (ph.attachment, ph.graph.atoms, ph.graph.bonds) == before
        with pytest.raises(FrozenInstanceError):
            ph.attachment = 1

    def test_read_is_row_then_formula_then_none(self):
        table = AbbreviationTable.default()
        assert table.read("Ph") is table.get("Ph")
        formula = table.read("4-BrC6H4")
        assert canonicalize(formula.graph) == canonicalize(parse_condensed_formula("4-BrC6H4").graph)
        assert table.read("Qq7") is None
        assert table.read("((((") is None


class TestExpandAbbreviation:
    def test_ph_into_acyl_template(self):
        assert plug("[R3]C(C)=O", R3="Ph") == canonicalize("CC(=O)c1ccccc1")

    def test_ortho_chlorophenyl(self):
        assert plug("[Ar2]C", Ar2="2-ClC6H4") == canonicalize("Cc1ccccc1Cl")

    def test_para_vs_meta_bromophenyl_differ(self):
        para = plug("[Ar]C", Ar="4-BrC6H4")
        meta = plug("[Ar]C", Ar="3-BrC6H4")
        assert para == canonicalize("Cc1ccc(Br)cc1")
        assert meta == canonicalize("Cc1cccc(Br)c1")
        assert para != meta

    def test_ipr_attaches_at_central_carbon(self):
        assert plug("[R]O", R="iPr") == canonicalize("CC(C)O")

    def test_unknown_token_becomes_aliased_wildcard(self):
        reg = AliasRegistry()
        out = expand_abbreviations(carbon_with("Zzq9"), reg)
        assert [(a.kind, a.isotope) for a in out.atoms] == [("element", None), ("wildcard", 100)]
        assert reg.items() == {"Zzq9": 100}

    def test_alias_stable_within_registry(self):
        reg = AliasRegistry()
        a, b, c = (expand_abbreviations(carbon_with(token), reg) for token in ("Qq1", "Qq2", "Qq1"))
        assert a.atoms[1].isotope == c.atoms[1].isotope == 100
        assert b.atoms[1].isotope == 101

    @given(st.text(min_size=1, max_size=10).filter(str.isprintable))
    def test_total_over_arbitrary_tokens(self, token):
        out = expand_abbreviations(carbon_with(token), AliasRegistry())
        assert len(out.atoms) >= 2
        wildcard = any(a.kind == "wildcard" and a.isotope == 100 for a in out.atoms)
        assert wildcard or is_valid(out), token


class TestCondensedFormula:
    def test_cf3(self):
        frag = parse_condensed_formula("CF3")
        texts = sorted(a.text for a in frag.graph.atoms)
        assert texts == ["C", "F", "F", "F"]
        assert frag.graph.atoms[frag.attachment].text == "C"

    def test_no2(self):
        # Charge-separated nitro form, not hypervalent nitrogen.
        assert plug("[R]c1ccccc1", R="NO2") == canonicalize("[O-][N+](=O)c1ccccc1")

    def test_disubstituted_phenyl_pattern(self):
        got = plug("[Ar]C", Ar="3,5-(CF3)2C6H3")
        assert got == canonicalize("Cc1cc(C(F)(F)F)cc(C(F)(F)F)c1")

    # Tokens whose two plain readings both succeed, so their order decides
    # (dinitroso before nitro, cyano before a C-N chain).
    PHENYL_TOKENS = ["2,4-NO2C6H3", "4-OH1C6H4", "4-CN1C6H4", "4-NO2C6H4"]

    def test_phenyl_tokens_read_as_the_reference_reads_them(self):
        rng = random.Random(36)
        tokens = self.PHENYL_TOKENS + [random_phenyl_token(rng) for _ in range(3000)]
        for table in (None, AbbreviationTable.default()):
            got = [outcome(_phenyl_pattern, token, table) for token in tokens]
            want = [outcome(reference_phenyl, token, table) for token in tokens]
            assert [t for t, a, b in zip(tokens, got, want) if a != b] == []
            assert sum(g is not None for g in got) > 500

    @pytest.mark.parametrize(
        "formula,expected",
        [
            ("4-FooC6H4", "c1ccc(cc1)C[C@H](F)Cl"),
            ("CH2(Foo)", "[CH2]C[C@H](F)Cl"),
            ("N(Foo)2", "N(C[C@H](F)Cl)C[C@H](F)Cl"),
        ],
    )
    def test_table_group_keeps_its_chiral_tag(self, formula, expected):
        frag = parse_condensed_formula(formula, AbbreviationTable({"Foo": "*C[C@H](F)Cl"}))
        got = canonicalize(write_smiles(frag.graph))
        assert got == canonicalize(expected)
        assert got != canonicalize(expected.replace("@", "@@"))

    @pytest.mark.parametrize(
        "leading,trailing",
        [
            ("4-MeOC6H4", "4-OMeC6H4"),
            ("Me2N", "NMe2"),
            ("MeOCH2", "CH2OMe"),
            ("Et2NSO2", "SO2NEt2"),
        ],
    )
    def test_leading_chain_shorthands_are_substituents(self, leading, trailing):
        # A group written towards its attachment reads as the same group.
        assert plug("[R]C(C)=O", R=leading) == plug("[R]C(C)=O", R=trailing)

    @pytest.mark.parametrize(
        "formula",
        ["C" + "1" * 5000, "2-Me" + "1" * 5000 + "C6H4", "CMe1000000000", "CH1000000000", "NCl1000000000"],
    )
    def test_count_no_atom_can_carry_reads_as_nothing(self, formula):
        # A digit run too long for ``int``, or a count past the backbone
        # atom's largest valence, is a FormulaError before anything is
        # grafted, so the token reads as nothing in bounded time.
        start = time.process_time()
        with pytest.raises(FormulaError):
            parse_condensed_formula(formula)
        assert AbbreviationTable.default().read(formula) is None
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("bad", ["XYZ", "nPr", "", "C6", "9-BrC6H4", "Me2"])
    def test_rejects_non_formula(self, bad):
        with pytest.raises(FormulaError):
            parse_condensed_formula(bad)

    @pytest.mark.parametrize("formula", ["OC2H5", "OC6H4", "MeOC6H4"])
    def test_over_valent_reading_falls_back_to_the_wildcard(self, formula):
        # Read as counts of atoms on the backbone O, these would give an O
        # carrying two to seven carbons.
        with pytest.raises(FormulaError):
            parse_condensed_formula(formula)
        assert plug("[R]C", R=formula) == "C[100*]"

    @pytest.mark.parametrize(
        "formula,expected",
        [
            ("4-MeOC6H4", "Cc1ccc(cc1)OC"),
            ("SO2Me", "CS(C)(=O)=O"),
            ("NO2", "C[N+]([O-])=O"),
            ("CF3", "CC(F)(F)F"),
            ("CH2OMe", "C[CH2]OC"),
        ],
    )
    def test_valid_readings_are_kept(self, formula, expected):
        assert plug("[R]C", R=formula) == expected


def drawing_trans_butene() -> MolecularGraph:
    # Zig-zag trans-2-butene: methyls on opposite sides of the C2=C3 line.
    coords = [(0.0, 0.0), (1.0, 0.6), (2.0, 0.0), (3.0, 0.6)]
    atoms = tuple(AtomToken(kind="element", text="C", coords=c) for c in coords)
    bonds = (
        Bond(a=0, b=1),
        Bond(a=1, b=2, order="double"),
        Bond(a=2, b=3),
    )
    return MolecularGraph(atoms=atoms, bonds=bonds)


def drawing_hexadiene(c5=(5.0, 0.5)) -> MolecularGraph:
    # Zig-zag hexa-2,4-diene, C0..C5; c5 moves the last methyl.
    coords = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, 0.5), (4.0, 0.0), c5]
    atoms = tuple(AtomToken(kind="element", text="C", coords=c) for c in coords)
    orders = ["single", "double", "single", "double", "single"]
    bonds = tuple(Bond(a=i, b=i + 1, order=o) for i, o in enumerate(orders))
    return MolecularGraph(atoms=atoms, bonds=bonds)


def mark_from(g: MolecularGraph, end: int, mate: int):
    """Direction mark of bond end-mate read from ``end`` outwards."""
    bond = next(b for b in g.bonds if {b.a, b.b} == {end, mate})
    if bond.direction is None or bond.a == end:
        return bond.direction
    return {"up": "down", "down": "up"}[bond.direction]


class TestPerceiveStereo:
    def test_no_wedges_no_tags(self):
        g = drawing_trans_butene()
        flat = MolecularGraph(
            atoms=g.atoms, bonds=tuple(replace(b, order="single") for b in g.bonds)
        )
        out, warns = perceive_stereo(flat)
        assert warns == []
        assert all(a.chiral is None for a in out.atoms)
        assert all(b.direction is None for b in out.bonds)

    def test_trans_butene_marks(self):
        out, _ = perceive_stereo(drawing_trans_butene())
        s = canonicalize(write_smiles(out))
        assert s == canonicalize("C/C=C/C")
        assert s != canonicalize("C/C=C\\C")

    def test_cis_butene_marks(self):
        g = drawing_trans_butene()
        atoms = list(g.atoms)
        # Keep the methyl clearly off the double-bond line (collinear
        # substituents give no side evidence and stay unmarked).
        atoms[3] = replace(atoms[3], coords=(2.2, -0.9))
        out, _ = perceive_stereo(MolecularGraph(atoms=tuple(atoms), bonds=g.bonds))
        assert canonicalize(write_smiles(out)) == canonicalize("C/C=C\\C")

    def test_conjugated_diene_chains_marks(self):
        out, warns = perceive_stereo(drawing_hexadiene())
        assert warns == []
        assert canonicalize(write_smiles(out)) == canonicalize("C/C=C/C=C/C")
        out, _ = perceive_stereo(drawing_hexadiene(c5=(4.5, -1.0)))
        assert canonicalize(write_smiles(out)) == canonicalize("C/C=C/C=C\\C")

    def test_preset_marks_that_contradict_the_drawing_warn(self):
        g = drawing_trans_butene()
        up, double, down = g.bonds
        bonds = (replace(up, direction="up"), double, replace(down, direction="down"))
        out, warns = perceive_stereo(MolecularGraph(atoms=g.atoms, bonds=bonds))
        assert warns == ["inconsistent double-bond geometry around atoms 2-3"]
        assert write_smiles(out) == "C/C=C\\C"

    @given(st.integers(0, 2**32 - 1))
    def test_polyene_marks_hold_or_warn(self, seed):
        g = random_polyene_drawing(random.Random(seed))
        out, warns = perceive_stereo(g)
        if all(b.direction is None for b in g.bonds):
            # Facts chain along each conjugated path, so none can conflict.
            assert warns == []
        for end1, ref1, end2, ref2, same_side in double_bond_geometry(g):
            away1, away2 = mark_from(out, end1, ref1), mark_from(out, end2, ref2)
            if away1 is None or away2 is None or (away1 == away2) != same_side:
                assert f"inconsistent double-bond geometry around atoms {end2}-{ref2}" in warns

    def test_agrees_with_numpy_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            g, center = random_wedge_drawing(rng)
            tagged, _ = perceive_stereo(g)
            assert tagged.atoms[center].chiral == numpy_wedge_tag(g, center)

    def test_mirror_invariance(self):
        rng = random.Random(32)
        for _ in range(30):
            g, center = random_wedge_drawing(rng)
            a, _ = perceive_stereo(g)
            b, _ = perceive_stereo(mirror_drawing(g))
            assert a.atoms[center].chiral == b.atoms[center].chiral

    def test_wedge_flip_inverts(self):
        rng = random.Random(33)
        flipped_tags = {"@": "@@", "@@": "@", None: None}
        for _ in range(30):
            g, center = random_wedge_drawing(rng)
            a, _ = perceive_stereo(g)
            b, _ = perceive_stereo(flip_wedges(g))
            assert b.atoms[center].chiral == flipped_tags[a.atoms[center].chiral]

    def test_conflicting_wedges_leave_untagged(self):
        rng = random.Random(34)
        g, center = random_wedge_drawing(rng)
        # Make every bond a wedge, alternating senses: guaranteed conflict.
        bonds = tuple(
            replace(b, wedge="solid" if i % 2 == 0 else "dashed")
            for i, b in enumerate(g.bonds)
        )
        conflicted = MolecularGraph(atoms=g.atoms, bonds=bonds)
        out, warns = perceive_stereo(conflicted)
        if out.atoms[center].chiral is None:
            assert any("conflict" in w for w in warns)

    def test_wedge_without_coords_is_an_error(self):
        atoms = (
            AtomToken(kind="element", text="C"),
            AtomToken(kind="element", text="F"),
            AtomToken(kind="element", text="Cl"),
            AtomToken(kind="element", text="Br"),
        )
        bonds = (
            Bond(a=0, b=1, wedge="solid"),
            Bond(a=0, b=2),
            Bond(a=0, b=3),
        )
        with pytest.raises(StereoPerceptionError):
            perceive_stereo(MolecularGraph(atoms=atoms, bonds=bonds))
