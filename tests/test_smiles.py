import dataclasses
import hashlib
import json
import logging
import random
import re
import time
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from rxnscope import molgraph, smiles
from rxnscope.metrics import evaluate
from rxnscope.reaction import MoleculeEntry
from rxnscope.molgraph import PLAIN_ATOMS, AtomToken, Bond, GraphError, MolecularGraph, graph_from_json
from rxnscope.smiles import (
    SmilesParseError,
    _assign_directions,
    canonicalize,
    identity_key,
    implicit_h_count,
    is_valid,
    parse_smiles,
    write_smiles,
)

from corpus import MOLECULES
from oracles import (
    exhaustive_canonical,
    fixpoint_ranks,
    random_fingerprint_graph,
    random_molecular_graph,
    random_ring_graph,
    outcome,
    random_bracket_inner,
    reference_bracket_token,
    reference_perceive_aromaticity,
    reference_write_smiles,
    renumbered,
    unperceived_graph,
)

# Symmetric and stereo molecules: ties the canonical search must break.
STRESS = {
    "B27 (fig2 catalyst)": "OC(c1cc(C(F)(F)F)cc(C(F)(F)F)c1)(c1cc(C(F)(F)F)cc(C(F)(F)F)c1)[C@@H]1CCCN1C",
    "tetra-tert-butylmethane": "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
    "1,3,5-tri-tert-butylbenzene": "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1",
    "3,5-bis-CF3-phenyl product": (
        "CC[C@]1(c2cc(C(F)(F)F)cc(C(F)(F)F)c2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O"
    ),
    "cis-inositol": "O[C@H]1[C@@H](O)[C@@H](O)[C@@H](O)[C@@H](O)[C@H]1O",
    "scyllo-inositol": "O[C@H]1[C@H](O)[C@@H](O)[C@H](O)[C@@H](O)[C@@H]1O",
    "inositol, mixed A": "O[C@H]1[C@H](O)[C@H](O)[C@H](O)[C@@H](O)[C@@H]1O",
    "inositol, mixed B": "O[C@H]1[C@H](O)[C@H](O)[C@@H](O)[C@H](O)[C@H]1O",
    "F/C=C/C=C/F": "F/C=C/C=C/F",
}


class TestParse:
    def test_bracket_atoms_read_as_the_reference_reads_them(self, monkeypatch):
        rng = random.Random(36)
        inners = [random_bracket_inner(rng) for _ in range(1500)]
        texts = [form.replace("?", inner) for inner in inners for form in ("[?]", "F[?](Cl)Br", "c1cc[?]cc1")]
        got = [outcome(parse_smiles, text) for text in texts]
        monkeypatch.setattr(smiles, "_bracket_token", reference_bracket_token)
        want = [outcome(parse_smiles, text) for text in texts]
        assert [text for text, a, b in zip(texts, got, want) if a != b] == []
        atoms = [a for g in got if isinstance(g, MolecularGraph) for a in g.atoms]
        assert {a.kind for a in atoms} == {"element", "placeholder", "abbreviation", "wildcard"}
        assert any(a.chiral_order for a in atoms) and any(a.aromatic and a.isotope for a in atoms)

    def test_chiral_parse_builds_one_graph(self, monkeypatch):
        built = []
        real = MolecularGraph.__post_init__
        monkeypatch.setattr(MolecularGraph, "__post_init__", lambda g: built.append(g) or real(g))
        g = smiles._parse("C[C@H](N)O")
        assert len(built) == 1 and built[0] is g
        assert (g.atoms[1].chiral, g.atoms[1].chiral_order) == ("@", (0, -1, 2, 3))
        built.clear()
        ring = smiles._parse("[C@@H]1(F)CC1")
        assert len(built) == 1
        assert (ring.atoms[0].chiral, ring.atoms[0].chiral_order) == ("@@", (-1, 3, 1, 2))

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

    def test_aromatic_input_comes_back_as_is(self):
        for s in ("Cc1ccccc1", "c1ccc2ccccc2c1", "O=C(c1ccncc1)c1ccccc1", "C1:C:C:C:C:C1"):
            g = parse_smiles(s)
            assert smiles._perceive_aromaticity(g) is g, s
        kekule = parse_smiles("CC1=CC=CC=C1")
        assert smiles._perceive_aromaticity(kekule) is kekule
        assert kekule == parse_smiles("Cc1ccccc1")

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
        # A superscript two is a digit to ``str.isdigit`` but no decimal.
        ["", "C1CC", "C(", "C)", "[CH3", "Xx", "cC", "C=", "1CC", "C²", "C%²³"],
    )
    def test_rejects(self, bad):
        with pytest.raises(SmilesParseError):
            parse_smiles(bad)

    def test_error_carries_offset(self):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles("CCXC")
        assert "offset 2" in str(err.value)

    def test_offset_counts_leading_blanks(self):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles("  CCXC")
        assert err.value.offset == 4
        assert "(offset 4)" in str(err.value)

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("CC(c)C", 3),  # aromatic atom 2 lies on no aromatic ring
            ("c1ccccc1ccc1ccccc1", 8),  # atoms 6-7 join two rings, lie on neither
            ("F/C=C(/F)/F", 4),  # conflicting direction marks at atom 2
            ("C1=CC=CC=C1c", 11),  # the ring is upgraded; aromatic atom 6 is on none
        ],
    )
    def test_post_parse_check_reports_atom_offset(self, bad, offset):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(bad)
        assert err.value.offset == offset
        assert f"(offset {offset})" in str(err.value)

    def test_post_parse_check_passes_rings_and_the_bond_between_them(self):
        # The aromatic bond joining two rings is a bridge, on no ring, but
        # both its atoms lie on aromatic rings.
        biphenyl = parse_smiles("c1ccccc1c1ccccc1")
        assert all(a.aromatic for a in biphenyl.atoms)
        assert all(b.order == "aromatic" for b in biphenyl.bonds)
        # Five aromatic bonds and a single closure: no ring qualifies.
        text = "C1:C:C:C:C:C1"
        g = parse_smiles(text)
        assert g == unperceived_graph(text)
        assert not any(a.aromatic for a in g.atoms)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("C1C1", "duplicate bond (offset 3)"),
            ("C12CC12", "duplicate bond (offset 6)"),
            ("C%10C%10", "duplicate bond (offset 5)"),
            ("C11", "ring bond to the same atom (offset 2)"),
        ],
    )
    def test_ring_closure_on_a_bonded_pair_is_rejected_at_its_digit(self, bad, message):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(bad)
        assert str(err.value) == message

    @pytest.mark.parametrize("good,bonds", [("C1.C1", 1), ("C12C3CC1C23", 7), ("C1CC=1", 3)])
    def test_ring_closure_on_a_new_pair_is_kept(self, good, bonds):
        assert len(parse_smiles(good).bonds) == bonds

    @pytest.mark.parametrize("text", ["[0CH4]", "C[0*]"])
    def test_isotope_zero_is_rejected_at_its_bracket(self, text):
        # An atom may not carry isotope 0, so the parser reports it with
        # the bracket's offset rather than letting a GraphError escape.
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(text)
        assert err.value.offset == text.index("[")
        assert not is_valid(text)

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("[" + "1" * 5000 + "C]", 1),
            ("C[CH" + "2" * 5000 + "]", 3),
            ("[C+" + "9" * 5000 + "]", 2),
        ],
        ids=["isotope", "hcount", "charge"],
    )
    def test_number_field_past_int_conversion_is_rejected_at_the_field(self, text, offset):
        # More digits than ``int`` converts would leak a bare ValueError.
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(text)
        assert err.value.offset == offset
        assert not is_valid(text)

    def test_pinned_outcome_digest(self, fig2_bundle):
        # No oracle parser exists, so every outcome of the parser is
        # pinned: the graph with every field, or the error with its offset,
        # over the corpus, the fig2 texts and seeded mutations of them.
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        fig2 = [e["smiles"] for r in golden["reactions"] for e in r["reactants"] + r["products"]]
        texts = _mutations(list(MOLECULES) + list(STRESS.values()) + fig2 + _EDGES, 36, 3000)
        rows = []
        for text in texts:
            got = outcome(parse_smiles, text)
            rows.append(repr((got.atoms, got.bonds)) if isinstance(got, MolecularGraph) else repr(got))
        assert sum(r.startswith("('SmilesParseError'") for r in rows) > 1000
        assert sum(r.startswith("((AtomToken") for r in rows) > 1000
        digest = hashlib.sha256("\n".join(texts + rows).encode()).hexdigest()
        assert digest == "3648e0ddd73432a054c888bd7db424411d468afc44de087c92a562ee9f13a992"


# Texts that reach the parser's rarer outcomes: conflicting ring bonds,
# empty and zero-isotope brackets, stray dots, blanks and long fields.
_EDGES = [
    "C=1CC-1", "C=1CC=1", "C/1CC/1", "C/1CC\\1", "C1CC/1", "[]", "[0C]", "C.", ".C", "C..C", "C(C)(C)", "C((C))",
    "C()C", "  C C ", "C%99CC%99", "C%00CC%00", "[C@@H](F)(Cl)Br", "[C@H]1CC1", "c1cc[nH]c1", "[13CH3-]", "[Fe+3]",
    "[C+" + "9" * 5000 + "]", "C" * 300, "C(" * 40 + "C" + ")" * 40, "c1ccccc1/C=C/Cl",
]

# Pieces a mutation inserts: ring digits, ``%nn`` closures (and broken
# ones), brackets, bond marks, dots and parentheses.
_INSERTS = ["1", "2", "9", "%12", "%1", "%", "[", "]", "[C@@H]", "[R1]", "-", "=", "#", ":", "/", "\\", ".", "(", ")"]


def _mutations(texts: list[str], seed: int, count: int) -> list[str]:
    """``texts`` and ``count`` seeded mutants of them: each one to three
    edits that delete, duplicate or swap characters, or insert a piece."""
    rng = random.Random(seed)
    out = list(texts)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            edit = rng.choice(["delete", "duplicate", "swap", "insert", "insert"])
            if edit == "insert":
                text = text[:k] + rng.choice(_INSERTS) + text[k:]
            elif k < len(text) and edit == "delete":
                text = text[:k] + text[k + 1 :]
            elif k < len(text) and edit == "duplicate":
                text = text[: k + 1] + text[k:]
            elif k + 1 < len(text):
                text = text[:k] + text[k + 1] + text[k] + text[k + 2 :]
        out.append(text)
    return out


class TestAromaticPerception:
    """Perception searches from seed bonds only; the 6-path walk is the oracle."""

    @staticmethod
    def assert_same_as_oracle(g):
        got = smiles._perceive_aromaticity(g)
        assert got == reference_perceive_aromaticity(g)
        return got

    def test_corpus_equals_oracle(self):
        kekule = ["C1=CC=CC=C1", "C1=CC2=CC=CC=C2C=C1", "C1:C:C:C:C:C:1"]
        texts = MOLECULES + ["C1:C:C:C:C:C1"] + kekule
        graphs = [unperceived_graph(t) for t in texts]
        changed = [t for t, g in zip(texts, graphs) if self.assert_same_as_oracle(g) is not g]
        assert changed == kekule

    def test_seeded_ring_graphs_equal_oracle(self):
        rng = random.Random(41)
        graphs = [random_ring_graph(rng) for _ in range(400)]
        changed = sum(self.assert_same_as_oracle(g) is not g for g in graphs)
        assert 100 <= changed <= 300
        marked = [g for g in graphs if any(b.direction and b.order == "aromatic" for b in g.bonds)]
        assert len(marked) >= 50

    @pytest.mark.parametrize("chords_first", [False, True])
    def test_atom_set_with_two_six_cycles_is_judged_by_the_first(self, chords_first):
        # Hexagon 0-1-2-3-4-5 with chords 0-3 and 1-4: the atom set also
        # carries the cycle 0-3-2-1-4-5, and only that one alternates. The
        # walk from atom 0 meets the hexagon first unless the chords come
        # first in bond order.
        ring = [Bond(0, 1), Bond(1, 2, "double"), Bond(2, 3), Bond(3, 4), Bond(4, 5, "double"), Bond(5, 0)]
        chords = [Bond(0, 3, "double"), Bond(1, 4)]
        bonds = chords + ring if chords_first else ring + chords
        g = MolecularGraph(atoms=(AtomToken(kind="element", text="C"),) * 6, bonds=tuple(bonds))
        got = self.assert_same_as_oracle(g)
        assert (got is not g) == chords_first

    def test_polyphenyl_within_time_bound(self):
        # 6,006 atoms and 3,003 double bonds to search from. The parse
        # takes about 0.2 s of CPU on a 2-vCPU machine; the bound leaves
        # room for a slower one, not for a pass over the whole graph per
        # seed (about 7 s there).
        text = "C1=CC=C(C=C1)" + "C2=CC=C(C=C2)" * 1000
        start = time.process_time()
        g = parse_smiles(text)
        assert time.process_time() - start < 2.0
        assert len(g.atoms) == 6006
        assert all(a.aromatic for a in g.atoms)

    def test_polyphenyl_upgrades_by_lookup(self, monkeypatch):
        # Perception maps each Kekule atom to its aromatic plain atom and
        # builds each upgraded bond once; it rebuilds nothing through
        # ``dataclasses.replace``, which checked each value a second time.
        text = "C1=CC=C(C=C1)" + "C2=CC=C(C=C2)" * 1000
        calls = []

        def counted(obj, **changes):
            calls.append(obj)
            return dataclasses.replace(obj, **changes)

        for module in (smiles, molgraph):
            monkeypatch.setattr(module, "replace", counted)
        g = parse_smiles(text)
        monkeypatch.undo()
        assert calls == []
        assert g == reference_perceive_aromaticity(unperceived_graph(text))


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

    @pytest.mark.parametrize("text", ["[*+]", "[*-2]", "[13*+]"])
    def test_charged_wildcard_round_trips(self, text):
        g = parse_smiles(text)
        assert write_smiles(g) == text
        assert parse_smiles(write_smiles(g)) == g
        assert canonicalize(text) == text

    def test_wildcard_charge_keeps_canonical_forms_apart(self):
        forms = [canonicalize(t) for t in ("*", "[*+]", "[*-]", "[*-2]", "[13*]", "[13*+]", "C[*+]", "C*")]
        assert len(set(forms)) == len(forms)

    def test_writer_equals_its_reference(self, fig2_bundle):
        # Text and write order match the writer as it was before its
        # one-walk rewrite, in index order and under shuffled ranks; the
        # fingerprint graphs add bracket atoms and second components.
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        fig2 = [m["smiles"] for r in golden["reactions"] for m in r["reactants"] + r["products"]]
        rng = random.Random(25)
        graphs = [parse_smiles(t) for t in MOLECULES + fig2]
        graphs += [graph_from_json(e["graph"]) for e in json.loads((fig2_bundle / "molecules.json").read_text())]
        graphs += [random_molecular_graph(rng) for _ in range(300)]
        graphs += [random_fingerprint_graph(rng) for _ in range(100)]
        for g in graphs:
            ranks = list(range(len(g.atoms)))
            rng.shuffle(ranks)
            for order in (None, ranks):
                got, want = [], []
                assert write_smiles(g, order, got) == reference_write_smiles(g, order, want)
                assert got == want

    @staticmethod
    def complete_graph(n: int) -> MolecularGraph:
        bonds = tuple(Bond(i, j) for i in range(n) for j in range(i + 1, n))
        return MolecularGraph(atoms=(PLAIN_ATOMS["C"],) * n, bonds=bonds)

    def test_ring_bond_numbers_stop_at_99(self):
        # K20 needs 99 ring-bond numbers open at once and round-trips. K21
        # needs 100; "%100" would read as "%10" then "0".
        k20 = self.complete_graph(20)
        assert canonicalize(write_smiles(k20)) == canonicalize(k20)
        assert "%99" in write_smiles(k20)
        k21 = self.complete_graph(21)
        with pytest.raises(GraphError, match="^100 ring bonds open at once"):
            write_smiles(k21)
        with pytest.raises(SmilesParseError, match="duplicate bond"):
            parse_smiles(reference_write_smiles(k21))


def _element(text: str, **kw) -> AtomToken:
    return AtomToken(kind="element", text=text, **kw)


def _chain(*atoms: AtomToken) -> MolecularGraph:
    return MolecularGraph(atoms=atoms, bonds=tuple(Bond(i, i + 1) for i in range(len(atoms) - 1)))


# The errors of the checks a parse makes of the graph a text spells.
SETTLE_ERROR = re.compile(
    r"(aromatic atom \d+ is not part of an aromatic ring|conflicting direction marks at atom \d+)"
    r" \(offset \d+\)$"
)


def _fig2_graphs(fig2) -> list[MolecularGraph]:
    template = json.loads((fig2 / "template.json").read_text())
    raw = [m["graph"] for m in json.loads((fig2 / "molecules.json").read_text())]
    raw += template["reactant_templates"] + template["product_templates"]
    return [graph_from_json(r) for r in raw]


class TestWriterGraph:
    """A molecule built from a graph is the entry of its written text. That
    text is the reference writer's (``oracles.reference_write_smiles``),
    and it reads as the graph, perceived, up to atom order. A text that
    does not read fails a check of the graph it spells, unless an atom's
    text reads as more than one atom."""

    def check(self, g: MolecularGraph) -> None:
        text = write_smiles(g)
        assert text == reference_write_smiles(g)
        try:
            entry = MoleculeEntry(text)
        except SmilesParseError as exc:
            assert SETTLE_ERROR.match(str(exc)), text
            return
        assert canonicalize(entry.graph) == canonicalize(smiles._perceive_aromaticity(g)), text

    @pytest.mark.parametrize("text", MOLECULES)
    def test_corpus(self, text):
        self.check(parse_smiles(text))
        # As written, before perception: Kekulé rings become aromatic.
        self.check(unperceived_graph(text))

    def test_fig2_graphs(self, fig2_bundle):
        graphs = _fig2_graphs(fig2_bundle)
        assert len(graphs) == 11 + 3
        for g in graphs:
            self.check(g)

    @pytest.mark.parametrize(
        "text",
        [
            "C1=CC=CC=C1",
            "C1=CC2=CC=CC=C2C=C1",
            "OC1=CC=C(C=C1)/C=C/C",
            "C1=CC=CC=C1C1=CC=CN=C1",
            "C1=CC=CC1",
        ],
    )
    def test_kekule_rings(self, text):
        # Perception changes the graph, except on the 5-ring.
        g = unperceived_graph(text)
        assert (MoleculeEntry(write_smiles(g)).graph != g) == (text != "C1=CC=CC1")
        self.check(g)

    @pytest.mark.parametrize(
        "text",
        ["C[C@H]1CC[C@@H](O)CC1", "[C@@H]12CCC[C@H]1CCC2", "N[C@]1(C)CCCC[C@@H]1F", "F[C@H]1CCCO1"],
    )
    def test_chiral_atoms_with_ring_slots(self, text):
        g = parse_smiles(text)
        rng = random.Random(text)
        for _ in range(6):
            perm = list(range(len(g.atoms)))
            rng.shuffle(perm)
            self.check(renumbered(g, perm))

    def test_two_digit_ring_numbers(self):
        n = 9
        g = MolecularGraph(
            atoms=(PLAIN_ATOMS["C"],) * n,
            bonds=tuple(Bond(i, j) for i in range(n) for j in range(i + 1, n)),
        )
        assert "%1" in write_smiles(g)
        self.check(g)

    @pytest.mark.parametrize(
        "atom, written",
        [
            (_element("N", charge=1), "[N+]"),
            (_element("O", charge=-1), "[O-]"),
            (_element("C", isotope=13), "[13C]"),
            (_element("N", charge=2, isotope=15), "[15N+2]"),
            (_element("H"), "[H]"),
            (AtomToken(kind="wildcard", text="*", charge=-1), "[*-]"),
            (AtomToken(kind="wildcard", text="*", charge=1, isotope=100), "[100*+]"),
        ],
    )
    def test_bracket_atoms_with_no_h_count(self, atom, written):
        # The text gives an H count of 0, which the entry's atom holds.
        g = _chain(PLAIN_ATOMS["C"], atom, PLAIN_ATOMS["C"])
        entry = MoleculeEntry(write_smiles(g))
        assert entry.smiles == f"C{written}C"
        if atom.kind == "element":
            assert entry.graph.atoms[1].explicit_h == 0
        self.check(g)

    def test_seeded_ring_graphs(self):
        rng = random.Random(5)
        for _ in range(300):
            self.check(random_ring_graph(rng))

    def test_seeded_molecular_graphs(self):
        rng = random.Random(6)
        for _ in range(300):
            self.check(random_molecular_graph(rng))

    def test_atom_text_that_reads_as_more_than_one_atom_builds_no_graph(self):
        # An abbreviation holding "]" is written as text that reads as two
        # atoms and a stray bracket, so the graph makes no entry.
        g = _chain(PLAIN_ATOMS["C"], AtomToken(kind="abbreviation", text="a]b"))
        text = write_smiles(g)
        assert text == "C[a]b]"
        with pytest.raises(SmilesParseError, match=r"^unexpected character '\]' \(offset 5\)$"):
            MoleculeEntry(text)


class TestLongChains:
    """Writing and canonicalizing take no recursion per atom."""

    def test_write_2000_atom_chain(self):
        chain = "C" * 2000
        out = write_smiles(parse_smiles(chain))
        assert isinstance(out, str) and out == chain
        branched = "C(O)" * 1000 + "C"
        assert write_smiles(parse_smiles(branched)) == branched

    def test_canonicalize_2000_atom_chain(self):
        out = canonicalize("C" * 2000)
        assert isinstance(out, str) and out == "C" * 2000


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
            assert canonicalize(write_smiles(parse_smiles(s))) == canonicalize(s), s

    @given(st.sampled_from(MOLECULES), st.integers(0, 2**32 - 1))
    def test_renumbering_invariance(self, s, seed):
        g = parse_smiles(s)
        perm = list(range(len(g.atoms)))
        random.Random(seed).shuffle(perm)
        c = canonicalize(s)
        assert canonicalize(write_smiles(renumbered(g, perm))) == c
        assert canonicalize(renumbered(g, perm)) == c

    def test_components_sorted(self):
        assert canonicalize("O.C") == canonicalize("C.O")


class TestIdentityKey:
    def test_equal_canonical_forms_have_equal_keys(self):
        # One table over the corpus and five rank-shuffled rewrites of each
        # text: every canonical class holds one key.
        rng = random.Random(28)
        texts = set()
        for s in MOLECULES:
            g = parse_smiles(s)
            texts.add(s)
            for _ in range(5):
                ranks = list(range(len(g.atoms)))
                rng.shuffle(ranks)
                texts.add(write_smiles(g, ranks))
        keys_by_form: dict[str, set] = {}
        for text in texts:
            keys_by_form.setdefault(canonicalize(text), set()).add(identity_key(parse_smiles(text)))
        assert (len(texts), len(keys_by_form)) == (197, 52)
        assert {form: keys for form, keys in keys_by_form.items() if len(keys) > 1} == {}

    @pytest.mark.parametrize(
        "a, b",
        [("C1=CC=CC=C1", "c1ccccc1"), ("N1C=CC=C1", "[nH]1cccc1"), ("[CH3]C", "CC"), ("C[OH]", "CO")],
    )
    def test_forms_canonical_identity_may_merge_share_a_key(self, a, b):
        assert identity_key(parse_smiles(a)) == identity_key(parse_smiles(b))

    def test_explicit_hydrogens_are_folded(self):
        assert identity_key(parse_smiles("[H]OC([H])([H])C")) == identity_key(parse_smiles("OCC")) == (
            2, ("c", "c", "o"),
        )


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
            "c1ccccc1c1ccccc1",
            "c1ccc2ccccc2c1",
            "c1ccc2c(c1)ccc1ccccc12",
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
            "c1ccccc1ccc1ccccc1",  # aromatic chain between two rings
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

    @pytest.mark.parametrize(
        "text,symbol", [("c1ccsc1", "S"), ("Cn1cccc1", "N"), ("c1ccoc1", "O")]
    )
    def test_heteroatom_lending_its_lone_pair_carries_no_h(self, text, symbol):
        # Its two ring bonds and the lone pair in the pi system fill its valence.
        g = parse_smiles(text)
        idx = next(i for i, a in enumerate(g.atoms) if a.text == symbol and a.aromatic)
        assert implicit_h_count(g, idx) == 0

    def test_implicit_h_count(self):
        g = parse_smiles("CC(=O)N[CH2]c1ccccc1")
        assert [implicit_h_count(g, i) for i in range(6)] == [3, 0, 0, 1, 2, 0]
        assert implicit_h_count(parse_smiles("[R1]C"), 0) is None


# False twins: atoms with the same neighbours that the canonical search
# individualizes once per class. The tagged centres and the marked
# double-bond end keep theirs apart.
TWINS = {
    "gem-dimethyl": "CCC(C)(C)CO",
    "CF3": "OC(=O)c1ccc(C(F)(F)F)cc1",
    "SO2": "CS(=O)(=O)N1CCCC1",
    "NMe2": "CN(C)c1ccc(C=O)cc1",
    "tBu": "CC(C)(C)OC(=O)NCC(C)(C)C",
    "twins on a tagged CH": "[C@H](C)(C)F",
    "twins on a tagged quaternary centre": "C[C@](C)(F)Cl",
    "twins on a marked double-bond end": "F/C=C(/C)C",
    "twins beside a marked double bond": "CC(C)/C=C/C(C)C",
    "given isotope or H count is no twin of none": "[CH3]C([13CH3])(C)O",
}

# The exhaustive search takes seconds on B27, which two tests check.
exhaustive_text = lru_cache(maxsize=None)(exhaustive_canonical)


class TestOrbitPruning:
    """The pruned search returns what the exhaustive search returns."""

    def test_matches_exhaustive_search_on_fig2(self, fig2_bundle):
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        texts = {
            e["smiles"]
            for r in golden["reactions"]
            for e in r["reactants"] + r["products"] + r["conditions"]
            if e.get("smiles")
        }
        assert len(texts) == 18
        for s in sorted(texts):
            assert canonicalize(s) == exhaustive_text(s), s

    def test_refinement_matches_the_fixpoint_reference(self):
        graphs = [parse_smiles(s) for s in MOLECULES + list(STRESS.values()) + ["C" * 60]]
        graphs += [random_molecular_graph(random.Random(seed), 16) for seed in range(150)]
        for g in graphs:
            ranks = fixpoint_ranks(g, smiles._initial_keys(g))
            mates = smiles._mate_pairs(g)
            assert smiles._refine(mates, smiles._initial_keys(g)) == ranks
            for v in range(len(g.atoms)):
                seed = [(r, 0 if i == v else 1) for i, r in enumerate(ranks)]
                assert smiles._refine(mates, seed, [v]) == fixpoint_ranks(g, seed)

    def test_matches_exhaustive_search_on_random_graphs(self):
        for seed in range(200):
            g = random_molecular_graph(random.Random(seed), 12)
            assert canonicalize(g) == exhaustive_canonical(g), seed

    def test_matches_exhaustive_search_on_corpus(self):
        rng = random.Random(8)
        for s in MOLECULES + [STRESS[name] for name in STRESS if "inositol" in name]:
            g = parse_smiles(s)
            assert canonicalize(g) == exhaustive_canonical(g), s
            for _ in range(4):
                perm = list(range(len(g.atoms)))
                rng.shuffle(perm)
                h = renumbered(g, perm)
                assert canonicalize(h) == exhaustive_canonical(h), (s, perm)

    @pytest.mark.parametrize("name", sorted(STRESS))
    def test_matches_exhaustive_search_on_stress_set(self, name):
        assert canonicalize(STRESS[name]) == exhaustive_text(STRESS[name])

    @pytest.mark.parametrize("name", sorted(STRESS))
    def test_permutation_invariance(self, name):
        g = parse_smiles(STRESS[name])
        forms = set()
        rng = random.Random(name)
        for _ in range(6):
            perm = list(range(len(g.atoms)))
            rng.shuffle(perm)
            forms.add(canonicalize(renumbered(g, perm)))
        assert forms == {canonicalize(g)}

    @pytest.mark.parametrize("name", ["B27 (fig2 catalyst)", "tetra-tert-butylmethane"])
    def test_few_leaves_on_symmetric_molecules(self, name, monkeypatch):
        # The exhaustive search writes 10,368 leaves for B27 and 31,104 for
        # tetra-tert-butylmethane.
        leaves = []
        write = smiles.write_smiles

        def counting(*args, **kwargs):
            leaves.append(1)
            return write(*args, **kwargs)

        monkeypatch.setattr(smiles, "write_smiles", counting)
        canonicalize(STRESS[name])
        assert 0 < len(leaves) <= 4

    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_twin_classes_match_exhaustive_search(self, name):
        g = parse_smiles(TWINS[name])
        rng = random.Random(name)
        assert canonicalize(g) == exhaustive_canonical(g)
        for _ in range(8):
            perm = list(range(len(g.atoms)))
            rng.shuffle(perm)
            h = renumbered(g, perm)
            assert canonicalize(h) == exhaustive_canonical(h), perm

    def test_twins_near_stereo_marks_stay_apart(self):
        twin = smiles._twin_classes
        for s in ("[C@H](C)(C)F", "C[C@](C)(F)Cl", "F/C=C(/C)C"):
            g = parse_smiles(s)
            assert twin(g, smiles._initial_keys(g)) == list(range(len(g.atoms))), s
        g = parse_smiles("CC(C)/C=C/F")
        assert twin(g, smiles._initial_keys(g))[:3] == [0, 1, 0]

    @pytest.mark.parametrize("n", [25, 50, 100, 300])
    def test_gem_dimethyl_chain_takes_linear_nodes(self, n, monkeypatch):
        nodes = []
        smallest = smiles._CanonicalSearch.smallest

        def counting(self, *args):
            nodes.append(1)
            return smallest(self, *args)

        monkeypatch.setattr(smiles._CanonicalSearch, "smallest", counting)
        canonicalize("C" + "C(C)(C)" * n + "O")
        assert len(nodes) <= 2 * n + 10

    def test_canonical_strings_pinned(self, fig2_bundle):
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        texts = sorted({
            e["smiles"]
            for r in golden["reactions"]
            for e in r["reactants"] + r["products"] + r["conditions"]
            if e.get("smiles")
        })
        forms = [canonicalize(s) for s in MOLECULES + list(STRESS.values()) + texts]
        assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == (
            "9ca9745e5dada604762b504097de8b231fae3d3705156a9c62912d8d3bf2da8b"
        )


class TestNodeBudget:
    def test_exhausted_budget_logs_one_warning_per_call(self, monkeypatch, caplog):
        monkeypatch.setattr(smiles, "CANONICAL_NODE_BUDGET", 2)
        with caplog.at_level(logging.WARNING, logger="rxnscope.smiles"):
            canonicalize(STRESS["tetra-tert-butylmethane"] + "." + STRESS["cis-inositol"])
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "2-node budget" in caplog.records[0].getMessage()

    def test_default_budget_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rxnscope.smiles"):
            for s in STRESS.values():
                canonicalize(s)
        assert caplog.records == []


def test_automorphism_count_does_not_blow_up():
    # Highly symmetric molecule: the tie-break search must stay bounded.
    s = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
    c = canonicalize(s)
    assert canonicalize(c) == c
