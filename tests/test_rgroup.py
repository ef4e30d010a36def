import hashlib
import json
import logging
import random

import pytest

from rxnscope import rgroup
from rxnscope.chemops import AbbreviationTable, AliasRegistry
from rxnscope.molgraph import GraphError, graph_to_json, main_component, subgraph
from rxnscope.rgroup import (
    MissingBindingError,
    ReactionTemplate,
    extract_rgroup_fragments,
    reconstruct_reactants,
    splice_fragment,
    substitute_placeholders,
)
from rxnscope.smiles import canonicalize, parse_smiles, write_smiles

TABLE = AbbreviationTable.default()

SCAFFOLDS = [
    "[R1]C(=O)O",
    "[R1]C#CC(=O)C[R2]",
    "[Ar]C([R])=O",
    "[R1]OC(=O)[R2]",
    "[R1]c1ccc([R2])cc1",
    "[Ar]C1CC1[R]",
    "[R1]N([R2])C(C)=O",
]
POOL = ["Me", "Et", "Ph", "OMe", "Cl", "CF3", "iPr", "CN", "Br", "nPr"]


def graph_smiles(g) -> str:
    return canonicalize(write_smiles(g))


class TestSplice:
    def test_fragment_replaces_atom(self):
        g = parse_smiles("[R1]CO")
        frag = TABLE.get("Me")
        out = splice_fragment(g, {0: frag})
        assert graph_smiles(out) == canonicalize("CCO")

    def test_redirected_bond_drops_depiction_marks(self):
        g = parse_smiles("[R1]/C=C/C")
        (placeholder,) = g.placeholder_indices()
        ((alkene_c, drawn),) = g.adjacency()[placeholder]
        assert drawn.direction is not None
        out = splice_fragment(g, {placeholder: TABLE.get("Et")})
        # Kept atoms come first, in order, and the fragment follows them.
        kept = [i for i in range(len(g.atoms)) if i != placeholder]
        carbon = kept.index(alkene_c)
        assert out.atoms[carbon] == g.atoms[alkene_c]
        joins = [b for b in out.bonds if carbon in (b.a, b.b) and max(b.a, b.b) >= len(kept)]
        # The spliced-in bond cannot keep a direction mark: the geometry
        # claim belonged to the placeholder drawing, not the fragment.
        assert [(b.wedge, b.direction) for b in joins] == [("none", None)]
        assert canonicalize(write_smiles(out)) == canonicalize("CCC=CC")

    def test_nothing_to_splice_returns_the_graph_itself(self):
        g = parse_smiles("[R1]CO")
        assert splice_fragment(g, {}) is g

    def test_bond_between_spliced_atoms_joins_their_attachments(self):
        g = parse_smiles("[R1][R2]O")
        out = splice_fragment(g, {0: TABLE.get("Ph"), 1: TABLE.get("Et")})
        assert graph_smiles(out) == canonicalize("CC(O)c1ccccc1")
        # Kept atoms first, then fragments from the highest replaced index:
        # O, Et (for atom 1), Ph (for atom 0); the joining bond reads
        # from the higher index's attachment to the lower one's.
        assert [a.text for a in out.atoms[:3]] == ["O", "C", "C"]
        assert (out.bonds[0].a, out.bonds[0].b) == (1, 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GraphError):
            splice_fragment(parse_smiles("CC"), {2: TABLE.get("Me")})


class TestSubstitute:
    def test_token_assignment(self):
        g = parse_smiles("[R1]C#CC(=O)C[R2]")
        out = substitute_placeholders(g, {"R1": "Ph", "R2": "H"})
        assert graph_smiles(out) == canonicalize("[H]CC(=O)C#Cc1ccccc1")

    def test_unbound_placeholders_survive(self):
        g = parse_smiles("[R1]C[R2]")
        out = substitute_placeholders(g, {"R1": "Me"})
        labels = [a.label for a in out.atoms if a.kind == "placeholder"]
        assert labels == ["R2"]

    def test_fragment_binding_accepted(self):
        g = parse_smiles("[R1]O")
        out = substitute_placeholders(g, {"R1": TABLE.get("Et")})
        assert graph_smiles(out) == canonicalize("CCO")

    def test_chiral_centre_keeps_its_sense(self):
        # The spliced-in carbon takes the placeholder's slot in the chiral order.
        g = parse_smiles("F[C@H](Cl)[R1]")
        out = graph_smiles(substitute_placeholders(g, {"R1": "Me"}))
        assert out == canonicalize("F[C@H](Cl)C")
        assert out != canonicalize("F[C@@H](Cl)C")

    def test_chiral_attachment_keeps_its_sense(self):
        # The grafted group's stereocentre is its attachment: the ring
        # carbon takes the slot the table's ``*`` marker held.
        table = AbbreviationTable({"Foo": "*[C@H](F)Cl"})
        for scaffold in ("[R1]c1ccccc1", "c1ccccc1[R1]"):
            out = graph_smiles(substitute_placeholders(parse_smiles(scaffold), {"R1": "Foo"}, table))
            assert out == canonicalize("c1ccccc1[C@H](F)Cl")
            assert out != canonicalize("c1ccccc1[C@@H](F)Cl")

    def test_one_alias_registry_per_call(self):
        g = parse_smiles("[R1]CC[R2]")
        out = substitute_placeholders(g, {"R1": "Zzq", "R2": "Qqz"})
        assert sorted(a.isotope for a in out.atoms if a.kind == "wildcard") == [100, 101]
        out = substitute_placeholders(g, {"R1": "Zzq", "R2": "Zzq"})
        assert [a.isotope for a in out.atoms if a.kind == "wildcard"] == [100, 100]
        template = ReactionTemplate((g, parse_smiles("[R2]C[R1]")), (g,))
        # Tokens alias from the highest atom index down: Qqz first.
        reactants = reconstruct_reactants(template, {"R1": "Zzq", "R2": "Qqz"})
        assert [canonicalize(s) for s in reactants] == [
            canonicalize("[101*]CC[100*]"),
            canonicalize("[100*]C[101*]"),
        ]

    def test_multiple_occurrences_all_replaced(self):
        g = parse_smiles("[R1]C(=O)[R1]")
        out = substitute_placeholders(g, {"R1": "Me"})
        assert graph_smiles(out) == canonicalize("CC(C)=O")


# Seeded substitutions whose graph JSON and written SMILES are pinned by
# one digest: every SCAFFOLD, ring and adjacent placeholders, stereo
# marks, ready-made fragments and unknown tokens (aliased wildcards).
DIGEST_SCAFFOLDS = SCAFFOLDS + [
    "[R1]1CC[R2]C1",
    "[R2]1CC[R1]C1",
    "[R1][R2]C(=O)O",
    "C[R1][R2][R3]C",
    "F[C@H]([R1])[R2]",
    "[R1]/C=C/C[R2]",
]
DIGEST_POOL = POOL + ["Foo", "2-ClC6H4", "SO2Me", TABLE.get("Ts")]


def substitution_digest() -> str:
    rng = random.Random(9)
    digest = hashlib.sha256()
    for scaffold in DIGEST_SCAFFOLDS:
        g = parse_smiles(scaffold)
        labels = sorted({g.atoms[i].label for i in g.placeholder_indices()})
        for _ in range(15):
            assignment = {label: rng.choice(DIGEST_POOL) for label in labels}
            out = substitute_placeholders(g, assignment, TABLE, AliasRegistry())
            digest.update(json.dumps(graph_to_json(out), sort_keys=True).encode())
            digest.update(write_smiles(out).encode())
    return digest.hexdigest()


def test_substitution_digest_is_pinned():
    assert substitution_digest() == (
        "15d03de94e5431c8a18fae6c3d544938c2f52ea9102b2234093ba9a2edcdfe05"
    )


class TestExtract:
    def test_acyl_pair(self):
        template = parse_smiles("[Ar]C([R])=O")
        bindings = extract_rgroup_fragments(template, parse_smiles("CCC(=O)c1ccccc1"))
        assert set(bindings) == {"Ar", "R"}
        assert len(bindings["R"].graph.atoms) == 2
        assert len(bindings["Ar"].graph.atoms) == 6

    def test_repeated_label_keeps_first(self):
        template = parse_smiles("[R1]C(=O)[R1]")
        bindings = extract_rgroup_fragments(template, parse_smiles("CC(=O)C"))
        assert set(bindings) == {"R1"}
        assert graph_smiles(bindings["R1"].graph) == canonicalize("C")

    def _extract_logged(self, caplog, variant: str) -> tuple[dict, list[str]]:
        template = parse_smiles("[R]C(=O)OC[R]")
        with caplog.at_level(logging.WARNING, logger="rxnscope.rgroup"):
            bindings = extract_rgroup_fragments(template, parse_smiles(variant))
        written = {label: write_smiles(f.graph) for label, f in bindings.items()}
        warnings = [r.getMessage() for r in caplog.records if "extracted twice" in r.getMessage()]
        return written, warnings

    def test_repeated_label_equal_fragments_no_warning(self, caplog):
        assert self._extract_logged(caplog, "CC(=O)OCC") == ({"R": "C"}, [])

    def test_repeated_label_different_fragments_keeps_first_and_warns(self, caplog):
        written, warnings = self._extract_logged(caplog, "c1ccccc1C(=O)OCC1CCCCC1")
        assert written == {"R": "c1ccccc1"}
        assert len(warnings) == 1


class TestReconstruct:
    def template(self) -> ReactionTemplate:
        return ReactionTemplate(
            reactant_templates=(parse_smiles("[Ar]C([R])=O"),),
            product_templates=(parse_smiles("[Ar]C([R])(O)C#N"),),
        )

    def test_round_trip_through_product(self):
        t = self.template()
        for product, reactant in [
            ("CCC(O)(C#N)c1ccccc1", "CCC(=O)c1ccccc1"),
            ("CCCC(O)(C#N)c1ccccc1", "CCCC(=O)c1ccccc1"),
        ]:
            bindings = extract_rgroup_fragments(
                t.product_templates[0], parse_smiles(product)
            )
            out = reconstruct_reactants(t, bindings)
            assert [canonicalize(s) for s in out] == [canonicalize(reactant)]

    def test_missing_binding_lists_labels(self):
        t = self.template()
        with pytest.raises(MissingBindingError) as err:
            reconstruct_reactants(t, {"Ar": "Ph"})
        assert err.value.labels == ["R"]

    def test_missing_binding_lists_every_label(self):
        with pytest.raises(MissingBindingError) as err:
            reconstruct_reactants(self.template(), {})
        assert err.value.labels == ["Ar", "R"]

    def test_empty_template_rejected(self):
        # Reconstruction needs both sides; instantiating one side does not.
        side = (parse_smiles("[R]CO"),)
        for sides in [((), ()), ((), side), (side, ())]:
            t = ReactionTemplate(*sides)
            with pytest.raises(GraphError, match="needs reactants and products"):
                reconstruct_reactants(t, extract_rgroup_fragments(t.product_pattern, parse_smiles("CCO")))
        assert ReactionTemplate((), side).instantiate("reactants", {}, AliasRegistry()) == []


class TestInstantiate:
    @staticmethod
    def template() -> ReactionTemplate:
        return ReactionTemplate(
            (parse_smiles("[R]C=O"), parse_smiles("O.CC(=O)Cl")), (parse_smiles("[R]CO"),)
        )

    def test_a_template_without_placeholder_is_written_once(self, monkeypatch):
        written = []

        def write(g):
            written.append(write_smiles(g))
            return written[-1]

        monkeypatch.setattr(rgroup, "write_smiles", write)
        t = self.template()
        registry = AliasRegistry()
        first = t.instantiate("reactants", {"R": TABLE.get("Me")}, registry)
        second = t.instantiate("reactants", {"R": TABLE.get("Et")}, registry)
        # In template order, the fixed template where it is first met, cut
        # to its main component; after that only the bound one is written.
        assert written == [first[0], first[1], second[0]]
        assert [canonicalize(s) for s in written] == [canonicalize(s) for s in ("CC=O", "CC(=O)Cl", "CCC=O")]
        assert second[1] is first[1]

    def test_tokens_are_bound_unread(self):
        # A token is one its caller could not read: it becomes its wildcard,
        # numbered in the caller's registry.
        registry = AliasRegistry()
        registry.alias_for("Qq1")
        (product,) = self.template().instantiate("products", {"R": "Ph"}, registry)
        assert canonicalize(product) == canonicalize("[101*]CO")


class TestInverseProperty:
    """Substitution then extraction must reproduce the variant exactly."""

    def test_random_pairs(self):
        rng = random.Random(41)
        for _ in range(40):
            template_s = rng.choice(SCAFFOLDS)
            template = parse_smiles(template_s)
            labels = sorted(
                {template.atoms[i].label for i in template.placeholder_indices()}
            )
            assignment = {lab: rng.choice(POOL) for lab in labels}
            variant = substitute_placeholders(template, assignment, TABLE)
            variant_s = write_smiles(variant)
            bindings = extract_rgroup_fragments(template, parse_smiles(variant_s))
            rebuilt = substitute_placeholders(template, bindings)
            assert graph_smiles(rebuilt) == canonicalize(variant_s), (
                template_s,
                assignment,
            )
