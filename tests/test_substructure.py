import importlib.util
import random
from pathlib import Path

import pytest

from rxnscope.molgraph import AtomToken, Bond, GraphError, MolecularGraph, subgraph
from rxnscope.smiles import parse_smiles
from rxnscope.substructure import (
    MatchError,
    atoms_compatible,
    bonds_compatible,
    find_matches,
    scaffold_align,
)

from oracles import brute_force_matches, random_molecular_graph, random_pattern, verify_mapping


def sort_key(mapping: dict[int, int]):
    return tuple(mapping[i] for i in range(len(mapping)))


def renumbered(g: MolecularGraph, order: list[int]) -> MolecularGraph:
    """The same molecule with atom ``order[k]`` moved to index ``k``."""
    new = {old: k for k, old in enumerate(order)}
    return MolecularGraph(
        atoms=tuple(g.atoms[old] for old in order),
        bonds=tuple(Bond(a=new[b.a], b=new[b.b], order=b.order) for b in g.bonds),
    )


def disjoint_union(g: MolecularGraph, h: MolecularGraph) -> MolecularGraph:
    shift = len(g.atoms)
    return MolecularGraph(
        atoms=g.atoms + h.atoms,
        bonds=g.bonds
        + tuple(Bond(a=b.a + shift, b=b.b + shift, order=b.order) for b in h.bonds),
    )


class TestCompatibility:
    def test_placeholder_matches_anything(self):
        joker = AtomToken(kind="placeholder", text="[R1]")
        for target in [
            AtomToken(kind="element", text="C"),
            AtomToken(kind="element", text="N", charge=1),
            AtomToken(kind="abbreviation", text="Ts"),
        ]:
            assert atoms_compatible(joker, target)

    def test_elements_need_equal_text_charge_aromatic(self):
        c = AtomToken(kind="element", text="C")
        assert atoms_compatible(c, AtomToken(kind="element", text="C"))
        assert not atoms_compatible(c, AtomToken(kind="element", text="N"))
        assert not atoms_compatible(c, AtomToken(kind="element", text="C", charge=1))
        assert not atoms_compatible(c, AtomToken(kind="element", text="C", aromatic=True))

    def test_single_aromatic_leniency_needs_joker_endpoint(self):
        plain = parse_smiles("CC")
        jokered = parse_smiles("[R1]C")
        pbond = plain.bonds[0]
        jbond = jokered.bonds[0]
        aromatic_target = parse_smiles("c1ccccc1").bonds[0]
        assert not bonds_compatible(plain, pbond, aromatic_target)
        assert bonds_compatible(jokered, jbond, aromatic_target)


class TestFindMatches:
    def test_benzene_automorphisms(self):
        g = parse_smiles("c1ccccc1")
        matches = find_matches(g, g)
        assert len(matches) == 12

    def test_carbonyl_in_propiophenone(self):
        pattern = parse_smiles("C=O")
        target = parse_smiles("CCC(=O)c1ccccc1")
        matches = find_matches(pattern, target)
        assert len(matches) == 1
        (m,) = matches
        assert target.atoms[m[1]].text == "O"

    def test_template_lands_on_scaffold(self):
        pattern = parse_smiles("[Ar]C([R])=O")
        target = parse_smiles("CCC(=O)c1ccccc1")
        matches = find_matches(pattern, target)
        assert matches, "template must embed"
        for m in matches:
            carbonyl_c = m[1]
            assert target.atoms[carbonyl_c].text == "C"
            assert target.bond_between(carbonyl_c, m[3]).order == "double"

    def test_results_ordered_and_truncated(self):
        g = parse_smiles("c1ccccc1")
        all_matches = find_matches(g, g)
        keys = [sort_key(m) for m in all_matches]
        assert keys == sorted(keys)
        assert find_matches(g, g, limit=5) == all_matches[:5]
        assert find_matches(g, g, limit=0) == []
        assert find_matches(g, g, limit=-1) == []

    def test_no_match_is_empty(self):
        assert find_matches(parse_smiles("N"), parse_smiles("CCO")) == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(GraphError):
            find_matches(MolecularGraph(), parse_smiles("C"))

    def test_matches_pass_independent_verifier(self):
        rng = random.Random(17)
        for _ in range(40):
            target = random_molecular_graph(rng, 8)
            pattern = random_pattern(rng, 3)
            for m in find_matches(pattern, target):
                assert verify_mapping(pattern, target, m)

    def test_agrees_with_brute_force(self):
        rng = random.Random(19)
        for _ in range(60):
            target = random_molecular_graph(rng, 9)
            pattern = random_pattern(rng, 4)
            got = sorted(find_matches(pattern, target), key=sort_key)
            want = sorted(brute_force_matches(pattern, target), key=sort_key)
            assert got == want

    def test_order_equals_brute_force_on_any_atom_order(self):
        # Shuffled and two-component patterns place atoms with no earlier
        # neighbour mid-search; the list itself, unsorted, must come out in
        # lexicographic order, and every limit must cut a prefix of it.
        rng = random.Random(23)
        for case in range(240):
            target = random_molecular_graph(rng, 8)
            pattern = random_pattern(rng, 4)
            if case % 2:
                pattern = disjoint_union(pattern, random_pattern(rng, 2))
            order = list(range(len(pattern.atoms)))
            rng.shuffle(order)
            pattern = renumbered(pattern, order)
            want = sorted(brute_force_matches(pattern, target), key=sort_key)
            assert find_matches(pattern, target) == want
            for limit in (1, 2, 3):
                assert find_matches(pattern, target, limit=limit) == want[:limit]


class TestScaffoldAlign:
    def test_minimal_substitution(self):
        template = parse_smiles("[R1]C(=O)O")
        variant = parse_smiles("CC(=O)O")
        mapping, roots = scaffold_align(template, variant)
        assert len(roots) == 1
        ((p, atoms),) = roots.items()
        assert template.atoms[p].label == "R1"
        assert atoms == [mapping[p]]

    def test_acyl_pair_fragments(self):
        template = parse_smiles("[Ar]C([R])=O")
        variant = parse_smiles("CCC(=O)c1ccccc1")
        _, roots = roots_by_label(template, variant)
        assert len(roots["R"]) == 2  # ethyl
        assert len(roots["Ar"]) == 6  # phenyl
        frag = subgraph(variant, roots["Ar"])
        assert all(a.aromatic for a in frag.atoms)

    def test_propyl_variant(self):
        template = parse_smiles("[Ar]C([R])=O")
        variant = parse_smiles("CCCC(=O)c1ccccc1")
        _, roots = roots_by_label(template, variant)
        assert len(roots["R"]) == 3

    def test_fragments_disjoint_from_scaffold(self):
        template = parse_smiles("[R1]c1ccc([R2])cc1")
        variant = parse_smiles("CCc1ccc(C(F)(F)F)cc1")
        mapping, roots = scaffold_align(template, variant)
        scaffold = {
            mapping[p]
            for p in range(len(template.atoms))
            if template.atoms[p].kind != "placeholder"
        }
        seen: set[int] = set()
        for atoms in roots.values():
            as_set = set(atoms)
            assert not as_set & scaffold
            assert not as_set & seen
            seen |= as_set

    def test_requires_placeholder(self):
        with pytest.raises(MatchError):
            scaffold_align(parse_smiles("CC"), parse_smiles("CCC"))

    def test_no_embedding(self):
        with pytest.raises(MatchError):
            scaffold_align(parse_smiles("[R]N"), parse_smiles("CCO"))

    def test_fused_placeholder_regions_rejected(self):
        # Both placeholders reach the same ring remainder: nothing separates
        # them, so extraction would double-count material.
        with pytest.raises(MatchError):
            scaffold_align(parse_smiles("[R1]C(=O)[R2]"), parse_smiles("O=C1CCC1"))

    def test_coverage_beats_lexicographic_order(self):
        # Template oxygen can sit on either variant oxygen; only one choice
        # leaves no dangling methyl.
        template = parse_smiles("[R1]C(=O)O")
        variant = parse_smiles("COC(=O)O")
        mapping, roots = scaffold_align(template, variant)
        covered = set(mapping.values())
        for atoms in roots.values():
            covered.update(atoms)
        assert covered == set(range(len(variant.atoms)))

    def test_aryl_placeholder_prefers_aromatic_atom(self):
        template = parse_smiles("[Ar]C([R])=O")
        # Both ends could host either placeholder; Ar must take the ring.
        variant = parse_smiles("Cc1ccc(C(C)=O)cc1")
        mapping, roots = roots_by_label(template, variant)
        ar_atoms = roots["Ar"]
        assert any(variant.atoms[i].aromatic for i in ar_atoms)


def roots_by_label(template, variant):
    mapping, roots = scaffold_align(template, variant)
    by_label = {template.atoms[p].label: atoms for p, atoms in roots.items()}
    return mapping, by_label


def test_align_is_deterministic():
    template = parse_smiles("[R1]c1ccccc1[R2]")
    variant = parse_smiles("CCc1ccccc1OC")
    runs = [scaffold_align(template, variant) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_benchmark_script_agrees_with_oracle(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "benchmark_substructure.py"
    spec = importlib.util.spec_from_file_location("benchmark_substructure", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--trials", "5", "--sizes", "6", "8"]) == 0
