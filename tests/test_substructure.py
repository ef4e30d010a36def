import functools
import hashlib
import importlib.util
import json
import logging
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from rxnscope import substructure
from rxnscope.chemops import AbbreviationTable, AliasRegistry
from rxnscope.molgraph import (
    AtomToken,
    Bond,
    GraphError,
    MolecularGraph,
    graph_from_json,
    subgraph,
)
from rxnscope.rgroup import extract_rgroup_fragments, substitute_placeholders
from rxnscope.smiles import parse_smiles, write_smiles
from rxnscope.substructure import (
    MatchError,
    atoms_compatible,
    bonds_compatible,
    find_matches,
    scaffold_align,
)

from oracles import (
    brute_force_matches,
    random_molecular_graph,
    random_pattern,
    reference_scaffold_align,
    verify_mapping,
)
from test_rgroup import DIGEST_POOL, DIGEST_SCAFFOLDS

REPO = Path(__file__).resolve().parents[1]
FIG2 = REPO / "fixtures" / "fig2"
TABLE = AbbreviationTable.default()


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

    def test_results_ordered(self):
        g = parse_smiles("c1ccccc1")
        keys = [sort_key(m) for m in find_matches(g, g)]
        assert keys == sorted(keys)

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
        # lexicographic order.
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

    def test_joker_heavy_patterns_equal_brute_force(self):
        # Jokers inside the pattern, lone atoms and two-atom components
        # take the placement order's fallbacks: a joker root, an unanchored
        # terminal atom.
        rng = random.Random(29)
        for case in range(160):
            target = random_molecular_graph(rng, 7)
            pattern = random_pattern(rng, 4)
            atoms = tuple(
                AtomToken(kind="placeholder", text="[R]") if rng.random() < 0.5 else atom
                for atom in pattern.atoms
            )
            pattern = MolecularGraph(atoms=atoms, bonds=pattern.bonds)
            if case % 3 == 1:
                lone = rng.choice([AtomToken(kind="placeholder", text="[R]"), atoms[0]])
                pattern = disjoint_union(pattern, MolecularGraph(atoms=(lone,)))
            elif case % 3 == 2:
                pattern = disjoint_union(pattern, random_pattern(rng, 2))
            want = sorted(brute_force_matches(pattern, target), key=sort_key)
            assert find_matches(pattern, target) == want

    def test_pattern_longer_than_the_recursion_limit(self):
        chain = "C" * sys.getrecursionlimit()
        pattern = parse_smiles("[R]N" + chain)
        target = parse_smiles("CN" + chain)
        assert find_matches(pattern, target) == [{i: i for i in range(len(target.atoms))}]


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
    out = capsys.readouterr().out
    assert "(7 align)" in out
    assert "oracle mismatches" in out
    assert "scaffold_align (ms/call)" in out


# --- the fig2 product template against fig2, seeded and digest variants ----

def fig2_product_template() -> MolecularGraph:
    spec = json.loads((FIG2 / "template.json").read_text())
    return graph_from_json(spec["product_templates"][0])


def fig2_variants() -> list[MolecularGraph]:
    entries = json.loads((FIG2 / "molecules.json").read_text())
    return [graph_from_json(entry["graph"]) for entry in entries]


def respliced(template, assignment, registry=None) -> MolecularGraph:
    """The substituted template as a variant arrives: written and parsed."""
    return parse_smiles(write_smiles(substitute_placeholders(template, assignment, TABLE, registry)))


# Scaffolds with symmetric groups: a 4-CF3-aryl, a tBu, a 3,5-bis-CF3-aryl,
# a sulfonyl, two same-label placeholders, and pairs of CF3 and tBu groups.
SYMMETRIC_TEMPLATES = [
    "[R]c1ccc(C(F)(F)F)cc1",
    "[Ar]C(=O)C(C)(C)C",
    "[R]C(=O)c1cc(C(F)(F)F)cc(C(F)(F)F)c1",
    "[R]S(=O)(=O)c1ccc(C)cc1",
    "[R]c1ccc([R])cc1",
    "[Ar]C(O)(C(F)(F)F)C(F)(F)F",
    "CC(C)(C)c1cc([R])cc(C(C)(C)C)c1",
]
# Substituents that repeat the scaffolds' symmetric groups.
SYMMETRIC_POOL = [
    "Me", "Et", "iPr", "tBu", "CF3", "Ph", "Ts", "Ms", "OMe",
    "4-CF3C6H4", "3,5-(CF3)2C6H3", "4-tBuC6H4", "4-MeC6H4", "C(CF3)3",
]


@functools.cache
def alignment_cases() -> dict[str, list[tuple[MolecularGraph, MolecularGraph]]]:
    template = fig2_product_template()
    labels = sorted({template.atoms[i].label for i in template.placeholder_indices()})
    rng = random.Random(18)
    seeded = [
        (template, respliced(template, {label: rng.choice(TABLE.tokens()) for label in labels}))
        for _ in range(320)
    ]
    digest_scaffolds = []
    for scaffold in DIGEST_SCAFFOLDS:
        g = parse_smiles(scaffold)
        labels = sorted({g.atoms[i].label for i in g.placeholder_indices()})
        for _ in range(6):
            assignment = {label: rng.choice(DIGEST_POOL) for label in labels}
            digest_scaffolds.append((g, respliced(g, assignment, AliasRegistry())))
    symmetric = []
    for scaffold in SYMMETRIC_TEMPLATES:
        g = parse_smiles(scaffold)
        labels = sorted({g.atoms[i].label for i in g.placeholder_indices()})
        for _ in range(8):
            assignment = {label: rng.choice(SYMMETRIC_POOL) for label in labels}
            symmetric.append((g, respliced(g, assignment)))
    return {
        "fig2": [(template, variant) for variant in fig2_variants()],
        "seeded": seeded,
        "digest_scaffolds": digest_scaffolds,
        "symmetric": symmetric,
    }


def aligned(template, variant, caplog):
    """``scaffold_align``'s mapping, fragments and ambiguity warnings, or None."""
    caplog.clear()
    try:
        mapping, fragments = scaffold_align(template, variant)
    except MatchError:
        return None
    warnings = sum("ambiguous scaffold alignment" in r.getMessage() for r in caplog.records)
    return mapping, fragments, warnings


def reference_aligned(template, variant):
    try:
        return reference_scaffold_align(template, variant)
    except MatchError:
        return None


class TestAlignmentOracle:
    @pytest.mark.parametrize("family", ["fig2", "seeded", "digest_scaffolds"])
    def test_equals_scoring_every_embedding(self, family, caplog):
        cases = alignment_cases()[family]
        outcomes = []
        with caplog.at_level(logging.WARNING, logger="rxnscope.substructure"):
            for template, variant in cases:
                got = aligned(template, variant, caplog)
                assert got == reference_aligned(template, variant), write_smiles(variant)
                outcomes.append(got)
        matched = [o for o in outcomes if o is not None]
        # Every family aligns most of its cases, and some ambiguously.
        assert len(matched) >= len(cases) // 2
        assert any(warnings for _, _, warnings in matched)

    def test_symmetric_family_equals_scoring_every_embedding(self, caplog, monkeypatch):
        # One embedding per orbit of the template automorphisms that fix
        # the placeholders: the orbits are free, so each holds as many
        # embeddings as that group has elements.
        enumerated = spy_embeddings(monkeypatch)
        fewer = 0
        with caplog.at_level(logging.WARNING, logger="rxnscope.substructure"):
            for template, variant in alignment_cases()["symmetric"]:
                want = reference_aligned(template, variant)
                every = find_matches(template, variant)
                placeholders = template.placeholder_indices()
                group = [
                    m for m in find_matches(template, template) if all(m[p] == p for p in placeholders)
                ]
                enumerated.clear()
                got = aligned(template, variant, caplog)
                assert got == want is not None, write_smiles(variant)
                (count,) = enumerated
                assert count * len(group) == len(every), write_smiles(variant)
                fewer += count < len(every)
        assert fewer == len(alignment_cases()["symmetric"])

    def test_alignment_digest_is_pinned(self):
        assert alignment_digest() == (
            "600253ec2ff5163a70aaa505f0e7864148bae35e4ad920e9faa745c027b85ed8"
        )


def alignment_digest() -> str:
    """SHA-256 over every case's mapping and written bindings."""
    digest = hashlib.sha256()
    for family in ("fig2", "seeded", "digest_scaffolds"):
        for template, variant in alignment_cases()[family]:
            try:
                mapping, _ = scaffold_align(template, variant)
                bindings = extract_rgroup_fragments(template, variant)
            except MatchError as exc:
                digest.update(f"MatchError: {exc}".encode())
                continue
            digest.update(json.dumps(sorted(mapping.items())).encode())
            written = {label: write_smiles(f.graph) for label, f in sorted(bindings.items())}
            digest.update(json.dumps(written).encode())
    return digest.hexdigest()


# ``atoms_compatible`` calls per ``find_matches`` call of the fig2 product
# template on a fig2 variant: 78 or fewer with the rarest inner atom as
# root, 371-425 when the ``[Ar]`` joker at index 0 roots the search.
FIG2_COMPATIBILITY_BOUND = 120


def spy_embeddings(monkeypatch) -> list[int]:
    """A list that receives the number of embeddings each search returns."""
    counts: list[int] = []
    real = substructure._embeddings

    def counted(*args):
        found = real(*args)
        counts.append(len(found))
        return found

    monkeypatch.setattr(substructure, "_embeddings", counted)
    return counts


def test_fig2_alignment_work_is_bounded(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(substructure, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(substructure, name, wrapper)

    counted("atoms_compatible")
    counted("_fragment_atoms")
    enumerated = spy_embeddings(monkeypatch)
    template = fig2_product_template()
    placeholders = template.placeholder_indices()
    aligned_variants = 0
    for variant in fig2_variants():
        calls.clear()
        matches = find_matches(template, variant)
        assert calls["atoms_compatible"] <= FIG2_COMPATIBILITY_BOUND
        if not matches:
            continue
        placements = {(tuple(m[p] for p in placeholders), frozenset(m.values())) for m in matches}
        # The tolyl flip and the sulfonyl oxygen swap make 8 embeddings of
        # 2 placements; the search keeps one embedding per placement.
        assert (len(matches), len(placements)) == (8, 2)
        calls.clear()
        enumerated.clear()
        scaffold_align(template, variant)
        assert enumerated == [len(placements)]
        assert calls["_fragment_atoms"] == len(placements) + 1
        aligned_variants += 1
    assert aligned_variants == 7


def b27_like() -> tuple[MolecularGraph, MolecularGraph]:
    """The fig2 catalyst B27, and B27 with its N-methyl as a placeholder."""
    path = REPO / "scripts" / "make_fig2_bundle.py"
    spec = importlib.util.spec_from_file_location("make_fig2_bundle", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    b27 = dict(script.CATALYSTS)["B27"]
    assert b27.endswith("N1C")
    return parse_smiles(b27[:-1] + "[R]"), parse_smiles(b27)


def test_b27_like_template_aligns_in_bounded_time(monkeypatch):
    # Two 3,5-bis-CF3-phenyl groups give the template 10,368 embeddings in
    # B27, all one orbit of its placeholder-fixing automorphisms.
    template, variant = b27_like()
    enumerated = spy_embeddings(monkeypatch)
    start = time.process_time()
    mapping, fragments = scaffold_align(template, variant)
    assert time.process_time() - start < 0.5
    assert enumerated == [1]
    ((p, atoms),) = fragments.items()
    assert template.atoms[p].label == "R"
    assert [variant.atoms[t].text for t in atoms] == ["C"] and atoms == [mapping[p]]
    # Every embedding scores alike, so the first of them all is the one kept.
    assert mapping == find_matches(template, variant)[0]
