"""End-to-end acceptance gate.

Each test checks one published number, regression fixture, or property
bundle at its stated tolerance and prints a single verdict line that
survives pytest's output capture. Keep these independent: a failure
here means the toolkit no longer reproduces its reference behavior.
"""

import json
import random
import time

from rxnscope.agents import InputDescriptor
from rxnscope.agents.backend import ScriptedBackend
from rxnscope.agents.executor import execute_plan
from rxnscope.agents.planner import Plan, build_steps, plan_extraction, review_plan
from rxnscope.chemops import AbbreviationTable, perceive_stereo
from rxnscope.metrics import evaluate, prf
from rxnscope.reaction import (
    classify_condition,
    decode_records,
    parse_rgroup_table,
    validate_record,
)
from rxnscope.rgroup import (
    ReactionTemplate,
    extract_rgroup_fragments,
    reconstruct_reactants,
    substitute_placeholders,
)
from rxnscope.smiles import canonicalize, parse_smiles, write_smiles
from rxnscope.substructure import find_matches

from corpus import MOLECULES
from oracles import (
    brute_force_matches,
    flip_wedges,
    mirror_drawing,
    numpy_wedge_tag,
    random_molecular_graph,
    random_pattern,
    random_wedge_drawing,
    renumbered,
)

BACKEND = ScriptedBackend()


def verdict(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        state = "PASS" if passed else "FAIL"
        print(f"[acceptance {number:02d}] {state}: {detail}")
    assert passed, detail


def canon(s: str) -> str:
    return canonicalize(s)


def test_criterion_01_metric_arithmetic(capsys):
    p, r, f = (100 * x for x in prf(898, 1056, 1120))
    _, _, f_hard = (100 * x for x in prf(879, 1056, 1120))
    deltas = [abs(p - 85.0), abs(r - 80.2), abs(f - 82.5), abs(f_hard - 80.8)]
    ok = max(deltas) <= 0.05
    verdict(
        capsys, 1, ok,
        f"prf arithmetic ({p:.2f}/{r:.2f}/{f:.2f}, hard F1 {f_hard:.2f}) "
        f"within 0.05pp of published values",
    )


# Transcription of the ynone/acrylonitrile substitution table: three
# variants differing only in the bromophenyl regiochemistry of R4.
SUBSTITUTION_TABLE = (
    "entry\tR1\tR2\tR3\tR4\ttime (h)\tproduct\tyield (%)\n"
    "1\tPh\tH\tPh\t4-BrC6H4\t24\t3a\t78\n"
    "2\tPh\tH\tPh\t3-BrC6H4\t24\t3b\t67\n"
    "3\tPh\tH\tPh\t2-BrC6H4\t24\t3c\t78\n"
)

REACTANT_TEMPLATES = ("[R1]C#CC(=O)C[R2]", "[R3]C(=O)/C(C#N)=C/[R4]")

# Published reactant pairs per variant, ring-closure typos repaired.
EXPECTED_REACTANTS = {
    "3a": ("[H]CC(=O)C#Cc1ccccc1", "N#CC(=Cc1ccc(Br)cc1)C(=O)c1ccccc1"),
    "3b": ("[H]CC(=O)C#Cc1ccccc1", "N#CC(=Cc1cccc(Br)c1)C(=O)c1ccccc1"),
    "3c": ("[H]CC(=O)C#Cc1ccccc1", "N#CC(=Cc1ccccc1Br)C(=O)c1ccccc1"),
}


def test_criterion_02_table_substitution_regression(capsys):
    start = time.perf_counter()
    templates = [parse_smiles(s) for s in REACTANT_TEMPLATES]
    rows = parse_rgroup_table(SUBSTITUTION_TABLE)
    checked = 0
    ok = len(rows) == 3
    for row in rows:
        label = row.metadata["product"]
        assignment = dict(row.values)
        for template, expected in zip(templates, EXPECTED_REACTANTS[label]):
            spliced = substitute_placeholders(template, assignment)
            got = canon(write_smiles(spliced))
            ok = ok and got == canon(expected)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 6 and elapsed < 1.0
    verdict(
        capsys, 2, ok,
        f"table substitution reproduces all {checked} reactant SMILES "
        f"for 3a/3b/3c in {elapsed:.2f}s",
    )


def test_criterion_03_acyl_reconstruction_regression(capsys):
    reactant = parse_smiles("[Ar]C([R])=O")
    product = parse_smiles(
        "[Ar]C1([R])O[C@H](c2ccccc2)N(S(=O)(=O)c2ccc(C)cc2)C1=O"
    )
    template = ReactionTemplate(
        reactant_templates=(reactant,), product_templates=(product,)
    )
    ok = True
    for ketone in ["CCC(=O)c1ccccc1", "CCCC(=O)c1ccccc1"]:
        bindings = extract_rgroup_fragments(reactant, parse_smiles(ketone))
        recovered = reconstruct_reactants(template, bindings)
        ok = ok and [canon(s) for s in recovered] == [canon(ketone)]
    verdict(
        capsys, 3, ok,
        "extract/reconstruct recovers both acyl variants through [Ar]C([R])=O",
    )


INVERSE_SCAFFOLDS = [
    "[R1]C(=O)O",
    "[R1]C#CC(=O)C[R2]",
    "[Ar]C([R])=O",
    "[R1]OC(=O)[R2]",
    "[R1]c1ccc([R2])cc1",
    "[Ar]C1CC1[R]",
    "[R1]N([R2])C(C)=O",
]
INVERSE_POOL = ["Me", "Et", "Ph", "OMe", "Cl", "CF3", "iPr", "CN", "Br", "nPr"]


def test_criterion_04_inverse_property(capsys):
    start = time.perf_counter()
    table = AbbreviationTable.default()
    rng = random.Random(17)
    failures = 0
    for _ in range(200):
        template = parse_smiles(rng.choice(INVERSE_SCAFFOLDS))
        labels = sorted(
            {template.atoms[i].label for i in template.placeholder_indices()}
        )
        assignment = {lab: rng.choice(INVERSE_POOL) for lab in labels}
        variant = substitute_placeholders(template, assignment, table)
        variant_s = write_smiles(variant)
        bindings = extract_rgroup_fragments(template, parse_smiles(variant_s))
        rebuilt = substitute_placeholders(template, bindings)
        if canon(write_smiles(rebuilt)) != canon(variant_s):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    verdict(
        capsys, 4, ok,
        f"extract-substitute identity on 200 random pairs, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_05_substructure_oracle(capsys):
    start = time.perf_counter()
    rng = random.Random(29)
    mismatches = 0
    for _ in range(100):
        target = random_molecular_graph(rng, 10)
        pattern = random_pattern(rng, 4)
        key = lambda m: tuple(m[i] for i in range(len(m)))
        got = sorted(find_matches(pattern, target), key=key)
        want = sorted(brute_force_matches(pattern, target), key=key)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    verdict(
        capsys, 5, ok,
        f"find_matches equals brute force on 100 random graphs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_06_canonicalization_properties(capsys):
    molecules = MOLECULES[:50]
    failures = []
    for s in molecules:
        c = canonicalize(s)
        if canonicalize(c) != c:
            failures.append(("idempotence", s))
        if canonicalize(write_smiles(parse_smiles(c))) != c:
            failures.append(("round-trip", s))
        g = parse_smiles(s)
        for seed in range(20):
            perm = list(range(len(g.atoms)))
            random.Random(seed).shuffle(perm)
            if canonicalize(write_smiles(renumbered(g, perm))) != c:
                failures.append(("renumbering", s, seed))
    ok = not failures
    verdict(
        capsys, 6, ok,
        f"canonicalization fixpoint/idempotence/renumbering on "
        f"{len(molecules)} molecules x 20 permutations, "
        f"{len(failures)} failures",
    )


def test_criterion_07_stereo_oracle(capsys):
    rng = random.Random(37)
    disagreements = 0
    flipped = {"@": "@@", "@@": "@", None: None}
    for _ in range(50):
        g, center = random_wedge_drawing(rng)
        tagged, _ = perceive_stereo(g)
        tag = tagged.atoms[center].chiral
        if tag != numpy_wedge_tag(g, center):
            disagreements += 1
            continue
        mirrored, _ = perceive_stereo(mirror_drawing(g))
        if mirrored.atoms[center].chiral != tag:
            disagreements += 1
            continue
        inverted, _ = perceive_stereo(flip_wedges(g))
        if inverted.atoms[center].chiral != flipped[tag]:
            disagreements += 1
    ok = disagreements == 0
    verdict(
        capsys, 7, ok,
        f"wedge perception agrees with signed-volume oracle plus "
        f"mirror/flip invariants on 50 drawings, {disagreements} disagreements",
    )


def test_criterion_08_condition_roles(capsys):
    cases = {
        "PhMe": "solvent",
        "rt": "temperature",
        "38 - 78%": "yield",
        "14:1 dr": "add_info",
        "91% ee": "add_info",
        "10 mol% Cs2CO3": "reagent",
    }
    wrong = []
    for text, role in cases.items():
        items = classify_condition(text)
        if len(items) != 1 or items[0].role != role:
            wrong.append((text, [i.role for i in items]))
    ok = not wrong
    verdict(
        capsys, 8, ok,
        f"all six reference condition strings classify to their roles"
        + (f" (wrong: {wrong})" if wrong else ""),
    )


def test_criterion_09_end_to_end_determinism(capsys, fig2_bundle):
    start = time.perf_counter()
    descriptor = InputDescriptor(
        modalities=frozenset(
            {"reaction_template_image", "structure_table", "text_description"}
        ),
        bundle_path=str(fig2_bundle),
    )
    plan = plan_extraction(descriptor, BACKEND)
    documents = [execute_plan(plan, descriptor).document for _ in range(3)]
    elapsed = time.perf_counter() - start

    identical = documents[0] == documents[1] == documents[2]
    records, _ = decode_records(documents[0])
    validation_clean = all(not validate_record(r) for r in records)
    golden_records, _ = decode_records((fig2_bundle / "golden.json").read_text())
    scores = evaluate(records, golden_records)
    ok = (
        identical
        and len(records) == 7
        and validation_clean
        and scores["soft"]["f1"] == 1.0
        and scores["hard"]["f1"] == 1.0
        and elapsed < 5.0
    )
    verdict(
        capsys, 9, ok,
        f"pipeline emits 7 valid records, byte-identical across 3 runs, "
        f"soft/hard F1 {scores['soft']['f1']}/{scores['hard']['f1']} "
        f"vs golden, {elapsed:.1f}s",
    )


CANONICAL_PLANS = {
    frozenset({"reaction_template_image", "structure_table", "text_description"}): [
        "reaction_template_parsing",
        "molecular_recognition",
        "structure_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ],
    frozenset({"reaction_template_image", "text_table", "text_description"}): [
        "reaction_template_parsing",
        "text_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ],
    frozenset({"molecule_image_only"}): [
        "molecular_recognition",
        "data_structure",
    ],
}


def test_criterion_10_planner_regression(capsys):
    problems = []
    for modalities, expected in CANONICAL_PLANS.items():
        descriptor = InputDescriptor(modalities=modalities)
        plan = plan_extraction(descriptor, BACKEND)
        if [s.agent for s in plan.steps] != expected:
            problems.append(("plan", sorted(modalities)))
        if review_plan(plan, descriptor) != []:
            problems.append(("approval", sorted(modalities)))

    full = InputDescriptor(
        modalities=frozenset(
            {"reaction_template_image", "structure_table", "text_description"}
        )
    )
    good = plan_extraction(full, BACKEND)
    defects = {
        "omission": Plan(steps=good.steps[:-1]),
        "redundancy": Plan(
            steps=build_steps(
                [
                    "reaction_template_parsing",
                    "molecular_recognition",
                    "structure_rgroup",
                    "text_rgroup",
                    "condition_interpretation",
                    "text_extraction",
                    "data_structure",
                ]
            )
        ),
        "inconsistency": Plan(
            steps=(good.steps[3],) + good.steps[:3] + good.steps[4:]
        ),
    }
    for kind, plan in defects.items():
        issues = review_plan(plan, full)
        if not any(i.kind == kind for i in issues):
            problems.append(("defect", kind))
    ok = not problems
    verdict(
        capsys, 10, ok,
        "three canonical plans approved and three seeded defects flagged"
        + (f" (problems: {problems})" if problems else ""),
    )
