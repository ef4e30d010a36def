import copy
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, strategies as st

from rxnscope import metrics, smiles
from rxnscope.metrics import (
    FingerprintError,
    Fingerprint,
    MatchCounts,
    evaluate,
    fingerprint,
    prf,
    tanimoto,
)
from rxnscope.molgraph import AtomToken, Bond, MolecularGraph
from rxnscope.reaction import (
    ConditionItem,
    MoleculeEntry,
    ReactionRecord,
    decode_records,
)
from rxnscope.smiles import parse_smiles, write_smiles

from corpus import MOLECULES
from oracles import (
    random_fingerprint_graph,
    reference_evaluate,
    reference_fingerprint,
    renumbered,
)


DISTINCT_ELEMENTS = ["C", "N", "O", "S", "P", "B", "F", "Cl", "Br", "I", "Si", "Se"]


def distinct_atom_graph(kind: str, size: int, tail: int = 0) -> MolecularGraph:
    """A chain or ring of ``size`` atoms, each a different element, with a
    chain of ``tail`` more hung on its first atom."""
    atoms = tuple(AtomToken(kind="element", text=t) for t in DISTINCT_ELEMENTS[: size + tail])
    bonds = [Bond(a=i, b=i + 1) for i in range(size - 1)]
    if kind == "ring":
        bonds.append(Bond(a=size - 1, b=0))
    bonds += [Bond(a=size + i - 1 if i else 0, b=size + i) for i in range(tail)]
    return MolecularGraph(atoms=atoms, bonds=tuple(bonds))


def longest_simple_path(g: MolecularGraph) -> int:
    """Bonds in the longest simple path of ``g``, by brute force."""

    def deepest(cur: int, seen: frozenset) -> int:
        return max((1 + deepest(m, seen | {m}) for m in g.neighbors(cur) if m not in seen), default=0)

    return max(deepest(i, frozenset([i])) for i in range(len(g.atoms)))


def bits(*positions: int) -> Fingerprint:
    value = 0
    for p in positions:
        value |= 1 << p
    return Fingerprint(bits=value)


class TestFingerprint:
    def test_methane_single_path(self):
        fp = fingerprint(parse_smiles("C"))
        assert fp.bits.bit_count() == 1

    def test_ethane_vs_ethene(self):
        a = fingerprint(parse_smiles("CC"))
        b = fingerprint(parse_smiles("C=C"))
        assert a != b

    def test_placeholder_rejected(self):
        with pytest.raises(FingerprintError):
            fingerprint(parse_smiles("[R1]C"))

    @pytest.mark.parametrize(
        "smiles, positions",
        [
            ("C", [594]),
            ("CCO", [335, 594, 748, 798, 923]),
            ("c1ccccc1", [15, 167, 597, 813, 1029, 1687]),
        ],
    )
    def test_pinned_bits(self, smiles, positions):
        assert fingerprint(parse_smiles(smiles)) == bits(*positions)

    def test_pinned_corpus_digest(self, fig2_bundle):
        # Any change to the path hashing shows here: the digest covers the
        # bits of every placeholder-free corpus and fig2 golden molecule.
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        fig2 = [
            e["smiles"]
            for r in golden["reactions"]
            for e in r["reactants"] + r["products"]
        ]
        rows = []
        for s in list(MOLECULES) + fig2:
            g = parse_smiles(s)
            if not g.placeholder_indices():
                rows.append([s, fingerprint(g).bits])
        assert len(rows) == 72
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "f4d8b9fbb667b8325e6fbbc0700323e7665bfbff32fa51510f2dd950c54bb872"

    @pytest.mark.parametrize(
        "kind, size, tail, longest",
        [
            ("chain", 7, 0, 6),
            ("chain", 8, 0, 7),
            ("chain", 9, 0, 8),
            ("chain", 10, 0, 9),
            ("ring", 7, 0, 6),
            ("ring", 8, 0, 7),
            ("ring", 9, 0, 8),
            ("ring", 10, 0, 9),
            ("ring", 5, 3, 7),
            ("ring", 6, 3, 8),
        ],
    )
    def test_paths_around_the_last_level(self, kind, size, tail, longest):
        # Distinct elements give every path its own text, so a walk that
        # stops one bond short of MAX_PATH_BONDS, or goes one bond past
        # it, misses or adds bits on graphs whose longest simple path
        # has 6 to 9 bonds.
        g = distinct_atom_graph(kind, size, tail)
        assert longest_simple_path(g) == longest
        assert fingerprint(g).bits == reference_fingerprint(g)

    @given(st.sampled_from(MOLECULES), st.integers(0, 2**32 - 1))
    def test_renumbering_invariance(self, s, seed):
        g = parse_smiles(s)
        if g.placeholder_indices():
            return
        perm = list(range(len(g.atoms)))
        random.Random(seed).shuffle(perm)
        assert fingerprint(renumbered(g, perm)) == fingerprint(g)


# Scope products and ketones on the fig2 scaffold with the symmetric groups
# (tBu, 4-CF3-phenyl, 3,5-bis-CF3-phenyl), written out as SMILES.
SYMMETRIC_SCOPE = [
    "CC(C)(C)[C@]1(c2ccccc2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O",
    "C[C@]1(c2ccc(C(F)(F)F)cc2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O",
    "CC[C@]1(c2cc(C(F)(F)F)cc(C(F)(F)F)c2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O",
    "CC(C)(C)[C@]1(c2cc(C(F)(F)F)cc(C(F)(F)F)c2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O",
    "CC(C)(C)C(=O)c2ccc(C(F)(F)F)cc2",
    "CCCC(=O)c2cc(C(F)(F)F)cc(C(F)(F)F)c2",
]


# Abbreviation texts that hold "." or "|", and whose descriptors are
# prefixes of one another's or of a whole path's text ("C|0|0.single.C").
AWKWARD_TEXTS = ["a.b", "a", "a.b.c", "C|0|0!", "C|0|0.single.C", "C|0|0", "C|0", "C|0|0.single"]


class TestStepTables:
    """The table step is FNV-1a mod FP_WIDTH, so the bits equal the
    brute-force oracle's."""

    def test_corpus_and_fig2_match_oracle(self, fig2_bundle):
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        fig2 = [e["smiles"] for r in golden["reactions"] for e in r["reactants"] + r["products"]]
        checked = 0
        for s in list(MOLECULES) + fig2 + SYMMETRIC_SCOPE:
            g = parse_smiles(s)
            if g.placeholder_indices():
                continue
            assert fingerprint(g).bits == reference_fingerprint(g), s
            checked += 1
        assert checked == 78

    def test_random_graphs_match_oracle(self):
        rng = random.Random(20261018)
        for _ in range(200):
            g = random_fingerprint_graph(rng)
            assert fingerprint(g).bits == reference_fingerprint(g)

    @given(st.binary(max_size=64), st.integers(0, 2**64 - 1))
    def test_table_step_is_fnv1a_mod_width(self, data, h):
        # The bit reads h % FP_WIDTH, and that residue after a step depends
        # only on the residue before it.
        table = metrics._step_table(data)
        assert len(table) == metrics.FP_WIDTH
        assert table[h % metrics.FP_WIDTH] == metrics._fnv1a(data, h) % metrics.FP_WIDTH

    def test_width_is_a_power_of_two_that_fits_the_table(self):
        # A power of two divides 2**64, so the residue is closed under the
        # FNV-1a step; 16-bit table entries hold residues below 2**16.
        width = metrics.FP_WIDTH
        assert width & (width - 1) == 0 and 256 <= width <= 2**16

    def test_awkward_abbreviation_texts_match_oracle(self):
        # Texts holding the descriptor's own separators, and descriptors
        # that are prefixes of others ("C|0|0" of "C|0|0!|0|0"), so that
        # comparing two end descriptors does not settle ``text <= back``.
        pool = [AtomToken(kind="abbreviation", text=t) for t in AWKWARD_TEXTS] + [
            AtomToken(kind="element", text="C"),
            AtomToken(kind="element", text="C", aromatic=True),
            AtomToken(kind="element", text="C", charge=-1),
        ]
        descriptors = [metrics._atom_descriptor(MolecularGraph(atoms=(a,)), 0) for a in pool]
        assert any(a != b and b.startswith(a) for a in descriptors for b in descriptors)
        rng = random.Random(20261020)
        for _ in range(200):
            shape = random_fingerprint_graph(rng, max_atoms=10)
            g = MolecularGraph(atoms=tuple(rng.choice(pool) for _ in shape.atoms), bonds=shape.bonds)
            assert fingerprint(g).bits == reference_fingerprint(g), [a.text for a in g.atoms]

    def test_cache_stays_bounded(self):
        # 144 atoms with distinct (element, charge): more distinct step
        # texts than the cache keeps, so tables are evicted mid-molecule.
        atoms = [f"[{el}{q:+d}]" for el in "CNOSPB" for q in range(-12, 13) if q]
        g = parse_smiles("".join(atoms))
        assert len({(a.text, a.charge) for a in g.atoms}) > metrics._STEP_TABLES
        assert fingerprint(g).bits == reference_fingerprint(g)
        info = metrics._step_table.cache_info()
        assert info.maxsize == metrics._STEP_TABLES
        assert info.currsize <= metrics._STEP_TABLES


class TestTanimoto:
    def test_identity(self):
        fp = fingerprint(parse_smiles("CCO"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        assert tanimoto(bits(1, 2), bits(3, 4)) == 0.0

    def test_half_overlap(self):
        assert tanimoto(bits(1, 2, 3), bits(2, 3, 4)) == 0.5

    def test_both_empty(self):
        assert tanimoto(bits(), bits()) == 1.0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_symmetric_and_bounded(self, a, b):
        x, y = Fingerprint(bits=a), Fingerprint(bits=b)
        assert tanimoto(x, y) == tanimoto(y, x)
        assert 0.0 <= tanimoto(x, y) <= 1.0


class TestPrf:
    def test_published_soft_triple(self):
        p, r, f = prf(898, 1056, 1120)
        assert abs(p * 100 - 85.0) < 0.05
        assert abs(r * 100 - 80.2) < 0.05
        assert abs(f * 100 - 82.5) < 0.05

    def test_published_hard_f1(self):
        _, _, f = prf(879, 1056, 1120)
        assert abs(f * 100 - 80.8) < 0.05

    def test_zero_conventions(self):
        assert prf(0, 0, 5) == (0.0, 0.0, 0.0)
        assert prf(0, 5, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_correct_bounded(self):
        with pytest.raises(ValueError):
            MatchCounts(correct=3, predicted=2, gold=5)


def reaction(rid, reactants, products, conditions=()):
    return ReactionRecord(
        reaction_id=rid,
        reactants=tuple(MoleculeEntry(smiles=s) for s in reactants),
        conditions=tuple(conditions),
        products=tuple(MoleculeEntry(smiles=s) for s in products),
    )


def scoring_memo(pred, gold):
    """The memo ``evaluate`` builds from the molecules of both documents."""
    return metrics._Molecules(metrics._record_molecules([*pred, *gold]))


def match_reactions(pred, gold, mode="soft"):
    """The matching section of ``evaluate``, run alone."""
    return metrics._match(pred, gold, mode, scoring_memo(pred, gold))


def similarity_report(pred_smiles, gold_smiles):
    """The similarity section of ``evaluate`` over texts, parsed here."""
    pred = [fingerprint(parse_smiles(s)) for s in pred_smiles]
    gold = [fingerprint(parse_smiles(s)) for s in gold_smiles]
    return metrics._similarity(pred, gold)


def valid_rate(pred, gold):
    """The validity section of ``evaluate``, run alone."""
    return metrics._valid_rate(pred, gold, scoring_memo(pred, gold))


GOLD = [
    reaction("1_1", ["CCO", "CC(C)=O"], ["CCOC(C)C"]),
    reaction("2_1", ["c1ccccc1"], ["Cc1ccccc1"]),
]


class TestMatchReactions:
    def test_reflexive(self):
        counts, pairing = match_reactions(GOLD, GOLD)
        assert (counts.correct, counts.predicted, counts.gold) == (2, 2, 2)
        assert pairing == [(0, 0), (1, 1)]

    def test_renumbered_smiles_still_match(self):
        pred = [reaction("x", ["OCC", "O=C(C)C"], ["CC(C)OCC"])]
        counts, _ = match_reactions(pred, GOLD[:1])
        assert counts.correct == 1

    def test_duplicate_prediction_counts_once(self):
        pred = [GOLD[0], GOLD[0]]
        counts, _ = match_reactions(pred, GOLD[:1])
        assert counts.correct == 1
        assert counts.predicted == 2

    def test_permutation_invariance(self):
        pred = list(reversed(GOLD))
        counts, _ = match_reactions(pred, GOLD)
        assert counts.correct == 2

    def test_hard_mode_compares_conditions(self):
        with_cond = reaction(
            "1_1", ["CCO"], ["CC=O"], [ConditionItem(role="solvent", text="PhMe")]
        )
        without = reaction("1_1", ["CCO"], ["CC=O"])
        soft, _ = match_reactions([without], [with_cond], mode="soft")
        hard, _ = match_reactions([without], [with_cond], mode="hard")
        assert soft.correct == 1
        assert hard.correct == 0

    def test_hard_mode_normalizes_text(self):
        a = reaction("1", ["CCO"], ["CC=O"], [ConditionItem(role="solvent", text="PhMe  ")])
        b = reaction("1", ["CCO"], ["CC=O"], [ConditionItem(role="solvent", text="phme")])
        counts, _ = match_reactions([a], [b], mode="hard")
        assert counts.correct == 1

    def test_many_duplicates_pair_in_index_order(self):
        many = [GOLD[0]] * 1500
        start = time.perf_counter()
        counts, pairing = match_reactions(many, many)
        elapsed = time.perf_counter() - start
        assert counts.correct == 1500
        assert pairing == [(i, i) for i in range(1500)]
        assert elapsed < 1.0

    @pytest.fixture
    def canonical_calls(self, monkeypatch):
        calls = []
        real = metrics.canonicalize
        monkeypatch.setattr(metrics, "canonicalize", lambda g: calls.append(g) or real(g))
        return calls

    # Seed 4 makes the valence-violating ketone C(=O)(C)(C)(C)c1ccccc1
    # from the methyl ketone, which shares its key with the propyl ketone
    # C(=O)(CCC)c1ccccc1: both are canonicalized, once each.
    @pytest.mark.parametrize("seed, calls", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 2)])
    def test_texts_alone_with_their_key_are_not_canonicalized(
        self, fig2_bundle, canonical_calls, seed, calls
    ):
        golden = json.loads((fig2_bundle / "golden.json").read_text())
        gold, _ = decode_records(json.dumps(golden))
        pred, _ = decode_records(json.dumps(_perturb(random.Random(seed), golden, 1)))
        report = evaluate(pred, gold)
        assert (report["soft"]["correct"], report["hard"]["correct"]) == (4, 3)
        assert len(canonical_calls) == calls

    def test_isomers_sharing_a_key_are_canonicalized(self, canonical_calls):
        gold = [reaction("1", ["CCCC(=O)c1ccccc1"], ["CCCC(C)(O)c1ccccc1"])]
        pred = [reaction("1", ["CC(C)C(=O)c1ccccc1"], ["CCCC(C)(O)c1ccccc1"])]
        counts, _ = match_reactions(pred, gold)
        assert counts.correct == 0
        assert len(canonical_calls) == 2

    def test_rewritten_gold_molecule_is_canonicalized_and_matches(self, canonical_calls):
        product = "CC[C@]1(c2ccccc2)O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O"
        rewritten = rank_shuffled(product, random.Random(5))
        assert rewritten != product
        gold = [reaction("1", ["CCC(=O)c1ccccc1"], [product])]
        pred = [reaction("1", ["CCC(=O)c1ccccc1"], [rewritten])]
        counts, _ = match_reactions(pred, gold)
        assert counts.correct == 1
        assert len(canonical_calls) == 2

    def test_molecule_entry_rejects_unparseable(self):
        # The record type itself guards the gold-side precondition.
        with pytest.raises(Exception):
            MoleculeEntry(smiles="C1CC")


class TestSimilarityReport:
    def test_identical_sets(self):
        smiles = ["CCO", "c1ccccc1"]
        assert similarity_report(smiles, smiles) == (1.0, 1.0)

    def test_empty_predictions(self):
        assert similarity_report([], ["CCO"]) == (0.0, 0.0)

    def test_half_matched(self):
        avg, at1 = similarity_report(["CCO"], ["CCO", "c1ccccc1"])
        assert avg == 0.5
        assert at1 == 0.5

    def test_renumbered_prediction_still_exact(self):
        avg, at1 = similarity_report(["OCC"], ["CCO"])
        assert (avg, at1) == (1.0, 1.0)


class TestValidRate:
    def test_all_valid(self):
        assert valid_rate(GOLD, GOLD) == (1.0, 1.0, 1.0)

    def test_half_invalid(self):
        # Parseable but chemically broken entries: bad valences throughout.
        pred = [
            reaction(
                "1",
                ["CCO", "O(C)(C)C", "Cl(C)C", "F(C)C", "CCC"],
                ["CC=O", "C(C)(C)(C)(C)C", "C", "ClC(Cl)(Cl)(Cl)Cl", "CC(C)=O"],
            )
        ]
        gold = [reaction("g", ["C"] * 5, ["O"] * 5)]
        p, r, f = valid_rate(pred, gold)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)
        assert f == pytest.approx(0.5)

    def test_no_predictions(self):
        assert valid_rate([], GOLD) == (0.0, 0.0, 0.0)


def test_evaluate_self_comparison():
    report = evaluate(GOLD, GOLD)
    assert report["soft"]["f1"] == 1.0
    assert report["hard"]["f1"] == 1.0
    assert report["avg_tanimoto"] == 1.0
    assert report["tani_at_1"] == 1.0
    assert report["valid_rate"]["f1"] == 1.0


def _standalone_report(pred, gold):
    """The evaluate report assembled from its sections, each run alone."""
    report = {}
    for mode in ("soft", "hard"):
        counts, _ = match_reactions(pred, gold, mode)
        p, r, f1 = prf(counts.correct, counts.predicted, counts.gold)
        report[mode] = {
            "precision": p,
            "recall": r,
            "f1": f1,
            "correct": counts.correct,
            "predicted": counts.predicted,
            "gold": counts.gold,
        }

    def molecules(records):
        texts = [e.smiles for rec in records for e in rec.reactants + rec.products]
        return [s for s in texts if not parse_smiles(s).placeholder_indices()]

    avg, at1 = similarity_report(molecules(pred), molecules(gold))
    report["avg_tanimoto"] = avg
    report["tani_at_1"] = at1
    vp, vr, vf = valid_rate(pred, gold)
    report["valid_rate"] = {"precision": vp, "recall": vr, "f1": vf}
    return report


class TestEvaluateSharedMemo:
    @pytest.mark.parametrize(
        "perturb, soft_correct, hard_correct",
        [(False, 7, 7), (True, 4, 3)],
    )
    def test_matches_standalone_scorers(
        self, fig2_bundle, perturb, soft_correct, hard_correct
    ):
        text = (fig2_bundle / "golden.json").read_text()
        gold, _ = decode_records(text)
        pred_doc = _perturb(random.Random(0), json.loads(text), 1) if perturb else json.loads(text)
        pred, _ = decode_records(json.dumps(pred_doc))
        report = evaluate(pred, gold)
        assert report == _standalone_report(pred, gold)
        assert report["soft"]["correct"] == soft_correct
        assert report["hard"]["correct"] == hard_correct


def rank_shuffled(text: str, rng: random.Random) -> str:
    """``text`` written again by ``write_smiles`` under shuffled ranks."""
    g = parse_smiles(text)
    ranks = list(range(len(g.atoms)))
    rng.shuffle(ranks)
    return write_smiles(g, ranks)


def _perturb(rng: random.Random, gold: dict, first_variant: int) -> dict:
    """The pred document of the ``scope_evaluate`` benchmark workload.

    A copy of the benchmark's perturbation, so that these tests do not
    import the benchmark: of the records from ``first_variant`` on, one
    is dropped, one gets a changed condition text (soft hit, hard miss),
    one a product with one more carbon (both miss) and one a
    valence-violating reactant (both miss).
    """
    reactions = json.loads(json.dumps(gold["reactions"]))
    variant_idx = list(range(first_variant, len(reactions)))
    drop, cond, swap, invalid = rng.sample(variant_idx, 4)
    time_item = next(c for c in reactions[cond]["conditions"] if c["role"] == "time")
    time_item["text"] += " (sealed tube)"
    reactions[swap]["products"][0]["smiles"] = "C" + reactions[swap]["products"][0]["smiles"]
    ketone = reactions[invalid]["reactants"][0]
    ketone["smiles"] = ketone["smiles"].replace("C(=O)", "C(=O)(C)(C)", 1)
    pred_reactions = [r for k, r in enumerate(reactions) if k != drop]
    return {"Text description": gold["Text description"], "reactions": pred_reactions}


# Gold records beside fig2's: a propyl ketone and its alcohol, a
# two-component text, and pyrrole and naphthalene written aromatic.
EXTRA_GOLD = [
    ("k_1", ["CCCC(=O)c1ccccc1", "CC.O"], ["CCCC(O)c1ccccc1"]),
    ("w_1", ["CC.O"], ["CCO"]),
    ("p_1", ["c1cc[nH]c1", "CC(=O)Cl"], ["CC(=O)c1ccc[nH]1"]),
    ("n_1", ["c1ccc2ccccc2c1", "CCl"], ["Cc1ccc2ccccc2c1"]),
]

# Texts a prediction may write for a gold text. Each shares the gold
# text's identity key: the same molecule written with explicit [H] atoms
# or its components in another order, a constitutional isomer, or a
# Kekule form whose canonical string still differs from the aromatic one.
REWRITES = {
    "CCCC(=O)c1ccccc1": ["CC(C)C(=O)c1ccccc1", "[H]C([H])([H])CCC(=O)c1ccccc1"],
    "CCCC(O)c1ccccc1": ["CC(C)C(O)c1ccccc1", "CCCC(O[H])c1ccccc1"],
    "C(=O)(CCC)c1ccccc1": ["C(=O)(C(C)C)c1ccccc1"],
    "C(=O)(CCC)c1ccc(Br)cc1": ["CC(C)C(=O)c1ccc(Br)cc1"],
    "CC.O": ["O.CC", "[H]O[H].CC"],
    "CCO": ["[H]OCC", "OCC"],
    "c1cc[nH]c1": ["N1C=CC=C1", "[nH]1cccc1"],
    "CC(=O)c1ccc[nH]1": ["CC(=O)C1=CC=CN1"],
    "c1ccc2ccccc2c1": ["C1=CC=C2C=CC=CC2=C1"],
    "Cc1ccc2ccccc2c1": ["CC1=CC2=CC=CC=C2C=C1"],
}

PRED_CASES = ["ranks", "rewrites", "duplicates", "perturb", "mixed"]


def _gold_document(fig2_bundle) -> dict:
    doc = json.loads((fig2_bundle / "golden.json").read_text())
    for rid, reactants, products in EXTRA_GOLD:
        doc["reactions"].append({
            "reaction_id": rid,
            "reactants": [{"smiles": s} for s in reactants],
            "conditions": [{"role": "time", "text": "24 h"}],
            "products": [{"smiles": s} for s in products],
        })
    return doc


def _pred_document(gold: dict, rng: random.Random, case: str) -> dict:
    """A pred document of one shape (``case``), or of all mixed at random.

    ``ranks`` rewrites every text under shuffled ranks (the template
    record's placeholder texts too); ``rewrites`` takes a ``REWRITES``
    text for each gold text that has some; ``duplicates`` repeats three
    records; ``perturb`` applies the benchmark's four perturbations.
    """
    doc = copy.deepcopy(gold)
    mixed = case == "mixed"
    molecules = [m for r in doc["reactions"] for m in r["reactants"] + r["products"]]
    if case == "rewrites" or mixed:
        for m in molecules:
            if m["smiles"] in REWRITES and (not mixed or rng.random() < 0.5):
                m["smiles"] = rng.choice(REWRITES[m["smiles"]])
    if case == "ranks" or mixed:
        for m in molecules:
            if not mixed or rng.random() < 0.3:
                m["smiles"] = rank_shuffled(m["smiles"], rng)
    if case == "duplicates" or mixed:
        for record in rng.sample(doc["reactions"], 3):
            doc["reactions"].append(dict(copy.deepcopy(record), reaction_id=record["reaction_id"] + "_again"))
    if case == "perturb" or mixed:
        doc = _perturb(rng, doc, 1)
    return doc


class TestEvaluateAgainstReference:
    """``evaluate`` reports exactly what canonicalizing every molecule gives."""

    @pytest.mark.parametrize("case", PRED_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_report_is_byte_identical(self, fig2_bundle, case, seed):
        gold_doc = _gold_document(fig2_bundle)
        gold, _ = decode_records(json.dumps(gold_doc))
        pred, _ = decode_records(json.dumps(_pred_document(gold_doc, random.Random(seed), case)))
        for a, b in ((pred, gold), (gold, pred)):
            assert json.dumps(evaluate(a, b)) == json.dumps(reference_evaluate(a, b))

    def test_rewrites_share_their_gold_key(self):
        for text, rewrites in REWRITES.items():
            for other in rewrites:
                assert smiles.identity_key(parse_smiles(other)) == smiles.identity_key(parse_smiles(text))

    def test_cases_reach_both_outcomes_of_a_shared_key(self, fig2_bundle):
        # Over the seeded documents, a prediction sharing a gold key both
        # matches (a rewritten text) and misses (an isomer).
        gold_doc = _gold_document(fig2_bundle)
        gold, _ = decode_records(json.dumps(gold_doc))
        soft = {}
        for case in ("ranks", "rewrites"):
            pred, _ = decode_records(json.dumps(_pred_document(gold_doc, random.Random(0), case)))
            soft[case] = evaluate(pred, gold)["soft"]["correct"]
        assert soft["ranks"] == len(gold)
        assert soft["rewrites"] < len(gold)


class TestParseOnce:
    def test_decode_parses_each_text_once_and_evaluate_parses_nothing(
        self, fig2_bundle, monkeypatch
    ):
        parsed = []
        real = smiles._parse
        monkeypatch.setattr(smiles, "_parse", lambda text: parsed.append(text) or real(text))
        text = (fig2_bundle / "golden.json").read_text()
        gold, _ = decode_records(text)
        assert len(parsed) == len(set(parsed)) == 18
        pred, _ = decode_records(text)
        parsed.clear()
        evaluate(pred, gold)
        assert parsed == []
