"""Seeded input generators for the three benchmark workloads.

Every input is built from data already in the repository: the fig2
template, sidecars and golden document, and tokens of the packaged
abbreviation table. A ``Generator`` is seeded once and hands out one
input per ``next()``; the i-th input depends only on the seed and on the
inputs before it, so the same seed always yields the same byte-identical
inputs. Expected results are written by the generator from string
templates, never computed by the library.

Workloads
---------
structure_scope
    Template image + structure table + text description bundles. The
    first op is the shipped fig2 bundle; the rest hold 6-24 variants of
    the fig2 product (R chain x aryl ring). Exercises the matcher, the
    pair lookup and the parser.
table_scope
    Template image + text table + text description bundles with 6-24
    rows of abbreviation and condensed-formula tokens, some misspelt.
    Exercises substitution and writing (the rgroup layer in the
    substitute direction), token correction; calls no matcher.
scope_evaluate
    One ``evaluate(pred, gold)`` per op. Gold is the fig2 golden
    document (first op) or a generated scope; pred is gold with seeded
    perturbations whose soft/hard counts are known in advance.
    Exercises canonicalize, fingerprint and validity; no bundle I/O.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]
FIG2 = REPO / "fixtures" / "fig2"

WORKLOADS = ("structure_scope", "table_scope", "scope_evaluate")

# Quaternary-centre scaffold of the fig2 products; the R chain is written
# in front of it, as in the fig2 bundle.
STRUCTURE_SCAFFOLD = "[C@]1({ar})O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O"
# The same product instantiated from the unstereo'd template C1.
TABLE_PRODUCT = "C1({r})({ar})O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O"

# R chains as a SMILES prefix that ends at the attachment atom.
R_CHAINS = {
    "C1": "C",
    "C2": "CC",
    "C3": "CCC",
    "C4": "CCCC",
    "C5": "CCCCC",
    "C6": "CCCCCC",
    "iPr": "CC(C)",
    "iBu": "CC(C)C",
    "tBu": "CC(C)(C)",
}
# Aryl rings as an attach-first SMILES using ring digits 2/3.
ARYLS = {
    "phenyl": "c2ccccc2",
    "4-F-phenyl": "c2ccc(F)cc2",
    "4-Cl-phenyl": "c2ccc(Cl)cc2",
    "4-Br-phenyl": "c2ccc(Br)cc2",
    "4-Me-phenyl": "c2ccc(C)cc2",
    "4-OMe-phenyl": "c2ccc(OC)cc2",
    "4-CF3-phenyl": "c2ccc(C(F)(F)F)cc2",
    "2-naphthyl": "c2ccc3ccccc3c2",
    "2-thienyl": "c2cccs2",
    "3-pyridyl": "c2cccnc2",
}
# The evaluation pool adds the doubly symmetric 3,5-bis(CF3) ring.
EVAL_ARYLS = dict(ARYLS, **{"3,5-bis-CF3-phenyl": "c2cc(C(F)(F)F)cc(C(F)(F)F)c2"})
SYMMETRIC_R = {"tBu"}
SYMMETRIC_AR = {"4-CF3-phenyl", "3,5-bis-CF3-phenyl"}

# Text-table tokens and the attach-first SMILES the generator expects for
# them. Tokens in the abbreviation table may be misspelt; condensed
# formulas are never misspelt (a misspelt formula is unrecoverable).
TABLE_R = {
    "Me": "C",
    "Et": "CC",
    "nPr": "CCC",
    "iPr": "C(C)C",
    "nBu": "CCCC",
    "iBu": "CC(C)C",
    "tBu": "C(C)(C)C",
    "Bn": "Cc3ccccc3",
}
TABLE_AR = {
    "Ph": "c3ccccc3",
    "4-BrC6H4": "c3ccc(Br)cc3",
    "4-ClC6H4": "c3ccc(Cl)cc3",
    "4-FC6H4": "c3ccc(F)cc3",
    "4-MeC6H4": "c3ccc(C)cc3",
    "4-OMeC6H4": "c3ccc(OC)cc3",
    "4-CF3C6H4": "c3ccc(C(F)(F)F)cc3",
    "4-NO2C6H4": "c3ccc([N+](=O)[O-])cc3",
    "3-ClC6H4": "c3cccc(Cl)c3",
    "2-MeC6H4": "c3ccccc3C",
    "3,5-Me2C6H3": "c3cc(C)cc(C)c3",
    "3,5-(CF3)2C6H3": "c3cc(C(F)(F)F)cc(C(F)(F)F)c3",
}
TABLE_SYMMETRIC = {"tBu", "4-CF3C6H4", "3,5-(CF3)2C6H3"}
# One-letter typos: each fails the condensed-formula grammar and lies at
# edit distance 1 from its intended token, which sorts first among the
# vocabulary tokens at that distance.
TYPOS = {
    "Ph": "Pj",
    "Me": "Mw",
    "Et": "Ey",
    "nPr": "nPy",
    "iPr": "iPy",
    "nBu": "nBy",
    "iBu": "iBy",
    "tBu": "tBy",
    "Bn": "Bj",
}
MISSPELT_SHARE = 0.12

# Bundle sizes come in antithetic pairs (s, 30 - s), s = 6..15. A block
# holds every pair once, so any run of whole blocks holds the same sizes
# in the same proportions: 15 variants per bundle on average, and the
# median op is one with 15 variants.
PAIRED_SIZES = [(s, 30 - s) for s in range(6, 16)]
# Each evaluated scope holds five variants, exactly one of them with a
# symmetric substituent; its kind is stratified over the three kinds, and
# each kind's variants are drawn without replacement. A
# fixed size keeps the pooled soft F1 independent of how many ops a run
# completes.
EVAL_SYMMETRIC = {
    "tBu": [("tBu", a) for a in ARYLS if a not in SYMMETRIC_AR],
    "4-CF3": [(r, "4-CF3-phenyl") for r in R_CHAINS if r not in SYMMETRIC_R],
    # A tBu or branched chain on the bis-CF3 ring costs seconds per
    # canonicalization; straight chains keep one op within the run.
    "bis-CF3": [(r, "3,5-bis-CF3-phenyl") for r in ("C1", "C2", "C3", "C4", "C5", "C6")],
}
EVAL_SIZES = [(5, kind) for kind in EVAL_SYMMETRIC]


def _paired_blocks(rng: random.Random) -> Iterator[list]:
    """Blocks of all ten size pairs, pairs and the sizes in each in seeded order."""
    while True:
        pairs = list(PAIRED_SIZES)
        rng.shuffle(pairs)
        block = []
        for pair in pairs:
            pair = list(pair)
            rng.shuffle(pair)
            block += pair
        yield block


def _kind_blocks(rng: random.Random) -> Iterator[list]:
    """Blocks holding each evaluation (size, kind) once, in seeded order."""
    while True:
        block = list(EVAL_SIZES)
        rng.shuffle(block)
        yield block


def _cycled(rng: random.Random, pool: list) -> Iterator:
    """The pool in a seeded order, again and again: each item once per pass."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _letters(i: int) -> str:
    return "abcdefghijklmnopqrstuvwxyz"[i]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


class _Fig2:
    """The pieces of the fig2 fixture every generator reuses."""

    def __init__(self) -> None:
        self.golden_text = (FIG2 / "golden.json").read_text(encoding="utf-8")
        golden = json.loads(self.golden_text)
        self.golden = golden
        self.template_record = golden["reactions"][0]
        self.template_reaction = [
            [m["smiles"] for m in self.template_record["reactants"]],
            [m["smiles"] for m in self.template_record["products"]],
        ]
        # Reactant 2 (the oxaziridine) is shared by every variant.
        self.oxaziridine = golden["reactions"][1]["reactants"][1]["smiles"]
        self.shared_conditions = [
            c for c in golden["reactions"][1]["conditions"] if c["role"] != "yield"
        ]
        molecules = json.loads((FIG2 / "molecules.json").read_text(encoding="utf-8"))
        self.template_molecules = [m for m in molecules if m["label"] in ("1", "2", "3")]
        self.catalyst_molecules = [m for m in molecules if m["label"].startswith("B")]


class Generator:
    """Yields one input per op; ``next()`` builds it, untimed."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self._blocks = (_kind_blocks if workload == "scope_evaluate" else _paired_blocks)(self.rng)
        self._block: list = []
        # Each symmetric kind's variants are drawn without replacement.
        self._symmetric = {kind: _cycled(self.rng, pool) for kind, pool in EVAL_SYMMETRIC.items()}
        self.work_dir = Path(work_dir)
        self.fig2 = _Fig2()
        self.index = 0
        self._seen: set = set()
        self._passes: dict[tuple, Iterator] = {}
        self._graph_json: dict[str, dict] = {}
        # Input properties, accumulated over the generated inputs.
        self.props = {
            "ops": 0,
            "variants": [],
            "heavy_atoms": [],
            "symmetric": 0,
            "molecule_texts": 0,
            "repeated_texts": 0,
            "tokens": 0,
            "misspelt": 0,
        }
        self._texts_seen: set[str] = set()

    # -- bookkeeping ---------------------------------------------------

    def _note_products(self, products: list[str]) -> None:
        self.props["variants"].append(len(products))
        for smiles in products:
            self.props["heavy_atoms"].append(_heavy_atoms(smiles))
            self.props["molecule_texts"] += 1
            self.props["repeated_texts"] += smiles in self._texts_seen
            self._texts_seen.add(smiles)

    def _next_size(self):
        if not self._block:
            self._block = next(self._blocks)
        return self._block.pop(0)

    @property
    def at_block_end(self) -> bool:
        """True when the inputs so far hold whole strata (op 0 stands alone)."""
        return not self._block

    def _draw(self, pool: list, size: int) -> list:
        """Distinct pool items, never drawn before as a set.

        Items come from the pool in seeded passes (``_cycled``), so every
        item is used about equally often and runs of the same length hold
        nearly the same variants whatever the seed.
        """
        passes = self._passes.setdefault(tuple(pool), _cycled(self.rng, pool))
        while True:
            picks: list = []
            while len(picks) < size:
                item = next(passes)
                if item not in picks:
                    picks.append(item)
            key = frozenset(picks)
            if key not in self._seen:
                self._seen.add(key)
                return picks

    def input_properties(self) -> dict:
        p = self.props

        def share(a, b):
            return a / b if b else 0.0

        return {
            "ops": p["ops"],
            "variants_per_input_mean": share(sum(p["variants"]), len(p["variants"])),
            "variants_per_input_range": [min(p["variants"], default=0), max(p["variants"], default=0)],
            "heavy_atoms_per_product_mean": share(sum(p["heavy_atoms"]), len(p["heavy_atoms"])),
            "heavy_atoms_per_product_range": [min(p["heavy_atoms"], default=0), max(p["heavy_atoms"], default=0)],
            "symmetric_share": share(p["symmetric"], sum(p["variants"])),
            "repeated_molecule_text_share": share(p["repeated_texts"], p["molecule_texts"]),
            "misspelt_token_share": share(p["misspelt"], p["tokens"]),
        }

    # -- inputs --------------------------------------------------------

    def __next__(self) -> dict:
        i = self.index
        self.index += 1
        self.props["ops"] += 1
        if self.workload == "structure_scope":
            return self._structure(i)
        if self.workload == "table_scope":
            return self._table(i)
        return self._evaluate(i)

    def _bundle_dir(self, i: int) -> Path:
        path = self.work_dir / f"op{i:05d}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def _copy_fig2(self, out: Path, names: tuple[str, ...]) -> None:
        for name in names:
            (out / name).write_bytes((FIG2 / name).read_bytes())

    def _structure(self, i: int) -> dict:
        fig2 = self.fig2
        if i == 0:
            products = [r["products"][0]["smiles"] for r in fig2.golden["reactions"][1:]]
            self._note_products(products)
            expected = [
                [[m["smiles"] for m in r["reactants"]], [m["smiles"] for m in r["products"]]]
                for r in fig2.golden["reactions"]
            ]
            return {"kind": "fig2", "bundle": str(FIG2), "golden": fig2.golden_text,
                    "expected": expected}
        from rxnscope.molgraph import graph_to_json
        from rxnscope.smiles import parse_smiles

        size = self._next_size()
        pool = [(r, a) for r in R_CHAINS for a in ARYLS]
        picks = self._draw(pool, size)
        out = self._bundle_dir(i)
        molecules = list(fig2.template_molecules)
        expected = [fig2.template_reaction]
        products = []
        for k, (r, a) in enumerate(picks):
            product = R_CHAINS[r] + STRUCTURE_SCAFFOLD.format(ar=ARYLS[a])
            ketone = R_CHAINS[r] + "C(=O)" + ARYLS[a]
            if product not in self._graph_json:
                self._graph_json[product] = graph_to_json(parse_smiles(product))
            yld = self.rng.randint(35, 95)
            dr = self.rng.randint(5, 20)
            ee = self.rng.randint(80, 99)
            molecules.append(
                {
                    "label": "3" + _letters(k),
                    "graph": self._graph_json[product],
                    "annotations": [f"{yld}%", f"{dr}:1 dr, {ee}% ee"],
                }
            )
            expected.append([[ketone, fig2.oxaziridine], [product]])
            products.append(product)
            self.props["symmetric"] += r in SYMMETRIC_R or a in SYMMETRIC_AR
        molecules += fig2.catalyst_molecules
        tokens: list = []
        for m in range(len(molecules)):
            x1 = 10 + 120 * (m % 4)
            y1 = 10 + 140 * (m // 4)
            tokens += [x1, y1, x1 + 100, y1 + 120, "molecule"]
        self._copy_fig2(out, ("descriptor.json", "template.json", "text.txt", "ner.json", "rxn.json"))
        _write_json(out / "molecules.json", molecules)
        _write_json(out / "boxes.json", tokens)
        self._note_products(products)
        return {"kind": "bundle", "bundle": str(out), "expected": expected}

    def _table(self, i: int) -> dict:
        size = self._next_size()
        pool = [(r, a) for r in TABLE_R for a in TABLE_AR]
        picks = self._draw(pool, size)
        out = self._bundle_dir(i)
        lines = ["entry\tR\tAr\ttime\tproduct\tyield"]
        expected = [self.fig2.template_reaction]
        products = []
        for k, (r, a) in enumerate(picks):
            cells = []
            for token in (r, a):
                self.props["tokens"] += 1
                if token in TYPOS and self.rng.random() < MISSPELT_SHARE:
                    self.props["misspelt"] += 1
                    token = TYPOS[token]
                cells.append(token)
            hours = self.rng.choice((2, 6, 12, 18, 24, 36, 48))
            yld = self.rng.randint(35, 95)
            lines.append(f"{k + 1}\t{cells[0]}\t{cells[1]}\t{hours} h\t3{_letters(k)}\t{yld}%")
            product = TABLE_PRODUCT.format(r=TABLE_R[r], ar=TABLE_AR[a])
            ketone = f"O=C({TABLE_R[r]}){TABLE_AR[a]}"
            expected.append([[ketone, self.fig2.oxaziridine], [product]])
            products.append(product)
            self.props["symmetric"] += r in TABLE_SYMMETRIC or a in TABLE_SYMMETRIC
        _write_json(
            out / "descriptor.json",
            {"modalities": ["reaction_template_image", "text_table", "text_description"]},
        )
        self._copy_fig2(out, ("template.json", "text.txt", "ner.json", "rxn.json"))
        (out / "table.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._note_products(products)
        return {"kind": "bundle", "bundle": str(out), "expected": expected}

    def _evaluate(self, i: int) -> dict:
        fig2 = self.fig2
        if i == 0:
            gold = json.loads(fig2.golden_text)
        else:
            size, kind = self._next_size()
            ordinary = [
                (r, a) for r in R_CHAINS for a in ARYLS
                if r not in SYMMETRIC_R and a not in SYMMETRIC_AR
            ]
            picks = self._draw(ordinary, size - 1) + [next(self._symmetric[kind])]
            self.rng.shuffle(picks)
            reactions = []
            for k, (r, a) in enumerate(picks):
                conditions = list(fig2.shared_conditions) + [
                    {"role": "yield", "text": f"{self.rng.randint(35, 95)}%"}
                ]
                reactions.append(
                    {
                        "reaction_id": f"{k + 1}_1",
                        "reactants": [
                            {"smiles": R_CHAINS[r] + "C(=O)" + EVAL_ARYLS[a]},
                            {"smiles": fig2.oxaziridine},
                        ],
                        "conditions": conditions,
                        "products": [
                            {
                                "smiles": R_CHAINS[r] + STRUCTURE_SCAFFOLD.format(ar=EVAL_ARYLS[a]),
                                "label": "3" + _letters(k),
                            }
                        ],
                        "additional_info": [f"{self.rng.randint(5, 20)}:1 dr"],
                    }
                )
                self.props["symmetric"] += r in SYMMETRIC_R or a in SYMMETRIC_AR
            gold = {"Text description": fig2.golden["Text description"], "reactions": reactions}
        # Only fig2 starts with its template record, which stays unperturbed.
        first_variant = 1 if i == 0 else 0
        pred, expected = _perturb(self.rng, gold, first_variant)
        variants = [r["products"][0]["smiles"] for r in gold["reactions"][first_variant:]]
        self._note_products(variants)
        return {
            "kind": "evaluate",
            "gold": json.dumps(gold, indent=2, ensure_ascii=False),
            "pred": json.dumps(pred, indent=2, ensure_ascii=False),
            "expected": expected,
        }


def _heavy_atoms(smiles: str) -> int:
    """Heavy-atom count of a SMILES without hydrogens written as atoms."""
    count = 0
    i = 0
    while i < len(smiles):
        ch = smiles[i]
        if ch == "[":
            end = smiles.index("]", i)
            count += not smiles[i + 1 : end].startswith("H")
            i = end + 1
            continue
        if smiles.startswith(("Cl", "Br"), i):
            count += 1
            i += 2
            continue
        count += ch in "BCNOSPFIcnosp"
        i += 1
    return count


def _near_miss(product: str) -> str:
    """The same product with one more carbon on the R chain."""
    return "C" + product


def _perturb(rng: random.Random, gold: dict, first_variant: int) -> tuple[dict, dict]:
    """Pred document from gold plus the soft/hard counts it must score.

    Four distinct variant records are perturbed: one dropped, one with a
    changed condition text (soft hit, hard miss), one with a near-miss
    product (both miss) and one with a valence-violating reactant (both
    miss; a truly unparseable SMILES cannot be decoded into a record).
    """
    reactions = json.loads(json.dumps(gold["reactions"]))
    variant_idx = list(range(first_variant, len(reactions)))
    drop, cond, swap, invalid = rng.sample(variant_idx, 4)
    time_item = next(c for c in reactions[cond]["conditions"] if c["role"] == "time")
    time_item["text"] += " (sealed tube)"
    reactions[swap]["products"][0]["smiles"] = _near_miss(reactions[swap]["products"][0]["smiles"])
    ketone = reactions[invalid]["reactants"][0]
    ketone["smiles"] = ketone["smiles"].replace("C(=O)", "C(=O)(C)(C)", 1)
    pred_reactions = [r for k, r in enumerate(reactions) if k != drop]
    n_gold = len(reactions)
    expected = {
        "soft": {"correct": n_gold - 3, "predicted": n_gold - 1, "gold": n_gold},
        "hard": {"correct": n_gold - 4, "predicted": n_gold - 1, "gold": n_gold},
    }
    return {"Text description": gold["Text description"], "reactions": pred_reactions}, expected
