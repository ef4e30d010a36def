#!/usr/bin/env python3
"""Build the offline fixture bundle for the oxazolidinone scheme.

Writes descriptor.json, template.json, molecules.json, boxes.json,
text.txt, ner.json and rxn.json into the target directory, then runs the
scripted pipeline once and freezes its document as golden.json. No run
reads ner.json (named entities) or rxn.json (text reactions) until they
get a document field and a scorer (ROADMAP item 8), nor boxes.json (one
detection box per molecule): molecules.json already holds the recognized
molecules. The three are fixture data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rxnscope.agents import Bundle, ScriptedBackend, execute_plan, plan_extraction
from rxnscope.molgraph import graph_to_json
from rxnscope.smiles import parse_smiles

# Drawn templates: placeholders stay in the graphs, the formula line
# below the scheme supplies Ar2.
REACTANT_TEMPLATES = [
    ("[Ar]C([R])=O", "1"),
    ("Cc1ccc(S(=O)(=O)N2OC2[Ar2])cc1", "2"),
]
PRODUCT_TEMPLATES = [
    ("[Ar]C1([R])O[C@H]([Ar2])N(S(=O)(=O)c2ccc(C)cc2)C1=O", "3"),
]
RGROUP_FORMULAS = {"Ar2": "2-ClC6H4"}
CONDITION_TEXT = "10 mol% B17 or B27, PhMe, rt, 24 h, 38 - 78%"

_SCAFFOLD = "[C@]1({ar})O[C@H](c2ccccc2Cl)N(S(=O)(=O)c2ccc(C)cc2)C1=O"

# (label, R chain written before the quaternary center, Ar ring, yield, dr/ee)
VARIANTS = [
    ("3a", "CC", "c2ccccc2", "71%", "14:1 dr, 91% ee"),
    ("3b", "CCC", "c2ccccc2", "78%", "14:1 dr, 91% ee"),
    ("3c", "CC", "c2ccc(Br)cc2", "78%", "14:1 dr, 95% ee"),
    ("3d", "CCC", "c2ccc(Br)cc2", "60%", "14:1 dr, 92% ee"),
    ("3e", "C", "c2ccccc2", "52%", "15:1 dr, 85% ee"),
    ("3f", "CC", "c2ccc3ccccc3c2", "61%", "10:1 dr, 94% ee"),
]

CATALYSTS = [
    ("B17", "OC(c1ccccc1)(c1ccccc1)[C@@H]1CCCN1C"),
    ("B27", "OC(c1cc(C(F)(F)F)cc(C(F)(F)F)c1)(c1cc(C(F)(F)F)cc(C(F)(F)F)c1)[C@@H]1CCCN1C"),
]

TEXT_DESCRIPTION = (
    "Aryl ketones 1 combine with the N-tosyl oxaziridine 2 under NHC "
    "catalysis (10 mol% B17 or B27) in toluene at room temperature, "
    "giving oxazolidinones 3 in 38 - 78% yield with high diastereo- and "
    "enantiocontrol. The free-hydroxyl precatalyst B27 performs best "
    "with electron-poor ketones."
)

NER_ENTITIES = [
    {"text": "B17", "type": "catalyst"},
    {"text": "B27", "type": "catalyst"},
    {"text": "toluene", "type": "solvent"},
    {"text": "oxazolidinones", "type": "product_class"},
]

RXN_ANNOTATIONS = [
    "ketone 1 + oxaziridine 2 -> oxazolidinone 3 (NHC catalysis, B17/B27)",
]


def variant_smiles(r_chain: str, ar_ring: str) -> str:
    return r_chain + _SCAFFOLD.format(ar=ar_ring)


def molecule_entry(smiles: str, label: str, annotations: list[str]) -> dict:
    entry = {"label": label, "graph": graph_to_json(parse_smiles(smiles))}
    if annotations:
        entry["annotations"] = annotations
    return entry


def build_files(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)

    descriptor = {
        "modalities": [
            "reaction_template_image",
            "structure_table",
            "text_description",
        ]
    }

    template = {
        "reactant_templates": [
            graph_to_json(parse_smiles(s)) for s, _ in REACTANT_TEMPLATES
        ],
        "product_templates": [
            graph_to_json(parse_smiles(s)) for s, _ in PRODUCT_TEMPLATES
        ],
        "reactant_labels": [label for _, label in REACTANT_TEMPLATES],
        "product_labels": [label for _, label in PRODUCT_TEMPLATES],
        "rgroup_formulas": RGROUP_FORMULAS,
        "condition_text": CONDITION_TEXT,
    }

    molecules = [
        molecule_entry(s, label, []) for s, label in REACTANT_TEMPLATES
    ]
    molecules += [molecule_entry(s, label, []) for s, label in PRODUCT_TEMPLATES]
    for label, r_chain, ar_ring, yld, stereo_note in VARIANTS:
        molecules.append(
            molecule_entry(variant_smiles(r_chain, ar_ring), label, [yld, stereo_note])
        )
    molecules += [molecule_entry(s, label, []) for label, s in CATALYSTS]

    # One detection box per molecule, laid out on a 4-wide grid.
    tokens: list = []
    for i in range(len(molecules)):
        x1 = 10 + 120 * (i % 4)
        y1 = 10 + 140 * (i // 4)
        tokens += [x1, y1, x1 + 100, y1 + 120, "molecule"]

    files = {
        "descriptor.json": descriptor,
        "template.json": template,
        "molecules.json": molecules,
        "boxes.json": tokens,
        "ner.json": NER_ENTITIES,
        "rxn.json": {"annotations": RXN_ANNOTATIONS},
    }
    for name, payload in files.items():
        (out / name).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    (out / "text.txt").write_text(TEXT_DESCRIPTION + "\n", encoding="utf-8")


def freeze_golden(out: Path) -> int:
    bundle = Bundle.load(out)
    backend = ScriptedBackend()
    plan = plan_extraction(bundle.descriptor, backend)
    result = execute_plan(plan, bundle.descriptor, backend=backend)
    (out / "golden.json").write_text(result.document + "\n", encoding="utf-8")
    return len(result.records)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="fixtures/fig2", help="bundle directory to (re)write"
    )
    parser.add_argument(
        "--skip-golden",
        action="store_true",
        help="write the sidecar files only, without running the pipeline",
    )
    args = parser.parse_args()
    out = Path(args.out)
    build_files(out)
    if args.skip_golden:
        print(f"wrote sidecars to {out}")
        return
    n = freeze_golden(out)
    print(f"wrote sidecars and golden.json ({n} records) to {out}")


if __name__ == "__main__":
    main()
