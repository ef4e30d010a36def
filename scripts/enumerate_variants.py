#!/usr/bin/env python3
"""Enumerate concrete variants of a placeholder template.

Reads an R-group table (tab or multi-space separated, one column per
placeholder label) and splices each row into the template, printing one
JSON line per variant with the canonical SMILES and the row metadata.

Example:
    python scripts/enumerate_variants.py \
        --template "[R1]C#CC(=O)C[R2]" --table table.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rxnscope.chemops import AbbreviationTable
from rxnscope.reaction import parse_rgroup_table
from rxnscope.rgroup import substitute_placeholders
from rxnscope.smiles import canonicalize, parse_smiles, write_smiles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--template", required=True, help="SMILES with [R1]-style placeholders")
    parser.add_argument("--table", help="R-group table file (default: stdin)")
    args = parser.parse_args(argv)

    text = Path(args.table).read_text(encoding="utf-8") if args.table else sys.stdin.read()
    template = parse_smiles(args.template)
    table = AbbreviationTable.default()

    for row in parse_rgroup_table(text):
        spliced = substitute_placeholders(template, dict(row.values), table)
        smiles = canonicalize(write_smiles(spliced))
        print(json.dumps({
            "entry": row.entry,
            "assignment": dict(row.values),
            "smiles": smiles,
            "metadata": dict(row.metadata),
        }, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
