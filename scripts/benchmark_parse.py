#!/usr/bin/env python3
"""Benchmark SMILES parsing and check aromaticity perception against its oracle.

Prints microseconds per ``parse_smiles`` call (min of repeats, outside a
parse scope, so every call parses afresh) on the fig2 ``golden.json``
texts and on the texts written from the fig2 ``molecules.json`` graphs,
and microseconds per perception call on the same texts as written, for
``_perceive_aromaticity`` and for ``reference_perceive_aromaticity``,
the walk over every simple 6-atom path. Then compares the two on those
texts and on seeded ring graphs, and exits 1 on any difference, so it
can serve as a check:

    python3 scripts/benchmark_parse.py --graphs 300
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import random_ring_graph, reference_perceive_aromaticity, unperceived_graph

from rxnscope import smiles
from rxnscope.molgraph import graph_from_json

FIG2 = ROOT / "fixtures" / "fig2"


def _smiles_fields(node) -> list[str]:
    if isinstance(node, dict):
        return [
            text
            for key, value in node.items()
            for text in ([value] if key == "smiles" and isinstance(value, str) else _smiles_fields(value))
        ]
    if isinstance(node, list):
        return [text for value in node for text in _smiles_fields(value)]
    return []


def fig2_texts() -> dict[str, list[str]]:
    """Distinct SMILES texts per fig2 source, in first-seen order."""
    golden = _smiles_fields(json.loads((FIG2 / "golden.json").read_text()))
    molecules = [
        smiles.write_smiles(graph_from_json(entry["graph"]))
        for entry in json.loads((FIG2 / "molecules.json").read_text())
    ]
    return {"golden.json": list(dict.fromkeys(golden)), "molecules.json": list(dict.fromkeys(molecules))}


def _best_us_per_call(call, args: list, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for arg in args:
            call(arg)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(args)


def _differences(graphs: list) -> int:
    return sum(smiles._perceive_aromaticity(g) != reference_perceive_aromaticity(g) for g in graphs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timing repeats; the min is kept")
    parser.add_argument("--graphs", type=int, default=300, help="seeded ring graphs to compare")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    failed = 0
    print(f"{'texts':>16} {'n':>4} {'parse (us)':>11} {'perceive (us)':>14} {'oracle (us)':>12} {'differences':>12}")
    for source, texts in fig2_texts().items():
        graphs = [unperceived_graph(t) for t in texts]
        parse_us = _best_us_per_call(smiles.parse_smiles, texts, args.repeats)
        perceive_us = _best_us_per_call(smiles._perceive_aromaticity, graphs, args.repeats)
        oracle_us = _best_us_per_call(reference_perceive_aromaticity, graphs, args.repeats)
        differences = _differences(graphs)
        failed += differences
        print(f"{source:>16} {len(texts):>4} {parse_us:>11.1f} {perceive_us:>14.1f} {oracle_us:>12.1f} {differences:>12}")

    rng = random.Random(args.seed)
    differences = _differences([random_ring_graph(rng) for _ in range(args.graphs)])
    failed += differences
    print(f"\nseeded ring graphs: {args.graphs}, differences from the oracle: {differences}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
