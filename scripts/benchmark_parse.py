#!/usr/bin/env python3
"""Benchmark SMILES parsing and writing, and check both against their oracles.

Prints microseconds per ``parse_smiles`` call (min of repeats; every
call parses afresh) on the fig2 ``golden.json``
texts and on the texts written from the fig2 ``molecules.json`` graphs;
microseconds per ``graph_from_json`` call on those graphs and per
``write_smiles`` call on them (for ``golden.json``, on the parsed
texts); microseconds per ``Bond`` built from the fields of the bonds of
those graphs, by keyword and by position (each including the call that
unpacks the fields); and microseconds per perception call on the texts
as written, for ``_perceive_aromaticity`` and for ``reference_perceive_aromaticity``,
the walk over every simple 6-atom path. Then counts the differences of
perception from its oracle, and of the writer's text and write order
from ``reference_write_smiles`` in index order and under shuffled
ranks, on those graphs and on seeded ring graphs. On the fig2
``molecules.json`` and ``template.json`` graphs it also times writing
and parsing the text (``oracles.read_back``), the path from a graph to
a molecule entry. It exits 1 on any difference, so it can serve as a
check. Times are CPU time of this process
(``time.process_time``), which other processes' load moves little:

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

from oracles import (
    random_ring_graph,
    read_back,
    reference_perceive_aromaticity,
    reference_write_smiles,
    unperceived_graph,
)

from rxnscope import smiles
from rxnscope.molgraph import Bond, graph_from_json

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


def fig2_graph_json() -> list[dict]:
    """The JSON graphs of the fig2 ``molecules.json``, in file order."""
    return [entry["graph"] for entry in json.loads((FIG2 / "molecules.json").read_text())]


def fig2_graphs() -> list:
    """The fig2 ``molecules.json`` graphs, then the ``template.json`` ones."""
    template = json.loads((FIG2 / "template.json").read_text())
    raw = fig2_graph_json() + template["reactant_templates"] + template["product_templates"]
    return [graph_from_json(r) for r in raw]


def fig2_texts() -> dict[str, list[str]]:
    """Distinct SMILES texts per fig2 source, in first-seen order."""
    golden = _smiles_fields(json.loads((FIG2 / "golden.json").read_text()))
    molecules = [smiles.write_smiles(graph_from_json(raw)) for raw in fig2_graph_json()]
    return {"golden.json": list(dict.fromkeys(golden)), "molecules.json": list(dict.fromkeys(molecules))}


def _best_us_per_call(call, args: list, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        for arg in args:
            call(arg)
        best = min(best, time.process_time() - start)
    return 1e6 * best / len(args)


def _differences(graphs: list) -> int:
    return sum(smiles._perceive_aromaticity(g) != reference_perceive_aromaticity(g) for g in graphs)


def _writer_differences(graphs: list, rng: random.Random) -> int:
    """Writes whose text or atom order differs from the oracle's, in index
    order and under one shuffled ranking per graph."""
    count = 0
    for g in graphs:
        ranks = list(range(len(g.atoms)))
        rng.shuffle(ranks)
        for order in (None, ranks):
            got, want = [], []
            text = smiles.write_smiles(g, order, got)
            count += (text, got) != (reference_write_smiles(g, order, want), want)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timing repeats; the min is kept")
    parser.add_argument("--graphs", type=int, default=300, help="seeded ring graphs to compare")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    failed = 0
    rng = random.Random(args.seed)
    print(
        f"{'texts':>16} {'n':>4} {'parse (us)':>11} {'decode (us)':>12} {'write (us)':>11}"
        f" {'perceive (us)':>14} {'oracle (us)':>12} {'perceive diffs':>15} {'write diffs':>12}"
    )
    for source, texts in fig2_texts().items():
        graphs = [unperceived_graph(t) for t in texts]
        parse_us = _best_us_per_call(smiles.parse_smiles, texts, args.repeats)
        if source == "molecules.json":
            raw = fig2_graph_json()
            decode = f"{_best_us_per_call(graph_from_json, raw, args.repeats):.1f}"
            written = [graph_from_json(r) for r in raw]
        else:
            decode = "-"
            written = [smiles.parse_smiles(t) for t in texts]
        write_us = _best_us_per_call(smiles.write_smiles, written, args.repeats)
        perceive_us = _best_us_per_call(smiles._perceive_aromaticity, graphs, args.repeats)
        oracle_us = _best_us_per_call(reference_perceive_aromaticity, graphs, args.repeats)
        differences = _differences(graphs)
        write_differences = _writer_differences(written, rng)
        failed += differences + write_differences
        print(
            f"{source:>16} {len(texts):>4} {parse_us:>11.1f} {decode:>12} {write_us:>11.1f}"
            f" {perceive_us:>14.1f} {oracle_us:>12.1f} {differences:>15} {write_differences:>12}"
        )

    fields = [
        {"a": b.a, "b": b.b, "order": b.order, "wedge": b.wedge, "direction": b.direction}
        for g in map(graph_from_json, fig2_graph_json())
        for b in g.bonds
    ]
    keyword_us = _best_us_per_call(lambda f: Bond(**f), fields, args.repeats)
    positional = [tuple(f.values()) for f in fields]
    positional_us = _best_us_per_call(lambda f: Bond(*f), positional, args.repeats)
    print(
        f"\n{'bonds':>16} {'n':>4} {'keyword (us)':>13} {'positional (us)':>16}"
        f"\n{'molecules.json':>16} {len(fields):>4} {keyword_us:>13.2f} {positional_us:>16.2f}"
    )

    graphs = fig2_graphs()
    parse_us = _best_us_per_call(read_back, graphs, args.repeats)
    print(
        f"\n{'graphs':>16} {'n':>4} {'write+parse (us)':>17}"
        f"\n{'fig2':>16} {len(graphs):>4} {parse_us:>17.1f}"
    )

    ring_graphs = [random_ring_graph(rng) for _ in range(args.graphs)]
    differences = _differences(ring_graphs)
    write_differences = _writer_differences(ring_graphs, rng)
    failed += differences + write_differences
    print(
        f"\nseeded ring graphs: {args.graphs}, differences from the oracles:"
        f" perception {differences}, writer {write_differences}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
