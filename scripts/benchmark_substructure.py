#!/usr/bin/env python3
"""Benchmark the substructure matcher against brute-force enumeration.

Generates random molecular graphs and patterns at several target sizes,
checks that the matcher returns exactly the oracle's matches in the
oracle's lexicographic order, and reports per-size timing. Brute force is
factorial in target size, so the oracle column is only populated up to
--oracle-max atoms. Then aligns the fig2 product template onto every
fig2 ``molecules.json`` graph, reports milliseconds per ``find_matches``
and ``scaffold_align`` call on the template prepared once, as a
reconstructor call prepares it, and per preparation (min of repeats),
``atoms_compatible`` calls per ``find_matches`` call and embeddings per
call of each, and checks each alignment against
``reference_scaffold_align``, which scores every embedding. Last come two templates with many symmetric groups:
B27 from ``make_fig2_bundle.py`` with its N-methyl as ``[R]`` (10,368
embeddings in B27) and a tris(3,5-bis-CF3-phenyl)methanol methyl ether
with its methyl as ``[R]`` (2,239,488), each aligned onto its variant,
with milliseconds per ``scaffold_align`` call on the template graph (so
preparing the template is counted) and embeddings per call. Exits 1 if
any list or alignment differs, so it can serve as a check. Times are CPU
time of this process (``time.process_time``), which other processes' load
moves little:

    python3 scripts/benchmark_substructure.py --trials 50
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import (
    brute_force_matches,
    random_molecular_graph,
    random_pattern,
    reference_scaffold_align,
)

from rxnscope import substructure
from rxnscope.molgraph import graph_from_json
from rxnscope.smiles import parse_smiles
from rxnscope.substructure import MatchError, Pattern, find_matches, scaffold_align

FIG2 = ROOT / "fixtures" / "fig2"
FIG2_REPEATS = 20
SYMMETRIC_REPEATS = 5
BIS_CF3_PHENYL = "c1cc(C(F)(F)F)cc(C(F)(F)F)c1"


def _best_ms_per_call(call, args: list, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        for arg in args:
            call(arg)
        best = min(best, time.process_time() - start)
    return 1000 * best / len(args)


def _embeddings_per_call(call, args: list) -> float:
    """Mean embeddings the matcher's searches return per ``call(arg)``."""
    real = substructure._embeddings
    found = 0

    def counted(*search_args):
        nonlocal found
        out = real(*search_args)
        found += len(out)
        return out

    substructure._embeddings = counted
    try:
        for arg in args:
            call(arg)
    finally:
        substructure._embeddings = real
    return found / len(args)


def _catalyst(label: str) -> str:
    spec = importlib.util.spec_from_file_location("make_fig2_bundle", ROOT / "scripts" / "make_fig2_bundle.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return dict(script.CATALYSTS)[label]


def symmetric_templates() -> list[tuple[str, object, object]]:
    """(name, template, variant) for the two templates with many symmetric groups."""
    b27 = _catalyst("B27")
    assert b27.endswith("N1C")
    tris = f"OC({BIS_CF3_PHENYL})({BIS_CF3_PHENYL}){BIS_CF3_PHENYL}"
    return [
        ("B27-like", parse_smiles(b27[:-1] + "[R]"), parse_smiles(b27)),
        ("tris-aryl", parse_smiles("[R]" + tris), parse_smiles("C" + tris)),
    ]


def _outcome(align, template, variant):
    try:
        return align(template, variant)[:2]
    except MatchError:
        return None


def fig2_alignment() -> bool:
    """Print the fig2 alignment case; True when every alignment agrees."""
    spec = json.loads((FIG2 / "template.json").read_text())
    template = graph_from_json(spec["product_templates"][0])
    variants = [
        graph_from_json(entry["graph"])
        for entry in json.loads((FIG2 / "molecules.json").read_text())
    ]
    aligned = [v for v in variants if find_matches(template, v)]
    prepared = Pattern(template)
    prepare_ms = _best_ms_per_call(lambda g: Pattern(g).symmetry, [template], FIG2_REPEATS)
    match_ms = _best_ms_per_call(lambda v: find_matches(prepared, v), variants, FIG2_REPEATS)
    align_ms = _best_ms_per_call(lambda v: scaffold_align(prepared, v), aligned, FIG2_REPEATS)

    real = substructure.atoms_compatible
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    substructure.atoms_compatible = counted
    try:
        for variant in variants:
            find_matches(template, variant)
    finally:
        substructure.atoms_compatible = real

    mismatches = sum(
        _outcome(scaffold_align, template, v) != _outcome(reference_scaffold_align, template, v)
        for v in variants
    )
    print(f"\nfig2 product template on {len(variants)} molecules.json graphs ({len(aligned)} align)")
    print(f"{'find_matches (ms/call)':>28} {match_ms:>8.3f}")
    print(f"{'scaffold_align (ms/call)':>28} {align_ms:>8.3f}")
    print(f"{'template prepare (ms/call)':>28} {prepare_ms:>8.3f}")
    print(f"{'atoms_compatible per match':>28} {calls / len(variants):>8.1f}")
    per_match = _embeddings_per_call(lambda v: find_matches(prepared, v), aligned)
    per_align = _embeddings_per_call(lambda v: scaffold_align(prepared, v), aligned)
    print(f"{'embeddings per match':>28} {per_match:>8.1f}")
    print(f"{'embeddings per align':>28} {per_align:>8.1f}")
    for name, symmetric, variant in symmetric_templates():
        ms = _best_ms_per_call(lambda v: scaffold_align(symmetric, v), [variant], SYMMETRIC_REPEATS)
        found = _embeddings_per_call(lambda v: scaffold_align(symmetric, v), [variant])
        print(f"{name + ' (ms/align)':>28} {ms:>8.3f}")
        print(f"{name + ' embeddings/align':>28} {found:>8.1f}")
    print(f"{'oracle mismatches':>28} {mismatches:>8}")
    return mismatches == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50, help="graphs per size")
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10, 12, 16])
    parser.add_argument("--oracle-max", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    failed = False
    print(f"{'atoms':>6} {'matcher (ms)':>14} {'oracle (ms)':>13} {'mismatches':>11}")
    for size in args.sizes:
        cases = [
            (random_pattern(rng, 4), random_molecular_graph(rng, size))
            for _ in range(args.trials)
        ]
        start = time.process_time()
        results = [find_matches(p, t) for p, t in cases]
        matcher_ms = 1000 * (time.process_time() - start)

        oracle_ms = float("nan")
        mismatches = "-"
        if size <= args.oracle_max:
            start = time.process_time()
            reference = [brute_force_matches(p, t) for p, t in cases]
            oracle_ms = 1000 * (time.process_time() - start)
            key = lambda m: tuple(m[i] for i in range(len(m)))
            mismatches = sum(
                got != sorted(want, key=key) for got, want in zip(results, reference)
            )
            failed = failed or mismatches > 0
        print(f"{size:>6} {matcher_ms:>14.1f} {oracle_ms:>13.1f} {mismatches:>11}")
    if not fig2_alignment():
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    # One fig2 variant aligns ambiguously, which logs a warning per call.
    logging.disable(logging.WARNING)
    sys.exit(main())
