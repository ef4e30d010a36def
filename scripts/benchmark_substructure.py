#!/usr/bin/env python3
"""Benchmark the substructure matcher against brute-force enumeration.

Generates random molecular graphs and patterns at several target sizes,
checks that the matcher returns exactly the oracle's matches in the
oracle's lexicographic order, and reports per-size timing. Brute force is
factorial in target size, so the oracle column is only populated up to
--oracle-max atoms. Exits 1 if any list differs, so it can serve as a
check:

    python3 scripts/benchmark_substructure.py --trials 50
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import brute_force_matches, random_molecular_graph, random_pattern

from rxnscope.substructure import find_matches


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
        start = time.perf_counter()
        results = [find_matches(p, t) for p, t in cases]
        matcher_ms = 1000 * (time.perf_counter() - start)

        oracle_ms = float("nan")
        mismatches = "-"
        if size <= args.oracle_max:
            start = time.perf_counter()
            reference = [brute_force_matches(p, t) for p, t in cases]
            oracle_ms = 1000 * (time.perf_counter() - start)
            key = lambda m: tuple(m[i] for i in range(len(m)))
            mismatches = sum(
                got != sorted(want, key=key) for got, want in zip(results, reference)
            )
            failed = failed or mismatches > 0
        print(f"{size:>6} {matcher_ms:>14.1f} {oracle_ms:>13.1f} {mismatches:>11}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
