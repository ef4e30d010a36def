#!/usr/bin/env python3
"""Benchmark ``evaluate`` on record documents scored against themselves.

Each document holds N distinct one-step records: an alkyl aryl ketone
(10 alkyl groups, 46 aryl rings) takes one of 5 nucleophiles to the
tertiary alcohol, so reactant texts repeat and product texts do not.
Records are built in an order that walks the nucleophiles fastest, so
every size mixes all of them. The documents are rich in isomers
(ortho/meta/para rings, alkene/alkyne nucleophiles), so nearly every
text shares its ``smiles.identity_key`` with another and is
canonicalized. Per size the script prints seconds per
``evaluate`` call on the decoded document against itself and per
``metrics._similarity`` call on its fingerprints, milliseconds per
``fingerprint`` call over the document's distinct molecules, each as
median and min over repeats, the number of ``canonicalize`` calls one
``evaluate`` makes, and the first 16 hex digits of a SHA-256 over every
distinct molecule's text and fingerprint bits, so two revisions whose
bits differ print different digests. It exits 1 when a self-comparison
is not perfect (soft and hard F1, Tani@1.0), so it can serve as a check.
Times are CPU time of this process (``time.process_time``), which other
processes' load moves little:

    python3 scripts/benchmark_evaluate.py --sizes 250 500 1000 2000 --repeats 3
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rxnscope import metrics
from rxnscope.reaction import decode_records

ALKYLS = ["C", "CC", "CCC", "CC(C)", "CCCC", "C1CC1", "C1CCCCC1", "c1ccccc1C", "FC(F)(F)C", "COC"]
SUBSTITUENTS = ["C", "OC", "F", "Cl", "Br", "C(F)(F)F", "C#N", "N(C)C", "SC", "C(C)(C)C", "C(=O)OC", "OC(F)(F)F",
                "[N+](=O)[O-]", "c2ccccc2", "C=C"]
# The phenyl ring, then each substituent at the ortho, meta and para position.
ARYLS = ["c1ccccc1"] + [
    ring.format(x)
    for x in SUBSTITUENTS
    for ring in ("c1ccccc1{}", "c1cccc({})c1", "c1ccc({})cc1")
]
NUCLEOPHILES = ["C#C", "C#CC", "C=C", "CC=C", "C#N"]


def document(n: int) -> str:
    """A record document of ``n`` distinct ketone-to-alcohol records."""
    combos = itertools.product(ALKYLS, ARYLS, NUCLEOPHILES)
    reactions = []
    for k, (alkyl, aryl, nucleophile) in enumerate(itertools.islice(combos, n)):
        reactions.append({
            "reaction_id": f"{k}_1",
            "reactants": [{"smiles": f"{alkyl}C(=O){aryl}"}],
            "conditions": [{"role": "reagent", "text": f"{nucleophile} nucleophile"}],
            "products": [{"smiles": f"{alkyl}C({nucleophile})(O){aryl}"}],
        })
    if len(reactions) < n:
        raise SystemExit(f"at most {len(reactions)} distinct records; asked for {n}")
    return json.dumps({"reactions": reactions})


def _seconds(call, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return statistics.median(times), min(times)


def _fingerprint_digest(graphs: dict) -> str:
    rows = [[text, metrics.fingerprint(g).bits] for text, g in sorted(graphs.items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _canonicalize_calls(records) -> int:
    real = metrics.canonicalize
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return real(g)

    metrics.canonicalize = counted
    try:
        metrics.evaluate(records, records)
    finally:
        metrics.canonicalize = real
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    print(f"{'records':>8} {'evaluate_med_s':>15} {'evaluate_min_s':>15} "
          f"{'similarity_med_s':>17} {'similarity_min_s':>17} {'fp_med_ms':>10} {'fp_min_ms':>10} "
          f"{'canonicalize':>13} {'fp_digest':>16}")
    ok = True
    for n in args.sizes:
        records, _ = decode_records(document(n))
        report = metrics.evaluate(records, records)
        ok &= report["soft"]["f1"] == report["hard"]["f1"] == report["tani_at_1"] == 1.0
        entries = metrics._record_molecules(records)
        fps = [metrics.fingerprint(e.graph) for e in entries]
        graphs = {e.smiles: e.graph for e in entries}
        eval_med, eval_min = _seconds(lambda: metrics.evaluate(records, records), args.repeats)
        sim_med, sim_min = _seconds(lambda: metrics._similarity(fps, fps), args.repeats)
        fp_med, fp_min = _seconds(lambda: [metrics.fingerprint(g) for g in graphs.values()], args.repeats)
        per_fp = 1000 / len(graphs)
        print(f"{n:>8} {eval_med:>15.3f} {eval_min:>15.3f} {sim_med:>17.3f} {sim_min:>17.3f} "
              f"{fp_med * per_fp:>10.3f} {fp_min * per_fp:>10.3f} "
              f"{_canonicalize_calls(records):>13} {_fingerprint_digest(graphs):>16}")
    print(f"self-comparison {'perfect' if ok else 'NOT perfect'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
