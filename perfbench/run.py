#!/usr/bin/env python3
"""rxnscope benchmark: one closed-loop run of one scope workload.

    python3 perfbench/run.py --workload structure_scope --seed 1 --seconds 20 --trace 0

One client in one process and one thread sends each operation after the
previous one returns. Inputs come from ``workloads.Generator`` (seeded,
built before each op's timer starts); every output is checked after its
timer stops. Times are reported at reference speed (``refclock``), and
``--seconds`` counts timed op time at reference speed. With
``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the library's layers (``tracer.Tracer``),
runs every op once untraced and once traced, and reports the per-layer
metrics plus the tracing overhead. Human-readable lines come first; the
last line of standard output is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"

SETUP_LAUNCHES = 7
# Reference-kernel runs between two launches; their median is one sample.
SETUP_KERNEL_RUNS = 5
# Guard on the loop's wall time (timed ops plus generation and checks), so
# a whole run, set-up included, ends well inside 180 s.
LOOP_WALL_LIMIT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("soft_f1", "ratio"),
)

# Per-layer metrics: (span name, stat). Stats: calls and self_ms per op,
# distinct_share = distinct string first arguments per op / calls,
# ms = inclusive time per op.
LAYER_STATS = (
    ("substructure.find_matches", ("calls", "self_ms")),
    ("substructure.scaffold_align", ("calls", "self_ms")),
    ("substructure.atoms_compatible", ("calls",)),
    ("molgraph.MolecularGraph.bond_between", ("calls", "self_ms")),
    ("smiles.parse_smiles", ("calls", "self_ms", "distinct_share")),
    ("smiles.write_smiles", ("calls", "self_ms")),
    ("rgroup.substitute_placeholders", ("calls", "self_ms")),
    ("rgroup.splice_fragment", ("self_ms",)),
    ("chemops.parse_condensed_formula", ("calls", "self_ms")),
    ("chemops.expand_abbreviation", ("calls", "self_ms")),
    ("backend.edit_distance", ("calls",)),
    ("rgroup.extract_rgroup_fragments", ("calls", "self_ms")),
    ("rgroup.reconstruct_reactants", ("calls", "self_ms")),
    ("smiles.canonicalize", ("calls", "self_ms", "distinct_share")),
    ("smiles.is_valid", ("calls", "self_ms")),
    ("metrics.fingerprint", ("calls", "self_ms")),
    ("metrics.tanimoto", ("calls",)),
    ("metrics.match_reactions", ("self_ms",)),
    ("metrics.similarity_report", ("self_ms",)),
    ("molgraph.graph_from_json", ("self_ms",)),
    ("molgraph.graph_to_json", ("self_ms",)),
    ("molgraph.subgraph", ("self_ms",)),
    ("molgraph.MolecularGraph.adjacency", ("calls", "self_ms")),
    ("reaction.classify_condition", ("calls", "self_ms")),
    ("reaction.align_conditions", ("self_ms",)),
    ("reaction.validate_record", ("self_ms",)),
    ("reaction.decode_records", ("self_ms",)),
)
TOOLS = (
    "mol_detector",
    "image2graph",
    "rxn_img_parser",
    "ocr",
    "ner",
    "rxn_extractor",
    "graph2smiles",
    "table_parser",
    "smiles_reconstructor",
    "condition_interpreter",
)
AGENT_COUNTS = (
    "tool_calls",
    "tool_errors",
    "observer_failures",
    "degraded_steps",
    "reconstructor_skips",
)
STAT_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "distinct_share": "ratio", "ms": "ms/op"}


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [
        (f"{span}.{stat}", STAT_UNITS[stat]) for span, stats in LAYER_STATS for stat in stats
    ]
    out += [(f"agents.tool.{tool}.ms", "ms/op") for tool in TOOLS]
    out += [(f"agents.{count}", "count/op") for count in AGENT_COUNTS]
    out += [
        ("agents.trace_bytes", "bytes/op"),
        ("setup.import_ms", "ms"),
        ("setup.registry_ms", "ms"),
        ("trace.overhead_ms", "ms/op"),
        ("trace.overhead_share", "ratio"),
    ]
    return out


# ---------------------------------------------------------------------------
# Set-up: cold start of a fresh interpreter
# ---------------------------------------------------------------------------


def probe_setup() -> dict:
    """Launch ``coldstart.py`` one process at a time; medians of each part.

    Every launch is scaled to reference speed by kernel samples taken
    just before and after it (``refclock``).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, registries = [], [], []
    samples = [_kernel_median()]
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py")],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start probe failed: {proc.stderr.strip()[-500:]}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(parts["import_ms"])
        registries.append(parts["registry_ms"])
        samples.append(_kernel_median())
    scale = [
        refclock.REFERENCE_MS / statistics.median(samples[i : i + 2]) for i in range(SETUP_LAUNCHES)
    ]
    return {
        "setup_s": statistics.median(w * f for w, f in zip(walls, scale)),
        "import_ms": statistics.median(v * f for v, f in zip(imports, scale)),
        "registry_ms": statistics.median(v * f for v, f in zip(registries, scale)),
        "raw_setup_s": statistics.median(walls),
    }


def _kernel_median(runs: int = SETUP_KERNEL_RUNS) -> float:
    return statistics.median(refclock.sample_ms() for _ in range(runs))


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


def run_op(item: dict):
    """The timed operation: what ``rxnscope extract`` / ``evaluate`` do."""
    # Looked up at call time so the tracer's wrappers are seen.
    import rxnscope.agents as agents
    import rxnscope.metrics as metrics
    import rxnscope.reaction as reaction

    if item["kind"] == "evaluate":
        pred, _ = reaction.decode_records(item["pred"])
        gold, _ = reaction.decode_records(item["gold"])
        return metrics.evaluate(pred, gold)
    bundle = agents.Bundle.load(item["bundle"])
    backend = agents.ScriptedBackend()
    plan = agents.plan_extraction(bundle.descriptor, backend)
    return agents.execute_plan(plan, bundle.descriptor, backend=backend)


def _source_digest() -> str:
    """Hash of the program's source: a memo made by other code is not used."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rxnscope").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Checker:
    """Output checks.

    Canonical forms are memoized, also across runs in ``.perfbench_work``
    under a hash of the program's source, so every form is computed by
    the code under test. Canonicalizing the symmetric variants costs up to
    1.3 s each; without the memo the checks of one run took about as long
    as half its timed ops.
    """

    def __init__(self) -> None:
        from rxnscope.smiles import canonicalize

        self._canonicalize = canonicalize
        self._memo_path = WORK / f"canonical-{_source_digest()}.json"
        try:
            self._canon: dict[str, str] = json.loads(self._memo_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._canon = {}
        self._added = 0

    def save(self) -> None:
        """Write the memo if this run added to it (atomically)."""
        if not self._added:
            return
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = self._memo_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._canon, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self._memo_path)

    def _key(self, reactants, products) -> tuple:
        def canon(smiles: str) -> str:
            if smiles not in self._canon:
                self._canon[smiles] = self._canonicalize(smiles)
                self._added += 1
            return self._canon[smiles]

        return (tuple(sorted(map(canon, reactants))), tuple(sorted(map(canon, products))))

    def soft_counts(self, records, expected) -> tuple[int, int, int]:
        """(correct, predicted, gold): one-to-one equality pairing on soft keys."""
        pending: dict[tuple, int] = {}
        for reactants, products in expected:
            key = self._key(reactants, products)
            pending[key] = pending.get(key, 0) + 1
        correct = 0
        for rec in records:
            key = self._key([e.smiles for e in rec.reactants], [e.smiles for e in rec.products])
            if pending.get(key, 0) > 0:
                pending[key] -= 1
                correct += 1
        return correct, len(records), len(expected)

    def check(self, item: dict, output) -> tuple[str | None, tuple[int, int, int]]:
        """(failure reason or None, soft (correct, predicted, gold))."""
        if item["kind"] == "evaluate":
            got = {
                mode: {k: output[mode][k] for k in ("correct", "predicted", "gold")}
                for mode in ("soft", "hard")
            }
            soft = tuple(got["soft"][k] for k in ("correct", "predicted", "gold"))
            if got != item["expected"]:
                return f"counts {got} != expected {item['expected']}", soft
            return None, soft
        soft = self.soft_counts(output.records, item["expected"])
        if item["kind"] == "fig2" and output.document + "\n" != item["golden"]:
            return "fig2 document differs from golden.json", soft
        if not (soft[0] == soft[1] == soft[2]):
            return f"soft match {soft[0]}/{soft[1]} predicted, {soft[2]} expected", soft
        return None, soft


def agent_counts(result) -> dict:
    """Counters read from ``ExtractionResult.trace``."""
    counts = dict.fromkeys(AGENT_COUNTS, 0)
    for entry in result.trace:
        kind = entry.get("type")
        if kind == "tool":
            counts["tool_calls"] += 1
            counts["tool_errors"] += entry.get("status") == "error"
            if entry.get("tool") == "smiles_reconstructor" and entry.get("response"):
                counts["reconstructor_skips"] += len(entry["response"].get("skipped", []))
        elif kind == "observer":
            counts["observer_failures"] += not entry.get("passed", True)
        elif kind == "degraded":
            counts["degraded_steps"] += 1
    # Size of the trace as ``rxnscope extract --trace`` writes it.
    counts["trace_bytes"] = len(
        json.dumps(list(result.trace), indent=2, ensure_ascii=False).encode() + b"\n"
    )
    return counts


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def _records_in(item: dict, output) -> int:
    if item["kind"] == "evaluate":
        return output["soft"]["gold"]
    return len(output.records)


def closed_loop(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    from workloads import Generator

    generator = Generator(workload, seed, work_dir)
    checker = Checker()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    latencies: list[float] = []
    untraced: list[float] = []
    failures: list[str] = []
    kernel: list[float] = []
    records = 0
    soft = [0, 0, 0]
    agents_total: dict[str, int] = {}
    measured = 0.0
    wall_start = time.perf_counter()
    # ``measured`` is timed op time at reference speed, so a run does the
    # same work whatever the host's speed; it runs past --seconds only to
    # complete the current block of stratified inputs.
    while (measured < seconds or not generator.at_block_end) and (
        time.perf_counter() - wall_start < LOOP_WALL_LIMIT_S
    ):
        item = next(generator)
        op_index = generator.index - 1
        kernel.append(refclock.sample_ms())
        if tracer is not None:
            # Alternate which twin runs first so warm-up favours neither.
            order = (False, True) if op_index % 2 == 0 else (True, False)
        else:
            order = (False,)
        output = None
        error = None
        for traced in order:
            if traced:
                tracer.install()
                tracer.begin_op()
                tracer.enabled = True
            start = time.perf_counter()
            try:
                result = run_op(item)
            except Exception as exc:  # a failing op is counted, not fatal
                result = None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                tracer.enabled = False
                tracer.end_op()
                tracer.restore()
                latencies.append(elapsed)
                output = result
            elif tracer is not None:
                untraced.append(elapsed)
            else:
                latencies.append(elapsed)
                output = result
            measured += elapsed * refclock.REFERENCE_MS / statistics.median(kernel[-refclock.WINDOW :])
        reason = error
        if reason is None:
            try:
                reason, counts = checker.check(item, output)
            except Exception as exc:  # a check that cannot run is a failed op
                reason, counts = f"check raised {type(exc).__name__}: {exc}", (0, 0, 0)
            soft = [a + b for a, b in zip(soft, counts)]
            records += _records_in(item, output)
            if tracer is not None and item["kind"] != "evaluate":
                for key, value in agent_counts(output).items():
                    agents_total[key] = agents_total.get(key, 0) + value
        if reason is not None:
            failures.append(f"op {op_index}: {reason}")
        if item["kind"] == "bundle":
            shutil.rmtree(item["bundle"], ignore_errors=True)
    kernel.append(refclock.sample_ms())
    checker.save()
    out = {
        "ops": len(latencies),
        "latencies": latencies,
        "scale": refclock.factors(kernel, len(latencies)),
        "kernel_ms": statistics.median(kernel),
        "untraced": untraced,
        "failures": failures,
        "records": records,
        "soft": soft,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": generator.input_properties(),
        "agents": agents_total,
    }
    if tracer is not None:
        out["tracer"] = tracer
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples above it, and its percentile.

    Never below the median: with fewer than 22 samples it is the middle
    sample, or the upper of the two middle ones.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def at_reference_speed(loop: dict) -> list[float]:
    """Op latencies scaled to reference speed, op by op (``refclock``)."""
    return [t * f for t, f in zip(loop["latencies"], loop["scale"])]


def end_to_end(setup: dict, loop: dict) -> dict:
    lat = at_reference_speed(loop)
    correct, predicted, gold = loop["soft"]
    tail_s, _ = tail(lat)
    return {
        "setup_s": setup["setup_s"],
        "records_per_s": loop["records"] / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": loop["peak_rss_mb"],
        "soft_f1": 2.0 * correct / (predicted + gold) if predicted + gold else 0.0,
    }


def per_layer(setup: dict, loop: dict) -> tuple[dict, set]:
    """Per-op layer metrics, and the names of those whose span never ran."""
    tracer = loop["tracer"]
    ops = loop["ops"]
    # Layer times are scaled by the run's median kernel sample.
    scale = refclock.REFERENCE_MS / loop["kernel_ms"]
    values: dict[str, float] = {}
    idle: set[str] = set()
    for span, stats in LAYER_STATS:
        stat = tracer.stats.get(span)
        calls = stat.calls if stat else 0
        if not calls:
            idle.update(f"{span}.{name}" for name in stats)
        for name in stats:
            if name == "calls":
                values[f"{span}.calls"] = calls / ops
            elif name == "self_ms":
                values[f"{span}.self_ms"] = (stat.self_ns if stat else 0) / 1e6 / ops * scale
            elif name == "distinct_share":
                values[f"{span}.distinct_share"] = stat.distinct / calls if calls else 0.0
    for tool in TOOLS:
        stat = tracer.stats.get(f"agents.tool.{tool}")
        if not (stat and stat.calls):
            idle.add(f"agents.tool.{tool}.ms")
        values[f"agents.tool.{tool}.ms"] = (stat.total_ns if stat else 0) / 1e6 / ops * scale
    for count in AGENT_COUNTS + ("trace_bytes",):
        if not loop["agents"]:
            idle.add(f"agents.{count}")
        values[f"agents.{count}"] = loop["agents"].get(count, 0) / ops
    values["setup.import_ms"] = setup["import_ms"]
    values["setup.registry_ms"] = setup["registry_ms"]
    traced, untraced = sum(loop["latencies"]), sum(loop["untraced"])
    values["trace.overhead_ms"] = 1000.0 * (traced - untraced) / ops * scale
    values["trace.overhead_share"] = traced / untraced - 1.0
    return values, idle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "rxnscope" / "__init__.py", REPO / "fixtures" / "fig2" / "golden.json")
               if not p.is_file()]
    if missing:
        print(f"error: not an rxnscope checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    setup = probe_setup()
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        loop = closed_loop(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = loop["ops"]
    failed = len(loop["failures"])
    lat = loop["latencies"]
    _, tail_pct = tail(lat)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {sum(lat):.2f} s measured")
    print(f"  reference kernel {loop['kernel_ms']:.3f} ms median (reference speed "
          f"{refclock.REFERENCE_MS} ms); raw wall time: latency_p50_ms "
          f"{1000.0 * statistics.median(lat):.1f}, setup_s {setup['raw_setup_s']:.4f}")
    print(f"  latency_tail_ms is p{tail_pct:.1f} of {len(lat)} samples")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted})")
    for reason in loop["failures"][:10]:
        print(f"  FAILED {reason}")
    print("  inputs " + json.dumps(loop["inputs"]))

    idle: set[str] = set()
    if args.trace:
        metrics, idle = per_layer(setup, loop)
        units = dict(per_layer_metrics())
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        loop["tracer"].write_spans(spans)
        print(f"  spans {len(loop['tracer'].spans)} kept, "
              f"{loop['tracer'].spans_dropped} dropped, written to {spans.relative_to(REPO)}")
    else:
        metrics = end_to_end(setup, loop)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        shown = "n/a (not run)" if name in idle else f"{value:.4f}"
        print(f"  {name:48s} {shown:>14s} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
