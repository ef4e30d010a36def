#!/usr/bin/env python3
"""Compare a parent revision and the working tree with the benchmark.

Runs the checkout's unchanged ``perfbench/run.py`` on an export of
``--parent`` (``git archive``, unpacked into a temporary directory that
is removed afterwards) and on the working tree, in alternating pairs: odd
pairs run the parent first, even pairs the change. Each ``--case
WORKLOAD:SEED:PAIRS`` adds one block to ``BENCH_<label>.json``, which
keeps the final JSON line of every run, each side's median, min and
quartiles per end-to-end metric, and in how many pairs the change was
better. Blocks already in the file are kept, so cases can be run in
separate invocations. The file is rewritten after every pair. Before the
first pair, ``compileall`` byte-compiles ``src/`` and ``perfbench/`` of
both trees, so that neither side compiles the package from source at
each launch (as the fresh export otherwise would where
``PYTHONDONTWRITEBYTECODE`` is set) and neither reads stale bytecode.

    python3 scripts/bench_pairs.py --parent HEAD~1 --label fingerprint_tables \\
        --case scope_evaluate:77:10 --case table_scope:77:4 --seconds 30
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _side(runs: list[dict]) -> dict:
    out: dict = {}
    for name, unit in _units(runs).items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = _quartiles(values)
        out[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "q1": q1,
            "q3": q3,
            "unit": unit,
        }
    out["runs"] = len(runs)
    out["failed_ops"] = sum(r["failed"] for r in runs)
    out["attempted_ops"] = sum(r["attempted"] for r in runs)
    return out


def _units(runs: list[dict]) -> dict[str, str]:
    return {name: m["unit"] for name, m in runs[0]["metrics"].items()}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Summary of one case from the final result lines of its runs.

    ``parent`` and ``change`` hold ``perfbench/run.py`` result lines, each
    with a ``pair`` number; ``better`` maps a metric to ``"higher"`` or
    ``"lower"``. A pair counts as a win when the change is strictly better.
    """
    by_pair = {r["pair"]: r for r in parent}
    pairs = [(by_pair[c["pair"]], c) for c in change]
    wins = {}
    for name in _units(change):
        sign = 1 if better[name] == "higher" else -1
        won = sum(
            sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
            for p, c in pairs
        )
        wins[name] = {"wins": won, "pairs": len(pairs)}
    summary = {"parent": _side(parent), "change": _side(change)}
    ratio = (
        summary["change"]["records_per_s"]["median"]
        / summary["parent"]["records_per_s"]["median"]
    )
    return {
        "summary": summary,
        "records_per_s_ratio_of_medians": round(ratio, 3),
        "change_pair_wins": wins,
        "runs": {"parent": parent, "change": change},
    }


def machine() -> str:
    model = "model not reported"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"{os.cpu_count()} vCPU {platform.machine()} ({model}), "
        f"{platform.system()} {platform.release()}, "
        f"{platform.python_implementation()} {platform.python_version()}; "
        "perfbench scales times to its reference kernel clock"
    )


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def compile_tree(tree: Path) -> None:
    """Byte-compile the code a benchmark run imports from ``tree``, in place,
    whatever bytecode it holds already."""
    for part in ("src", "perfbench"):
        if not compileall.compile_dir(tree / part, force=True, quiet=1):
            raise SystemExit(f"cannot byte-compile {tree / part}")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--case", action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS, repeatable")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--what", default="", help="what the change is, for the file")
    args = parser.parse_args(argv)

    cases = []
    for case in args.case:
        workload, seed, pairs = case.split(":")
        cases.append((workload, int(seed), int(pairs)))
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    out_path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out_path.read_text()) if out_path.is_file() else {"workloads": {}}
    doc["what"] = (
        f"perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g}, final JSON "
        f"line of each run, alternating pairs (odd pairs run the parent first); "
        f"parent = commit {rev}, change = working tree"
        + (f": {args.what}" if args.what else "")
    )
    doc["machine"] = machine()

    parent_tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export_revision(args.parent, parent_tree)
        for tree in (parent_tree, ROOT):
            compile_tree(tree)
        for workload, seed, pairs in cases:
            runs: dict[str, list] = {"parent": [], "change": []}
            for pair in range(1, pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    result = run_once(tree, workload, seed, args.seconds)
                    runs[side].append({"pair": pair, **result})
                    rate = result["metrics"]["records_per_s"]["value"]
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"records_per_s {rate:.2f}", file=sys.stderr)
                doc["workloads"][f"{workload} seed {seed}"] = summarize(
                    runs["parent"], runs["change"], better
                )
                out_path.write_text(json.dumps(doc, indent=2) + "\n")
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    for key, block in doc["workloads"].items():
        print(f"{key}: records_per_s x{block['records_per_s_ratio_of_medians']}, "
              f"wins {block['change_pair_wins'].get('records_per_s')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
