"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the generators are byte-deterministic per seed, that
tracing leaves the fig2 document byte-identical and restores every
wrapped name, that the layer-separation counts hold, that the metric
names agree with BENCHMARK.json, and that the benchmark refuses to run
without the program. Scratch files go under ``.perfbench_work``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def work_dir(request):
    path = run.WORK / f"selftest-{request.node.name.replace('[', '-').rstrip(']')}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(workload: str, seed: int, work_dir: Path, count: int) -> list:
    generator = workloads.Generator(workload, seed, work_dir)
    out = []
    for _ in range(count):
        item = dict(next(generator))
        if item["kind"] == "bundle":
            root = Path(item["bundle"])
            item["bundle"] = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
        out.append(json.dumps(item, sort_keys=True, default=repr))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_byte_deterministic_per_seed(workload, work_dir):
    first = _snapshot(workload, 5, work_dir / "a", 4)
    again = _snapshot(workload, 5, work_dir / "b", 4)
    other = _snapshot(workload, 6, work_dir / "c", 4)
    assert first == again
    # Op 0 is the shipped fig2 input for two workloads; later ops differ.
    assert first[1:] != other[1:]


def test_typos_are_corrected_to_their_token():
    from rxnscope.agents import ScriptedBackend
    from rxnscope.chemops import AbbreviationTable, FormulaError, parse_condensed_formula

    table = AbbreviationTable.default()
    backend = ScriptedBackend()
    for token, typo in workloads.TYPOS.items():
        with pytest.raises(FormulaError):
            parse_condensed_formula(typo, table)
        answer = backend.respond("token_correction", {"token": typo, "vocabulary": table.tokens()})
        assert answer["token"] == token


def _module_attributes() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rxnscope" or name.startswith("rxnscope."))
        for attr, value in vars(mod).items()
    }


def test_traced_fig2_document_is_golden_and_names_are_restored(work_dir):
    from rxnscope.agents.tools import ToolRegistry
    from rxnscope.molgraph import MolecularGraph

    item = next(workloads.Generator("structure_scope", 1, work_dir))
    assert item["kind"] == "fig2"
    before = _module_attributes()
    methods = (MolecularGraph.bond_between, MolecularGraph.adjacency, ToolRegistry.invoke)
    tracer = Tracer()
    tracer.install()
    assert MolecularGraph.bond_between is not methods[0]
    tracer.begin_op()
    tracer.enabled = True
    try:
        result = run.run_op(item)
    finally:
        tracer.enabled = False
        tracer.end_op()
        tracer.restore()
    assert result.document + "\n" == item["golden"]
    assert tracer.stats["substructure.find_matches"].calls > 0
    assert tracer.stats["agents.tool.smiles_reconstructor"].calls == 1
    after = _module_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert (MolecularGraph.bond_between, MolecularGraph.adjacency, ToolRegistry.invoke) == methods


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_separation_counts(workload, work_dir):
    loop = run.closed_loop(workload, 3, 0.5, True, work_dir)
    assert loop["failures"] == []
    stats = loop["tracer"].stats
    matcher = stats["substructure.find_matches"].calls
    fingerprints = stats["metrics.fingerprint"].calls
    if workload == "structure_scope":
        assert matcher > 0 and fingerprints == 0
    elif workload == "table_scope":
        assert matcher == 0 and fingerprints == 0
    else:
        assert matcher == 0 and fingerprints > 0


def test_reference_factors_use_the_samples_around_each_op():
    import refclock

    ref = refclock.REFERENCE_MS
    # Kernel twice as slow from op 4 on: ops far from the change scale by
    # half, ops next to it by the median of the samples around them.
    samples = [ref] * 4 + [2 * ref] * 7
    scale = refclock.factors(samples, 10)
    assert scale[0] == 1.0 and scale[-1] == 0.5
    assert scale[3] == ref / statistics.median(samples[1:7])
    with pytest.raises(ValueError):
        refclock.factors(samples, 11)


def test_metric_names_match_benchmark_json():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(work_dir):
    shutil.copy(REPO / "BENCHMARK.json", work_dir / "BENCHMARK.json")
    shutil.copytree(HERE, work_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure_scope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
