"""The scripts under ``scripts/`` run from a checkout, with no install."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from rxnscope.smiles import canonicalize

REPO = Path(__file__).resolve().parents[1]
FIG2 = REPO / "fixtures" / "fig2"


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fig2_bundle_script_rebuilds_the_committed_fixtures(tmp_path):
    out = tmp_path / "fig2"
    run_script("make_fig2_bundle.py", "--out", str(out), cwd=tmp_path)
    committed = sorted(p.name for p in FIG2.iterdir())
    assert len(committed) == 8
    assert sorted(p.name for p in out.iterdir()) == committed
    for name in committed:
        assert (out / name).read_bytes() == (FIG2 / name).read_bytes(), name


def test_enumerate_variants_splices_each_row(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("entry  R1  R2  yield\n1  Ph  Me  81%\n2  4-BrC6H4  OMe  -\n")
    out = run_script(
        "enumerate_variants.py", "--template", "[R1]C#CC(=O)C[R2]", "--table", str(table),
        cwd=tmp_path,
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["entry"], r["smiles"], r["metadata"]) for r in rows] == [
        (1, canonicalize("CCC(=O)C#Cc1ccccc1"), {"yield": "81%"}),
        (2, canonicalize("COCC(=O)C#Cc1ccc(Br)cc1"), {}),
    ]


def test_substructure_benchmark_agrees_with_brute_force(tmp_path):
    out = run_script("benchmark_substructure.py", "--trials", "3", "--sizes", "6", "8", cwd=tmp_path)
    table, fig2 = out.split("\n\n")
    rows = [line.split() for line in table.splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("6", "0"), ("8", "0")]
    assert fig2.splitlines()[-1].split() == ["oracle", "mismatches", "0"]
    rows = {line.rsplit(None, 1)[0].strip(): line.split()[-1] for line in fig2.splitlines()[1:]}
    # One embedding per template symmetry class: the tolyl flip and sulfonyl
    # swap leave fig2 2 of 8; B27-like and tris-aryl templates keep 1.
    assert (rows["embeddings per match"], rows["embeddings per align"]) == ("8.0", "2.0")
    assert rows["B27-like embeddings/align"] == rows["tris-aryl embeddings/align"] == "1.0"
    assert float(rows["B27-like (ms/align)"]) < 500 and float(rows["tris-aryl (ms/align)"]) < 500


def test_parse_benchmark_agrees_with_the_perception_oracle(tmp_path):
    # The last two columns count perception and writer differences; the
    # graph row times writing a fig2 graph and parsing its text.
    out = run_script("benchmark_parse.py", "--repeats", "1", "--graphs", "20", cwd=tmp_path)
    table, bonds, graphs, seeded = out.split("\n\n")
    rows = [line.split() for line in table.splitlines()[1:]]
    assert [(row[0], row[1], row[-2:]) for row in rows] == [
        ("golden.json", "18", ["0", "0"]), ("molecules.json", "11", ["0", "0"])
    ]
    assert rows[0][3] == "-" and float(rows[1][3]) > 0  # graph_from_json runs on molecules.json
    bond_row = bonds.splitlines()[1].split()  # keyword and positional Bond construction
    assert bond_row[0] == "molecules.json" and int(bond_row[1]) > 0
    assert float(bond_row[2]) > 0 and float(bond_row[3]) > 0
    fig2 = graphs.splitlines()[1].split()
    assert fig2[:2] == ["fig2", "14"] and float(fig2[2]) > 0 and len(fig2) == 3
    assert seeded.split()[-4:] == ["perception", "0,", "writer", "0"]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(pair, rate, rss, failed=0):
    return {
        "pair": pair,
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "records_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def test_bench_pairs_summary_of_canned_lines():
    summarize = _bench_pairs().summarize
    parent = [_result(1, 50.0, 28.0), _result(2, 52.0, 28.5), _result(3, 51.0, 28.0),
              _result(4, 49.0, 28.25, failed=1)]
    change = [_result(1, 75.0, 28.5), _result(2, 51.0, 28.5), _result(3, 74.0, 27.5),
              _result(4, 76.0, 28.0)]
    block = summarize(parent, change, {"records_per_s": "higher", "peak_rss_mb": "lower"})
    side = block["summary"]["parent"]
    assert side["records_per_s"] == {
        "median": 50.5, "min": 49.0, "q1": 49.75, "q3": 51.25, "unit": "1/s",
    }
    assert (side["runs"], side["failed_ops"], side["attempted_ops"]) == (4, 1, 400)
    assert block["summary"]["change"]["records_per_s"]["median"] == 74.5
    assert block["records_per_s_ratio_of_medians"] == round(74.5 / 50.5, 3)
    # Pair 2 is a loss on rate; equal RSS (pair 2) is not a win.
    assert block["change_pair_wins"] == {
        "records_per_s": {"wins": 3, "pairs": 4},
        "peak_rss_mb": {"wins": 2, "pairs": 4},
    }
    assert block["runs"] == {"parent": parent, "change": change}


def test_bench_pairs_compile_tree_refreshes_bytecode(tmp_path):
    compile_tree = _bench_pairs().compile_tree
    sources = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "perfbench" / "work.py"]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("VALUE = 1\n")
    stale = importlib.util.cache_from_source(str(sources[0]))
    compile_tree(tmp_path)
    first = Path(stale).read_bytes()
    sources[0].write_text("VALUE = 22\n")
    compile_tree(tmp_path)
    for source in sources:
        assert Path(importlib.util.cache_from_source(str(source))).is_file()
    # A changed source is compiled again, not read from its old bytecode.
    assert Path(stale).read_bytes() != first


def test_evaluate_benchmark_scores_its_document_perfectly(tmp_path):
    out = run_script("benchmark_evaluate.py", "--sizes", "250", "--repeats", "1", cwd=tmp_path)
    header, row, verdict = out.splitlines()
    assert header.split()[0] == "records" and verdict == "self-comparison perfect"
    records, eval_med, eval_min, sim_med, sim_min, fp_med, fp_min, canonicalized, digest = row.split()
    assert records == "250" and eval_med == eval_min and sim_med == sim_min and fp_med == fp_min
    assert float(fp_med) > 0
    # 250 product texts and 50 ketone texts: each is canonicalized at most once.
    assert int(canonicalized) <= 300
    # The bits of all 300 distinct molecules, pinned like test_pinned_corpus_digest.
    assert digest == "11aa1c80778a9388"
