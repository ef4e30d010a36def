"""The scripts under ``scripts/`` run from a checkout, with no install."""

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
