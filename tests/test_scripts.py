"""The scripts under ``scripts/`` run end to end at toy size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("rate_check.py", ["--n", "50,100", "--replicates", "2", "--out", "rate.json"],
         ["rate.json", "rate.csv"]),
        ("risk_curve.py", ["--n", "100", "--replicates", "2", "--out", "risk.csv"],
         ["risk.csv"]),
        ("run_envelope_suite.py", ["--n", "100", "--replicates", "1", "--out-dir", "suite"],
         [f"suite/p{i}.{ext}" for i in range(1, 7) for ext in ("json", "csv")]),
    ],
)
def test_script_runs_at_toy_size(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        path = tmp_path / name
        assert path.stat().st_size > 0, name
        if path.suffix == ".json":
            assert json.loads(path.read_text())["kind"] in ("concentration", "simulation")
        else:
            assert len(path.read_text().splitlines()) >= 2  # header and at least one row
