"""The scripts under ``scripts/`` run end to end at toy size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _run(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(_ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("rate_check.py", ["--n", "50,100", "--replicates", "2", "--out", "rate.json"],
         ["rate.json", "rate.csv"]),
        ("risk_curve.py", ["--n", "100", "--replicates", "2", "--out", "risk.csv"],
         ["risk.csv"]),
        ("run_envelope_suite.py", ["--n", "100", "--replicates", "1", "--out-dir", "suite"],
         [f"suite/p{i}.{ext}" for i in range(1, 7) for ext in ("json", "csv")]),
        ("rate_check.py", ["--n", "50,100", "--replicates", "2", "--out", "rateout"],
         ["rateout", "rateout.csv"]),  # a JSON path without a suffix keeps its report
    ],
)
def test_script_runs_at_toy_size(tmp_path, script, args, outputs):
    proc = _run(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        path = tmp_path / name
        assert path.stat().st_size > 0, name
        if path.suffix == ".csv":
            assert len(path.read_text().splitlines()) >= 2  # header and at least one row
        else:
            assert json.loads(path.read_text())["kind"] in ("concentration", "simulation")


@pytest.mark.parametrize(
    "script, args, code, message",
    [
        ("rate_check.py", ["--n", "100,100"], 1, "error: graph sizes must be distinct"),
        ("rate_check.py", ["--n", "100,x"], 2, "invalid _sizes value"),
        ("rate_check.py", ["--envelope", "p9"], 2, "invalid choice: 'p9'"),
        ("risk_curve.py", ["--envelope", "p9"], 2, "invalid choice: 'p9'"),
        ("risk_curve.py", ["--envelope", "foo"], 2, "invalid choice: 'foo'"),
        ("risk_curve.py", ["--n", "10"], 1, "error: n = 10 violates"),
        ("run_envelope_suite.py", ["--n", "10"], 1, "error: n = 10 violates"),
        # the CSV table would overwrite the report
        ("rate_check.py", ["--out", "r.csv"], 1, "error: report path 'r.csv' ends in .csv"),
        # the output directory is checked before any graph is drawn
        ("rate_check.py", ["--n", "50,100", "--replicates", "1", "--out", "missing/r.json"], 1,
         "error: the directory of 'missing/r.json' is missing"),
        ("risk_curve.py", ["--n", "100", "--replicates", "1", "--out", "missing/r.csv"], 1,
         "error: the directory of 'missing/r.csv' is missing"),
    ],
)
def test_script_refuses_bad_input_without_a_traceback(tmp_path, script, args, code, message):
    proc = _run(script, args, tmp_path)
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # no report written


def test_envelope_suite_out_dir_that_is_a_file_is_an_error(tmp_path):
    (tmp_path / "suite").write_text("")
    proc = _run("run_envelope_suite.py", ["--n", "100", "--replicates", "1", "--out-dir", "suite"],
                tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["suite"]
