"""The scripts under ``scripts/`` run end to end at toy size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ngg
from ngg.edgelist import write_edge_list

_ROOT = Path(__file__).resolve().parent.parent


def _run(script, args, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
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
        # a graph too large for memory is refused before any graph is drawn
        ("rate_check.py", ["--n", "10000000"], 1, "error: graph size: n = 10000000 nodes needs"),
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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads Linux's ru_maxrss of a child")
def test_estimate_keeps_the_unread_triangle_off_resident_memory(tmp_path):
    # stage 1 reads one triangle of A / n and estimate writes only that one,
    # on pages that become resident where written: over a bare import, the
    # child peaks at about 0.77 of the 8 n^2 bytes of the whole matrix (the
    # triangle, a 4 KiB page per row where it meets the other, and LAPACK's
    # workspace), where a mirrored matrix peaked at 1.11.  peak_rss.py is the
    # small process that spawns the child: Linux folds the resident memory of
    # the process a child is spawned from into the child's ru_maxrss
    if ngg.spectral._lapack() is None:
        pytest.skip("numpy's LAPACK lacks the routines of the two-stage solve")
    n = 3000
    graph = ngg.generate_graph(ngg.sample_latent(ngg.sphere(3), n, 1), ngg.builtin_envelope(6), 2)
    write_edge_list(tmp_path / "g.txt", graph, ngg.sphere(3))
    del graph

    def peak(*argv):
        proc = _run("peak_rss.py", [sys.executable, *argv], tmp_path, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    base = peak("-c", "import ngg.cli")
    grown = peak("-m", "ngg", "estimate", "--input", "g.txt", "--out", "e.json") - base
    assert json.loads((tmp_path / "e.json").read_text())["n"] == n
    assert grown < 0.85 * 8 * n * n, grown / (8 * n * n)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads Linux's ru_maxrss of a child")
def test_simulate_holds_one_triangle_beside_the_next_graphs_keys(tmp_path):
    # graph k + 1 is drawn while stage 1 reduces graph k: over a bare import,
    # the child holds half the matrix (the triangle), a 4 KiB page a row, 8
    # bytes an edge of the graph being drawn and 8 of the previous one, which
    # malloc may keep once freed, the draws as bits, and what does not grow
    # with n (the lane, BLAS buffers, the truth, the draw's block temporaries
    # of at most 2^17 cosines), read from a 600-node run.  A boolean n x n
    # matrix kept beside the draw fails it
    if ngg.spectral._lapack() is None:
        pytest.skip("numpy's LAPACK lacks the routines of the two-stage solve")

    def peak(*argv):
        proc = _run("peak_rss.py", [sys.executable, *argv], tmp_path, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def grown(n):
        out = tmp_path / f"s{n}.json"
        rss = peak("-m", "ngg", "simulate", "--space", "sphere:3", "--envelope", "p5", "--n",
                   str(n), "--replicates", "2", "--out", str(out)) - base
        m = max(rec["edge_count"] for rec in json.loads(out.read_text())["records"])
        return rss, 4 * n * (n + 1) + 4096 * n + 16 * m + n * n // 8

    base = peak("-c", "import ngg.cli")
    small, small_terms = grown(600)
    rss, terms = grown(3000)
    assert rss <= small - small_terms + terms, (rss, small - small_terms + terms)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads Linux's ru_maxrss of a child")
def test_rate_check_holds_one_triangle_beside_the_next_graphs_keys(tmp_path):
    # the lane writes (A - theta)/n a block of theta's rows at a time and
    # reduces it, then theta/n in the same way, while the next graph is
    # drawn: over a bare import, the child holds one triangle (half the
    # matrix, a 4 KiB page a row, and the lower half of each 256-row
    # diagonal block), 16 bytes an edge (the keys being drawn and the last
    # graph's, held by its first writer and maybe kept by malloc), the
    # draws as bits, theta's row-block temporaries (a block's cosines and
    # the envelope's on one chunk, within two blocks, and as much again
    # that malloc may keep once freed), stage 1's band and panel buffers
    # (8 (3 kd + 2) bytes a row, kd = 32), and what does not grow with n,
    # read from a 600-node run.  Both triangles held at once fail it
    if ngg.spectral._lapack() is None:
        pytest.skip("numpy's LAPACK lacks the routines of the two-stage solve")
    from ngg.harness import _graph_seed

    def peak(*argv):
        proc = _run("peak_rss.py", [sys.executable, *argv], tmp_path, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def grown(n):
        rss = peak(str(_ROOT / "scripts" / "rate_check.py"), "--n", str(n), "--replicates", "2",
                   "--out", str(tmp_path / f"r{n}.json")) - base
        m = max(ngg.generate_graph(ngg.sample_latent(ngg.sphere(3), n, rep),
                                   ngg.builtin_envelope(5), _graph_seed(rep)).keys.size
                for rep in range(2))
        triangle = 4 * n * (n + 1) + 4096 * n + 4 * 255 * n
        return rss, triangle + 16 * m + n * n // 8 + 4 * 8 * 256 * n + 8 * (3 * 32 + 2) * n

    base = peak("-c", "import ngg.cli")
    small, small_terms = grown(600)
    rss, terms = grown(3000)
    assert rss <= small - small_terms + terms, (rss, small - small_terms + terms)
