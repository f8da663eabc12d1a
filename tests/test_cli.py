import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ngg
from ngg.cli import _MAX_GRID, main
from ngg.edgelist import read_adjacency, read_edge_list, write_adjacency
from ngg.errors import DomainError
from ngg.estimator import MAX_RESOLUTION


# --- edge list parsing ------------------------------------------------------------


def test_read_edge_list_konect_style(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(
        "% comment header\n"
        "% another\n"
        "1 2\n"
        "2 1\n"          # reversed duplicate
        "1 2\n"          # duplicate
        "3 3\n"          # self loop
        "\n"
        "2 4\n"
    )
    data = read_edge_list(path)
    assert data.one_based
    assert data.n == 4
    assert data.edges.tolist() == [[0, 1], [1, 3]]
    assert any("self-loop" in w for w in data.warnings)
    a = data.adjacency()
    assert np.array_equal(a, a.T) and a[0, 1] == 1 and a[1, 3] == 1


def test_read_edge_list_zero_based(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n")
    data = read_edge_list(path)
    assert not data.one_based
    assert data.n == 3


def test_read_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 x\n")
    with pytest.raises(DomainError):
        read_edge_list(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("% nothing\n")
    with pytest.raises(DomainError):
        read_edge_list(empty)


@pytest.mark.parametrize("fmt", ["rle", "dense"])
def test_adjacency_dump_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(0)
    a = (rng.random((17, 17)) < 0.3).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    path = tmp_path / "adj.txt"
    write_adjacency(path, a, fmt=fmt)
    assert np.array_equal(read_adjacency(path), a)


def _rle_dump_reference(a) -> str:
    """The RLE dump as first written, reading the upper triangle through
    ``np.triu_indices``."""
    n = a.shape[0]
    bits = a[np.triu_indices(n, k=1)].astype(np.uint8)
    lines = ["ngg-adjacency 1 rle", f"n {n}", f"start {int(bits[0]) if bits.size else 0}"]
    if bits.size:
        runs = np.diff(np.concatenate(([0], np.flatnonzero(np.diff(bits)) + 1, [bits.size])))
        lines.extend(" ".join(str(int(r)) for r in runs[i : i + 64])
                     for i in range(0, runs.size, 64))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 150])
def test_rle_dump_matches_triu_indices_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    a = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
    a += a.T
    path = tmp_path / "adj.txt"
    write_adjacency(path, a, fmt="rle")
    assert path.read_text() == _rle_dump_reference(a)
    back = read_adjacency(path)
    iu = np.triu_indices(n, k=1)
    assert np.array_equal(back[iu], a[iu])
    assert np.array_equal(back, a)


@pytest.mark.parametrize(
    "text",
    [
        "ngg-adjacency 1 dense\nn 3\n010\n1x1\n010\n",  # bad character in a row
        "ngg-adjacency 1 rle\nn 10\nstart 0\n",  # no run lines
        "ngg-adjacency 1 rle\nn\nstart 0\n3\n",  # n without a value
        "ngg-adjacency 1 dense\nn 3.5\n010\n101\n010\n",  # non-integer n
        "ngg-adjacency 1 rle\nn 3000000\nstart 0\n",  # larger than memory
    ],
)
def test_cli_estimate_malformed_adjacency_dump(tmp_path, capsys, text):
    path = tmp_path / "adj.txt"
    path.write_text(text)
    rc = main(["estimate", "--input", str(path), "--r-max", "1",
               "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_estimate_graph_larger_than_memory(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("0 3000000\n")
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 3000001 nodes" in err and "GiB" in err


def test_cli_simulate_graph_larger_than_memory(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "3000000", "--replicates", "1",
               "--out", str(out), "--dump-adjacency", str(tmp_path / "adj.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 3000000 nodes" in err and "GiB" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--kappa", "nan"],
        ["estimate", "--kappa", "inf"],
        ["simulate", "--envelope", "p4", "--n", "60", "--r-max", "2", "--kappa", "nan"],
    ],
    ids=["estimate-nan", "estimate-inf", "simulate-nan"],
)
def test_cli_non_finite_kappa_is_error(tmp_path, capsys, argv):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "o.json"
    if argv[0] == "estimate":
        argv = argv + ["--input", str(edges)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kappa" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--grid", "-1"], ["eval-envelope", "--envelope", "p1", "--grid", "-3"],
     ["eval-envelope", "--envelope", "p1", "--grid", "0"]],
    ids=["estimate", "eval-envelope", "eval-envelope-zero"],
)
def test_cli_non_positive_grid_is_usage_error(tmp_path, capsys, argv):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    if argv[0] == "estimate":
        argv = argv + ["--input", str(edges), "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    assert "--grid must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b"\xff\xfe\x00\x81 garbage",
        b"27",
        b'{"kind": "estimate", "stages": [0.5]}',
        b'{"kind": "estimate", "config": {"dim": 3}}',
        b'{"kind": "estimate", "config": 3, "stages": [0.5]}',
        b'{"kind": "estimate", "config": {"dim": 3}, "stages": []}',
        b'{"kind": "estimate", "config": {"dim": 3}, "stages": [0.5, NaN]}',
        b'{"kind": "estimate", "config": {"dim": 3}, "stages": [%s0.5]}' % (b"0.1, " * 17),
    ],
    ids=["bad-json", "bad-utf8", "not-object", "no-dim", "no-stages", "config-not-object",
         "empty-stages", "nan-stage", "more-stages-than-a-fit"],
)
def test_cli_from_report_malformed_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert main(["eval-envelope", "--from-report", str(path)]) == 2
    assert f"{path}: not an estimate report" in capsys.readouterr().err


def test_cli_from_report_at_the_stage_cap(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"kind": "estimate", "config": {"dim": 3},
                                "stages": [0.5] + [0.0] * MAX_RESOLUTION}))
    assert main(["eval-envelope", "--from-report", str(path), "--grid", "3",
                 "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("command", ["estimate", "eval-envelope"])
def test_cli_grid_above_the_cap_is_usage_error(tmp_path, capsys, command):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "o.out"
    argv = ([command, "--input", str(edges)] if command == "estimate"
            else [command, "--envelope", "p1"])
    assert main(argv + ["--grid", str(_MAX_GRID + 1), "--out", str(out)]) == 2
    assert f"--grid must be at most {_MAX_GRID}" in capsys.readouterr().err
    assert not out.exists()
    if command == "eval-envelope":
        assert main(argv + ["--grid", str(_MAX_GRID), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == _MAX_GRID + 1


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=200))
def test_cli_arbitrary_input_bytes_never_raise(tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    for argv in (["estimate", "--input", str(path), "--out", str(tmp_path / "o.json")],
                 ["eval-envelope", "--from-report", str(path), "--out", str(tmp_path / "o.csv")]):
        assert main(argv) in (0, 1, 2)


# --- commands -----------------------------------------------------------------------


def test_cli_bad_envelope_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--envelope", "p9", "--n", "100",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "p9" in capsys.readouterr().err


def test_cli_eval_envelope_flags(capsys):
    assert main(["eval-envelope"]) == 2
    capsys.readouterr()


def test_cli_estimate_missing_input(tmp_path, capsys):
    rc = main(["estimate", "--input", str(tmp_path / "none.txt"),
               "--out", str(tmp_path / "o.json")])
    assert rc == 1


def test_cli_coefs_values(capsys):
    assert main(["coefs", "--envelope", "p5", "--dim", "3", "--degree", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "degree,dim,coefficient"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [1, 3, 5, 7, 9]
    coefs = [float(r[2]) for r in rows]
    assert coefs[0] == pytest.approx(1 / 3, abs=1e-9)
    assert coefs[4] == pytest.approx(2 / 27, abs=1e-9)
    assert max(abs(c) for c in coefs[1:4]) < 1e-9


def test_cli_coefs_step_envelope_has_negative_entries(capsys):
    assert main(["coefs", "--envelope", "p2", "--dim", "3", "--degree", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    coefs = [float(line.split(",")[2]) for line in lines]
    assert min(coefs) < 0


def test_cli_eval_envelope_builtin(capsys):
    assert main(["eval-envelope", "--envelope", "p1", "--grid", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value"
    t, v = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert np.allclose(v, ((1 + np.asarray(t)) / 2) ** 4)


def test_cli_simulate_estimate_round_trip(tmp_path):
    sim_json = tmp_path / "sim.json"
    adj = tmp_path / "adj.txt"
    rc = main([
        "simulate", "--envelope", "p4", "--n", "150", "--replicates", "1",
        "--seed", "9", "--r-max", "2", "--out", str(sim_json),
        "--dump-adjacency", str(adj),
    ])
    assert rc == 0
    est_json = tmp_path / "est.json"
    rc = main(["estimate", "--input", str(adj), "--dim", "3", "--r-max", "2",
               "--out", str(est_json)])
    assert rc == 0
    sim = json.loads(sim_json.read_text())
    est = json.loads(est_json.read_text())
    rec = sim["records"][0]
    assert est["selected_r"] == rec["selected_r"]
    stages = next(f["stages"] for f in rec["fits"] if f["r"] == est["selected_r"])
    assert stages == est["stages"]  # bit-exact


def test_cli_simulate_deterministic(tmp_path):
    args = ["simulate", "--envelope", "p5", "--n", "120", "--replicates", "2",
            "--seed", "3", "--r-max", "2"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_estimate_small_real_graph(tmp_path):
    # a 27-node interaction network; defaults (r_max 4, kappa 0.25) must run
    space = ngg.sphere(3)
    lat = ngg.sample_latent(space, 27, 14)
    adj = ngg.generate_graph(lat, ngg.builtin_envelope(4), 15)
    lines = ["% generated test network"]
    for i in range(27):
        for j in range(i + 1, 27):
            if adj[i, j]:
                lines.append(f"{i + 1} {j + 1}")
    path = tmp_path / "zebra_like.txt"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est.json"
    assert main(["estimate", "--input", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["n"] == 27
    assert len(doc["spectrum"]) == 27
    assert 1 <= doc["selected_r"] <= 4
    assert len(doc["per_r"]) == 4
    values = doc["envelope_grid"]["value"]
    assert min(values) >= 0.0 and max(values) <= 1.0
    assert any("selection may be unstable" in w for w in doc["warnings"])


def test_cli_estimate_r_max_too_large(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1 2\n2 3\n3 4\n4 5\n")
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "smaller --r-max" in capsys.readouterr().err


def test_cli_envelope_coefficients_file(tmp_path, capsys):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("# degree value\n0 0.4\n2 0.1\n")
    assert main(["eval-envelope", "--envelope", str(coeffs), "--grid", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    basis = ngg.harmonic_basis(ngg.sphere(3), 4)
    expect = basis.reconstruct(np.array([0.4, 0.0, 0.1]), np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(vals, expect)


def test_cli_coefficients_file_bad_number_is_usage_error(tmp_path, capsys):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("0 0.4\n1.5 0.3\n")
    assert main(["eval-envelope", "--envelope", str(coeffs), "--grid", "3"]) == 2
    assert f"{coeffs}:2:" in capsys.readouterr().err


def test_cli_resolution_above_seven(tmp_path):
    # r_max 8 is past the old (R+2)! enumeration cap
    sim_json, adj = tmp_path / "sim.json", tmp_path / "adj.txt"
    assert main(["simulate", "--envelope", "p4", "--n", "170", "--seed", "4",
                 "--r-max", "8", "--out", str(sim_json), "--dump-adjacency", str(adj)]) == 0
    record = json.loads(sim_json.read_text())["records"][0]
    assert "error" not in record
    assert [f["r"] for f in record["fits"]] == list(range(1, 9))
    est_json = tmp_path / "est.json"
    assert main(["estimate", "--input", str(adj), "--r-max", "8", "--out", str(est_json)]) == 0
    assert len(json.loads(est_json.read_text())["per_r"]) == 8


def test_cli_simulate_without_candidates_is_error(tmp_path, capsys):
    # --r-max 0 without --include-r0 leaves an empty grid: refused before any replicate runs
    out = tmp_path / "r0.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "100", "--r-max", "0",
               "--replicates", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r_max" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_cli_resolution_above_the_cap_is_refused_at_once(tmp_path, capsys, monkeypatch,
                                                         command):
    # refused before any graph is sampled or solved, so no 2^(r+2)-state table is asked for
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the pipeline")

    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    monkeypatch.setattr(ngg.cli, "fit_graph", unreachable)
    out = tmp_path / "o.json"
    if command == "simulate":
        argv = ["simulate", "--space", "sphere:3", "--envelope", "p5", "--n", "2000",
                "--r-max", "30"]
    else:
        edges = tmp_path / "g.txt"
        edges.write_text("".join(f"{i} {j}\n" for i in range(1, 40) for j in range(i + 1, 41)))
        argv = ["estimate", "--input", str(edges), "--r-max", str(MAX_RESOLUTION + 1)]
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"largest supported resolution {MAX_RESOLUTION}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--r-max", str(MAX_RESOLUTION + 1)], f"largest supported resolution {MAX_RESOLUTION}"),
    (["--r-max", "0"], "r_max too small"),
    (["--kappa", "nan"], "kappa must be a finite positive number"),
])
def test_cli_estimate_checks_settings_before_reading_input(tmp_path, capsys, monkeypatch,
                                                           flags, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("read the input")

    monkeypatch.setattr(ngg.cli, "read_edge_list", unreachable)
    monkeypatch.setattr(ngg.cli, "read_adjacency", unreachable)
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(edges), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_cli_estimate_and_simulate_run_each_step_once_per_graph(tmp_path, monkeypatch):
    # the benchmark traces these steps where ngg.harness looks them up
    import ngg.harness

    steps = ("eigenvalues_symmetric", "fit_all_resolutions", "select_resolution")
    calls = []
    for name in steps:
        def counted(*args, _name=name, _step=getattr(ngg.harness, name), **kwargs):
            calls.append(_name)  # list.append is atomic across replicate threads
            return _step(*args, **kwargs)
        monkeypatch.setattr(ngg.harness, name, counted)
    adj = tmp_path / "adj.txt"
    assert main(["simulate", "--envelope", "p4", "--n", "150", "--replicates", "3",
                 "--r-max", "2", "--out", str(tmp_path / "sim.json"),
                 "--dump-adjacency", str(adj)]) == 0
    assert sorted(calls) == sorted(steps * 3)
    calls.clear()
    assert main(["estimate", "--input", f"{adj}.rep0", "--r-max", "2",
                 "--out", str(tmp_path / "est.json")]) == 0
    assert sorted(calls) == sorted(steps)


def test_cli_bad_thread_count_is_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NGG_THREADS", "abc")
    rc = main(["simulate", "--envelope", "p4", "--n", "60", "--r-max", "2",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NGG_THREADS" in err


def test_cli_from_report_eval(tmp_path, capsys):
    sim_json = tmp_path / "sim.json"
    adj = tmp_path / "adj.txt"
    main(["simulate", "--envelope", "p4", "--n", "150", "--replicates", "1",
          "--seed", "2", "--r-max", "2", "--out", str(sim_json),
          "--dump-adjacency", str(adj)])
    est_json = tmp_path / "est.json"
    main(["estimate", "--input", str(adj), "--r-max", "2", "--out", str(est_json)])
    capsys.readouterr()
    assert main(["eval-envelope", "--from-report", str(est_json), "--grid", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 7
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_cli_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ngg", "coefs", "--envelope", "p5", "--degree", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("degree,dim,coefficient")


# --- coefficient files, coefs --degree and CSV output ---------------------------------


def test_cli_dump_adjacency_needs_single_n_before_running(tmp_path, capsys):
    out = tmp_path / "z.json"
    rc = main(["simulate", "--envelope", "p4", "--n", "60,80", "--r-max", "2",
               "--out", str(out), "--dump-adjacency", str(tmp_path / "d.txt")])
    assert rc == 2
    assert "--dump-adjacency" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("dump", [False, True])
def test_cli_negative_seed_is_error_before_running(tmp_path, capsys, monkeypatch, dump):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the pipeline")

    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    out = tmp_path / "x.json"
    argv = ["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2", "--seed", "-1",
            "--out", str(out)]
    if dump:
        argv += ["--dump-adjacency", str(tmp_path / "d.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()
    assert not (tmp_path / "d.txt").exists()


def test_cli_repeated_size_is_usage_error_before_running(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the pipeline")

    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "100,100", "--r-max", "2",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--n" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("degree", ["100000", "-1"])
def test_cli_coefs_degree_out_of_range_is_usage_error(capsys, degree):
    assert main(["coefs", "--envelope", "p5", "--degree", degree]) == 2
    assert "--degree must be in 0..3072" in capsys.readouterr().err


def test_cli_coefs_high_degree_is_one_quadrature(capsys):
    start = time.perf_counter()
    assert main(["coefs", "--envelope", "p5", "--degree", "2048"]) == 0
    assert time.perf_counter() - start < 5.0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2050 and lines[-1].startswith("2048,")


def test_cli_coefficient_file_above_degree_eight(tmp_path, capsys):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("0 0.4\n9 0.01\n")
    sim_json = tmp_path / "sim.json"
    assert main(["simulate", "--envelope", str(coeffs), "--n", "60", "--r-max", "2",
                 "--out", str(sim_json)]) == 0
    sim = json.loads(sim_json.read_text())
    assert sim["config"]["envelope_coeffs"][9] == [9, 0.01]
    assert "error" not in sim["records"][0]
    capsys.readouterr()
    assert main(["coefs", "--envelope", str(coeffs), "--degree", "4"]) == 0
    coefs = [float(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert coefs[0] == pytest.approx(0.4, abs=1e-12)
    assert max(abs(c) for c in coefs[1:]) < 1e-12
    assert main(["eval-envelope", "--envelope", str(coeffs), "--grid", "3"]) == 0
    vals = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    basis = ngg.harmonic_basis(ngg.sphere(3), 9)
    expect = basis.reconstruct(np.r_[0.4, np.zeros(8), 0.01], np.array([-1.0, 0.0, 1.0]))
    assert vals == expect.tolist()


@pytest.mark.parametrize(
    "argv",
    [
        ["coefs", "--envelope", "p2", "--degree", "8"],
        ["coefs", "--envelope", "{coeffs}", "--degree", "8"],
        ["eval-envelope", "--envelope", "p3", "--grid", "11"],
        ["eval-envelope", "--envelope", "{coeffs}", "--grid", "11"],
    ],
)
def test_cli_csv_stdout_matches_out_file(tmp_path, capsys, argv):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("0 0.4\n2 0.1\n9 0.01\n")
    argv = [a.format(coeffs=coeffs) for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("to_file", [False, True])
def test_cli_non_finite_envelope_values_are_errors(tmp_path, capsys, to_file):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("0 1e308\n1 1e308\n")
    out = tmp_path / "o.csv"
    argv = ["eval-envelope", "--envelope", str(coeffs), "--grid", "5"]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "non-finite" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "60", "--r-max", "2", "--out", "{tmp}/x.json"],
        ["coefs", "--degree", "4"],
        ["eval-envelope", "--grid", "3"],
        ["eval-envelope", "--grid", "3", "--out", "{tmp}/x.csv"],
    ],
)
def test_cli_non_finite_coefficient_is_usage_error(tmp_path, capsys, argv, value):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text(f"0 0.4\n2 {value}\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--envelope", str(coeffs)]
    assert main(argv) == 2
    assert f"{coeffs}:2: coefficient {value!r} is not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


# --- --dim bound and warning-free failures ------------------------------------------


def _run_cli(*argv):
    """``python -m ngg`` in a fresh process, so numpy and scipy warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ngg", *argv], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize(
    "argv",
    [
        ["coefs", "--envelope", "p5", "--degree", "8", "--dim", "100000000"],
        ["eval-envelope", "--envelope", "p1", "--dim", "100000000"],
        ["estimate", "--input", "{edges}", "--out", "{tmp}/o.json", "--dim", "100000000"],
        ["eval-envelope", "--from-report", "{report}"],
    ],
    ids=["coefs", "eval-envelope", "estimate", "from-report"],
)
def test_cli_dim_above_bound_is_usage_error(tmp_path, argv):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"kind": "estimate", "config": {"dim": 100000000},
                                  "stages": [0.5]}))
    argv = [a.format(edges=edges, tmp=tmp_path, report=report) for a in argv]
    proc = _run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error:") and "at most 10000" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "o.json").exists()


def test_cli_coefs_at_dim_bound_is_warning_free():
    proc = _run_cli("coefs", "--envelope", "p5", "--dim", "10000", "--degree", "64")
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 66


def test_cli_eigenspace_dimension_beyond_floats_is_error():
    proc = _run_cli("coefs", "--envelope", "p5", "--dim", "10000", "--degree", "200")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "exceeds the float range" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_overflowing_envelope_prints_only_the_error(tmp_path):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text("0 1e308\n1 1e308\n")
    proc = _run_cli("eval-envelope", "--envelope", str(coeffs))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "non-finite" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("content", ["0 1e308\n1 1e308\n", "0 0\n1 1e308\n2 1e308\n"],
                         ids=["two-terms", "three-terms"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "50", "--replicates", "1", "--r-max", "1", "--out", "{tmp}/x.json"],
        ["coefs", "--degree", "4"],
    ],
    ids=["simulate", "coefs"],
)
def test_cli_overflowing_envelope_stops_at_the_first_quadrature_rule(tmp_path, argv, content):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text(content)
    proc = _run_cli(*[a.format(tmp=tmp_path) for a in argv], "--envelope", str(coeffs))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: envelope is not finite at t = ")
    assert "RuntimeWarning" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


def _coefs(argv, capsys):
    assert main(argv) == 0
    return np.array([float(line.split(",")[2])
                     for line in capsys.readouterr().out.splitlines()[1:]])


def test_cli_coefs_large_envelope_is_scale_invariant(tmp_path, capsys):
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    big.write_text("0 1e6\n1 0.5\n")
    small.write_text("0 1\n1 5e-7\n")
    c_big = _coefs(["coefs", "--envelope", str(big), "--degree", "4"], capsys)
    c_small = _coefs(["coefs", "--envelope", str(small), "--degree", "4"], capsys)
    # the vanishing degrees come out at round-off of the envelope's size
    np.testing.assert_allclose(c_big, 1e6 * c_small, rtol=1e-9, atol=1e6 * 1e-12)


def test_cli_coefs_huge_constant_converges(tmp_path, capsys):
    f = tmp_path / "const.txt"
    f.write_text("0 1e300\n")
    c = _coefs(["coefs", "--envelope", str(f), "--degree", "4"], capsys)
    assert c[0] == pytest.approx(1e300, rel=1e-12)
    assert np.max(np.abs(c[1:])) <= 1e-12 * 1e300
