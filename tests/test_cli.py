import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ngg
from conftest import graph_of
from ngg.cli import _MAX_GRID, main
from ngg.edgelist import read_edge_list, read_header, write_edge_list
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
    assert data.n == 4
    assert data.edges.tolist() == [[0, 1], [1, 3]]
    assert any("self-loop" in w for w in data.warnings)
    triangle = data.triangle().matrix
    assert np.count_nonzero(triangle) == 2 and triangle[0, 1] == triangle[1, 3] == 1 / 4


def test_read_edge_list_zero_based(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n")
    data = read_edge_list(path)
    assert data.n == 3
    assert data.edges.tolist() == [[0, 1], [1, 2]]


def test_read_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 x\n")
    with pytest.raises(DomainError):
        read_edge_list(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("% nothing\n")
    with pytest.raises(DomainError):
        read_edge_list(empty)


@pytest.mark.parametrize(
    "text",
    [
        "% ngg n 3\n0 1\n1 x\n",  # bad id after the header
        "% ngg n\n0 1\n",  # n without a value
        "% ngg n 3.5\n0 1\n",  # non-integer n
        "% ngg n -3\n0 1\n",  # negative n
        "% ngg n 3\n0 1\n1 3\n",  # an id not below n
        "% ngg n 1\n",  # fewer than 2 nodes
        "ngg-adjacency 1 rle\nn 3\nstart 0\n1 1 1\n",  # the retired adjacency dump
    ],
    ids=["bad-id", "no-n", "non-integer-n", "negative-n", "id-not-below-n", "one-node",
         "retired-dump"],
)
def test_cli_estimate_malformed_dump(tmp_path, capsys, text):
    path = tmp_path / "adj.txt"
    path.write_text(text)
    rc = main(["estimate", "--input", str(path), "--r-max", "1",
               "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "o.json").exists()


def test_cli_simulate_reference_spectrum_larger_than_memory(tmp_path, capsys):
    # sphere:10 with p2 would expand its truth to 182 billion values;
    # simulate compares each fit with the truth's runs instead, so it runs
    # and reports finite distances
    out = tmp_path / "x.json"
    rc = main(["simulate", "--space", "sphere:10", "--envelope", "p2", "--n", "100",
               "--r-max", "1", "--replicates", "2", "--out", str(out)])
    assert rc == 0
    assert "MemoryError" not in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert sum(doc["truth"]["dims"]) == 182195026585
    assert [rec.get("error") for rec in doc["records"]] == [None, None]
    for rec in doc["records"]:
        assert math.isfinite(rec["delta2_selected_vs_truth"])
        assert all(math.isfinite(fit[key]) for fit in rec["fits"]
                   for key in ("delta2_vs_truth_r", "delta2_vs_truth"))


def test_cli_estimate_declared_graph_larger_than_memory(tmp_path, capsys):
    # the declared n is refused before the data lines, which would not parse, are read
    path = tmp_path / "huge.txt"
    path.write_text("% ngg n 3000000\nnot an edge\n")
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 3000000 nodes" in err and "GiB" in err


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


def _simulate_and_estimate(tmp_path, envelope, n, seed, r_max):
    """One ``simulate`` replicate with ``--dump-adjacency``, then ``estimate`` on
    the dump: the simulated record, the estimate report and the dump's path."""
    sim_json, adj, est_json = tmp_path / "sim.json", tmp_path / "adj.txt", tmp_path / "est.json"
    assert main(["simulate", "--envelope", envelope, "--n", str(n), "--seed", str(seed),
                 "--r-max", str(r_max), "--out", str(sim_json),
                 "--dump-adjacency", str(adj)]) == 0
    assert main(["estimate", "--input", str(adj), "--r-max", str(r_max),
                 "--out", str(est_json)]) == 0
    record = json.loads(sim_json.read_text())["records"][0]
    est = json.loads(est_json.read_text())
    assert est["n"] == n and est["selected_r"] == record["selected_r"]
    assert [f["stages"] for f in record["fits"]] == [row["stages"] for row in est["per_r"]]
    return record, est, adj


def test_cli_round_trip_keeps_isolated_end_nodes(tmp_path):
    # seed 17 leaves nodes 0 and 39 isolated: without its "% ngg n" line the
    # dump would read back as 36 nodes, renumbered
    _, _, adj = _simulate_and_estimate(tmp_path, "p6", 40, 17, 2)
    assert adj.read_text().startswith("% ngg n 40 space sphere:3\n")
    edges = read_edge_list(adj).edges
    assert edges.min() > 0 and edges.max() < 39


def test_cli_round_trip_of_an_edgeless_graph(tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("0 0\n")
    record, est, adj = _simulate_and_estimate(tmp_path, str(zero), 20, 0, 1)
    assert adj.read_text() == "% ngg n 20 space sphere:3\n"
    assert record["edge_count"] == 0 and est["spectrum"] == [0.0] * 20


@pytest.mark.parametrize("space", ["sphere:3", "rp:3", "cp:2"])
def test_cli_dumps_are_the_drawn_keys_and_count_their_edges(tmp_path, space):
    # each dump reads back as the keys generate_graph draws for its replicate,
    # with its n and space, and the record's edge_count is their number
    sim_json, adj = tmp_path / "sim.json", tmp_path / "d.txt"
    assert main(["simulate", "--space", space, "--envelope", "p5", "--n", "300",
                 "--replicates", "2", "--r-max", "2", "--seed", "4", "--out", str(sim_json),
                 "--dump-adjacency", str(adj)]) == 0
    records = json.loads(sim_json.read_text())["records"]
    for rec in records:
        path = tmp_path / f"d.txt.rep{rec['replicate']}"
        latent = ngg.sample_latent(ngg.spaces.parse_space(space), 300, rec["seed"])
        drawn = ngg.generate_graph(latent, ngg.builtin_envelope(5), rec["graph_seed"])
        data = read_edge_list(path)
        assert read_header(path) == (300, latent.space)
        assert data.keys.tobytes() == drawn.keys.tobytes()
        assert rec["edge_count"] == data.keys.size > 0
    assert len(records) == 2


def _dump_rp3(tmp_path):
    """The rp:3 graph whose fit a sphere:3 estimate got wrong: its simulated
    record and the dump's path."""
    sim_json, adj = tmp_path / "sim.json", tmp_path / "d.txt"
    assert main(["simulate", "--space", "rp:3", "--envelope", "p1", "--n", "600",
                 "--replicates", "1", "--r-max", "3", "--seed", "2", "--out", str(sim_json),
                 "--dump-adjacency", str(adj)]) == 0
    return json.loads(sim_json.read_text())["records"][0], adj


def test_cli_estimate_fits_the_space_the_dump_names(tmp_path):
    # read as sphere:3, this graph selected R = 3 where simulate selected 2
    record, adj = _dump_rp3(tmp_path)
    assert adj.read_text().startswith("% ngg n 600 space real-projective:3\n")
    est_json = tmp_path / "est.json"
    assert main(["estimate", "--input", str(adj), "--r-max", "3", "--out", str(est_json)]) == 0
    est = json.loads(est_json.read_text())
    assert record["selected_r"] == 2 and est["selected_r"] == record["selected_r"]
    assert [f["stages"] for f in record["fits"]] == [row["stages"] for row in est["per_r"]]
    assert est["config"]["space"] == "real-projective:3" and est["config"]["dim"] == 3
    # an explicit option that names the same space changes nothing
    for flags in (["--space", "rp:3"], ["--space", "real-projective:3"]):
        again = tmp_path / "again.json"
        assert main(["estimate", "--input", str(adj), "--r-max", "3", "--out", str(again)]
                    + flags) == 0
        assert json.loads(again.read_text())["per_r"] == est["per_r"]


@pytest.mark.parametrize("space", [ngg.quaternionic_projective(2), ngg.octonionic_plane()])
def test_cli_estimate_fits_a_quaternionic_or_octonionic_graph_file(tmp_path, space):
    # simulate does not sample these spaces, but a graph file may name them
    rng = np.random.default_rng(6)
    adj = tmp_path / "g.txt"
    write_edge_list(adj, graph_of(rng.random((80, 80)) < 0.3), space)
    reports = []
    for flags in ([], ["--space", space.name]):
        out = tmp_path / f"est{len(reports)}.json"
        assert main(["estimate", "--input", str(adj), "--r-max", "1", "--out", str(out)]
                    + flags) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["config"]["space"] == space.name
    assert reports[0]["per_r"] == reports[1]["per_r"]


@pytest.mark.parametrize("flags", [["--dim", "4"], ["--dim", "3"], ["--space", "sphere:3"],
                                   ["--space", "cp:3"], ["--space", "rp:4"]])
def test_cli_estimate_space_unlike_the_dumps_is_usage_error(tmp_path, capsys, monkeypatch,
                                                          flags):
    _, adj = _dump_rp3(tmp_path)
    capsys.readouterr()

    def unreachable(*args, **kwargs):
        raise AssertionError("read the edges")

    monkeypatch.setattr(ngg.cli, "read_edge_list", unreachable)
    out = tmp_path / "est.json"
    assert main(["estimate", "--input", str(adj), "--r-max", "3", "--out", str(out)]
                + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "real-projective:3" in err
    assert err.count("\n") == 1 and not out.exists()


def test_cli_estimate_space_and_dim_together_is_usage_error(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(edges), "--space", "sphere:3", "--dim", "3",
                 "--out", str(out)]) == 2
    assert "pass at most one of --space / --dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, space", [([], "sphere:3"), (["--dim", "4"], "sphere:4"),
                                          (["--space", "rp:3"], "real-projective:3"),
                                          (["--space", "cp:2"], "complex-projective:2")])
def test_cli_estimate_space_of_a_file_without_one(tmp_path, flags, space):
    # a header-less list, or the older "% ngg n <N>" line: the option, else sphere:3
    for text in ("% ngg n 40\n", ""):
        edges = tmp_path / "g.txt"
        edges.write_text(text + "".join(f"{i} {(i + j) % 40}\n" for i in range(40)
                                        for j in (1, 2, 5)))
        out = tmp_path / "o.json"
        assert main(["estimate", "--input", str(edges), "--r-max", "1", "--out", str(out)]
                    + flags) == 0
        config = json.loads(out.read_text())["config"]
        assert config["space"] == space and config["dim"] == int(space.partition(":")[2])


@pytest.mark.parametrize("flags", [["--space", "sphere"], ["--space", "torus:3"],
                                   ["--space", "rp:x"], ["--space", "sphere:2"],
                                   ["--space", "rp:10001"], ["--dim", "10001"],
                                   ["--dim", "2"]])
def test_cli_estimate_bad_space_is_usage_error(tmp_path, capsys, flags):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    assert main(["estimate", "--input", str(edges), "--out", str(tmp_path / "o.json")]
                + flags) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_cli_estimate_holds_no_edge_list_during_the_solve(tmp_path, monkeypatch):
    # only the matrix (and LAPACK's workspace) is alive while fit_graph solves
    read, solve = ngg.cli.read_edge_list, ngg.cli.fit_graph
    refs, alive = [], []

    def traced_read(path):
        data = read(path)
        refs.append(weakref.ref(data))
        return data

    def traced_solve(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ngg.cli, "read_edge_list", traced_read)
    monkeypatch.setattr(ngg.cli, "fit_graph", traced_solve)
    edges = tmp_path / "g.txt"
    edges.write_text("".join(f"{i} {(i + j) % 60}\n" for i in range(60) for j in (1, 2, 5)))
    assert main(["estimate", "--input", str(edges), "--r-max", "1",
                 "--out", str(tmp_path / "o.json")]) == 0
    assert len(refs) == 1 and alive == [False]


def test_cli_from_report_rebuilds_on_the_reports_space(tmp_path):
    # config.space, not config.dim, names the basis of the fitted envelope
    stages = [0.4, 0.2, -0.1]
    report = tmp_path / "report.json"
    out = tmp_path / "o.csv"
    for config, space in (({"space": "real-projective:3", "dim": 3}, ngg.real_projective(3)),
                          ({"space": "cp:2", "dim": 2}, ngg.complex_projective(2)),
                          ({"dim": 4}, ngg.sphere(4))):  # a report from before config.space
        report.write_text(json.dumps({"kind": "estimate", "config": config, "stages": stages}))
        assert main(["eval-envelope", "--from-report", str(report), "--grid", "7",
                     "--out", str(out)]) == 0
        t = np.linspace(-1.0, 1.0, 7)
        want = np.clip(ngg.harmonic_basis(space, 2).reconstruct(stages, t), 0.0, 1.0)
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(got[:, 1], want)


@pytest.mark.parametrize("space", ["torus:3", "sphere:2", 3, "rp:10001"])
def test_cli_from_report_bad_space_is_usage_error(tmp_path, capsys, space):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"kind": "estimate", "config": {"space": space, "dim": 3},
                                  "stages": [0.5]}))
    assert main(["eval-envelope", "--from-report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {report}")


def test_cli_dump_format_is_gone(tmp_path, capsys):
    # the edge list is the one dump format
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--envelope", "p4", "--n", "60", "--out", str(tmp_path / "x.json"),
              "--dump-adjacency", str(tmp_path / "d.txt"), "--dump-format", "dense"])
    assert exc.value.code == 2
    assert "--dump-format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    graph = ngg.generate_graph(lat, ngg.builtin_envelope(4), 15)
    lines = ["% generated test network"] + [f"{i + 1} {j + 1}" for i, j in graph.edges]
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


def test_cli_estimate_r_max_too_large_is_refused_before_the_matrix(tmp_path, capsys,
                                                                   monkeypatch):
    # a 60-node graph is too small for the resolution-8 model: refused before
    # its A / n is written
    def unreachable(self):
        raise AssertionError("wrote A / n")

    monkeypatch.setattr(ngg.edgelist.EdgeListData, "triangle", unreachable)
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{i} {(i + j) % 60}\n" for i in range(60) for j in (1, 2, 5)))
    rc = main(["estimate", "--input", str(path), "--r-max", "8",
               "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "smaller --r-max" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


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


@pytest.mark.parametrize("text", ["-1 0.5\n", "-2 0.5\n", "0 0.4\n-3 0.1\n"])
def test_cli_negative_degree_in_coefficients_file_is_an_error(tmp_path, capsys, text):
    coeffs = tmp_path / "env.txt"
    coeffs.write_text(text)
    assert main(["coefs", "--envelope", str(coeffs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonnegative" in err and err.count("\n") == 1


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


def test_cli_simulate_out_ending_in_csv_is_usage_error(tmp_path, capsys):
    # the CSV table goes beside the report, at --out with the suffix .csv:
    # refused before any replicate runs, so nothing is written
    rc = main(["simulate", "--envelope", "p4", "--n", "100", "--r-max", "2",
               "--replicates", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out:") and "ends in .csv" in err
    assert not list(tmp_path.iterdir())


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
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(edges), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_cli_estimate_and_simulate_run_each_step_once_per_graph(tmp_path, monkeypatch):
    # the benchmark traces these steps where ngg.harness looks them up; the
    # one eigenvalue step of stage 2 (dsterf) runs once per graph as well
    import ngg.harness

    sites = [(ngg.harness, name) for name in
             ("reduce_to_band", "band_spectrum", "fit_all_resolutions", "select_resolution")]
    sites.append((ngg.spectral, "eigenvalues_tridiagonal"))
    steps = tuple(name for _, name in sites)
    calls = []
    for module, name in sites:
        def counted(*args, _name=name, _step=getattr(module, name), **kwargs):
            calls.append(_name)
            return _step(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    adj = tmp_path / "adj.txt"
    assert main(["simulate", "--envelope", "p4", "--n", "150", "--replicates", "3",
                 "--r-max", "2", "--out", str(tmp_path / "sim.json"),
                 "--dump-adjacency", str(adj)]) == 0
    assert sorted(calls) == sorted(steps * 3)
    calls.clear()
    assert main(["estimate", "--input", f"{adj}.rep0", "--r-max", "2",
                 "--out", str(tmp_path / "est.json")]) == 0
    assert sorted(calls) == sorted(steps)


@pytest.mark.parametrize("out", ["missing/x.json", "adir"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "coefs", "eval-envelope"])
def test_cli_unwritable_out_is_usage_error_before_any_graph(tmp_path, capsys, monkeypatch,
                                                           command, out):
    # a missing directory, or a directory: refused before any graph is drawn
    # or read, and before any envelope or basis is built
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the work")

    for name in ("run_experiment", "read_edge_list", "harmonic_basis", "_resolve_envelope"):
        monkeypatch.setattr(ngg.cli, name, unreachable)
    (tmp_path / "adir").mkdir()
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n")
    argv = {"simulate": ["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2"],
            "estimate": ["estimate", "--input", str(edges)],
            "coefs": ["coefs", "--envelope", "p5"],
            "eval-envelope": ["eval-envelope", "--envelope", "p5"]}[command]
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out:") and err.count("\n") == 1
    assert ("is missing" if "missing" in out else "is a directory") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "g.txt"]


@pytest.mark.parametrize("out, dump, replicates, clash", [
    ("r.json", "r.csv", 1, True),    # the CSV table would overwrite the graph
    ("r.json", "r.json", 1, True),   # the report would overwrite the graph
    ("r.rep1", "r", 2, True),        # the report is replicate 1's dump
    ("r.rep2", "r", 2, False),       # there is no replicate 2
])
def test_cli_dump_may_not_overwrite_the_report(tmp_path, capsys, monkeypatch, out, dump,
                                               replicates, clash):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the pipeline")

    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2",
            "--replicates", str(replicates), "--out", out,
            "--dump-adjacency", str(tmp_path / dump)]
    if not clash:
        with pytest.raises(AssertionError, match="reached the pipeline"):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --dump-adjacency:") and "overwrite the report" in err
    assert not list(tmp_path.iterdir())


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


def test_import_leaves_single_path_modules_unloaded():
    # the version comes from __version__, git runs only for the build string
    # and a thread starts only for the replicate loop's stage-1 lane, so
    # importing the CLI loads none of these modules: no command pays for them
    code = ("import sys, ngg.cli; "
            "loaded = [m for m in ('importlib.metadata', 'subprocess', 'concurrent.futures') "
            "if m in sys.modules]; "
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_build_names_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(ngg.__file__).parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    version = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert version == ngg.__version__
    assert ngg.harness.build_identifier().startswith(f"ngg-{version}+")


# --- coefficient files, coefs --degree and CSV output ---------------------------------


def test_cli_dump_adjacency_needs_single_n_before_running(tmp_path, capsys):
    out = tmp_path / "z.json"
    rc = main(["simulate", "--envelope", "p4", "--n", "60,80", "--r-max", "2",
               "--out", str(out), "--dump-adjacency", str(tmp_path / "d.txt")])
    assert rc == 2
    assert "--dump-adjacency" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_cli_dump_directory_missing_is_usage_error_before_running(tmp_path, capsys,
                                                                 monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached the pipeline")

    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2", "--replicates",
               "2", "--out", str(out), "--dump-adjacency", str(tmp_path / "missing" / "d.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --dump-adjacency: the directory of") and "missing" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_dump_write_ends_the_run(tmp_path, capsys):
    # the second dump path links into a missing directory: its write fails
    # during the run
    (tmp_path / "d.txt.rep1").symlink_to(tmp_path / "missing" / "g.txt")
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2", "--replicates",
               "2", "--out", str(out), "--dump-adjacency", str(tmp_path / "d.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d.txt.rep1" in err and err.count("\n") == 1
    assert not out.exists() and not out.with_suffix(".csv").exists()
    assert (tmp_path / "d.txt.rep0").read_text().startswith("% ngg n 100 space sphere:3\n")


@pytest.mark.parametrize("replicates, directory", [(1, "d.txt"), (2, "d.txt.rep0"),
                                                   (3, "d.txt.rep2")])
def test_cli_dump_naming_a_directory_is_usage_error_before_any_graph(
        tmp_path, capsys, monkeypatch, replicates, directory):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(ngg.harness, "generate_graph", unreachable)
    monkeypatch.setattr(ngg.cli, "run_experiment", unreachable)
    (tmp_path / directory).mkdir()
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", "p5", "--n", "100", "--r-max", "2", "--replicates",
               str(replicates), "--out", str(out), "--dump-adjacency", str(tmp_path / "d.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --dump-adjacency:") and "is a directory" in err
    assert directory in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [directory]
    assert not list((tmp_path / directory).iterdir())


def test_cli_undrawable_replicate_under_dump_is_recorded_then_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0.5\n2 3\n")
    out = tmp_path / "x.json"
    rc = main(["simulate", "--envelope", str(bad), "--n", "100", "--r-max", "2",
               "--replicates", "2", "--out", str(out),
               "--dump-adjacency", str(tmp_path / "d.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: envelope 'bad' leaves [0, 1]: range [")
    assert err.count("\n") == 1
    records = json.loads(out.read_text())["records"]
    assert [rec["error"] for rec in records] == [f"ModelError: {err[len('error: '):-1]}"] * 2
    assert out.with_suffix(".csv").read_text().count("\n") == 1  # the header alone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "x.csv", "x.json"]


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


def test_cli_p5_report_carries_no_envelope_coefficients(tmp_path):
    # p5's expansion (1/3, 2/27 at degrees 0 and 4) holds on sphere:3 alone
    out = tmp_path / "sim.json"
    assert main(["simulate", "--space", "sphere:5", "--envelope", "p5", "--n", "60",
                 "--r-max", "2", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["envelope"] == "p5" and "envelope_coeffs" not in config


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "60", "--r-max", "2", "--out", "{tmp}/x.json"],
        ["coefs", "--degree", "4"],
        ["eval-envelope", "--grid", "3"],
    ],
    ids=["simulate", "coefs", "eval-envelope"],
)
def test_cli_coefficient_file_not_utf8_is_usage_error(tmp_path, capsys, argv):
    coeffs = tmp_path / "env.txt"
    coeffs.write_bytes(b"\xff\xfe0 0.4\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--envelope", str(coeffs)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {coeffs}: not a UTF-8 text file")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("x.*"))


# --- --dim bound and warning-free failures ------------------------------------------


def _run_cli(*argv):
    """``python -m ngg`` in a fresh process, so numpy and scipy warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ngg", *argv], capture_output=True,
                          text=True, env=env)


def test_cli_simulate_astronomical_n_is_an_error(tmp_path):
    # 8 n^2 bytes is past the float range: the message still formats
    proc = _run_cli("simulate", "--envelope", "p5", "--n", "1" + "0" * 400,
                    "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "GiB" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_cli_simulate_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a graph of at most ONE_THREAD_MAX_N nodes is reduced on one OpenBLAS
    # thread whatever the pool, and the rest of the solve is thread-invariant
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"sim{threads}.json"
        env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "ngg", "simulate", "--envelope", "p5",
                               "--n", "300", "--replicates", "2", "--seed", "3",
                               "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert f"at most\n{ngg.spectral.ONE_THREAD_MAX_N} nodes" in ngg.cli.__doc__


_REPORT = ["eval-envelope", "--from-report", "{report}"]


@pytest.mark.parametrize(
    "argv, dim, message",
    [
        (["coefs", "--envelope", "p5", "--degree", "8", "--dim", "100000000"], None,
         "at most 10000"),
        (["eval-envelope", "--envelope", "p1", "--dim", "100000000"], None, "at most 10000"),
        (["estimate", "--input", "{edges}", "--out", "{tmp}/o.json", "--dim", "100000000"],
         None, "at most 10000"),
        (_REPORT, 100000000, "at most 10000"),
        # --dim D is --space sphere:D, exit code included, on every command
        (["coefs", "--envelope", "p5", "--dim", "-5"], None, "--dim: cannot parse space"),
        (["eval-envelope", "--envelope", "p1", "--dim", "2"], None,
         "--dim: cannot parse space 'sphere:2'"),
        (["simulate", "--envelope", "p5", "--space", "sphere:10001", "--n", "100",
          "--out", "{tmp}/o.json"], None, "--space: dimension must be at most 10000"),
        # a report's config.dim is a JSON integer naming a sphere
        (_REPORT, 2, "config.dim: cannot parse space 'sphere:2'"),
        (_REPORT, True, "config.dim True is not an integer"),
        (_REPORT, 3.7, "config.dim 3.7 is not an integer"),
        (_REPORT, "3", "config.dim '3' is not an integer"),
    ],
    ids=["coefs", "eval-envelope", "estimate", "from-report", "coefs-dim-negative",
         "eval-envelope-dim-2", "simulate-space", "from-report-dim-2", "from-report-dim-true",
         "from-report-dim-float", "from-report-dim-string"],
)
def test_cli_dim_above_bound_is_usage_error(tmp_path, argv, dim, message):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"kind": "estimate", "config": {"dim": dim},
                                  "stages": [0.5]}))
    argv = [a.format(edges=edges, tmp=tmp_path, report=report) for a in argv]
    proc = _run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error:") and message in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt", "report.json"]


def test_cli_coefs_at_dim_bound_is_warning_free():
    proc = _run_cli("coefs", "--envelope", "p5", "--dim", "10000", "--degree", "64")
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 66


@pytest.mark.parametrize("envelope", ["p2", "p6"])
def test_cli_coefs_at_dim_bound_with_split_points_is_warning_free(envelope):
    # panels that end at -1 or 1 take the steep density into their weights in logs
    proc = _run_cli("coefs", "--envelope", envelope, "--dim", "10000", "--degree", "64")
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


# --- numpy alone ---------------------------------------------------------------

_NO_SCIPY = """
import runpy, sys
sys.argv = ["ngg", *sys.argv[1:]]
try:
    runpy.run_module("ngg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--space", "sphere:3", "--envelope", "p5", "--n", "100", "--replicates", "1",
         "--r-max", "2", "--out", "{tmp}/s.json"],
        ["simulate", "--space", "rp:3", "--envelope", "p2", "--n", "100", "--replicates", "1",
         "--r-max", "2", "--out", "{tmp}/s.json"],
        ["coefs", "--envelope", "p5", "--dim", "3", "--degree", "8"],
        ["eval-envelope", "--envelope", "p2"],
        ["estimate", "--input", "{edges}", "--r-max", "1", "--out", "{tmp}/e.json"],
    ],
    ids=["simulate", "simulate-projective", "coefs", "eval-envelope", "estimate"],
)
def test_cli_runs_without_scipy(tmp_path, argv):
    # a fresh process: scipy loaded by the test session would hide a lazy import
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {(i + j) % 40}\n" for i in range(40) for j in (1, 2, 5)))
    argv = [a.format(tmp=tmp_path, edges=edges) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
