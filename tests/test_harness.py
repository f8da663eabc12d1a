import importlib.util
import itertools
import json
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ngg
from conftest import delta2_merge_bound, dense, exact_squared_distance, gamma
from ngg.edgelist import write_edge_list
from ngg.errors import DomainError, NggError
from ngg.harness import TRUTH_DEGREE, _graph_seed
from ngg.model import probability_rows
from ngg.spectral import Band, Triangle, lazy_zeros
from oracles import delta2, eigenvalues, triangle
from ngg.reports import json_dumps


def _graph(space, envelope, n, seed):
    """The ``EdgeListData`` of the replicate seeded ``seed``, drawn from the
    model's functions alone, apart from the replicate loop."""
    return ngg.generate_graph(ngg.sample_latent(space, n, seed), envelope, _graph_seed(seed))


def _config(**kw):
    base = dict(
        space=ngg.sphere(3),
        envelope=ngg.constant_envelope(0.5),
        n_values=(400,),
        replicates=3,
        r_max=2,
        kappa=0.25,
        base_seed=100,
    )
    base.update(kw)
    return ngg.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        _config(replicates=0)
    with pytest.raises(DomainError):
        _config(n_values=(10,), r_max=4)  # needs n >= 2 * 25


@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(replicates=0), "replicates"),
        (dict(base_seed=-1), "seed"),
        (dict(n_values=(400, 300, 400)), "distinct"),
        (dict(n_values=()), "graph size"),
    ],
)
def test_config_refuses_bad_run_arguments(kw, match):
    with pytest.raises(DomainError, match=match):
        _config(**kw)


def test_config_rejects_an_empty_candidate_grid():
    # r_max = 0 leaves no candidate unless R = 0 is admitted
    with pytest.raises(DomainError, match="r_max too small"):
        _config(r_max=0)
    assert _config(r_max=0, include_r0=True).adapt_config(400).r_max == 0


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_bad_kappa(kappa):
    with pytest.raises(DomainError, match="kappa"):
        _config(kappa=kappa)


def test_config_rejects_graph_larger_than_memory():
    # checked before any replicate allocates its n x n adjacency
    with pytest.raises(DomainError, match="n = 3000000 nodes needs .* GiB"):
        _config(n_values=(400, 3_000_000))


def test_constant_envelope_recovery():
    report = ngg.run_experiment(_config(n_values=(500,), replicates=5))
    recs = [r for r in report.records if "error" not in r]
    assert len(recs) == 5
    for rec in recs:
        stages = next(f["stages"] for f in rec["fits"] if f["r"] == 2)
        assert abs(stages[0] - 0.5) < 0.1


def test_report_deterministic():
    cfg = _config(replicates=2, n_values=(300,))
    a = ngg.run_experiment(cfg)
    b = ngg.run_experiment(cfg)
    assert json_dumps(a.to_json_dict()) == json_dumps(b.to_json_dict())


def test_replicates_run_in_the_calling_thread(monkeypatch):
    import ngg.harness

    threads = []

    def generate(*args, _generate=ngg.harness.generate_graph):
        threads.append(threading.get_ident())
        return _generate(*args)

    monkeypatch.setattr(ngg.harness, "generate_graph", generate)
    ngg.run_experiment(_config(n_values=(300, 200), replicates=3))
    ngg.concentration_check(ngg.builtin_envelope(4), ngg.sphere(3), (100, 200),
                            replicates=3, seed=9)
    assert threads == [threading.get_ident()] * 12


def test_pipelined_records_are_a_serial_fit_graph_loop():
    # stage 1 of one replicate overlaps the rest of the previous one; the
    # records are still those of fitting each graph in turn
    config = _config(n_values=(300, 150), replicates=3, r_max=2,
                     envelope=ngg.builtin_envelope(4))
    report = ngg.run_experiment(config)
    basis = ngg.harmonic_basis(config.space, TRUTH_DEGREE)
    assert [(r["n"], r["replicate"]) for r in report.records] == \
        [(n, rep) for n in (150, 300) for rep in range(3)]
    for rec in report.records:
        a = _graph(config.space, config.envelope, rec["n"], rec["seed"])
        _, estimates, result = ngg.fit_graph(a, basis, config.adapt_config(rec["n"]))
        assert rec["selected_r"] == result.selected_r
        assert rec["gl_rows"] == [[row.r, row.bias, row.penalty, row.objective]
                                  for row in result.rows]
        assert [f["r"] for f in rec["fits"]] == sorted(estimates)
        for fit in rec["fits"]:
            est = estimates[fit["r"]]
            assert fit["stages"] == [float(v) for v in est.stage_values]
            assert fit["ordering"] == list(est.ordering) and fit["score"] == est.score


@pytest.mark.parametrize("step", ["reduce_to_band", "fit_all_resolutions"])
def test_replicate_failing_in_stage_1_or_the_fit_is_recorded(monkeypatch, step):
    import ngg.harness

    config = _config(n_values=(200,), replicates=4, envelope=ngg.builtin_envelope(4))
    clean = ngg.run_experiment(config).records
    calls = []

    def second_call_fails(*args, _step=getattr(ngg.harness, step), **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ngg.SolverError("injected")
        return _step(*args, **kwargs)

    monkeypatch.setattr(ngg.harness, step, second_call_fails)
    records = ngg.run_experiment(config).records
    assert len(calls) == 4
    assert records[1] == {"n": 200, "replicate": 1, "seed": 101,
                          "error": "SolverError: injected"}
    assert [records[i] for i in (0, 2, 3)] == [clean[i] for i in (0, 2, 3)]


def _float_matrices_at_each_draw(monkeypatch, mapped, n, run):
    """``run()`` under ``tracemalloc``: its result, the number of float64
    ``n x n`` matrices alive when each ``generate_graph`` call returns (traced
    blocks of at least ``8 n^2`` bytes, plus the ``lazy_zeros`` maps of that
    size, which ``tracemalloc`` does not see), and the traced peak, which
    leaves out the snapshots' own allocations."""
    import ngg.harness

    counts, peaks = [], []

    def generate(*args, _generate=ngg.harness.generate_graph):
        a = _generate(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        snapshot = tracemalloc.take_snapshot()
        counts.append(sum(1 for trace in snapshot.traces if trace.size >= 8 * n * n)
                      + mapped(8 * n * n))
        del snapshot
        tracemalloc.reset_peak()
        return a

    monkeypatch.setattr(ngg.harness, "generate_graph", generate)
    tracemalloc.start()
    try:
        result = run()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return result, counts, max(peaks)


def test_run_experiment_holds_one_graph_matrix_at_a_time(monkeypatch, mapped):
    # graph k + 1 is drawn while the lane reduces graph k, as its edge keys:
    # when it is drawn, graph k's float64 matrix, mapped by lazy_zeros and
    # freed when its stage 1 returns, is the only one that may be alive, and
    # the traced peak (the keys and a generation block's temporaries) stays
    # below one float64 matrix
    n = 1000
    config = _config(n_values=(n,), replicates=3, envelope=ngg.builtin_envelope(5))
    report, counts, peak = _float_matrices_at_each_draw(
        monkeypatch, mapped, n, lambda: ngg.run_experiment(config))
    assert all("error" not in rec for rec in report.records)
    assert counts[0] == 0 and max(counts) <= 1, counts
    assert peak < 8 * n * n


def test_dump_holds_one_graph_matrix_at_a_time(monkeypatch, mapped, tmp_path):
    # the dump writes each graph's keys as it is drawn, with no n x n
    # temporary of its own
    n = 1000
    config = _config(n_values=(n,), replicates=3, envelope=ngg.builtin_envelope(5))

    def dump(n, rep, graph):
        write_edge_list(tmp_path / f"d{rep}.txt", graph, config.space)

    report, counts, peak = _float_matrices_at_each_draw(
        monkeypatch, mapped, n, lambda: ngg.run_experiment(config, dump=dump))
    assert all("error" not in rec for rec in report.records)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d0.txt", "d1.txt", "d2.txt"]
    assert counts[0] == 0 and max(counts) <= 1, counts
    assert peak < 8 * n * n


def test_dump_gets_each_drawn_graph_once_in_the_calling_thread():
    config = _config(n_values=(150, 100), replicates=2, envelope=ngg.builtin_envelope(4))
    dumped = []

    def dump(n, rep, graph):
        dumped.append((n, rep, threading.get_ident(), graph))

    report = ngg.run_experiment(config, dump=dump)
    assert [(n, rep) for n, rep, _, _ in dumped] == [(n, rep) for n in (100, 150)
                                                     for rep in range(2)]
    for (n, rep, thread, graph), rec in zip(dumped, report.records):
        assert thread == threading.get_ident()
        want = _graph(config.space, config.envelope, n, 100 + rep)
        assert graph.n == n and np.array_equal(graph.keys, want.keys)
        assert rec["edge_count"] == graph.keys.size


def test_dump_error_ends_the_run_and_is_no_record():
    def dump(n, rep, adjacency):
        if rep == 1:
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        ngg.run_experiment(_config(n_values=(100,), r_max=1), dump=dump)


def test_concentration_is_a_full_solve_of_each_replicate():
    # the bands reduced on the lane give the bits of whole solves of
    # (A - theta)/n and theta/n, with the graphs drawn apart from the loop (one
    # row block: the block cosines are theta's); the spectrum error is
    # delta2_runs of the n eigenvalues against the truth's runs, which agrees
    # with delta2 of the expansions within the rounding of the two sums
    space, envelope = ngg.sphere(3), ngg.builtin_envelope(4)
    table = ngg.concentration_check(envelope, space, (100, 200), replicates=2, seed=9)
    basis = ngg.harmonic_basis(space, TRUTH_DEGREE)
    coefficients = ngg.true_coefficients(basis, envelope)
    truth = np.repeat(coefficients, basis.dims[: coefficients.size])
    assert list(table.op_norm) == [(n, rep) for n in (100, 200) for rep in range(2)]
    for (n, rep), op in table.op_norm.items():
        theta = probability_rows(ngg.sample_latent(space, n, 9 + rep), envelope, 0, n)
        ends = eigenvalues((dense(_graph(space, envelope, n, 9 + rep)) - theta) / n).values
        assert op == max(abs(ends[0]), abs(ends[-1]))
        got = table.spectrum_error[(n, rep)]
        expect = delta2(eigenvalues(theta / n), truth)
        assert abs(got - expect) <= delta2_merge_bound(got, n + truth.size)


@pytest.mark.parametrize("failing", ["generate_graph", "sample_latent"])
def test_concentration_draws_no_graph_after_one_that_cannot_be_drawn(monkeypatch, failing):
    # the replicate whose graph cannot be drawn is settled, and its error
    # raised, before the next graph is drawn
    import ngg.harness

    calls = []

    def counted(*args, _step=getattr(ngg.harness, failing)):
        calls.append(None)
        return _step(*args)

    monkeypatch.setattr(ngg.harness, failing, counted)
    if failing == "generate_graph":
        # leaves [0, 1]: every draw fails
        envelope, error = ngg.constant_envelope(1.5), ngg.ModelError
    else:  # count the latent samples of draws that fail
        envelope, error = ngg.builtin_envelope(4), ZeroDivisionError
        monkeypatch.setattr(ngg.harness, "generate_graph", lambda *args: 1 / 0)
    with pytest.raises(error):
        ngg.concentration_check(envelope, ngg.sphere(3), (100, 200), 2, 0)
    assert len(calls) == 1


def test_failed_draw_is_settled_in_order_and_the_run_goes_on(monkeypatch):
    import ngg.harness

    config = _config(n_values=(150,), replicates=4, envelope=ngg.builtin_envelope(4))
    clean = ngg.run_experiment(config).records
    draws = []

    def second_draw_fails(*args, _generate=ngg.harness.generate_graph):
        draws.append(None)
        if len(draws) == 2:
            raise ngg.ModelError("injected")
        return _generate(*args)

    monkeypatch.setattr(ngg.harness, "generate_graph", second_draw_fails)
    records = ngg.run_experiment(config).records
    assert len(draws) == 4
    assert records[1] == {"n": 150, "replicate": 1, "seed": 101,
                          "error": "ModelError: injected"}
    assert [records[i] for i in (0, 2, 3)] == [clean[i] for i in (0, 2, 3)]


def test_concentration_holds_one_replicate_at_a_time(monkeypatch, mapped):
    # (A - theta)/n and then theta/n are written a block of rows of theta at a
    # time and reduced in place on the lane, each before the next is written,
    # and the next graph waits for both: when it is drawn, one of the previous
    # graph's mapped matrices, freed when its stage 1 returns, is the only one
    # that may be alive
    import ngg.harness

    n = 1000
    alive = []

    def generate(*args, _generate=ngg.harness.generate_graph):
        alive.append(mapped(8 * n * n))
        return _generate(*args)

    monkeypatch.setattr(ngg.harness, "generate_graph", generate)
    tracemalloc.start()
    try:
        ngg.concentration_check(ngg.builtin_envelope(5), ngg.sphere(3), (n,),
                                replicates=3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alive[0] == 0 and max(alive) <= 1, alive
    assert peak <= 2.0 * 8 * n * n  # a whole theta and its cosines took it to 2.8


def test_concentration_writes_its_triangles_without_a_graph_matrix(monkeypatch):
    # the lane's matrices step evaluates theta a block of rows at a time, where
    # it writes (A - theta)/n from the keys and theta/n onto maps tracemalloc
    # does not see: what it allocates is a block's cosines, clipped in place
    # (8 bytes each, _BLOCK rows of at most n columns), the envelope's
    # temporaries on one chunk of _BLOCK_COSINES values and the key scatter's
    # (a few int64 arrays of _SCATTER_KEYS).  A whole theta, 8 n^2 bytes,
    # exceeds that bound, and so does a clipped copy of the block's cosines
    import ngg.harness
    import ngg.model

    n, envelope, marks, peaks = 1500, ngg.builtin_envelope(5), [], []

    def matrices_step(*args, _reduce=ngg.harness._reduce):
        marks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return _reduce(*args)

    def reduced(triangle, _reduce=ngg.harness.reduce_to_band):
        if len(peaks) < len(marks):  # the first reduction after the matrices step
            peaks.append(tracemalloc.get_traced_memory()[1])
        return _reduce(triangle)

    monkeypatch.setattr(ngg.harness, "_reduce", matrices_step)
    monkeypatch.setattr(ngg.harness, "reduce_to_band", reduced)
    tracemalloc.start()
    try:  # one replicate: no draw runs beside the lane
        ngg.concentration_check(envelope, ngg.sphere(3), (n,), 1, 0)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ngg.model._checked_probabilities(envelope, np.linspace(-1.0, 1.0,
                                                               ngg.model._BLOCK_COSINES))
        chunk = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 8 * ngg.spectral._BLOCK * n + chunk + 8 * 8 * ngg.harness._SCATTER_KEYS
    assert len(peaks) == 1 and bound < 8 * n * n
    assert peaks[0] - marks[0] <= bound, (peaks[0] - marks[0], bound)


def test_report_embeds_config_and_build():
    report = ngg.run_experiment(_config(replicates=1))
    doc = report.to_json_dict()
    assert doc["schema"] == 1
    assert doc["config"]["base_seed"] == 100
    assert doc["config"]["envelope"] == "const:0.5"
    assert doc["build"].startswith("ngg-")
    for rec in doc["records"]:
        assert rec["seed"] == 100 + rec["replicate"]


def test_failing_replicate_recorded_not_raised():
    report = ngg.run_experiment(_config(envelope=ngg.constant_envelope(1.5), replicates=2))
    assert all("error" in rec for rec in report.records)
    assert "ModelError" in report.records[0]["error"]
    assert report.aggregates["per_n"]["400"]["replicates_ok"] == 0


def test_aggregates_recomputable():
    report = ngg.run_experiment(_config(replicates=4, envelope=ngg.builtin_envelope(4)))
    agg = report.aggregates["per_n"]["400"]
    d2sq = [r["delta2_selected_vs_truth"] ** 2 for r in report.records if "error" not in r]
    assert agg["mean_sq_delta2_selected"] == pytest.approx(float(np.mean(d2sq)))
    hist_total = sum(agg["selected_r_histogram"].values())
    assert hist_total == agg["replicates_ok"] == 4


def test_report_files(tmp_path):
    report = ngg.run_experiment(_config(replicates=2))
    jpath = tmp_path / "report.json"
    report.write(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["schema"] == 1
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv[0].startswith("n,replicate,seed,selected_r")
    assert "t_eig" in csv[0]
    assert len(csv) == 3  # header + 2 replicates


def test_report_path_ending_in_csv_is_refused(tmp_path):
    # the table goes to the report's path with the suffix .csv
    report = ngg.run_experiment(_config(n_values=(60,), replicates=1, r_max=1))
    with pytest.raises(DomainError, match="ends in .csv"):
        report.write(tmp_path / "report.csv")
    assert not list(tmp_path.iterdir())


def test_report_csv_timings_are_finite(tmp_path):
    report = ngg.run_experiment(_config(replicates=2))
    report.write(tmp_path / "report.json")
    header, *rows = (tmp_path / "report.csv").read_text().splitlines()
    assert header.split(",")[-5:] == ["t_sample", "t_generate", "t_eig", "t_fit", "t_adapt"]
    assert len(rows) == 2
    for row in rows:
        times = [float(v) for v in row.split(",")[-5:]]
        assert all(math.isfinite(t) and t >= 0 for t in times)


_CHAIN_SPACES = {
    "sphere3": ngg.sphere(3),
    "rp3": ngg.real_projective(3),
    "cp2": ngg.complex_projective(2),
}


@pytest.mark.parametrize("name", sorted(_CHAIN_SPACES))
@given(st.data())
def test_fit_graph_is_the_four_call_chain(name, data):
    space = _CHAIN_SPACES[name]
    basis = ngg.harmonic_basis(space, 4)
    n = data.draw(st.integers(30, 300), label="n")
    top = max(r for r in range(1, 5) if basis.cum_dims[r] <= n)
    config = ngg.AdaptConfig(n=n, r_max=data.draw(st.integers(1, top), label="r_max"),
                             include_r0=data.draw(st.booleans(), label="include_r0"))
    envelope = ngg.builtin_envelope(data.draw(st.integers(1, 6), label="envelope"))
    a = _graph(space, envelope, n, data.draw(st.integers(0, 2**31), label="seed"))

    # stage 1, stage 2 (the whole dsterf spectrum), the fits, the selection
    spectrum = eigenvalues(dense(a) / n)
    fits = ngg.fit_all_resolutions(spectrum, basis, config)
    result = ngg.select_resolution(fits, config, basis)
    got_spectrum, got_fits, got_result = ngg.fit_graph(a, basis, config)

    assert np.array_equal(got_spectrum.values, spectrum.values)
    assert got_fits.keys() == fits.keys()
    for r, fit in fits.items():
        assert np.array_equal(got_fits[r].stage_values, fit.stage_values)
        assert got_fits[r].ordering == fit.ordering
        assert got_fits[r].score == fit.score
    assert got_result.rows == result.rows
    assert got_result.selected_r == result.selected_r


@pytest.mark.parametrize("name", sorted(_CHAIN_SPACES))
def test_fit_graph_without_lapack_selects_as_with_it(monkeypatch, name):
    # where the LAPACK gate does not resolve, the whole solve is eigvalsh's:
    # the same selection and orderings, stages at round-off
    space = _CHAIN_SPACES[name]
    basis, config = ngg.harmonic_basis(space, 3), ngg.AdaptConfig(n=300, r_max=3)
    for envelope in range(1, 7):
        a = _graph(space, ngg.builtin_envelope(envelope), 300, envelope)
        _, fits, result = ngg.fit_graph(a, basis, config)
        with monkeypatch.context() as patch:
            patch.setattr(ngg.spectral, "_lapack", lambda: None)
            assert ngg.spectral.reduce_to_band(triangle(dense(a) / 300)).ab is None
            _, got_fits, got_result = ngg.fit_graph(a, basis, config)
        assert got_result.selected_r == result.selected_r
        assert got_fits.keys() == fits.keys()
        for r, fit in fits.items():
            assert got_fits[r].ordering == fit.ordering
            assert np.max(np.abs(got_fits[r].stage_values - fit.stage_values)) <= 1e-12


def test_fit_graph_leaves_its_input_alone():
    # the graph's keys keep their bits: A / n is written into a triangle of
    # its own, and gives the fit of the Triangle of A / n written by hand
    graph = _graph(ngg.sphere(3), ngg.builtin_envelope(4), 200, 3)
    before = graph.keys.copy()
    basis, config = ngg.harmonic_basis(ngg.sphere(3), 2), ngg.AdaptConfig(n=200, r_max=2)
    fits = {}
    _, fits["keys"], _ = ngg.fit_graph(graph, basis, config)
    assert graph.keys.tobytes() == before.tobytes()
    upper = lazy_zeros(200)
    upper[...] = np.triu(dense(graph) / 200)
    _, fits["triangle"], _ = ngg.fit_graph(Triangle(upper, 1 / 200), basis, config)
    stages = [[f.stage_values.tobytes() for f in by_r.values()] for by_r in fits.values()]
    assert stages[0] == stages[1]


@pytest.mark.parametrize("given", [np.eye(30, dtype=bool), np.eye(30).tolist(), Band(None)],
                         ids=["ndarray", "list", "band"])
def test_fit_graph_refuses_anything_but_a_graph_or_its_triangle(given):
    basis, config = ngg.harmonic_basis(ngg.sphere(3), 1), ngg.AdaptConfig(n=30, r_max=1)
    with pytest.raises(DomainError, match="takes an EdgeListData or the Triangle"):
        ngg.fit_graph(given, basis, config)


def test_fit_graph_of_an_edge_list_triangle_is_the_matrix_fit(tmp_path):
    # estimate's path: A / n written as the keys' triangle alone
    graph = _graph(ngg.sphere(3), ngg.builtin_envelope(5), 300, 4)
    write_edge_list(tmp_path / "g.txt", graph, ngg.sphere(3))
    basis, config = ngg.harmonic_basis(ngg.sphere(3), 3), ngg.AdaptConfig(n=300, r_max=3)
    spectrum, fits, result = ngg.fit_graph(triangle(dense(graph) / 300), basis, config)
    read = ngg.edgelist.read_edge_list(tmp_path / "g.txt").triangle()
    got_spectrum, got_fits, got_result = ngg.fit_graph(read, basis, config)
    assert got_spectrum.values.tobytes() == spectrum.values.tobytes()
    assert [f.stage_values.tobytes() for f in got_fits.values()] == \
        [f.stage_values.tobytes() for f in fits.values()]
    assert got_result.rows == result.rows


def test_record_edge_count_is_the_graphs():
    # the size of the keys as drawn, which the replicate loop keeps apart
    # from the triangle of A / n that stage 1 destroys: half the nonzero
    # entries of the graph's matrix
    config = _config(n_values=(150, 200), replicates=2, envelope=ngg.builtin_envelope(4))
    report = ngg.run_experiment(config)
    assert len(report.records) == 4
    for rec in report.records:
        graph = _graph(config.space, config.envelope, rec["n"], rec["seed"])
        assert rec["edge_count"] == graph.keys.size == np.count_nonzero(dense(graph)) // 2 > 0


def test_rate_slope_reported():
    report = ngg.run_experiment(
        _config(n_values=(200, 400), replicates=3, envelope=ngg.builtin_envelope(4))
    )
    assert "rate" in report.aggregates
    assert report.aggregates["rate"]["log_slope_mean_sq_delta2_selected"] < 0


@pytest.mark.parametrize(
    "space", [ngg.real_projective(3), ngg.complex_projective(2)], ids=["rp3", "cp2"]
)
def test_projective_spaces_run_end_to_end(space):
    cfg = ngg.ExperimentConfig(
        space=space,
        envelope=ngg.builtin_envelope(1),
        n_values=(300,),
        replicates=2,
        r_max=2,
        base_seed=1,
    )
    report = ngg.run_experiment(cfg)
    ok = [r for r in report.records if "error" not in r]
    assert len(ok) == 2
    assert all(1 <= r["selected_r"] <= 2 for r in ok)


def test_rate_skipped_when_an_error_is_zero():
    from ngg.harness import _aggregate

    config = _config(n_values=(100, 200), r_max=2)
    records = [
        {"n": n, "replicate": 0, "selected_r": 1, "delta2_selected_vs_truth": err,
         "fits": [{"r": r, "delta2_vs_truth_r": err, "stages": [0.0] * (r + 1)}
                  for r in (1, 2)]}
        for n, err in ((100, 0.0), (200, 0.0))
    ]
    agg = _aggregate(config, ngg.harmonic_basis(config.space, 2), np.zeros(3), records)
    assert "rate" not in agg
    json_dumps(agg)  # every value is finite


def test_true_coefficients_truncates(basis3):
    big = ngg.harmonic_basis(ngg.sphere(3), 64)
    coeffs = ngg.true_coefficients(big, ngg.builtin_envelope(5))
    assert coeffs.size <= 17  # stops well before 64 for a quartic
    assert coeffs[0] == pytest.approx(1 / 3, abs=1e-10)
    assert coeffs[4] == pytest.approx(2 / 27, abs=1e-10)


@pytest.mark.parametrize("space", [ngg.sphere(3), ngg.real_projective(3),
                                   ngg.complex_projective(2)], ids=["sphere3", "rp3", "cp2"])
@pytest.mark.parametrize("pairs, size", [([(0, 0.4), (2, 0.1)], 17), ([(0, 0.4), (10, 0.05)], 25),
                                         (None, 17)], ids=["degree2", "degree10", "constant"])
def test_true_coefficients_of_a_defined_envelope_are_its_own(space, pairs, size):
    # a constant or coefficient-file envelope is defined by its expansion:
    # the truth is those values exactly, 0.0 at every other degree, as far
    # as the chunked cut reaches (the first chunk of 8 degrees past the top
    # one); the quadrature, the truth of every other envelope, agrees
    big = ngg.harmonic_basis(space, TRUTH_DEGREE)
    if pairs is None:
        envelope, pairs = ngg.constant_envelope(0.3), [(0, 0.3)]
    else:
        envelope = ngg.envelope_from_coefficients(big, pairs)
    coeffs = ngg.true_coefficients(big, envelope)
    want = np.zeros(size)
    for ell, v in pairs:
        want[ell] = v
    assert coeffs.tobytes() == want.tobytes()
    quadrature = ngg.spaces.envelope_coefficients(big, envelope, size - 1)
    assert np.max(np.abs(quadrature - coeffs)) <= 1e-12


class _LoopStarted(Exception):
    pass


@pytest.mark.parametrize("driver", ["run_experiment", "concentration_check"])
def test_drivers_walk_their_tasks_lazily(monkeypatch, driver):
    # both drivers hand the loop a lazy walk of (n, rep): when the loop
    # starts, a run of 10^8 replicates (13 GB as a list of tuples) holds no
    # more traced memory than one of 10^6, which a list would fail at 134 MB
    # first; the order is sorted n for run_experiment, the given one for the
    # check
    import ngg.harness

    def loop(space, envelope, seed, tasks, matrices, dump=None):
        seen.append((tracemalloc.get_traced_memory()[0], list(itertools.islice(tasks, 2))))
        raise _LoopStarted

    monkeypatch.setattr(ngg.harness, "_replicates", loop)
    for replicates in (10**6, 10**8):
        seen = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(_LoopStarted):
                if driver == "run_experiment":
                    ngg.run_experiment(_config(n_values=(300, 200), replicates=replicates))
                else:
                    ngg.concentration_check(ngg.builtin_envelope(4), ngg.sphere(3),
                                            (300, 200), replicates, 0)
        finally:
            tracemalloc.stop()
        (held, first), = seen
        n = 200 if driver == "run_experiment" else 300
        assert first == [(n, 0), (n, 1)]
        assert held - before < 8 * 2**20, held - before


def test_concentration_compares_with_a_reference_spectrum_larger_than_memory():
    # the truth of p2 on sphere:10 keeps 65 degrees, 182195026585 values once
    # repeated by their multiplicities: 5.3 TiB at 32 bytes a value, which the
    # check used to refuse.  It compares the n eigenvalues of theta/n, each
    # counted once, with the truth's runs, and every distance's square lies
    # within gamma(7) of the exact one: the rounded difference, its square,
    # the count times it, the sum, and the square root rounded and squared
    space, envelope = ngg.sphere(10), ngg.builtin_envelope(2)
    basis = ngg.harmonic_basis(space, TRUTH_DEGREE)
    truth = ngg.true_coefficients(basis, envelope)
    dims = basis.dims[: truth.size]
    assert sum(dims) == 182195026585
    n = 100
    table = ngg.concentration_check(envelope, space, (n,), 2, 0)
    for rep in range(2):
        theta = probability_rows(ngg.sample_latent(space, n, rep), envelope, 0, n)
        values = eigenvalues(theta / n).values  # one row block: the same bits
        got = table.spectrum_error[(n, rep)]
        want = exact_squared_distance((values, [1] * n), (truth, dims))
        assert math.isfinite(got)
        assert abs(Fraction(got) ** 2 - want) <= gamma(7) * want


def test_run_experiment_compares_with_a_reference_spectrum_larger_than_memory():
    # the same truth as above, 182195026585 values once expanded: each fit is
    # compared with its 65 coefficients as runs, and every distance's square
    # lies within gamma(7) of the exact one (the merge's six roundings)
    space, envelope = ngg.sphere(10), ngg.builtin_envelope(2)
    report = ngg.run_experiment(ngg.ExperimentConfig(space=space, envelope=envelope,
                                                     n_values=(100,), replicates=2, r_max=1))
    truth, dims = report.truth["coefficients"], report.truth["dims"]
    assert sum(dims) == 182195026585
    assert [rec.get("error") for rec in report.records] == [None, None]
    for rec in report.records:
        for fit in rec["fits"]:
            stages = (fit["stages"], dims)
            for key, other in (("delta2_vs_truth_r", (truth[: fit["r"] + 1], dims)),
                               ("delta2_vs_truth", (truth, dims))):
                want = exact_squared_distance(stages, other)
                assert math.isfinite(fit[key])
                assert abs(Fraction(fit[key]) ** 2 - want) <= gamma(7) * want, key
    assert math.isfinite(report.aggregates["per_n"]["100"]["mean_sq_delta2_selected"])


def test_reference_spectrum_is_never_expanded_by_run_experiment():
    # each fit is compared with the truth as their runs: the harness holds no
    # expansion and no delta2, the estimator expands no model spectrum, and
    # the distances agree with delta2 of the expansions within the rounding of
    # the two sums
    import ngg.harness

    config = _config(n_values=(200, 150), replicates=3, envelope=ngg.builtin_envelope(2))

    for owner in (ngg, ngg.harness, ngg.estimator, ngg.spectral):
        for name in ("spectrum_vector", "estimate_vector", "delta2"):
            assert not hasattr(owner, name), (owner, name)
    assert not hasattr(ngg.harness, "as_spectrum")
    report = ngg.run_experiment(config)
    truth, dims = report.truth["coefficients"], report.truth["dims"]
    assert len(truth) > config.r_max + 1

    def expand(values):
        return np.repeat(values, dims[: len(values)])

    full = expand(truth)
    for rec in report.records:
        assert "error" not in rec
        for fit in rec["fits"]:
            vec = expand(fit["stages"])
            for key, other in (("delta2_vs_truth_r", expand(truth[: fit["r"] + 1])),
                               ("delta2_vs_truth", full)):
                gap = delta2_merge_bound(fit[key], vec.size + other.size)
                assert abs(fit[key] - delta2(vec, other)) <= gap, key


def test_concentration_zero_envelope():
    table = ngg.concentration_check(
        ngg.constant_envelope(0.0), ngg.sphere(3), (50, 100), replicates=2, seed=3
    )
    for row in table.rows:
        assert row["mean_op_norm_error"] == 0.0
        assert row["mean_delta2_theta_spectrum"] == 0.0


def test_concentration_rows_and_pairing():
    table = ngg.concentration_check(
        ngg.builtin_envelope(4), ngg.sphere(3), (100, 200), replicates=3, seed=9
    )
    assert {row["n"] for row in table.rows} == {100, 200}
    assert set(table.op_norm) == {(n, r) for n in (100, 200) for r in range(3)}
    assert all(v > 0 for v in table.op_norm.values())
    assert "mean_op_norm_error" in table.slopes


@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(replicates=0), "replicates"),
        (dict(seed=-1), "seed"),
        (dict(n_values=(100, 100)), "distinct"),
        (dict(n_values=[]), "graph size"),
    ],
)
def test_concentration_refuses_bad_run_arguments(kw, match):
    args = dict(n_values=(100, 200), replicates=2, seed=0)
    args.update(kw)
    with pytest.raises(DomainError, match=match):
        ngg.concentration_check(ngg.builtin_envelope(4), ngg.sphere(3), **args)


def _run_driver(driver, n_values, replicates, seed):
    if driver == "run_experiment":
        config = _config(n_values=n_values, replicates=replicates, base_seed=seed)
        return json_dumps(ngg.run_experiment(config).to_json_dict()["records"])
    table = ngg.concentration_check(ngg.builtin_envelope(4), ngg.sphere(3), n_values,
                                    replicates, seed)
    return json_dumps(table.to_json_dict())


@pytest.mark.parametrize("driver", ["run_experiment", "concentration_check"])
@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(n_values=(100.7,)), r"graph size must be an integer, got 100\.7"),
        (dict(n_values=(100, 200.0)), r"graph size must be an integer, got 200\.0"),
        (dict(n_values=(True, 100)), "graph size must be an integer, got True"),
        (dict(n_values=100), "graph sizes must be a sequence, got int"),
        (dict(n_values={100, 200}), "graph sizes must be a sequence, got set"),
        (dict(replicates=1.5), r"replicates must be an integer, got 1\.5"),
        (dict(replicates=True), "replicates must be an integer, got True"),
        (dict(seed=1.5), r"seed must be an integer, got 1\.5"),
        (dict(seed=False), "seed must be an integer, got False"),
    ],
)
def test_drivers_refuse_run_arguments_of_the_wrong_type(monkeypatch, driver, kw, match):
    # refused with DomainError before any draw, by the check both drivers
    # share: a float size is not truncated, and no raw TypeError escapes
    import ngg.harness

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(ngg.harness, "sample_latent", unreachable)
    args = dict(n_values=(100, 200), replicates=2, seed=0)
    args.update(kw)
    with pytest.raises(DomainError, match=match):
        _run_driver(driver, **args)


@pytest.mark.parametrize("driver", ["run_experiment", "concentration_check"])
def test_drivers_take_numpy_integer_run_arguments(driver):
    assert _run_driver(driver, (np.int64(100),), np.int32(1), np.uint8(3)) == \
        _run_driver(driver, (100,), 1, 3)


def test_concentration_independent_of_thread_count():
    # callers that run checks from threads of their own take turns in the
    # eigensolver, so they get the serial results bit for bit
    def table(_=None):
        t = ngg.concentration_check(
            ngg.builtin_envelope(4), ngg.sphere(3), (100, 200), replicates=3, seed=9
        )
        return json_dumps(t.to_json_dict()), t.op_norm, t.spectrum_error

    serial = table()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(table, range(2))) == [serial, serial]


def test_concentration_independent_of_blas_thread_count():
    # theta's cosines are BLAS products written on the lane under stage 1's
    # rule: a graph of at most ONE_THREAD_MAX_N nodes gives the same table on
    # any OpenBLAS thread count (the operator norm at n = 1100 moved in its
    # last bits while the cosines ran on the default pool)
    def table(count):
        with ngg.spectral._blas_threads(count):
            t = ngg.concentration_check(ngg.builtin_envelope(5), ngg.sphere(3), (1100,),
                                        replicates=1, seed=1)
        return json_dumps(t.to_json_dict())

    assert table(1) == table(2)


def test_concentration_refuses_a_graph_larger_than_memory_before_any_draw(monkeypatch):
    import ngg.harness

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(ngg.harness, "sample_latent", unreachable)
    with pytest.raises(DomainError, match=r"graph size: n = 10000000 nodes needs .* GiB"):
        ngg.concentration_check(ngg.builtin_envelope(5), ngg.sphere(3), (100, 10**7), 1, 0)


@pytest.mark.parametrize("space", [ngg.real_projective(3), ngg.complex_projective(2)],
                         ids=lambda s: f"{s.kind.value}:{s.dim}")
def test_theta_spectrum_concentrates_on_projective_spaces(space):
    # the spectrum of theta/n nears the reference expansion at about n^(-1/2)
    # only when the multiplicities d_ell are right: with a wrong d_ell the
    # truth vector holds the wrong number of copies of each eigenvalue, and the
    # error stalls (slope about -0.1 on rp:3)
    table = ngg.concentration_check(ngg.builtin_envelope(1), space, (200, 400, 800),
                                    replicates=2, seed=0)
    assert table.slopes["mean_delta2_theta_spectrum"] < -0.3


# --- scripts/risk_curve.py: a view of run_experiment's risk_fixed aggregate ------


def _risk_curve(config):
    path = Path(__file__).resolve().parent.parent / "scripts" / "risk_curve.py"
    spec = importlib.util.spec_from_file_location("risk_curve", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.risk_curve(config)


@pytest.mark.parametrize("include_r0", [False, True])
def test_risk_curve_is_run_experiment_risk_fixed(include_r0):
    cfg = _config(envelope=ngg.builtin_envelope(4), n_values=(300, 200), replicates=2,
                  r_max=3, include_r0=include_r0)
    per_n = ngg.run_experiment(cfg).aggregates["per_n"]
    expected = [{"n": n, "r": int(r), "mean_sq_delta2": risk}
                for n in (300, 200) for r, risk in per_n[str(n)]["risk_fixed"].items()]
    assert _risk_curve(cfg) == expected
    assert {row["r"] for row in expected} == set(range(0 if include_r0 else 1, 4))


def test_risk_curve_raises_on_failing_replicate():
    with pytest.raises(NggError, match="replicate 0 at n = 400 failed: ModelError"):
        _risk_curve(_config(envelope=ngg.constant_envelope(1.5), replicates=2))


def test_risk_curve_shapes():
    rows = _risk_curve(_config(envelope=ngg.constant_envelope(0.0), replicates=2, r_max=3))
    assert all(row["mean_sq_delta2"] == 0.0 for row in rows)
    assert [row["r"] for row in rows] == [1, 2, 3]


def test_risk_curve_bias_variance():
    # degree-2 envelope: risk collapses once the resolution reaches 2
    basis = ngg.harmonic_basis(ngg.sphere(3), 8)
    env = ngg.envelope_from_coefficients(basis, [(0, 0.4), (2, 0.08)], name="deg2")
    rows = _risk_curve(
        _config(envelope=env, n_values=(500,), replicates=3, r_max=3, base_seed=5)
    )
    risk = {row["r"]: row["mean_sq_delta2"] for row in rows}
    assert risk[2] < risk[1] / 2
    assert risk[3] < risk[1]
    # constant envelope: pure variance, risk grows with resolution
    rows_const = _risk_curve(
        _config(envelope=ngg.constant_envelope(0.4), n_values=(500,), replicates=3, r_max=3)
    )
    risk_const = {row["r"]: row["mean_sq_delta2"] for row in rows_const}
    assert risk_const[1] <= risk_const[3]
