import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from conftest import UNIT_ROUNDOFF, delta2_merge_bound
from ngg.adapt import penalty, resolution_grid
from ngg.errors import DomainError
from ngg.estimator import ZERO_BLOCK
from oracles import delta2, fit_one

_BASES = {
    name: ngg.harmonic_basis(space, 6)
    for name, space in [
        ("sphere:3", ngg.sphere(3)),
        ("sphere:4", ngg.sphere(4)),
        ("rp:3", ngg.real_projective(3)),
        ("cp:2", ngg.complex_projective(2)),
    ]
}


def _estimate(r, stages):
    stages = np.asarray(stages, float)
    return ngg.SpectrumEstimate(
        r=r,
        stage_values=stages,
        ordering=tuple(range(r + 1)) + (ZERO_BLOCK,),
        score=0.0,
    )


def _estimates_from_stages(stage_map):
    return {r: _estimate(r, stages) for r, stages in stage_map.items()}


def _biases(estimates, config, basis):
    """The bias proxy of each resolution, as ``select_resolution`` reports it."""
    return {row.r: row.bias for row in ngg.select_resolution(estimates, config, basis).rows}


def _bias_proxy_oracle(estimates, r, config, basis):
    """Every expansion rebuilt and every term's distance computed by
    ``delta2`` on the expansions, once per r: the bias proxy, and how far
    ``select_resolution``'s may lie from it.  A term's distance is within
    ``delta2_merge_bound`` of the run merge's, and its subtraction of the
    penalty rounds on either side; a max moves no more than its terms."""
    grid = list(resolution_grid(config))
    vecs = {rr: np.repeat(est.stage_values, basis.dims[: rr + 1])
            for rr, est in estimates.items()}
    bias, tol = -math.inf, 0.0
    for rp in grid:
        x, y, pen = vecs[rp], vecs[min(rp, r)], penalty(config, basis, rp)
        d = delta2(x, y)
        gap = delta2_merge_bound(d, x.size + y.size)
        bias = max(bias, d - pen)
        tol = max(tol, gap + UNIT_ROUNDOFF * (2 * (d + pen) + gap))
    return bias, tol


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_kappa(kappa):
    with pytest.raises(DomainError, match="kappa"):
        ngg.AdaptConfig(n=100, kappa=kappa)


def test_config_validation():
    with pytest.raises(DomainError):
        ngg.AdaptConfig(n=100, kappa=0.0)
    with pytest.raises(DomainError):
        ngg.AdaptConfig(n=0)
    with pytest.raises(DomainError):
        ngg.AdaptConfig(n=100, r_max=0)
    assert list(resolution_grid(ngg.AdaptConfig(n=100, r_max=3))) == [1, 2, 3]
    assert list(resolution_grid(ngg.AdaptConfig(n=100, r_max=2, include_r0=True))) == [0, 1, 2]


def test_penalty_formula(basis3):
    cfg = ngg.AdaptConfig(n=400, r_max=4, kappa=0.25)
    assert penalty(cfg, basis3, 2) == pytest.approx(0.25 * math.sqrt(9 * math.log(400) / 400))


def test_bias_proxy_singleton(basis3):
    cfg = ngg.AdaptConfig(n=100, r_max=1)
    ests = _estimates_from_stages({1: [0.5, 0.1]})
    res = ngg.select_resolution(ests, cfg, basis3)
    assert res.rows[0].bias == pytest.approx(-penalty(cfg, basis3, 1))
    assert res.rows[0].bias == _bias_proxy_oracle(ests, 1, cfg, basis3)[0]  # no distance
    assert res.selected_r == 1


def test_bias_proxy_at_r_max_sees_only_penalties(basis3):
    cfg = ngg.AdaptConfig(n=200, r_max=3)
    ests = _estimates_from_stages(
        {1: [0.5, 0.2], 2: [0.5, 0.2, 0.1], 3: [0.5, 0.2, 0.1, 0.05]}
    )
    expected = max(-penalty(cfg, basis3, r) for r in (1, 2, 3))
    assert _biases(ests, cfg, basis3)[3] == pytest.approx(expected)
    assert _bias_proxy_oracle(ests, 3, cfg, basis3)[0] == pytest.approx(expected)
    assert expected == pytest.approx(-penalty(cfg, basis3, 1))


def test_bias_proxy_two_resolution_toy(basis3):
    # hand-evaluated distance between (a) and (a, b, b, b)
    a, b, n = 0.6, 0.2, 50
    cfg = ngg.AdaptConfig(n=n, r_max=1, include_r0=True)
    ests = _estimates_from_stages({0: [a], 1: [a, b]})
    d01 = b * math.sqrt(3)  # the three b entries match zeros
    expect_b0 = max(-penalty(cfg, basis3, 0), d01 - penalty(cfg, basis3, 1))
    biases = _biases(ests, cfg, basis3)
    assert biases[0] == pytest.approx(expect_b0)
    assert biases[1] == pytest.approx(-penalty(cfg, basis3, 0))
    for r in (0, 1):
        assert _bias_proxy_oracle(ests, r, cfg, basis3)[0] == pytest.approx(biases[r])


def test_bias_proxy_missing_estimate(basis3):
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    with pytest.raises(DomainError, match="missing estimate for resolution 2"):
        ngg.select_resolution(_estimates_from_stages({1: [0.5, 0.1]}), cfg, basis3)


def test_select_resolution_tie_goes_to_smallest(basis3):
    # identical stage expansions give constant bias, so the penalty decides
    cfg = ngg.AdaptConfig(n=100, r_max=3)
    ests = _estimates_from_stages(
        {1: [0.0, 0.0], 2: [0.0, 0.0, 0.0], 3: [0.0, 0.0, 0.0, 0.0]}
    )
    res = ngg.select_resolution(ests, cfg, basis3)
    assert res.selected_r == 1
    assert [row.r for row in res.rows] == [1, 2, 3]
    for row in res.rows:
        assert row.objective == pytest.approx(row.bias + row.penalty)


def test_select_resolution_order_invariant(basis3):
    cfg = ngg.AdaptConfig(n=120, r_max=3)
    stage_map = {1: [0.5, 0.2], 2: [0.5, 0.2, 0.15], 3: [0.5, 0.2, 0.15, 0.02]}
    forward = ngg.select_resolution(_estimates_from_stages(stage_map), cfg, basis3)
    reversed_map = dict(reversed(list(_estimates_from_stages(stage_map).items())))
    backward = ngg.select_resolution(reversed_map, cfg, basis3)
    assert forward.selected_r == backward.selected_r
    assert [r.objective for r in forward.rows] == [r.objective for r in backward.rows]


@given(st.integers(0, 2**32 - 1))
def test_bias_proxy_largest_resolution_is_minimal(basis3, seed):
    rng = np.random.default_rng(seed)
    cfg = ngg.AdaptConfig(n=150, r_max=4)
    ests = {r: _estimate(r, rng.normal(0, 0.3, r + 1)) for r in range(1, 5)}
    biases = _biases(ests, cfg, basis3)
    for r in range(1, 5):
        assert biases[4] <= biases[r] + 1e-12
        want, tol = _bias_proxy_oracle(ests, r, cfg, basis3)
        assert abs(biases[r] - want) <= tol


# --- one-pass selection against the per-resolution loop --------------------------


def _selection_oracle(estimates, config, basis):
    """The selection and its rows ``(r, bias, penalty, objective, tol)``
    from the per-resolution loop; ``tol`` bounds how far the one-pass bias
    may lie from the row's, and the objective adds one rounding each side."""
    rows = []
    for r in resolution_grid(config):
        b, tol = _bias_proxy_oracle(estimates, r, config, basis)
        pen = penalty(config, basis, r)
        rows.append((r, b, pen, b + pen, tol))
    return min(rows, key=lambda row: (row[3], row[0]))[0], rows


@settings(max_examples=80)
@given(
    space=st.sampled_from(sorted(_BASES)),
    r_max=st.integers(1, 6),
    include_r0=st.booleans(),
    kappa=st.sampled_from([0.01, 0.1, 0.25, 1.0, 4.0]),
    rounded=st.booleans(),
    extra=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_resolution_matches_per_resolution_loop(
    space, r_max, include_r0, kappa, rounded, extra, seed
):
    basis = _BASES[space]
    rng = np.random.default_rng(seed)
    n = basis.cum_dims[r_max] + extra
    v = rng.normal(0.0, 0.05, n)
    stages = rng.normal(0.0, 0.3, r_max + 1)
    v[: basis.cum_dims[r_max]] += np.repeat(stages, basis.dims[: r_max + 1])
    if rounded:  # ties between runs, and fits that share stage values
        v = np.round(v, 1)
    cfg = ngg.AdaptConfig(n=n, r_max=r_max, kappa=kappa, include_r0=include_r0)
    fits = ngg.fit_all_resolutions(v, basis, cfg)
    res = ngg.select_resolution(fits, cfg, basis)
    selected, rows = _selection_oracle(fits, cfg, basis)
    assert [(x.r, x.penalty) for x in res.rows] == [(r, pen) for r, _, pen, _, _ in rows]
    for x, (_, b, pen, objective, tol) in zip(res.rows, rows):
        assert abs(x.bias - b) <= tol
        assert x.objective == x.bias + x.penalty
        assert abs(x.objective - objective) <= tol + 2 * UNIT_ROUNDOFF * (abs(b) + pen + tol)
    assert res.selected_r == selected


@pytest.mark.parametrize("r_max, include_r0", [(1, False), (1, True), (4, True), (6, False)])
def test_select_resolution_expands_nothing_and_merges_each_pair_once(
    monkeypatch, r_max, include_r0
):
    # each fit becomes its runs once, in grid order, and each pair r < r' is
    # merged once; no model spectrum is expanded and delta2 never runs
    basis = _BASES["sphere:3"]

    # the library has no expansion of a staircase and no elementwise distance
    for owner in (ngg, ngg.adapt, ngg.estimator, ngg.spectral):
        for name in ("estimate_vector", "spectrum_vector", "delta2"):
            assert not hasattr(owner, name), (owner, name)
    built, merged = [], []

    def runs(*args, _signed_runs=ngg.adapt.signed_runs):
        built.append(_signed_runs(*args))
        return built[-1]

    def merge(x, y, _merge=ngg.adapt.delta2_runs):
        merged.append(tuple(next(k for k, b in enumerate(built) if b is a) for a in (x, y)))
        return _merge(x, y)

    monkeypatch.setattr(ngg.adapt, "signed_runs", runs)
    monkeypatch.setattr(ngg.adapt, "delta2_runs", merge)
    rng = np.random.default_rng(r_max)
    cfg = ngg.AdaptConfig(n=200, r_max=r_max, include_r0=include_r0)
    ests = {r: _estimate(r, rng.normal(0, 0.3, r + 1)) for r in resolution_grid(cfg)}
    ngg.select_resolution(ests, cfg, basis)
    g = len(resolution_grid(cfg))
    assert len(built) == g
    assert sorted(merged) == [(rp, r) for rp in range(g) for r in range(rp)]


def test_bias_proxy_resolution_off_the_grid(basis3):
    # a proxy is computed for every resolution on the candidate grid and for
    # none off it, whatever else the estimates hold
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    ests = _estimates_from_stages(
        {0: [0.5], 1: [0.5, 0.1], 2: [0.5, 0.1, 0.0], 3: [0.5, 0.1, 0.0, 0.2]}
    )
    assert list(_biases(ests, cfg, basis3)) == [1, 2]
    narrowed = {r: ests[r] for r in (1, 2)}
    assert _biases(ests, cfg, basis3) == _biases(narrowed, cfg, basis3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_selection_refuses_non_finite_stage_values(basis3, bad):
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    ests = _estimates_from_stages({1: [0.5, 0.1], 2: [0.5, bad, 0.0]})
    with pytest.raises(DomainError, match="resolution 2 has a non-finite"):
        ngg.select_resolution(ests, cfg, basis3)


# --- envelope reconstruction -----------------------------------------------------


def test_reconstruct_constant(basis3):
    env = ngg.reconstruct_envelope(_estimate(2, [0.4, 0.0, 0.0]), basis3)
    t = np.linspace(-1, 1, 9)
    assert np.allclose(env(t), 0.4, atol=1e-14)


def test_reconstruct_quartic_exactly(basis3):
    stages = [1 / 3, 0.0, 0.0, 0.0, 2 / 27]
    env = ngg.reconstruct_envelope(_estimate(4, stages), basis3)
    t = np.linspace(-1, 1, 1001)
    target = ngg.builtin_envelope(5)(t)
    assert np.max(np.abs(env(t) - target)) < 1e-10
    # the unclamped expansion: p5 stays in [0, 1], so no clamp was needed
    assert np.max(np.abs(basis3.reconstruct(stages, t) - target)) < 1e-10


def test_reconstruct_clamps(basis3):
    env = ngg.reconstruct_envelope(_estimate(1, [2.0, 0.0]), basis3)
    t = np.linspace(-1, 1, 11)
    assert np.allclose(env(t), 1.0)
    below = ngg.reconstruct_envelope(_estimate(1, [-1.0, 0.0]), basis3)
    assert np.allclose(below(t), 0.0)


def test_fit_all_resolutions_refuses_a_spectrum_of_another_size(basis3):
    values = np.random.default_rng(4).normal(size=1000) / 10
    with pytest.raises(DomainError, match="1000 values, config.n = 50"):
        ngg.fit_all_resolutions(values, basis3, ngg.AdaptConfig(n=50, r_max=4))
    fits = ngg.fit_all_resolutions(values, basis3, ngg.AdaptConfig(n=1000, r_max=4))
    for r, est in fits.items():  # each fit is over all 1000 values
        assert est.score == fit_one(values, basis3, r).score


def test_fit_all_resolutions_requires_room(basis3):
    cfg = ngg.AdaptConfig(n=10, r_max=4)
    with pytest.raises(DomainError):
        ngg.fit_all_resolutions(np.zeros(10), basis3, cfg)


@pytest.mark.parametrize(
    "degree, size, n, match",
    [
        (2, 100, 100, "r_max = 4 exceeds basis max_degree 2"),
        (16, 10, 10, "n = 10 is below the model dimension 25 at r_max = 4"),
        (16, 1000, 50, "1000 values, config.n = 50"),
    ],
    ids=["above-the-basis", "too-few-values", "another-size"],
)
def test_fit_all_resolutions_refuses_before_any_dp_table(degree, size, n, match):
    # fit_all_resolutions is the one checked entry to the fit: it refuses
    # before the DP core builds its first table
    from ngg.estimator import _pass

    basis = ngg.harmonic_basis(ngg.sphere(3), degree)
    _pass.cache_clear()
    with pytest.raises(DomainError, match=match):
        ngg.fit_all_resolutions(np.zeros(size), basis, ngg.AdaptConfig(n=n, r_max=4))
    assert _pass.cache_info().currsize == 0


def test_fit_all_resolutions_refuses_r_max_above_the_basis():
    basis = ngg.harmonic_basis(ngg.sphere(3), 2)
    with pytest.raises(DomainError, match="r_max = 4 exceeds basis max_degree 2"):
        ngg.fit_all_resolutions(np.zeros(100), basis, ngg.AdaptConfig(n=100, r_max=4))
