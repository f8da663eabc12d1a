import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from ngg.adapt import penalty, resolution_grid
from ngg.errors import DomainError
from ngg.estimator import ZERO_BLOCK, estimate_vector

_BASES = {
    name: ngg.harmonic_basis(space, 6)
    for name, space in [
        ("sphere:3", ngg.sphere(3)),
        ("sphere:4", ngg.sphere(4)),
        ("rp:3", ngg.real_projective(3)),
        ("cp:2", ngg.complex_projective(2)),
    ]
}


def _estimate(r, stages, n=100):
    stages = np.asarray(stages, float)
    return ngg.SpectrumEstimate(
        r=r,
        stage_values=stages,
        ordering=tuple(range(r + 1)) + (ZERO_BLOCK,),
        score=0.0,
        n=n,
    )


def _estimates_from_stages(stage_map, n=100):
    return {r: _estimate(r, stages, n) for r, stages in stage_map.items()}


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
    assert ngg.bias_proxy(ests, 1, cfg, basis3) == pytest.approx(-penalty(cfg, basis3, 1))
    res = ngg.select_resolution(ests, cfg, basis3)
    assert res.selected_r == 1


def test_bias_proxy_at_r_max_sees_only_penalties(basis3):
    cfg = ngg.AdaptConfig(n=200, r_max=3)
    ests = _estimates_from_stages(
        {1: [0.5, 0.2], 2: [0.5, 0.2, 0.1], 3: [0.5, 0.2, 0.1, 0.05]}, n=200
    )
    expected = max(-penalty(cfg, basis3, r) for r in (1, 2, 3))
    assert ngg.bias_proxy(ests, 3, cfg, basis3) == pytest.approx(expected)
    assert expected == pytest.approx(-penalty(cfg, basis3, 1))


def test_bias_proxy_two_resolution_toy(basis3):
    # hand-evaluated distance between (a) and (a, b, b, b)
    a, b, n = 0.6, 0.2, 50
    cfg = ngg.AdaptConfig(n=n, r_max=1, include_r0=True)
    ests = _estimates_from_stages({0: [a], 1: [a, b]}, n=n)
    d01 = b * math.sqrt(3)  # the three b entries match zeros
    expect_b0 = max(-penalty(cfg, basis3, 0), d01 - penalty(cfg, basis3, 1))
    assert ngg.bias_proxy(ests, 0, cfg, basis3) == pytest.approx(expect_b0)
    assert ngg.bias_proxy(ests, 1, cfg, basis3) == pytest.approx(-penalty(cfg, basis3, 0))


def test_bias_proxy_missing_estimate(basis3):
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    with pytest.raises(DomainError):
        ngg.bias_proxy(_estimates_from_stages({1: [0.5, 0.1]}), 1, cfg, basis3)


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
    ests = {r: _estimate(r, rng.normal(0, 0.3, r + 1), n=150) for r in range(1, 5)}
    b_max = ngg.bias_proxy(ests, 4, cfg, basis3)
    for r in range(1, 5):
        assert b_max <= ngg.bias_proxy(ests, r, cfg, basis3) + 1e-12


# --- one-pass selection against the per-resolution loop --------------------------


def _bias_proxy_oracle(estimates, r, config, basis):
    """Every expansion rebuilt and every term's distance computed, once per r."""
    grid = list(resolution_grid(config))
    vecs = {rr: estimate_vector(est, basis.dims) for rr, est in estimates.items()}
    return max(
        ngg.delta2(vecs[rp], vecs[min(rp, r)]) - penalty(config, basis, rp) for rp in grid
    )


def _selection_oracle(estimates, config, basis):
    rows = []
    for r in resolution_grid(config):
        b = _bias_proxy_oracle(estimates, r, config, basis)
        pen = penalty(config, basis, r)
        rows.append((r, b, pen, b + pen))
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
    assert [(x.r, x.bias, x.penalty, x.objective) for x in res.rows] == rows
    assert res.selected_r == selected
    for r, b, _, _ in rows:
        assert ngg.bias_proxy(fits, r, cfg, basis) == b


@pytest.mark.parametrize("r_max, include_r0", [(1, False), (1, True), (4, True), (6, False)])
def test_select_resolution_expands_once_and_measures_each_pair_once(
    monkeypatch, r_max, include_r0
):
    basis = _BASES["sphere:3"]
    calls = {"estimate_vector": 0, "delta2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ngg.adapt, "estimate_vector", counted("estimate_vector", estimate_vector))
    monkeypatch.setattr(ngg.adapt, "delta2", counted("delta2", ngg.delta2))
    rng = np.random.default_rng(r_max)
    cfg = ngg.AdaptConfig(n=200, r_max=r_max, include_r0=include_r0)
    ests = {r: _estimate(r, rng.normal(0, 0.3, r + 1), n=200) for r in resolution_grid(cfg)}
    ngg.select_resolution(ests, cfg, basis)
    g = len(resolution_grid(cfg))
    assert calls == {"estimate_vector": g, "delta2": g * (g - 1) // 2}


def test_bias_proxy_resolution_off_the_grid(basis3):
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    ests = _estimates_from_stages({0: [0.5], 1: [0.5, 0.1], 2: [0.5, 0.1, 0.0]})
    for r in (0, 3):
        with pytest.raises(DomainError, match="candidate grid"):
            ngg.bias_proxy(ests, r, cfg, basis3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_selection_refuses_non_finite_stage_values(basis3, bad):
    cfg = ngg.AdaptConfig(n=100, r_max=2)
    ests = _estimates_from_stages({1: [0.5, 0.1], 2: [0.5, bad, 0.0]})
    with pytest.raises(DomainError, match="resolution 2 has a non-finite"):
        ngg.select_resolution(ests, cfg, basis3)
    with pytest.raises(DomainError, match="resolution 2 has a non-finite"):
        ngg.bias_proxy(ests, 1, cfg, basis3)


# --- envelope reconstruction -----------------------------------------------------


def test_reconstruct_constant(basis3):
    env = ngg.reconstruct_envelope(_estimate(2, [0.4, 0.0, 0.0]), basis3)
    t = np.linspace(-1, 1, 9)
    assert np.allclose(env(t), 0.4, atol=1e-14)


def test_reconstruct_quartic_exactly(basis3):
    stages = [1 / 3, 0.0, 0.0, 0.0, 2 / 27]
    env = ngg.reconstruct_envelope(_estimate(4, stages), basis3)
    raw = ngg.reconstruct_envelope(_estimate(4, stages), basis3, clamp=False)
    t = np.linspace(-1, 1, 1001)
    target = ngg.builtin_envelope(5)(t)
    assert np.max(np.abs(env(t) - target)) < 1e-10
    assert np.max(np.abs(raw(t) - target)) < 1e-10  # never clamped: p5 stays in [0, 1]


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
    assert all(est.n == 1000 for est in fits.values())


def test_fit_all_resolutions_requires_room(basis3):
    cfg = ngg.AdaptConfig(n=10, r_max=4)
    with pytest.raises(DomainError):
        ngg.fit_all_resolutions(np.zeros(10), basis3, cfg)


def test_fit_all_resolutions_refuses_r_max_above_the_basis():
    basis = ngg.harmonic_basis(ngg.sphere(3), 2)
    with pytest.raises(DomainError, match="r_max = 4 exceeds basis max_degree 2"):
        ngg.fit_all_resolutions(np.zeros(100), basis, ngg.AdaptConfig(n=100, r_max=4))
