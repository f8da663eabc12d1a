import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ngg
from ngg.adapt import penalty, resolution_grid
from ngg.errors import DomainError
from ngg.estimator import ZERO_BLOCK


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


def test_fit_all_resolutions_requires_room(basis3):
    cfg = ngg.AdaptConfig(n=10, r_max=4)
    with pytest.raises(DomainError):
        ngg.fit_all_resolutions(np.zeros(10), basis3, cfg)
