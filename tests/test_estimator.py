import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from ngg.errors import DomainError
from ngg.estimator import MAX_RESOLUTION, ZERO_BLOCK
from ngg.spectral import signed_runs
from oracles import eigenvalues, fit_one, score_ordering


def brute_force_min(values, dims):
    """Minimum over every assignment of disjoint index subsets of sizes
    ``dims`` to the stages (optimal stage = subset mean), the rest scored
    against zero."""
    values = np.asarray(values, float)
    idx = range(values.size)
    best = math.inf
    for s0 in itertools.combinations(idx, dims[0]):
        rem = [i for i in idx if i not in s0]
        groups0 = [s0]
        if len(dims) == 1:
            choices = [()]
        else:
            choices = itertools.combinations(rem, dims[1])
        for s1 in choices:
            assigned = set(s0) | set(s1)
            obj = 0.0
            for group in (s0, s1):
                if not group:
                    continue
                g = values[list(group)]
                obj += float(np.sum((g - g.mean()) ** 2))
            rest = [i for i in idx if i not in assigned]
            obj += float(np.sum(values[rest] ** 2))
            best = min(best, obj)
    return best


def enumerate_orderings(r):
    """All (r + 2)! orderings of the blocks {zero, degree 0, ..., degree r},
    in lexicographic order: the exhaustive search the subset DP must match."""
    return list(itertools.permutations((ZERO_BLOCK, *range(r + 1))))


def test_enumerate_orderings_counts():
    assert len(enumerate_orderings(0)) == 2
    assert len(enumerate_orderings(1)) == 6
    assert len(enumerate_orderings(4)) == 720
    assert {o for o in enumerate_orderings(0)} == {(ZERO_BLOCK, 0), (0, ZERO_BLOCK)}


def test_score_ordering_walkthrough(basis3):
    # ordering [d1, d0, zero] on 20 sorted eigenvalues: the first stage is the
    # mean of the top 3, the next is the 4th value, the rest score against 0
    values = np.sort(np.linspace(-0.5, 1.0, 20))[::-1]
    stages, score = score_ordering(values, (1, 0, ZERO_BLOCK), basis3.dims)
    assert stages[1] == pytest.approx(values[:3].mean())
    assert stages[0] == pytest.approx(values[3])
    expected = float(np.sum((values[:3] - values[:3].mean()) ** 2) + np.sum(values[4:] ** 2))
    assert score == pytest.approx(expected, rel=1e-12)


def test_score_ordering_example(basis3):
    values = np.array([0.9, 0.3, 0.3, 0.3, 0.01, -0.02])
    stages, score = score_ordering(values, (0, 1, ZERO_BLOCK), basis3.dims)
    assert np.allclose(stages, [0.9, 0.3])
    assert score == pytest.approx(5e-4, rel=1e-9)


@pytest.mark.parametrize(
    "ordering",
    [(0, 0, ZERO_BLOCK), (0, 5, ZERO_BLOCK), (0, 1), (1, 2, ZERO_BLOCK), (),
     (0, ZERO_BLOCK, ZERO_BLOCK, 1)],
)
def test_score_ordering_refuses_a_malformed_ordering(basis3, ordering):
    with pytest.raises(DomainError, match="permutation"):
        score_ordering(np.zeros(10), ordering, basis3.dims)


def test_score_ordering_refuses_too_few_dims():
    with pytest.raises(DomainError, match="dimensions"):
        score_ordering(np.zeros(10), (0, 1, 2, ZERO_BLOCK), (1, 3))


def test_score_ordering_zero_spectrum(basis3):
    stages, score = score_ordering(np.zeros(10), (ZERO_BLOCK, 0, 1), basis3.dims)
    assert np.array_equal(stages, [0.0, 0.0])
    assert score == 0.0


def test_fit_resolution_six_value_example(basis3):
    values = np.array([0.9, 0.3, 0.3, 0.3, 0.01, -0.02])
    est = fit_one(values, basis3, 1)
    assert est.ordering == (0, 1, ZERO_BLOCK)
    assert np.allclose(est.stage_values, [0.9, 0.3])
    assert est.score == pytest.approx(5e-4, rel=1e-9)
    # oracle: score every ordering by hand
    scores = [
        score_ordering(values, o, basis3.dims)[1] for o in enumerate_orderings(1)
    ]
    assert est.score == pytest.approx(min(scores))


def test_fit_resolution_constant_graph(basis3):
    n, a = 60, 0.45
    tn = a * (np.ones((n, n)) - np.eye(n)) / n
    est = fit_one(eigenvalues(tn), basis3, 0)
    assert est.stage_values[0] == pytest.approx(a * (n - 1) / n, rel=1e-10)


def test_fit_resolution_perfect_fit(basis3):
    # n equal to the model dimension: a valid stage vector is fit exactly
    values = np.array([0.9, 0.3, 0.3, 0.3])
    est = fit_one(values, basis3, 1)
    assert est.score == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(est.stage_values, [0.9, 0.3])


def test_fit_matches_brute_force(rng, basis3):
    for _ in range(100):
        n = int(rng.integers(4, 9))
        values = np.sort(rng.standard_normal(n))[::-1]
        for r in (0, 1):
            est = fit_one(values, basis3, r)
            oracle = brute_force_min(values, basis3.dims[: r + 1])
            assert est.score == pytest.approx(oracle, abs=1e-12)


def test_min_score_nonincreasing_in_resolution(rng, basis3):
    for _ in range(20):
        values = np.sort(rng.standard_normal(30))[::-1]
        scores = [fit_one(values, basis3, r).score for r in range(4)]
        assert all(scores[i + 1] <= scores[i] + 1e-12 for i in range(3))


@given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_fit_scale_equivariance(basis3, c, seed):
    values = np.random.default_rng(seed).standard_normal(12)
    base = fit_one(values, basis3, 1)
    scaled = fit_one(c * values, basis3, 1)
    assert scaled.ordering == base.ordering
    assert np.allclose(scaled.stage_values, c * base.stage_values, rtol=1e-10, atol=1e-12)
    assert scaled.score == pytest.approx(c * c * base.score, rel=1e-9, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_fit_permutation_invariance(basis3, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(10)
    est1 = fit_one(values, basis3, 1)
    est2 = fit_one(rng.permutation(values), basis3, 1)
    assert est1.score == pytest.approx(est2.score, abs=1e-12)
    assert np.allclose(est1.stage_values, est2.stage_values)


def test_score_recomputable(rng, basis3):
    values = np.sort(rng.standard_normal(25))[::-1]
    est = fit_one(values, basis3, 2)
    # recompute the score directly from the run partition
    dims = {sym: (basis3.dims[sym] if sym != ZERO_BLOCK else 25 - 9) for sym in est.ordering}
    pos, direct = 0, 0.0
    for sym in est.ordering:
        run = values[pos : pos + dims[sym]]
        stage = est.stage_values[sym] if sym != ZERO_BLOCK else 0.0
        if sym != ZERO_BLOCK:
            assert stage == pytest.approx(run.mean(), rel=1e-12)
        direct += float(np.sum((run - stage) ** 2))
        pos += dims[sym]
    assert est.score == pytest.approx(direct, abs=1e-12)


def test_estimate_vector_expansion(basis3):
    # an estimate's model spectrum, each stage counted basis.dims times, is
    # held as its runs, never expanded
    est = ngg.SpectrumEstimate(
        r=1, stage_values=np.array([0.9, 0.3]), ordering=(0, 1, ZERO_BLOCK), score=0.0
    )
    assert signed_runs(est.stage_values, basis3.dims) == ([(0.9, 1), (0.3, 3)], [])
    zero = ngg.SpectrumEstimate(
        r=2, stage_values=np.zeros(3), ordering=(0, 1, 2, ZERO_BLOCK), score=0.0
    )
    assert signed_runs(zero.stage_values, basis3.dims) == ([(0.0, 5), (0.0, 3), (0.0, 1)], [])


# --- subset DP against the exhaustive ordering search ---------------------------------

_ORACLE_BASES = {
    "sphere3": ngg.harmonic_basis(ngg.sphere(3), 4),
    "sphere4": ngg.harmonic_basis(ngg.sphere(4), 4),
    "rp3": ngg.harmonic_basis(ngg.real_projective(3), 4),
    "cp2": ngg.harmonic_basis(ngg.complex_projective(2), 4),
    "tied": SimpleNamespace(max_degree=4, dims=(1, 2, 2, 2, 2), cum_dims=(1, 3, 5, 7, 9)),
}


def exhaustive_scores(values, basis, r):
    values = np.sort(np.asarray(values, float))[::-1]
    return [(score_ordering(values, o, basis.dims), o) for o in enumerate_orderings(r)]


def _oracle_spectrum(basis, r, extra, seed):
    return np.random.default_rng(seed).standard_normal(basis.cum_dims[r] + extra)


@pytest.mark.parametrize("name", sorted(_ORACLE_BASES))
@given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_fit_matches_exhaustive_search(name, r, extra, seed):
    basis = _ORACLE_BASES[name]
    values = _oracle_spectrum(basis, r, extra, seed)
    est = fit_one(values, basis, r)
    (stages, score), ordering = min(exhaustive_scores(values, basis, r), key=lambda t: t[0][1])
    assert est.ordering == ordering
    assert np.array_equal(est.stage_values, stages)
    assert est.score == score


@pytest.mark.parametrize("name", sorted(_ORACLE_BASES))
@given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_fit_tie_rule_on_tied_spectra(name, r, extra, seed, zero):
    # rounded spectra tie exactly in exact arithmetic: the DP returns the
    # lexicographically first ordering within 1e-12 * sum(v^2) of the minimum
    basis = _ORACLE_BASES[name]
    values = _oracle_spectrum(basis, r, extra, seed)
    values = np.zeros_like(values) if zero else np.round(values, 1)
    tol = 1e-12 * float(np.sum(values * values))
    scored = exhaustive_scores(values, basis, r)
    best = min(score for (_, score), _ in scored)
    est = fit_one(values, basis, r)
    assert abs(est.score - best) <= tol
    assert est.ordering == next(o for (_, score), o in scored if score <= best + tol)


@pytest.mark.parametrize("name", sorted(_ORACLE_BASES))
@pytest.mark.parametrize("r", range(5))
def test_fit_with_empty_zero_block_matches_exhaustive_search(name, r):
    # n == cum_dim(r): the zero block's run is empty, and no cost may divide by
    # its length (a RuntimeWarning fails the test)
    basis = _ORACLE_BASES[name]
    values = _oracle_spectrum(basis, r, 0, r)
    est = fit_one(values, basis, r)
    (stages, score), ordering = min(exhaustive_scores(values, basis, r), key=lambda t: t[0][1])
    assert est.ordering == ordering
    assert np.array_equal(est.stage_values, stages)
    assert est.score == score


def _same_fit(a, b):
    return (a.r, a.ordering, a.stage_values.tobytes(), a.score) == (
        b.r, b.ordering, b.stage_values.tobytes(), b.score)


@given(
    name=st.sampled_from(sorted(_ORACLE_BASES)),
    r_max=st.integers(1, 4),
    include_r0=st.booleans(),
    extra=st.integers(0, 40),
    rounded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_all_resolutions_equals_independent_fits(name, r_max, include_r0, extra, rounded,
                                                     seed):
    # one shared sort and one set of prefix sums change no bit of any fit
    basis = _ORACLE_BASES[name]
    values = _oracle_spectrum(basis, r_max, extra, seed)
    if rounded:
        values = np.round(values, 1)
    cfg = ngg.AdaptConfig(n=values.size, r_max=r_max, include_r0=include_r0)
    fits = ngg.fit_all_resolutions(values, basis, cfg)
    assert sorted(fits) == list(range(0 if include_r0 else 1, r_max + 1))
    for r, est in fits.items():
        assert _same_fit(est, fit_one(values, basis, r))
        assert _same_fit(est, fit_one(ngg.as_spectrum(values), basis, r))


_PASS_BASES = {
    "sphere3": ngg.harmonic_basis(ngg.sphere(3), 12),
    "cp2": ngg.harmonic_basis(ngg.complex_projective(2), 12),
    "tied": SimpleNamespace(max_degree=12, dims=(1,) + (2,) * 12, cum_dims=tuple(range(1, 26, 2))),
}


@settings(max_examples=150)
@given(
    name=st.sampled_from(sorted(_PASS_BASES)),
    r_max=st.integers(9, 12),
    include_r0=st.booleans(),
    extra=st.sampled_from([0, 1, 60]),
    kind=st.sampled_from(["normal", "rounded", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_all_resolutions_in_passes_equals_independent_fits(name, r_max, include_r0, extra,
                                                               kind, seed):
    # the grid up to 10 is one DP pass and each r >= 11 a pass of its own:
    # fitting resolutions together, on either side of that boundary, with an
    # empty zero block (extra = 0) or tied values, changes no bit of any fit
    basis = _PASS_BASES[name]
    values = _oracle_spectrum(basis, r_max, extra, seed)
    values = {"normal": values, "rounded": np.round(values, 1), "zero": 0 * values}[kind]
    cfg = ngg.AdaptConfig(n=values.size, r_max=r_max, include_r0=include_r0)
    grid = list(range(0 if include_r0 else 1, r_max + 1))
    assert len(ngg.estimator._passes(grid)) == max(1, r_max - 9)
    fits = ngg.fit_all_resolutions(values, basis, cfg)
    assert sorted(fits) == grid
    for r, est in fits.items():
        assert _same_fit(est, fit_one(values, basis, r))


_AT_THE_CAP = """
import time, tracemalloc
import numpy as np
import ngg
from ngg.estimator import MAX_RESOLUTION
basis = ngg.harmonic_basis(ngg.sphere(3), MAX_RESOLUTION)
spectrum = ngg.as_spectrum(np.random.default_rng(1).standard_normal(600) / 20)
spectrum.s1, spectrum.s2
config = ngg.AdaptConfig(n=600, r_max=MAX_RESOLUTION)
tracemalloc.start()
t0 = time.perf_counter()
fits = ngg.fit_all_resolutions(spectrum, basis, config)
seconds = time.perf_counter() - t0
del fits
held, peak = tracemalloc.get_traced_memory()
print(seconds, peak, held)
"""


def test_fit_all_resolutions_at_the_cap_bounds_its_memory_and_time():
    # a fresh process, since the DP's tables are cached process-wide.  One DP
    # per resolution peaked at 57.9 MB on this first call and kept 30.8 MB of
    # tables; the bounds allow 10% more.  The call takes 0.3-0.5 s on a
    # 2-vCPU Xeon VM
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _AT_THE_CAP], capture_output=True, text=True,
                          env=env, check=True)
    seconds, peak, held = map(float, proc.stdout.split())
    assert peak <= 1.1 * 57.9e6, peak
    assert held <= 1.1 * 30.8e6, held
    assert seconds < 5.0, seconds


def test_resolution_above_the_cap_is_refused():
    basis = ngg.harmonic_basis(ngg.sphere(3), MAX_RESOLUTION + 1)
    values = np.zeros(basis.cum_dims[-1])
    assert fit_one(values, basis, MAX_RESOLUTION).r == MAX_RESOLUTION
    with pytest.raises(DomainError, match="largest supported"):
        ngg.AdaptConfig(n=10**6, r_max=MAX_RESOLUTION + 1)


@pytest.mark.parametrize("big", [1e154, 1e200, 1.7e308])
def test_overflowing_spectrum_is_refused(basis3, big):
    v = np.array([big, -big, big, 0.5, 0.1, 0.0, 1e-3, 2.0])
    with pytest.raises(DomainError, match="overflows"):
        fit_one(v, basis3, 1)
    with pytest.raises(DomainError, match="overflows"):
        score_ordering(v, (ZERO_BLOCK, 0, 1), basis3.dims)


def test_fit_high_resolution_is_fast_and_monotone(basis3):
    values = np.random.default_rng(10).standard_normal(200) / 10
    t0 = time.perf_counter()
    scores = [fit_one(values, basis3, r).score for r in range(11)]
    assert time.perf_counter() - t0 < 5.0  # the (R+2)! search needs hours at R=10
    assert all(scores[i + 1] <= scores[i] + 1e-12 for i in range(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [0, 25, 50])
def test_non_finite_spectrum_is_refused(bad, pos):
    v = np.zeros(51)
    v[pos] = bad
    basis = ngg.harmonic_basis(ngg.sphere(3), 8)
    with pytest.raises(DomainError, match="non-finite"):
        ngg.fit_all_resolutions(v, basis, ngg.AdaptConfig(n=51, r_max=2))
    with pytest.raises(DomainError, match="non-finite"):
        score_ordering(v, (ZERO_BLOCK, 0), basis.dims)
