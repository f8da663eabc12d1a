"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavier criteria share two module-scoped Monte Carlo runs: a 20-replicate
estimation experiment at n = 2000 and a concentration sweep over four sizes.
"""

import itertools
import math

import numpy as np
import pytest

import ngg
from ngg.cli import main
from oracles import delta2, fit_one


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def basis():
    return ngg.harmonic_basis(ngg.sphere(3), 16)


@pytest.fixture(scope="module")
def big_run():
    config = ngg.ExperimentConfig(
        space=ngg.sphere(3),
        envelope=ngg.builtin_envelope(5),
        n_values=(2000,),
        replicates=20,
        r_max=4,
        kappa=0.25,
        base_seed=424242,
    )
    return ngg.run_experiment(config)


@pytest.fixture(scope="module")
def concentration():
    return ngg.concentration_check(
        ngg.builtin_envelope(5),
        ngg.sphere(3),
        n_values=(250, 500, 1000, 2000),
        replicates=10,
        seed=77,
    )


def test_criterion_1_coefficient_oracle(basis):
    c = ngg.envelope_coefficients(basis, ngg.builtin_envelope(5), 6)
    err0 = abs(c[0] - 1 / 3)
    err4 = abs(c[4] - 2 / 27)
    rest = float(np.max(np.abs(c[[1, 2, 3, 5, 6]])))
    ok = err0 < 1e-9 and err4 < 1e-9 and rest < 1e-9
    _report(1, "coefficient oracle", ok,
            f"err0={err0:.2e} err4={err4:.2e} others<{rest:.2e}")


def test_criterion_2_orthonormality(orthonormality_gram):
    worst = 0.0
    for d in (3, 4, 5):
        b = ngg.harmonic_basis(ngg.sphere(d), 12)
        g = orthonormality_gram(b, 12)
        worst = max(worst, float(np.max(np.abs(g - np.eye(13)))))
    # one representative of every family's cosine-law shape
    others = [
        ngg.real_projective(3),
        ngg.real_projective(4),
        ngg.complex_projective(2),
        ngg.complex_projective(3),
        ngg.quaternionic_projective(2),
        ngg.quaternionic_projective(3),
        ngg.octonionic_plane(),
    ]
    for sp in others:
        b = ngg.harmonic_basis(sp, 12)
        g = orthonormality_gram(b, 12)
        worst = max(worst, float(np.max(np.abs(g - np.eye(13)))))
    _report(2, "orthonormality suite", worst < 1e-8, f"max gram error {worst:.2e}")


def test_criterion_3_delta2(basis):
    # (a) exact agreement with the exhaustive-permutation oracle; inputs on a
    # dyadic grid so both sides compute exact binary sums
    perms = np.array(list(itertools.permutations(range(7))))
    rng = np.random.default_rng(3030)
    exact = 0
    for _ in range(1000):
        nx = int(rng.integers(0, 8))
        ny = int(rng.integers(0, 8 - nx)) if nx < 7 else 0
        x = rng.integers(-16, 17, nx) / 8.0
        y = rng.integers(-16, 17, ny) / 8.0
        xp = np.pad(x, (0, 7 - nx))
        yp = np.pad(y, (0, 7 - ny))
        oracle = math.sqrt(np.min(np.sum((xp[None, :] - yp[perms]) ** 2, axis=1)))
        if delta2(x, y) == oracle:
            exact += 1
    # (b) the indistinguishable coefficient pair
    mu = 0.04
    lam_a = [0.5] + [mu] * 3 + [0.0] * 12 + [mu] * 9
    lam_b = [0.5] + [0.0] * 3 + [mu] * 12 + [0.0] * 9
    d_ab = delta2(lam_a, lam_b)
    diff = ngg.envelope_from_coefficients(
        basis, [(1, mu), (2, -mu), (3, -mu), (4, mu)], name="identifiability-diff"
    )
    c = ngg.envelope_coefficients(basis, diff, 8)
    dims = np.asarray(basis.dims[:9], float)
    l2 = math.sqrt(float(np.sum(dims * c**2)))
    ok = exact == 1000 and d_ab == 0.0 and abs(l2 - mu * math.sqrt(24)) < 1e-9
    _report(3, "rearrangement distance", ok,
            f"oracle exact {exact}/1000, pair distance {d_ab}, |p_a-p_b|={l2:.12f}")


def test_criterion_4_estimator_oracle(basis):
    rng = np.random.default_rng(4040)
    subset_cache = {}

    def subsets(n, r):
        key = (n, r)
        if key not in subset_cache:
            combos = []
            for s0 in range(n):
                if r == 0:
                    combos.append((s0, ()))
                else:
                    rest = [j for j in range(n) if j != s0]
                    combos.extend((s0, s1) for s1 in itertools.combinations(rest, 3))
            subset_cache[key] = combos
        return subset_cache[key]

    checked = 0
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 9))
        values = rng.standard_normal(n)
        total_sq = float(np.sum(values**2))
        for r in (0, 1):
            best = math.inf
            for s0, s1 in subsets(n, r):
                obj = total_sq - values[s0] ** 2
                if s1:
                    g = values[list(s1)]
                    obj -= float(np.sum(g**2))
                    obj += float(np.sum((g - g.mean()) ** 2))
                best = min(best, obj)
            est = fit_one(values, basis, r)
            worst = max(worst, abs(est.score - best))
            checked += 1
    ok = worst < 1e-11
    _report(4, "estimator vs subset oracle", ok,
            f"{checked} fits, max score gap {worst:.2e}")


def test_criterion_5_end_to_end_recovery(big_run):
    recs = [r for r in big_run.records if "error" not in r]
    stages = np.array([next(f["stages"] for f in r["fits"] if f["r"] == 4) for r in recs])
    err0 = float(np.mean(np.abs(stages[:, 0] - 1 / 3)))
    err4 = float(np.mean(np.abs(stages[:, 4] - 2 / 27)))
    ok = len(recs) == 20 and err0 < 0.05 and err4 < 0.05
    _report(5, "end-to-end recovery", ok,
            f"mean|p0-1/3|={err0:.4f} mean|p4-2/27|={err4:.4f} over {len(recs)} replicates")


def test_criterion_6_adaptation(big_run):
    agg = big_run.aggregates["per_n"]["2000"]
    hist = agg["selected_r_histogram"]
    frac4 = hist.get("4", 0) / 20
    adaptive_risk = agg["mean_sq_delta2_selected"]
    best_fixed = min(agg["risk_fixed"].values())
    ok = frac4 >= 0.6 and adaptive_risk <= 5 * best_fixed
    _report(6, "adaptive selection", ok,
            f"R=4 in {frac4:.0%}, adaptive risk {adaptive_risk:.3e} "
            f"<= 5 x best fixed {best_fixed:.3e}")


def test_criterion_7_concentration_rate(concentration):
    slope = concentration.slopes["mean_op_norm_error"]
    ok = -0.6 <= slope <= -0.4
    _report(7, "operator-norm concentration rate", ok, f"log-log slope {slope:.3f}")


def test_criterion_8_spectrum_error_decay(concentration):
    wins = sum(
        concentration.spectrum_error[(2000, r)] < concentration.spectrum_error[(500, r)]
        for r in range(10)
    )
    ok = wins >= 8
    _report(8, "spectrum error decay", ok, f"decreased in {wins}/10 paired seeds")


def test_criterion_9_determinism(tmp_path):
    args = ["simulate", "--envelope", "p5", "--n", "150", "--replicates", "2",
            "--seed", "11", "--r-max", "2"]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, "byte-identical reports", identical,
            f"{out1.stat().st_size} bytes compared")
