#!/usr/bin/env python3
"""Fixed-resolution risk sweep: mean squared spectrum error per resolution,
the empirical bias/variance picture behind the adaptive selection rule."""

import argparse
import sys

import ngg
from ngg.reports import check_output_path, write_csv


def risk_curve(config):
    """Mean squared spectrum error of the fixed-resolution fit, per (n, r):
    the empirical bias/variance trade-off behind the adaptive selection.

    The rows are ``run_experiment(config)``'s ``risk_fixed`` aggregates; a
    failing replicate raises ``NggError`` instead of being left out.
    """
    report = ngg.run_experiment(config)
    for rec in report.records:
        if "error" in rec:
            raise ngg.NggError(
                f"replicate {rec['replicate']} at n = {rec['n']} failed: {rec['error']}"
            )
    per_n = report.aggregates["per_n"]
    return [
        {"n": int(n), "r": int(r), "mean_sq_delta2": risk}
        for n in config.n_values
        for r, risk in per_n[str(n)]["risk_fixed"].items()
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--envelope", default="p5", choices=[f"p{i}" for i in range(1, 7)])
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="risk_curve.csv")
    args = ap.parse_args()

    check_output_path(args.out)  # refused before any graph is drawn
    config = ngg.ExperimentConfig(
        space=ngg.sphere(3),
        envelope=ngg.builtin_envelope(int(args.envelope[1:])),
        n_values=(args.n,),
        replicates=args.replicates,
        r_max=args.r_max,
        base_seed=args.seed,
    )
    rows = risk_curve(config)
    write_csv(args.out, ["n", "r", "mean_sq_delta2"],
              [[r["n"], r["r"], r["mean_sq_delta2"]] for r in rows])
    for row in rows:
        print(row)


if __name__ == "__main__":
    try:
        main()
    except (ngg.NggError, OSError) as exc:
        sys.exit(f"error: {exc}")
