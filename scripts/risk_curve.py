#!/usr/bin/env python3
"""Fixed-resolution risk sweep: mean squared spectrum error per resolution,
the empirical bias/variance picture behind the adaptive selection rule."""

import argparse
import sys

import ngg
from ngg.reports import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--envelope", default="p5", choices=[f"p{i}" for i in range(1, 7)])
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="risk_curve.csv")
    args = ap.parse_args()

    config = ngg.ExperimentConfig(
        space=ngg.sphere(3),
        envelope=ngg.builtin_envelope(int(args.envelope[1:])),
        n_values=(args.n,),
        replicates=args.replicates,
        r_max=args.r_max,
        base_seed=args.seed,
    )
    rows = ngg.risk_curve(config)
    write_csv(args.out, ["n", "r", "mean_sq_delta2"],
              [[r["n"], r["r"], r["mean_sq_delta2"]] for r in rows])
    for row in rows:
        print(row)


if __name__ == "__main__":
    try:
        main()
    except ngg.NggError as exc:
        sys.exit(f"error: {exc}")
