#!/usr/bin/env python3
"""Empirical concentration rates: operator-norm error of A/n around theta/n
and spectrum error of theta/n, across graph sizes, with log-log slope fits."""

import argparse
import sys

import ngg
from ngg.reports import check_output_path, csv_beside, write_csv, write_json


def _sizes(text):
    return tuple(int(v) for v in text.split(","))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--envelope", default="p5", choices=[f"p{i}" for i in range(1, 7)])
    ap.add_argument("--n", type=_sizes, default="250,500,1000,2000",
                    help="comma-separated sizes")
    ap.add_argument("--replicates", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="rate_check.json")
    args = ap.parse_args()

    csv_path = csv_beside(args.out)  # refused before any graph is drawn
    check_output_path(args.out)
    check_output_path(csv_path)
    envelope = ngg.builtin_envelope(int(args.envelope[1:]))
    table = ngg.concentration_check(envelope, ngg.sphere(3), args.n, args.replicates, args.seed)
    write_json(args.out, table.to_json_dict())
    write_csv(
        csv_path,
        ["n", "mean_op_norm_error", "mean_delta2_theta_spectrum"],
        [[r["n"], r["mean_op_norm_error"], r["mean_delta2_theta_spectrum"]] for r in table.rows],
    )
    for row in table.rows:
        print(row)
    print("slopes:", table.slopes)


if __name__ == "__main__":
    try:
        main()
    except (ngg.NggError, OSError) as exc:
        sys.exit(f"error: {exc}")
