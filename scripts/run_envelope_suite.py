#!/usr/bin/env python3
"""Run the estimation experiment for all six builtin envelopes.

Writes one report JSON/CSV pair per envelope.  The published study uses
n = 5000; the default here is smaller so the suite finishes quickly, pass
--n 5000 to reproduce the full-scale setting.
"""

import argparse
import sys
from pathlib import Path

import ngg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--kappa", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="envelope_suite")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(1, 7):
        envelope = ngg.builtin_envelope(i)
        config = ngg.ExperimentConfig(
            space=ngg.sphere(3),
            envelope=envelope,
            n_values=(args.n,),
            replicates=args.replicates,
            r_max=args.r_max,
            kappa=args.kappa,
            base_seed=args.seed,
        )
        report = ngg.run_experiment(config)
        path = out / f"{envelope.name}.json"
        report.write(path)
        agg = report.aggregates["per_n"][str(args.n)]
        print(
            f"{envelope.name}: selected-R histogram {agg['selected_r_histogram']}, "
            f"mean sq spectrum error {agg['mean_sq_delta2_selected']:.4e} -> {path}"
        )


if __name__ == "__main__":
    try:
        main()
    except (ngg.NggError, OSError) as exc:
        sys.exit(f"error: {exc}")
