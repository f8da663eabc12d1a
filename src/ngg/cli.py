"""Command-line interface.

Subcommands:
  simulate       run seeded Monte Carlo estimation experiments, write reports
  estimate       fit an envelope to a real graph given as an edge list
  coefs          print reference expansion coefficients of an envelope
  eval-envelope  sample an envelope (builtin, coefficient file, or fitted) on a grid

All outputs are deterministic given --seed.  Reports on graphs of at most
2048 nodes do not depend on the BLAS thread count either, where numpy's
LAPACK exports the routines of the two-stage eigensolve: the part of their
eigensolve whose rounding depends on it runs on one OpenBLAS thread.  A
larger graph keeps the default BLAS pool, and so does the ``eigvalsh``
fallback of a LAPACK without those routines: such a report holds on one
machine with one BLAS thread count (the thread count moves eigenvalues at
round-off level).  Stage 1 of the eigensolve is LAPACK's ``dsytrd_sy2sb``
call sequence with its symmetric multiply in tiles of 512 columns: the
spectrum is ``dsyevd_2stage``'s bit for bit up to one tile (544 nodes) and
agrees with it at round-off level beyond.  JSON files embed the resolved
configuration and render floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, check_settings
from .edgelist import read_edge_list, read_header, write_edge_list
from .errors import NggError
from .estimator import MAX_RESOLUTION
from .harness import (
    TRUTH_DEGREE,
    ExperimentConfig,
    _fit_fields,
    build_identifier,
    fit_graph,
    run_experiment,
)
from .model import builtin_envelope, envelope_from_coefficients
from .reports import check_output_path, csv_beside, write_csv, write_json
from .spaces import (
    QUAD_NODE_CAP,
    LatentSpace,
    envelope_coefficients,
    harmonic_basis,
    parse_space,
    sphere,
)

_BUILTIN_IDS = {f"p{i}": i for i in range(1, 7)}


class UsageError(Exception):
    pass


# Largest dimension of any space the CLI reads: --space, --dim and a report's
# space.  The quadrature at degree 64 stays warning-free up to d = 10^6, but a
# model on a sphere above 10000 needs over 10000 nodes even at r_max = 1
# (cum_dim(1) = d + 1), and a simulation twice that: a 3.2 GB matrix.
_MAX_DIM = 10_000

# Most points of a --grid.  eval-envelope's work grows with (stages x points),
# and a --from-report file holds at most MAX_RESOLUTION + 1 stages: at both
# bounds it runs in about 0.5 s and 66 MB peak RSS (2-vCPU Xeon VM).
_MAX_GRID = 100_000


def _space(text: str, what: str) -> LatentSpace:
    """The space ``text`` names, with a dimension of at most ``_MAX_DIM``;
    anything else is a usage error naming ``what``."""
    try:
        space = parse_space(text)
    except NggError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    if space.dim > _MAX_DIM:
        raise UsageError(f"{what}: dimension must be at most {_MAX_DIM}, got {space.dim}")
    return space


def _check_out(out, beside: bool = False) -> tuple:
    """The files ``--out`` names (``out``, and with ``beside`` its CSV table;
    none for stdout), refused before any work if one names a directory, its
    directory is missing, or a report path ends in .csv."""
    if out is None:
        return ()
    try:
        paths = (out, csv_beside(out)) if beside else (out,)
        for path in paths:
            check_output_path(path)
    except NggError as exc:
        raise UsageError(f"--out: {exc}") from exc
    return paths


def _parse_coeffs_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a UTF-8 text file ({exc})") from exc
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"{path}:{lineno}: expected 'degree value'")
        try:
            ell, value = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(value):
            raise UsageError(f"{path}:{lineno}: coefficient {parts[1]!r} is not finite")
        pairs.append((ell, value))
    if not pairs:
        raise UsageError(f"{path}: no coefficients found")
    return pairs


def _resolve_envelope(name_or_path: str, space: LatentSpace):
    """A builtin envelope, or a coefficient file over degrees 0..TRUTH_DEGREE."""
    if name_or_path in _BUILTIN_IDS:
        return builtin_envelope(_BUILTIN_IDS[name_or_path])
    path = Path(name_or_path)
    if not path.exists():
        raise UsageError(
            f"unknown envelope {name_or_path!r}: not one of p1..p6 and not a file"
        )
    pairs = _parse_coeffs_file(name_or_path)
    return envelope_from_coefficients(harmonic_basis(space, TRUTH_DEGREE), pairs, name=path.stem)


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse --n {text!r}") from exc
    if not values:
        raise UsageError("--n must list at least one size")
    if len(set(values)) != len(values):
        raise UsageError(f"--n lists a size twice: {text!r}")
    return values


def _grid(count: int) -> np.ndarray:
    if count < 1:
        raise UsageError(f"--grid must be a positive integer, got {count}")
    if count > _MAX_GRID:
        raise UsageError(f"--grid must be at most {_MAX_GRID}, got {count}")
    return np.linspace(-1.0, 1.0, count)


def _read_estimate_report(path: str):
    """Latent space and stage values of an ``estimate`` report: the space of
    ``config.space``, or in a report written before that was recorded, the
    sphere of ``config.dim``, a JSON integer."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        if report.get("kind") != "estimate":
            raise UsageError(f"{path}: not an estimate report")
        name, field = report["config"].get("space"), "config.space"
        if name is not None and not isinstance(name, str):
            raise TypeError(f"config.space {name!r} is not a string")
        if name is None:
            dim, field = report["config"]["dim"], "config.dim"
            if type(dim) is not int:  # a JSON integer: no bool, float or string
                raise TypeError(f"config.dim {dim!r} is not an integer")
            name = f"sphere:{dim}"
        stages = np.asarray(report["stages"], dtype=float)
    except (ValueError, TypeError, AttributeError, KeyError) as exc:
        raise UsageError(f"{path}: not an estimate report ({type(exc).__name__}: {exc})") from exc
    if stages.ndim != 1 or stages.size == 0 or not np.all(np.isfinite(stages)):
        raise UsageError(f"{path}: not an estimate report (stages must be finite numbers)")
    if stages.size > MAX_RESOLUTION + 1:
        raise UsageError(
            f"{path}: not an estimate report ({stages.size} stages; a fit has at most "
            f"{MAX_RESOLUTION + 1})"
        )
    return _space(name, f"{path}: {field}"), stages


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--r-max", type=int, default=4,
                   help=f"largest candidate resolution (at most {MAX_RESOLUTION})")
    p.add_argument("--kappa", type=float, default=0.25, help="selection penalty constant")
    p.add_argument("--include-r0", action="store_true",
                   help="add the constant model R=0 to the candidate grid")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo estimation experiments")
    sim.add_argument("--space", default="sphere:3", help="latent space, e.g. sphere:3")
    sim.add_argument("--envelope", required=True,
                     help="p1..p6 or a coefficients file ('degree value' lines)")
    sim.add_argument("--n", required=True, help="graph size(s), comma separated")
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="report JSON path (CSV written alongside)")
    sim.add_argument("--dump-adjacency", default=None,
                     help="also write the sampled graphs to this path as edge lists")
    _add_common(sim)

    est = sub.add_parser("estimate", help="estimate an envelope from an edge list")
    est.add_argument("--input", required=True, help="edge list")
    est.add_argument("--space", default=None,
                     help="latent space, e.g. rp:3 (default: the one the input's "
                     "'%% ngg n' line names, else sphere:3)")
    est.add_argument("--dim", type=int, default=None,
                     help="sphere ambient dimension: --dim D is --space sphere:D")
    est.add_argument("--grid", type=int, default=201,
                     help=f"envelope sample points (at most {_MAX_GRID})")
    est.add_argument("--out", required=True, help="output JSON path")
    _add_common(est)

    coefs = sub.add_parser("coefs", help="reference coefficients of an envelope")
    coefs.add_argument("--envelope", required=True)
    coefs.add_argument("--dim", type=int, default=3)
    coefs.add_argument("--degree", type=int, default=8)
    coefs.add_argument("--out", default=None, help="CSV path (default: stdout)")

    ev = sub.add_parser("eval-envelope", help="sample an envelope on a grid")
    ev.add_argument("--envelope", default=None, help="p1..p6 or a coefficients file")
    ev.add_argument("--from-report", default=None,
                    help="take the fitted envelope from an estimate report JSON")
    ev.add_argument("--dim", type=int, default=3)
    ev.add_argument("--grid", type=int, default=201, help=f"sample points (at most {_MAX_GRID})")
    ev.add_argument("--clamp", action="store_true", help="clamp values into [0, 1]")
    ev.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _dump_path(args, rep: int) -> str:
    """The file ``--dump-adjacency`` writes replicate ``rep``'s graph to."""
    return f"{args.dump_adjacency}.rep{rep}" if args.replicates > 1 else args.dump_adjacency


def _check_dump(args, reports) -> None:
    """Refuse a ``--dump-adjacency`` one of whose files names a directory,
    lies in a missing one, or would overwrite one of the ``reports``."""
    taken = {os.path.abspath(report): report for report in reports}
    for rep in range(args.replicates):
        path = _dump_path(args, rep)
        try:
            check_output_path(path)
        except NggError as exc:
            raise UsageError(f"--dump-adjacency: {exc}") from exc
        report = taken.get(os.path.abspath(path))
        if report is not None:
            raise UsageError(f"--dump-adjacency: the graph of replicate {rep} would "
                             f"overwrite the report {str(report)!r}")


def _cmd_simulate(args) -> int:
    outputs = _check_out(args.out, beside=True)  # refused before any replicate runs
    if args.dump_adjacency:
        _check_dump(args, outputs)
    space = _space(args.space, "--space")
    envelope = _resolve_envelope(args.envelope, space)
    n_values = _parse_n_list(args.n)
    if args.dump_adjacency and len(n_values) != 1:
        raise UsageError("--dump-adjacency requires a single --n value")
    config = ExperimentConfig(space=space, envelope=envelope, n_values=n_values,
                              replicates=args.replicates, r_max=args.r_max, kappa=args.kappa,
                              base_seed=args.seed, include_r0=args.include_r0)
    dumped = set()

    def dump(n, rep, adjacency):
        write_edge_list(_dump_path(args, rep), adjacency, space)
        dumped.add(rep)

    report = run_experiment(config, dump=dump if args.dump_adjacency else None)
    report.write(args.out)
    for rec in report.records:
        if args.dump_adjacency and rec["replicate"] not in dumped:
            # a graph that could not be drawn has no dump: its error ends the run
            raise NggError(rec["error"].partition(": ")[2])
    print(f"report written to {args.out}")
    return 0


def _space_option(args) -> LatentSpace | None:
    """The space of estimate's ``--space`` or ``--dim`` (a sphere), or None."""
    if args.space is not None and args.dim is not None:
        raise UsageError("pass at most one of --space / --dim")
    if args.space is not None:
        return _space(args.space, "--space")
    return None if args.dim is None else _space(f"sphere:{args.dim}", "--dim")


def _cmd_estimate(args) -> int:
    option = _space_option(args)
    check_settings(args.r_max, args.kappa, args.include_r0)  # before the input is read
    _check_out(args.out)
    path = Path(args.input)
    if not path.exists():
        print(f"error: input file {args.input!r} not found", file=sys.stderr)
        return 1
    grid = _grid(args.grid)
    declared = read_header(path)[1]  # before the edges are read
    if option is not None and declared is not None and option != declared:
        raise UsageError(f"{args.input} holds a graph on {declared.name}, not on {option.name}")
    space = option or declared or sphere(3)
    data = read_edge_list(path)
    warnings = list(data.warnings)
    n = data.n
    graph = data.triangle()
    del data  # the solve holds only the matrix
    adapt_cfg = AdaptConfig(n=n, r_max=args.r_max, kappa=args.kappa,
                            include_r0=args.include_r0)
    basis = harmonic_basis(space, args.r_max)
    model_dim = basis.cum_dims[args.r_max]
    if n < model_dim:
        raise UsageError(
            f"graph has n = {n} nodes but the resolution-{args.r_max} model needs "
            f"{model_dim}; pass a smaller --r-max"
        )
    if n < 2 * model_dim:
        warnings.append(
            f"n = {n} is below twice the model dimension ({2 * model_dim}); "
            "selection may be unstable"
        )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    spectrum, estimates, result = fit_graph(graph, basis, adapt_cfg)
    values = result.envelope(grid)
    out = {
        "schema": 1,
        "kind": "estimate",
        "build": build_identifier(),
        "config": {
            "input": str(args.input),
            "space": space.name,
            "dim": space.dim,
            "r_max": args.r_max,
            "kappa": args.kappa,
            "include_r0": args.include_r0,
            "grid": args.grid,
        },
        "n": n,
        "warnings": warnings,
        "spectrum": [float(v) for v in spectrum.values],
        "per_r": [
            {
                "r": row.r,
                "bias": row.bias,
                "penalty": row.penalty,
                "objective": row.objective,
                **_fit_fields(estimates[row.r]),
            }
            for row in result.rows
        ],
        "selected_r": result.selected_r,
        "stages": [float(v) for v in estimates[result.selected_r].stage_values],
        "envelope_grid": {
            "t": [float(v) for v in grid],
            "value": [float(v) for v in values],
        },
    }
    write_json(args.out, out)
    print(f"selected resolution {result.selected_r}; report written to {args.out}")
    return 0


def _cmd_coefs(args) -> int:
    # the quadrature holds a (degree + 1) x nodes table, so the node cap bounds both
    if not 0 <= args.degree <= QUAD_NODE_CAP:
        raise UsageError(f"--degree must be in 0..{QUAD_NODE_CAP}, got {args.degree}")
    _check_out(args.out)
    basis = harmonic_basis(_space(f"sphere:{args.dim}", "--dim"), args.degree)
    envelope = _resolve_envelope(args.envelope, basis.space)
    coeffs = envelope_coefficients(basis, envelope, args.degree)
    rows = [[ell, basis.dims[ell], float(coeffs[ell])] for ell in range(args.degree + 1)]
    write_csv(args.out, ["degree", "dim", "coefficient"], rows)
    return 0


def _cmd_eval_envelope(args) -> int:
    if (args.envelope is None) == (args.from_report is None):
        raise UsageError("pass exactly one of --envelope / --from-report")
    grid = _grid(args.grid)
    _check_out(args.out)
    clamp = args.clamp
    if args.from_report:
        space, stages = _read_estimate_report(args.from_report)
        basis = harmonic_basis(space, stages.size - 1)
        fn = lambda t: basis.reconstruct(stages, t)
        clamp = True  # fitted envelopes are always clamped
    else:
        fn = _resolve_envelope(args.envelope, _space(f"sphere:{args.dim}", "--dim"))
    values = np.asarray(fn(grid), dtype=float)
    if clamp:
        values = np.clip(values, 0.0, 1.0)
    rows = [[float(t), float(v)] for t, v in zip(grid, values)]
    write_csv(args.out, ["t", "value"], rows)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "coefs": _cmd_coefs,
    "eval-envelope": _cmd_eval_envelope,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
