"""Command-line front end: coefficient tables, distribution curves, thresholds, validation.

Subcommands:
    coeffs     exact coefficient table as JSON
    pdf, cdf   tabulate the distribution over a grid as CSV `x,pdf,cdf`
    quantile   inverse CDF at a probability
    threshold  detection threshold for a false-alarm rate
    moments    exact rational moments plus the moment-product identity check
    validate   Monte Carlo goodness of fit against the exact CDF

All outputs are deterministic: identical invocations produce byte-identical
bytes.  `--out PATH` redirects to a file (validate also writes `PATH` sample
CSV plus a `PATH.meta.json` sidecar); the default is stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from .backends import EigensolverError
from .coefficients import (
    ConsistencyError,
    ResourceLimitError,
    coefficient_table,
    table_to_json,
)
from .distributions import (
    default_grid,
    lambda1_moment,
    quantile,
    sle_distribution,
    sle_moment,
    threshold_for_false_alarm,
    trace_moment,
    write_distribution_csv,
)
from .montecarlo import (
    GENERATOR_NAME,
    SimulationConfig,
    ks_distance,
    sample_metadata,
    sample_sle,
    write_sample_csv,
)

__all__ = ["main", "build_parser"]


def _add_shape(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=int, required=True, help="matrix rows (number of sensors)")
    p.add_argument("--N", type=int, required=True, help="matrix columns (number of snapshots), N >= K")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sledist",
        description="Exact distribution of the scaled largest eigenvalue of complex Wishart matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the exact coefficient table as JSON")
    _add_shape(p)
    p.add_argument("--out", help="output path (default stdout)")

    for name in ("pdf", "cdf"):
        p = sub.add_parser(name, help=f"tabulate the {name} over a grid as CSV x,pdf,cdf")
        _add_shape(p)
        p.add_argument("--grid", type=int, default=512, help="number of uniform grid points")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("quantile", help="inverse CDF at probability p")
    _add_shape(p)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("threshold", help="threshold t with P(X > t) = alpha")
    _add_shape(p)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("moments", help="exact moments and the moment-product identity check")
    _add_shape(p)
    p.add_argument("--max-order", type=int, default=4, help="highest moment order to print")

    p = sub.add_parser("validate", help="Monte Carlo goodness of fit against the exact CDF")
    _add_shape(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--ks-threshold", type=float, default=0.01)
    p.add_argument("--out", help="also write the sample CSV here, plus an .meta.json sidecar")

    return parser


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w")


def _run_coeffs(args) -> int:
    table = coefficient_table(args.K, args.N)
    with _open_out(args.out) as stream:
        stream.write(table_to_json(table))
        stream.write("\n")
    return 0


def _run_curve(args) -> int:
    table = coefficient_table(args.K, args.N)
    dist = sle_distribution(table)
    grid = default_grid(args.K, args.grid)
    with _open_out(args.out) as stream:
        write_distribution_csv(dist, grid, stream)
    return 0


def _run_quantile(args) -> int:
    dist = sle_distribution(coefficient_table(args.K, args.N))
    print(repr(quantile(dist, args.p)))
    return 0


def _run_threshold(args) -> int:
    dist = sle_distribution(coefficient_table(args.K, args.N))
    print(repr(threshold_for_false_alarm(dist, args.alpha)))
    return 0


def _run_moments(args) -> int:
    if args.max_order < 0:
        raise ValueError(f"--max-order must be nonnegative, got {args.max_order}")
    table = coefficient_table(args.K, args.N)
    dist = sle_distribution(table)
    for m in range(args.max_order + 1):
        print(f"E[X^{m}] = {sle_moment(dist, m)}")
    ok = True
    for z in range(1, 7):
        lhs = lambda1_moment(table, z)
        rhs = sle_moment(dist, z - 1) * trace_moment(args.K, args.N, z)
        match = lhs == rhs
        ok = ok and match
        print(f"moment-product identity z={z}: {'OK' if match else f'FAIL ({lhs} != {rhs})'}")
    return 0 if ok else 1


def _run_validate(args) -> int:
    table = coefficient_table(args.K, args.N)
    dist = sle_distribution(table)
    config = SimulationConfig(
        K=args.K, N=args.N, samples=args.samples, seed=args.seed, partitions=args.partitions
    )
    sample = sample_sle(config)
    if args.out:
        with open(args.out, "w") as stream:
            write_sample_csv(sample, stream)
        with open(args.out + ".meta.json", "w") as stream:
            json.dump(sample_metadata(sample), stream, indent=2)
            stream.write("\n")
    ks = ks_distance(sample, dist)
    exact_mean = sle_moment(dist, 1)
    emp_mean = float(np.mean(sample.values))
    stderr = float(np.std(sample.values, ddof=1)) / math.sqrt(len(sample))
    mean_gap = abs(emp_mean - float(exact_mean))
    ks_ok = ks < args.ks_threshold
    mean_ok = mean_gap <= 3 * stderr
    print(
        f"K={args.K} N={args.N} samples={args.samples} seed={args.seed} "
        f"partitions={args.partitions} generator={GENERATOR_NAME}"
    )
    print(f"KS distance: {ks!r} (threshold {args.ks_threshold!r}): {'pass' if ks_ok else 'FAIL'}")
    print(f"exact mean: {exact_mean} = {float(exact_mean)!r}")
    print(f"empirical mean: {emp_mean!r} (|gap| {mean_gap!r} vs 3*stderr {3 * stderr!r}): "
          f"{'pass' if mean_ok else 'FAIL'}")
    return 0 if ks_ok and mean_ok else 1


_RUNNERS = {
    "coeffs": _run_coeffs,
    "pdf": _run_curve,
    "cdf": _run_curve,
    "quantile": _run_quantile,
    "threshold": _run_threshold,
    "moments": _run_moments,
    "validate": _run_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConsistencyError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
