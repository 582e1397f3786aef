"""Command-line front end.

Subcommands cover the three constructions (reference-distance,
hierarchical multinomial, normal-means shrinkage) plus catalogue
browsing; outputs are plain CSV (with header rows) and JSON summaries
(schema "v1"), suitable for any external plotter.

Exit codes: 0 success, 1 usage/parse error, 2 I/O error,
3 precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalogue, hier, refdist, shrinkage
from .exceptions import DomainError, PreconditionError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3

_PIN_RTOL = 1e-6


class _UsageError(Exception):
    pass


def _parse_grid(spec: str):
    """Parse "lo:hi:k" or "lo:hi:k:log" into an increasing grid."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise _UsageError(f"bad grid spec {spec!r}; expected lo:hi:k[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        k = int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad grid spec {spec!r}: {exc}") from exc
    log_flag = len(parts) == 4
    if log_flag and parts[3] != "log":
        raise _UsageError(f"bad grid spec {spec!r}; fourth field must be 'log'")
    if not (lo < hi) or k < 2:
        raise _UsageError("grid needs lo < hi and at least 2 points")
    if log_flag:
        if lo <= 0.0:
            raise _UsageError("log grid needs lo > 0")
        return np.exp(np.linspace(math.log(lo), math.log(hi), k))
    return np.linspace(lo, hi, k)


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, payload: dict):
    payload = {"schema": "v1", **payload}
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_pins(pin_path: Path, values: dict) -> int:
    """First run writes the pins file; later runs compare numeric
    entries at relative tolerance and fail on drift."""
    if not pin_path.exists():
        _write_json(pin_path, values)
        print(f"pinned {len(values)} values to {pin_path}")
        return EXIT_OK
    with pin_path.open() as fh:
        pinned = json.load(fh)
    for key, val in values.items():
        if key not in pinned:
            print(f"pin mismatch: {key} missing from {pin_path}",
                  file=sys.stderr)
            return EXIT_USAGE
        old = pinned[key]
        if isinstance(val, float):
            if abs(val - old) > _PIN_RTOL * max(1.0, abs(old)):
                print(f"pin regression: {key} = {val}, pinned {old}",
                      file=sys.stderr)
                return EXIT_USAGE
        elif val != old:
            print(f"pin regression: {key} = {val!r}, pinned {old!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    print(f"all {len(values)} pinned values match")
    return EXIT_OK


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_refdist(args) -> int:
    cfg = refdist.RefDistConfig(m=args.m, n=args.n)
    grid = _parse_grid(args.grid)
    curve = refdist.loss_curve(cfg, grid)
    res = refdist.optimal_a(cfg)
    out = _outdir(args)
    _write_csv(out / "loss_curve.csv", ["a", "expected_loss"],
               zip(curve.grid.points, curve.grid.values))
    summary = {"a_star": res.argmin, "d_star": res.min_value,
               "m": args.m, "n": args.n}
    _write_json(out / "summary.json", summary)
    print(f"a_star = {res.argmin:.6g}  (d_star = {res.min_value:.6g})")
    if args.pin:
        return _check_pins(out / "pins.json",
                           {"a_star": res.argmin, "d_star": res.min_value})
    return EXIT_OK


def cmd_hier(args) -> int:
    table = hier.CountTable.from_sparse_text(Path(args.input).read_text())
    if table.r0 <= 1:
        print("error: only one occupied cell; the posterior mode of a "
              "sits at the unusable a=0 boundary", file=sys.stderr)
        return EXIT_PRECONDITION
    out = _outdir(args)

    chain = hier.sample_posterior(table, args.chain, seed=args.seed,
                                  prior=args.prior)
    _write_csv(out / "chain.csv", ["iteration", "a"],
               enumerate(chain.a_samples.tolist()))

    grid = _parse_grid(args.grid)
    prior_fn = (hier.reference_prior_exact if args.prior == "exact"
                else hier.reference_prior_approx)
    _write_csv(out / "prior_curve.csv", ["a", "prior"],
               zip(grid.tolist(), prior_fn(grid, table.m, table.n).tolist()))

    mode = hier.posterior_mode_a(table, prior=args.prior)
    try:
        lik_mode = hier.likelihood_mode_a(table)
    except PreconditionError:
        lik_mode = None
    summary = {
        "posterior_mode_a": mode,
        "likelihood_mode_a": lik_mode,
        "sqrt2_over_m": math.sqrt(2.0) / table.m,
        "acceptance_rate": chain.acceptance_rate,
        "r0": table.r0, "m": table.m, "n": table.n,
        "prior": args.prior, "seed": args.seed,
    }
    _write_json(out / "mode.json", summary)
    print(f"posterior mode a = {mode:.6g}  (r0 = {table.r0}, "
          f"acceptance = {chain.acceptance_rate:.3f})")
    if lik_mode is not None:
        print(f"likelihood-only mode = {lik_mode:.6g} "
              f"(compare sqrt(2)/m = {math.sqrt(2.0) / table.m:.6g})")
    if args.pin:
        return _check_pins(out / "pins.json", {"posterior_mode_a": mode})
    return EXIT_OK


def cmd_shrink(args) -> int:
    raw = Path(args.input).read_text().split()
    try:
        x = np.array([float(tok) for tok in raw])
    except ValueError as exc:
        raise _UsageError(f"non-numeric entry in {args.input}: {exc}")
    data = shrinkage.MeansData(x)
    out = _outdir(args)
    chain = shrinkage.gibbs_sample(data, args.chain, seed=args.seed)
    theta = shrinkage.theta_posterior_samples(chain)
    _write_csv(out / "chain.csv", ["iteration", "tau2", "theta"],
               zip(range(theta.size), chain.tau2_samples.tolist(),
                   theta.tolist()))
    burn = min(len(theta) // 10, 1000)
    kept = theta[burn:]
    lo, hi = np.quantile(kept, [0.05, 0.95])
    summary = {
        "flat_theta_mean": shrinkage.flat_prior_theta_mean(data),
        "hier_theta_mean": float(kept.mean()),
        "hier_theta_90_interval": [float(lo), float(hi)],
        "rejection_rate": chain.rejection_rate,
        "m": data.m, "seed": args.seed,
    }
    _write_json(out / "summary.json", summary)
    print(f"flat-prior theta mean = {summary['flat_theta_mean']:.4f}; "
          f"hierarchical mean = {summary['hier_theta_mean']:.4f} "
          f"[{lo:.4f}, {hi:.4f}]")
    if args.pin:
        return _check_pins(out / "pins.json",
                           {"hier_theta_mean": summary["hier_theta_mean"]})
    return EXIT_OK


def cmd_catalogue(args) -> int:
    if args.list or args.entry is None:
        for name, (_, domain, proper) in sorted(catalogue.ENTRIES.items()):
            print(f"{name:26s} args: {domain:26s} "
                  f"proper: {'yes' if proper else 'no'}")
        return EXIT_OK
    if args.entry not in catalogue.ENTRIES:
        print(f"unknown entry {args.entry!r}; valid names:", file=sys.stderr)
        for name in sorted(catalogue.ENTRIES):
            print(f"  {name}", file=sys.stderr)
        return EXIT_USAGE
    fn, domain, proper = catalogue.ENTRIES[args.entry]
    try:
        point = [float(tok) for tok in args.point]
    except ValueError as exc:
        raise _UsageError(f"non-numeric point: {exc}")
    try:
        value = fn(point)
    except IndexError:
        raise _UsageError(f"{args.entry} expects arguments: {domain}")
    print(f"{args.entry}({', '.join(str(p) for p in point)}) = {value!r}  "
          f"proper: {'yes' if proper else 'no'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="overallprior",
        description="Overall objective priors: reference-distance, "
                    "hierarchical, and catalogue constructions.")
    sub = p.add_subparsers(dest="command", required=True)

    rd = sub.add_parser("refdist", help="expected-loss curve and optimal a")
    rd.add_argument("--m", type=int, required=True)
    rd.add_argument("--n", type=int, required=True)
    rd.add_argument("--grid", default="0.001:10:200:log",
                    help="a-grid as lo:hi:k[:log]")
    rd.add_argument("--out", required=True)
    rd.add_argument("--pin", action="store_true")
    rd.set_defaults(func=cmd_refdist)

    hi = sub.add_parser("hier", help="hierarchical multinomial posterior")
    hi.add_argument("--input", required=True,
                    help="sparse count file ('m n' header, then "
                         "'cell_index count' lines)")
    hi.add_argument("--prior", choices=("exact", "approx"), default="exact")
    hi.add_argument("--chain", type=int, default=10000)
    hi.add_argument("--seed", type=int, default=0)
    hi.add_argument("--grid", default="0.001:10:200:log")
    hi.add_argument("--out", required=True)
    hi.add_argument("--pin", action="store_true")
    hi.set_defaults(func=cmd_hier)

    shp = sub.add_parser("shrink", help="normal-means shrinkage sampler")
    shp.add_argument("--input", required=True,
                     help="whitespace-separated data vector file")
    shp.add_argument("--chain", type=int, default=10000)
    shp.add_argument("--seed", type=int, default=0)
    shp.add_argument("--out", required=True)
    shp.add_argument("--pin", action="store_true")
    shp.set_defaults(func=cmd_shrink)

    cat = sub.add_parser("catalogue", help="browse closed-form priors")
    cat.add_argument("entry", nargs="?", help="entry name")
    cat.add_argument("point", nargs="*", help="evaluation point")
    cat.add_argument("--list", action="store_true")
    cat.set_defaults(func=cmd_catalogue)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PreconditionError,) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
