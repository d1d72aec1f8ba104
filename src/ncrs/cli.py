"""Command-line front end.

Subcommands: run (one config), sweep (axis lists from the config's sweep
section), validate (the numerical certificate suite), params (vote-search
parameter recipe).  stdout carries machine-readable JSON only; tables,
warnings, and error messages go to stderr.  Exit codes: 0 success, 1 a run
or check failed, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys

from .algorithms import vote_params
from .diagnostics import run_default_suite
from .harness import (
    ConfigError,
    apply_overrides,
    check_seed,
    load_config,
    run_sweep,
    run_to_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrs",
        description=(
            "Comparison-oracle random search on synthetic ridge objectives: "
            "runs, sweeps, numerical certificates, and parameter recipes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="YAML config file")
    config.add_argument("--out", default="runs", help="output directory (default runs)")
    config.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, repeatable (e.g. --set oracle.advantage=0.25)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    sub.add_parser(
        "run", parents=[config, seed], help="execute one run and print its summary JSON"
    )
    p_sweep = sub.add_parser(
        "sweep",
        parents=[config],
        help="run every (cell, seed) combination and print the aggregate JSON",
    )
    p_sweep.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")

    p_val = sub.add_parser(
        "validate",
        parents=[seed],
        help="run the certificate suite; table on stderr, JSON on stdout",
    )
    p_val.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on Monte Carlo sample sizes (default 1.0)",
    )

    p_par = sub.add_parser(
        "params", help="vote-search parameters for a target accuracy"
    )
    p_par.add_argument("--epsilon", type=float, required=True, help="target accuracy in (0, 1)")
    p_par.add_argument("--smoothness", type=float, required=True, help="gradient Lipschitz bound")
    p_par.add_argument("--intrinsic-dim", type=int, required=True, help="intrinsic dimension k")
    p_par.add_argument(
        "--value-gap", type=float, required=True, help="upper bound on f(x1) - inf f"
    )
    p_par.add_argument(
        "--margin-slope", type=float, required=True, help="certified margin slope c"
    )
    p_par.add_argument(
        "--second-moment", type=float, required=True, help="second-moment constant C"
    )
    p_par.add_argument(
        "--margin-at-radius",
        type=float,
        required=True,
        help="margin value at the certified linearity radius",
    )
    return parser


def _cmd_run(args) -> int:
    check_seed(args.seed, "--seed")
    cfg = apply_overrides(load_config(args.config), args.overrides)
    print(json.dumps(run_to_csv(cfg, args.seed, args.out), sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.overrides)
    aggregate = run_sweep(cfg, args.out, workers=args.workers)
    print(json.dumps(aggregate, sort_keys=True))
    failed = any(any(e is not None for e in cell["errors"]) for cell in aggregate["cells"])
    return 1 if failed else 0


def _cmd_validate(args) -> int:
    if not 0 < args.scale < math.inf:
        raise ConfigError(f"--scale must be finite and positive, got {args.scale}")
    check_seed(args.seed, "--seed")
    reports = run_default_suite(args.seed, scale=args.scale)
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        # the verdict closest to its bound, in SEs inside it
        margins = [m for m in (r.margins or {}).values() if m is not None]
        margin = f"{min(margins):.2f} SE" if margins else "-"
        print(f"{r.name:<{width}}  {status}  n={r.n_samples:<8}  margin {margin}", file=sys.stderr)
    print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_params(args) -> int:
    try:
        params = vote_params(
            epsilon=args.epsilon,
            smoothness=args.smoothness,
            intrinsic_dim=args.intrinsic_dim,
            value_gap=args.value_gap,
            margin_slope=args.margin_slope,
            second_moment_bound=args.second_moment,
            margin_at_radius=args.margin_at_radius,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {**dataclasses.asdict(params), "total_comparisons": params.total_comparisons}
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "params": _cmd_params,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside a run or check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
