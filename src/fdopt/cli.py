"""Command-line front end: run, bench, grid, and estimate subcommands.

All outputs are tidy CSV with numbers serialized to 17 significant digits, so
repeated runs with the same configuration and seed are byte-identical. Each
``cmd_*`` maps the loaded config to ``(file name, header, rows, summary)``, and
:func:`main` writes that table under ``--out``. Exit codes: 0 success, 1
runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimators import cor_cfd_gradient
from .harness import (ExperimentConfig, apply_profile, grid_search_spsa, iterate_gaps,
                      load_config, replication_streams, run_replications, run_trajectory)
# The runners stay bound here because perfbench/layers.py patches them by name.
from .optimizers import ConfigurationError, cor_cfd_gd_run, kw_run, spsa_run  # noqa: F401
from .oracle import get_test_function


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             for cell in row])


def cmd_run(config: ExperimentConfig):
    """Write `trajectory.csv`: one row per produced iterate of a single run."""
    if config.algorithm is None:
        raise ConfigurationError("`run` needs `algorithm` in the [experiment] section")
    sigma = config.run_sigma if config.run_sigma is not None else config.noise_levels[0]
    fn, traj = run_trajectory(config, config.algorithm,
                              config.noise_levels.index(sigma), rep=0)
    header = (["iter", "pairs_used"] + [f"x_{i + 1}" for i in range(fn.dimension)]
              + ["solution_gap", "optimality_gap"])
    # Row 0 is the starting point; every later iterate is within the budget.
    rows = [[k, n_count / 2.0, *x, *iterate_gaps(fn, x)]
            for k, (x, n_count) in enumerate(
                zip(traj.iterates[1:], traj.evaluations[1:]), start=1)]
    return ("trajectory.csv", header, rows,
            f"{len(rows)} iterates, algorithm={config.algorithm}, sigma={_fmt(sigma)}")


def cmd_bench(config: ExperimentConfig):
    """Write `table.csv`: one row per benchmark-table cell."""
    if not config.algorithms:
        raise ConfigurationError("`bench` needs a nonempty `algorithms` list")
    rows = []
    for algorithm in config.algorithms:
        for res in run_replications(config, algorithm):
            for metric in ("rmse_solution_gap", "rmse_optimality_gap"):
                by_budget = getattr(res, metric)
                rows += [[res.sigma, algorithm, metric, b, by_budget[b]]
                         for b in config.effective_checkpoints]
            if res.oscillation_percentiles is not None:
                rows += [[res.sigma, algorithm, name, "", value] for name, value in
                         zip(("osc_p5", "osc_median", "osc_p95"),
                             res.oscillation_percentiles)]
    return ("table.csv", ["sigma", "method", "metric", "checkpoint", "value"], rows,
            f"{len(rows)} cells")


def cmd_grid(config: ExperimentConfig):
    """Write `grid.csv` and report the selected (a, c) cell."""
    if config.grid is None:
        raise ConfigurationError("`grid` needs a [grid] section")
    result = grid_search_spsa(config, config.grid)
    return ("grid.csv", ["a", "c", "sigma", "rmse_opt_gap"], result.rows,
            f"{len(result.rows)} cells; selected a={_fmt(result.best_a)} "
            f"c={_fmt(result.best_c)} rmse_opt_gap={_fmt(result.best_metric)}")


def cmd_estimate(config: ExperimentConfig):
    """Write `estimate.csv`: per-coordinate Cor-CFD diagnostics at one point."""
    if config.estimate is None:
        raise ConfigurationError("`estimate` needs an [estimate] section")
    fn = get_test_function(config.function, config.dimension)
    est = config.estimate
    oracle, rng = replication_streams(fn, est.sigma, config.master_seed, "estimate")
    cfg = replace(config.corcfd, batch_pairs=est.n)  # checked when the config loaded
    grad = cor_cfd_gradient(oracle, est.point, cfg, rng)
    columns = (grad.c_hat, grad.sigma2_hat, grad.mu3_hat, grad.intercept, grad.g)
    rows = [[coord + 1, *values, est.n] for coord, values in enumerate(zip(*columns))]
    return ("estimate.csv", ["coord", "c_hat", "sigma2_hat", "mu3_hat", "intercept",
                             "estimate", "pairs_used"],
            rows, f"d={fn.dimension}, total pairs={grad.pairs_used}")


_COMMANDS = {"run": cmd_run, "bench": cmd_bench, "grid": cmd_grid,
             "estimate": cmd_estimate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdopt",
        description="Derivative-free stochastic optimization benchmarks "
                    "(KW, SPSA, Cor-CFD-GD)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        p.add_argument("--profile", choices=("full", "desk"), default="full")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--workers", type=int, default=None,
                       help="replication worker count override")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        for path in (out, *out.parents):  # the directories are made at the first write
            if path.is_file():
                raise ConfigurationError(f"--out {out}: {path} is a file, not a directory")
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.workers is not None:
            config = replace(config, workers=args.workers)
        name, header, rows, summary = args.handler(apply_profile(config, args.profile))
        _write_csv(out / name, header, rows)
        print(f"wrote {out / name} ({summary})")
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        print(f"error: {exc}", file=sys.stderr)
        return 1
