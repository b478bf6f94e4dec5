"""Arithmetic of the benchmark: workload shapes, table-cell checks, the
tail-percentile rule and reference-relative wall times. Imports nothing from fdopt, so the checks read the
workload files independently of the program they check."""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

TABLE_HEADER = ["sigma", "method", "metric", "checkpoint", "value"]
RMSE_METRICS = ("rmse_solution_gap", "rmse_optimality_gap")
OSC_METRICS = ("osc_p5", "osc_median", "osc_p95")

# Percentiles tried for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class Workload:
    """The parts of a workload config that fix the shape of its table."""

    name: str
    path: Path
    function: str
    dimension: int
    noise_levels: tuple[float, ...]
    checkpoints: tuple[int, ...]
    replications: int
    algorithms: tuple[str, ...]
    workers: int

    @property
    def effective_checkpoints(self) -> tuple[int, ...]:
        """Pair budgets as the table states them (times d for fn213)."""
        m = self.dimension if self.function == "fn213" else 1
        return tuple(b * m for b in self.checkpoints)

    @property
    def budget_pairs(self) -> int:
        """Sum over table cells of replications times the largest pair budget."""
        cells = len(self.algorithms) * len(self.noise_levels)
        return cells * self.replications * self.effective_checkpoints[-1]

    def implied_cells(self) -> set[tuple[float, str, str, str]]:
        """Keys ``(sigma, method, metric, checkpoint)`` the table must hold."""
        cells = set()
        for alg in self.algorithms:
            for sigma in self.noise_levels:
                for metric in RMSE_METRICS:
                    for b in self.effective_checkpoints:
                        cells.add((sigma, alg, metric, str(b)))
                if self.dimension == 1:
                    for metric in OSC_METRICS:
                        cells.add((sigma, alg, metric, ""))
        return cells


def read_workload(path: Path) -> Workload:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path) as fh:
        parser.read_file(fh)
    exp = parser["experiment"]
    return Workload(
        name=path.stem, path=path, function=exp["function"],
        dimension=exp.getint("dimension", fallback=1),
        noise_levels=tuple(float(v) for v in exp["noise_levels"].split()),
        checkpoints=tuple(int(v) for v in exp["checkpoints"].split()),
        replications=exp.getint("replications"),
        algorithms=tuple(exp["algorithms"].split()),
        workers=exp.getint("workers", fallback=1))


def failed_cells(table: bytes | None, implied: set) -> int:
    """Implied cells that are missing, duplicated, non-finite or negative.

    ``None`` (no table written) or a table that does not parse fails every
    cell.
    """
    if table is None:
        return len(implied)
    try:
        rows = list(csv.reader(io.StringIO(table.decode())))
        if not rows or rows[0] != TABLE_HEADER:
            return len(implied)
        values: dict = {}
        for sigma, method, metric, checkpoint, value in rows[1:]:
            key = (float(sigma), method, metric, checkpoint)
            values[key] = None if key in values else float(value)
    except (UnicodeDecodeError, ValueError):
        return len(implied)
    failed = 0
    for key in implied:
        v = values.get(key)
        if v is None or not math.isfinite(v) or v < 0:
            failed += 1
    return failed


def tail_percentile(values) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Percentiles are nearest-rank: the ``ceil(p/100 * n)``-th order statistic.
    Returns ``(p, value)``; with fewer than twenty samples no ladder entry
    qualifies and the maximum is returned as ``(100.0, max)``.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("tail of an empty sample is undefined")
    best = (100.0, data[-1])
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            best = (p, data[rank - 1])
    return best


def wall_ratios(walls, refs) -> list[float]:
    """Each wall time over the mean of the reference times around it.

    ``refs[i]`` is timed just before ``walls[i]`` and ``refs[i + 1]`` just
    after, so a drift in host speed that spans both cancels out.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference time before each wall time and one after the last")
    return [w / ((refs[i] + refs[i + 1]) / 2.0) for i, w in enumerate(walls)]
