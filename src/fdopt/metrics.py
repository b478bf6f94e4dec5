"""Replication-level statistics: gap RMSEs, boundary oscillation, percentiles."""

from __future__ import annotations

import math

import numpy as np


def rmse(values) -> float:
    """Root mean square of a nonempty list of values."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("rmse of an empty list is undefined")
    return float(np.sqrt(np.mean(v * v)))


def solution_gap(x, x_star) -> float:
    """Euclidean distance between an iterate and the known optimizer."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.atleast_1d(np.asarray(x_star, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def optimality_gap(value_at_x: float, optimum_value: float) -> float:
    """Absolute difference between the noiseless objective value and the optimum."""
    return abs(float(value_at_x) - float(optimum_value))


def _boundary_flips(series, lower: float, upper: float) -> np.ndarray:
    """Boolean mask over index k >= 1 of opposite-boundary flips (x_{k-1}, x_k).

    Boundary membership is tested with exact equality: projection emits the
    bound verbatim, so no tolerance is needed.
    """
    xs = np.asarray(series, dtype=float)
    if xs.ndim != 1:
        raise ValueError("oscillation statistics require a series of scalar iterates")
    at_lo = xs == lower
    at_hi = xs == upper
    return (at_lo[:-1] & at_hi[1:]) | (at_hi[:-1] & at_lo[1:])


def oscillatory_period(series, lower: float, upper: float) -> int:
    """Count of consecutive-iterate flips between opposite boundaries.

    Cardinality of ``{k >= 2 : x_k and x_{k-1} sit on opposite bounds}`` over
    the scalar iterates ``x_0, x_1, ...`` (``traj.iterates[:, 0]`` of a 1-d
    run); staying on one boundary is not a flip, and the pair ``(x_0, x_1)``
    is excluded.
    """
    return int(_boundary_flips(series, lower, upper)[1:].sum())


def oscillation_settle_index(series, lower: float, upper: float) -> int:
    """Iteration index of the last opposite-boundary flip (0 if none).

    This is the "sample pairs until the oscillation stops" statistic reported
    by the benchmark tables; on a single leading flip chain it equals
    ``oscillatory_period + 1``.
    """
    idx = np.flatnonzero(_boundary_flips(series, lower, upper)[1:])
    return int(idx[-1]) + 2 if idx.size else 0


def percentiles(values) -> tuple:
    """The 5th, 50th and 95th empirical percentiles, by the nearest-rank method.

    Returns the ``ceil(p * N)``-th order statistic for each ``p`` in
    ``(0.05, 0.5, 0.95)``, so every returned value is an element of the input.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentiles of an empty list are undefined")
    out = []
    for p in (0.05, 0.5, 0.95):
        rank = min(n, max(1, math.ceil(p * n)))
        out.append(data[rank - 1])
    return tuple(out)

