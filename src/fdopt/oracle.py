"""Noisy black-box objectives, the test-function suite, and box domains.

An objective is observed only through ``Y(x) = mean(x) + sigma * Z`` with
``Z`` a standard normal draw, and every observation is charged to an exact
evaluation counter. The counter is the budget unit shared by all optimizers
in this package (one "sample pair" = two evaluations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Point = np.ndarray
MeanFn = Callable[[np.ndarray], float]

_UINT64_MASK = (1 << 64) - 1


def as_point(x, dimension: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d float vector, checking finiteness and length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-d vector, got shape {p.shape}")
    if dimension is not None and p.shape[0] != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension}, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with componentwise clamping projection."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower and upper must have the same length")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def interval(cls, lower: float, upper: float, dimension: int = 1) -> "BoxDomain":
        """Box with the same bounds in every coordinate."""
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        p = as_point(x, self.dimension)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def project(self, x) -> np.ndarray:
        """Componentwise clamp into the box. Idempotent; bounds are hit exactly."""
        p = as_point(x, self.dimension)
        return np.clip(p, self.lower, self.upper)


def _reject_non_finite(value, x):
    raise ValueError(f"objective returned non-finite value {value} at point "
                     f"{np.asarray(x, dtype=float).tolist()}")


class NoisyOracle:
    """Black-box objective ``Y(x) = mean_fn(x) + sigma * Z`` with exact accounting.

    Each ``evaluate`` call increments the evaluation counter by exactly one;
    ``evaluate_batch(x, m)`` draws ``m`` independent observations at the same
    point and charges ``m`` (the noise stream is identical to ``m`` single
    calls). ``true_mean`` bypasses both noise and the counter and exists only
    so benchmark metrics can query the noiseless objective. A NaN or infinite
    mean value raises ``ValueError`` naming the value and the point.

    Two oracles built with the same seed produce bit-identical evaluation
    streams. Instances carry mutable state (counter + RNG) and must not be
    shared between threads.
    """

    def __init__(self, mean_fn: MeanFn, dimension: int, noise_sigma: float = 0.0,
                 seed=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self._mean_fn = mean_fn
        self.dimension = int(dimension)
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)
        self._count = 0

    @property
    def eval_counter(self) -> int:
        """Number of single function evaluations consumed so far."""
        return self._count

    def evaluate(self, x) -> float:
        """One noisy observation at ``x``; charges one evaluation."""
        if len(x) != self.dimension:
            raise ValueError(
                f"dimension mismatch: oracle is {self.dimension}-d, point is {len(x)}-d")
        self._count += 1
        y = self._mean_fn(x)
        if not math.isfinite(y):
            _reject_non_finite(y, x)
        if self.noise_sigma:
            y += self.noise_sigma * self._rng.standard_normal()
        return float(y)

    def evaluate_batch(self, x, size: int) -> np.ndarray:
        """``size`` independent observations at ``x``; charges ``size`` evaluations."""
        if len(x) != self.dimension:
            raise ValueError(
                f"dimension mismatch: oracle is {self.dimension}-d, point is {len(x)}-d")
        if size < 1:
            raise ValueError("size must be >= 1")
        self._count += size
        mu = self._mean_fn(x)
        if not math.isfinite(mu):
            _reject_non_finite(mu, x)
        if self.noise_sigma:
            return mu + self.noise_sigma * self._rng.standard_normal(size)
        return np.full(size, float(mu))

    def true_mean(self, x) -> float:
        """Noiseless mean response. Metrics only: does not touch the counter."""
        return float(self._mean_fn(x))


@dataclass(frozen=True)
class TestFunction:
    """A benchmark objective with a known optimum."""

    name: str
    dimension: int
    mean_fn: MeanFn
    optimum_point: np.ndarray
    optimum_value: float

    def make_oracle(self, noise_sigma: float = 0.0, seed=None) -> NoisyOracle:
        return NoisyOracle(self.mean_fn, self.dimension, noise_sigma, seed)


def quartic_mean(x) -> float:
    return float(x[0]) ** 4


def cos100_mean(x) -> float:
    return -100.0 * math.cos(math.pi * float(x[0]) / 100.0)


def fn213_mean(x) -> float:
    """Sum over coordinate pairs of ``(10(x_even - x_odd)^2 + (1 - x_odd)^2)^4``.

    A narrow curved valley with steep walls; global minimum 0 at all-ones.
    Requires an even dimension.
    """
    if len(x) % 2:
        raise ValueError("fn213 requires an even dimension")
    v = np.asarray(x, dtype=float)
    first = v[0::2]
    second = v[1::2]
    terms = 10.0 * (second - first) ** 2 + (1.0 - first) ** 2
    return float((terms ** 4).sum())


def get_test_function(name: str, dimension: int | None = None) -> TestFunction:
    """Look up a test function by string id: ``quartic``, ``cos100``, ``fn213``."""
    if name == "quartic":
        if dimension not in (None, 1):
            raise ValueError("quartic is one-dimensional")
        return TestFunction("quartic", 1, quartic_mean, np.zeros(1), 0.0)
    if name == "cos100":
        if dimension not in (None, 1):
            raise ValueError("cos100 is one-dimensional")
        return TestFunction("cos100", 1, cos100_mean, np.zeros(1), -100.0)
    if name == "fn213":
        d = 64 if dimension is None else int(dimension)
        if d < 2 or d % 2:
            raise ValueError("fn213 requires an even dimension >= 2")
        return TestFunction("fn213", d, fn213_mean, np.ones(d), 0.0)
    raise ValueError(f"unknown test function {name!r}; expected quartic, cos100, or fn213")
