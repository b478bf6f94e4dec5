"""Noisy black-box objectives, the test-function suite, and box domains.

An objective is observed only through ``Y(x) = mean(x) + sigma * Z`` with
``Z`` a standard normal draw, and every observation is charged to an exact
evaluation counter. The counter is the budget unit shared by all optimizers
in this package (one "sample pair" = two evaluations).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

MeanFn = Callable[[np.ndarray], "float | np.ndarray"]

# Normals a NoisyOracle draws per generator call, ahead of its observations.
_AHEAD = 128


def as_point(x, dimension: int) -> np.ndarray:
    """Coerce ``x`` to a 1-d float vector, checking finiteness and length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-d vector, got shape {p.shape}")
    if p.shape[0] != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension}, got {p.shape[0]}")
    if not np.isfinite(p).all():
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

    def project(self, x) -> np.ndarray:
        """Componentwise clamp into the box. Idempotent; bounds are hit exactly."""
        p = as_point(x, self.dimension)
        return np.minimum(np.maximum(p, self.lower), self.upper)


def _reject_non_finite(value, x):
    raise ValueError(f"objective returned non-finite value {value} at point "
                     f"{np.asarray(x, dtype=float).tolist()}")


class NoisyOracle:
    """Black-box objective ``Y(x) = mean_fn(x) + sigma * Z`` with exact accounting.

    Each ``evaluate`` call increments the evaluation counter by exactly one;
    ``evaluate_batch`` charges one per observation it returns, with the noise
    stream of as many single calls. A NaN or infinite mean value raises
    ``ValueError`` naming the value and the point. SPSA observes both probes
    of a step with one ``evaluate_batch(probes, 2)`` call.

    ``mean_fn`` maps one point to a float and an ``(m, d)`` stack of points
    to an ``(m,)`` array, equal row for row: ``evaluate`` passes it a point
    and ``evaluate_batch`` a stack.

    Two oracles built with the same seed produce bit-identical evaluation
    streams: observation ``k`` gets normal ``k`` of the seed's stream, as one
    ``standard_normal()`` call per observation would give it. The generator
    draws ahead in blocks of ``_AHEAD`` (none at ``noise_sigma`` 0), so it
    may run up to one block ahead of the observations. Instances carry
    mutable state (counter + RNG) and must not be shared between threads.
    """

    def __init__(self, mean_fn: MeanFn, dimension: int, noise_sigma: float = 0.0, seed=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= noise_sigma < math.inf:  # also false for NaN
            raise ValueError(f"noise_sigma={noise_sigma!r} must satisfy 0 <= sigma < inf")
        self._mean_fn = mean_fn
        self.dimension = int(dimension)
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)
        self._ahead = iter(())  # normals drawn but not yet used
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
            z = next(self._ahead, None)
            if z is None:
                self._ahead = iter(self._rng.standard_normal(_AHEAD).tolist())
                z = next(self._ahead)
            y = y + self.noise_sigma * z  # not +=: y may be a view of x
        return float(y)

    def evaluate_batch(self, x, size: int) -> np.ndarray:
        """``size`` independent observations; charges ``size`` evaluations.

        ``x`` is an ``(m, d)`` stack of points. The result is an
        ``(m, size // m)`` array whose row ``i`` holds the observations at
        ``x[i]``. ``size`` is the total over the stack and must be a multiple
        of ``m``. The draws equal those of ``size`` single calls, point after
        point. With one observation per point (``size == m``), the rows then
        take ``evaluate``'s steps one by one, which is cheaper for a few rows;
        a non-finite row raises after the rows before it drew their normals.
        """
        stack = np.asarray(x, dtype=float)
        if stack.ndim != 2:
            raise ValueError(f"expected an (m, d) stack, got shape {stack.shape}")
        m, width = stack.shape
        if width != self.dimension:
            raise ValueError(
                f"dimension mismatch: oracle is {self.dimension}-d, point is {width}-d")
        if size < 1:
            raise ValueError("size must be >= 1")
        if size % m:
            raise ValueError(f"size {size} is not a multiple of the {m} stacked points")
        self._count += size
        mu = np.asarray(self._mean_fn(stack), dtype=float)
        if mu.shape != (m,):
            raise ValueError(f"mean_fn returned shape {mu.shape} for {m} points")
        if size == m:  # one observation per point: evaluate's steps, row by row
            ys = mu.tolist()
            for i, y in enumerate(ys):
                if not math.isfinite(y):
                    _reject_non_finite(y, stack[i])
                if self.noise_sigma:
                    z = next(self._ahead, None)
                    if z is None:
                        self._ahead = iter(self._rng.standard_normal(_AHEAD).tolist())
                        z = next(self._ahead)
                    ys[i] = y + self.noise_sigma * z
            return np.array(ys)[:, None]
        finite = np.isfinite(mu)
        if not finite.all():
            i = int(np.argmin(finite))
            _reject_non_finite(mu[i], stack[i])
        shape = (m, size // m)
        if self.noise_sigma:
            held = np.fromiter(self._ahead, float,  # first the block evaluate drew
                               min(operator.length_hint(self._ahead), size))
            z = np.concatenate((held, self._rng.standard_normal(size - len(held))))
            return mu[:, None] + self.noise_sigma * z.reshape(shape)
        return np.repeat(mu, shape[1]).reshape(shape)


@dataclass(frozen=True)
class TestFunction:
    """A benchmark objective with a known optimum.

    ``mean_fn`` follows ``NoisyOracle``'s contract: a point gives a float,
    an ``(m, d)`` stack an ``(m,)`` array.
    """

    name: str
    dimension: int
    mean_fn: MeanFn
    optimum_point: np.ndarray
    optimum_value: float

    def make_oracle(self, noise_sigma: float = 0.0, seed=None) -> NoisyOracle:
        return NoisyOracle(self.mean_fn, self.dimension, noise_sigma, seed)


# KW calls the 1-d means one point at a time, so they test for a stack with
# ``type(x) is _ndarray``, the cheapest test. ``math.pow`` and
# ``np.float_power`` both call libm's pow; ``x ** 4`` may take a SIMD kernel
# that rounds differently.
_ndarray = np.ndarray


def quartic_mean(x):
    if type(x) is _ndarray and x.ndim == 2:
        return np.float_power(x[:, 0], 4)
    try:
        return math.pow(x[0], 4)
    except OverflowError:  # np.float_power gives inf
        return math.inf


def cos100_mean(x):
    if type(x) is _ndarray and x.ndim == 2:
        return -100.0 * np.cos(np.pi * x[:, 0] / 100.0)
    try:
        return -100.0 * math.cos(math.pi * float(x[0]) / 100.0)
    except ValueError:  # cos of an infinite angle; np.cos gives nan
        return math.nan


def fn213_mean(x):
    """Sum over coordinate pairs of ``(10(x_even - x_odd)^2 + (1 - x_odd)^2)^4``.

    A narrow curved valley with steep walls; global minimum 0 at all-ones.
    Requires an even dimension.
    """
    v = np.asarray(x, dtype=float)
    if v.shape[-1] % 2:
        raise ValueError("fn213 requires an even dimension")
    first = v[..., 0::2]
    second = v[..., 1::2]
    terms = 10.0 * (second - first) ** 2 + (1.0 - first) ** 2
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    total = np.add.reduce(terms ** 4, axis=-1)
    return float(total) if v.ndim == 1 else total


def get_test_function(name: str, dimension: int | None = None) -> TestFunction:
    """Look up a test function by string id: ``quartic``, ``cos100``, ``fn213``."""
    one_dimensional = {"quartic": (quartic_mean, 0.0), "cos100": (cos100_mean, -100.0)}
    if name in one_dimensional:
        if dimension not in (None, 1):
            raise ValueError(f"{name} is one-dimensional")
        mean_fn, optimum_value = one_dimensional[name]
        return TestFunction(name, 1, mean_fn, np.zeros(1), optimum_value)
    if name == "fn213":
        d = 64 if dimension is None else int(dimension)
        if d < 2 or d % 2:
            raise ValueError("fn213 requires an even dimension >= 2")
        return TestFunction("fn213", d, fn213_mean, np.ones(d), 0.0)
    raise ValueError(f"unknown test function {name!r}; expected quartic, cos100, or fn213")
