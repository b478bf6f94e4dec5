"""Batch central-finite-difference gradient estimation and the Cor-CFD pipeline.

A single CFD quotient at perturbation ``c`` has bias ``mu3 * c^2 / 6`` and
variance ``sigma^2 / (2 c^2)`` per sample pair, so the mean squared error of a
batch of ``n`` pairs is

    MSE(c) = mu3^2 c^4 / 36 + sigma^2 / (2 n c^2),

minimized at ``c* = (9 sigma^2 / (n mu3^2))^(1/6)``. The constants ``sigma^2``
(noise variance) and ``mu3`` (third derivative) are unknown in practice. The
Cor-CFD estimator spends the same ``n`` pairs across ``R`` pilot perturbations,
estimates both constants from the pilot spread via least squares, picks the
plug-in optimal perturbation, and then recycles every stored quotient by a
location/scale adjustment so no sample is wasted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oracle import NoisyOracle, as_point


class DegenerateInputError(ValueError):
    """Raised when the optimal-perturbation formula has no interior minimizer."""


@dataclass(frozen=True)
class CfdConfig:
    """Plain batch CFD: ``batch_pairs`` quotients at a fixed perturbation."""

    batch_pairs: int
    perturbation: float

    def __post_init__(self):
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        if not 0 < self.perturbation < np.inf:  # also false for NaN
            raise ValueError(
                f"perturbation={self.perturbation!r} must be finite and > 0")


@dataclass(frozen=True)
class CorCfdConfig:
    """Cor-CFD settings: pilot layout, pilot distribution, bootstrap size.

    ``batch_pairs`` must be divisible by ``pilot_count`` with at least two
    pairs per pilot, so the within-pilot variance is estimable.
    """

    pilot_count: int = 10
    batch_pairs: int = 20
    base_perturbation: float = 1.0
    pilot_spread: float = 0.5
    bootstrap_reps: int = 200

    def __post_init__(self):
        if self.pilot_count < 1:
            raise ValueError("pilot_count must be >= 1")
        if self.batch_pairs % self.pilot_count:
            raise ValueError("pilot_count must divide batch_pairs")
        if self.batch_pairs // self.pilot_count < 2:
            raise ValueError("need at least two sample pairs per pilot")
        if not 0 < self.base_perturbation < np.inf:  # also false for NaN
            raise ValueError(
                f"base_perturbation={self.base_perturbation!r} must be finite and > 0")
        if not 0.0 <= self.pilot_spread < 1.0:
            raise ValueError("pilot_spread must lie in [0, 1)")
        if self.bootstrap_reps < 1:
            raise ValueError("bootstrap_reps must be >= 1")

    @property
    def pairs_per_pilot(self) -> int:
        return self.batch_pairs // self.pilot_count


@dataclass(frozen=True)
class GradientEstimate:
    """Gradient vector plus per-coordinate Cor-CFD diagnostics and pair usage.

    ``g`` and every diagnostic field are float arrays of shape ``(d,)``, with
    entry ``i`` belonging to coordinate ``i``: ``c_hat`` is the plug-in
    optimal perturbation after clamping, ``sigma2_hat`` the estimated noise
    variance, ``mu3_hat`` the estimated third derivative (6 times the
    regression slope), ``intercept`` the regression estimate of the first
    derivative and ``mu3_iqr`` the bootstrap interquartile range of
    ``mu3_hat``. ``pairs_used`` is the exact number of sample pairs drawn.
    """

    g: np.ndarray
    c_hat: np.ndarray
    sigma2_hat: np.ndarray
    mu3_hat: np.ndarray
    intercept: np.ndarray
    mu3_iqr: np.ndarray
    pairs_used: int

    @property
    def curvature_significant(self) -> np.ndarray:
        """Bool ``(d,)`` mask: where the third-derivative estimate clearly
        exceeds its bootstrap dispersion, i.e. the curvature signal is real
        rather than noise. Drives the pilot-scale adaptation of the descent
        loop."""
        return (np.abs(self.mu3_hat) > 2.0 * self.mu3_iqr) & (self.mu3_hat != 0.0)


def _shifted(x: np.ndarray, coord: int, delta: float) -> np.ndarray:
    xs = x.copy()
    xs[coord] += delta
    return xs


def cfd_pair(oracle: NoisyOracle, x, coord: int, c: float) -> float:
    """One central difference quotient from two fresh evaluations at ``x +- c e_coord``."""
    return cfd_batch(oracle, x, coord, CfdConfig(1, c))


def cfd_batch(oracle: NoisyOracle, x, coord: int, cfg: CfdConfig) -> float:
    """Mean of ``n`` independent quotients at a fixed perturbation (2n evaluations)."""
    p = as_point(x, oracle.dimension)
    n, c = cfg.batch_pairs, cfg.perturbation
    y_plus = oracle.evaluate_batch(_shifted(p, coord, c), n)
    y_minus = oracle.evaluate_batch(_shifted(p, coord, -c), n)
    return float(np.mean((y_plus - y_minus) / (2.0 * c)))


def optimal_c(sigma2: float, mu3: float, n: int) -> float:
    """MSE-optimal CFD perturbation ``(9 sigma2 / (n mu3^2))^(1/6)``.

    Minimizes ``mu3^2 c^4 / 36 + sigma2 / (2 n c^2)`` over ``c > 0``. Raises
    :class:`DegenerateInputError` when either constant vanishes (no interior
    minimum exists); callers fall back to a pilot-based perturbation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma2 <= 0 or mu3 == 0:
        raise DegenerateInputError(
            "optimal perturbation undefined for sigma2 <= 0 or mu3 == 0")
    return float((9.0 * sigma2 / (n * mu3 * mu3)) ** (1.0 / 6.0))


def sample_pilot_perturbations(cfg: CorCfdConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``R`` pilot perturbations ``c_base * n^(-1/10) * U(1 +- spread)``.

    The scale shrinks like ``n^(-1/10)``, so the pilot variance is
    ``O(n^(-1/5))``; all draws are strictly positive for spread < 1.
    """
    scale = cfg.base_perturbation * float(n) ** -0.1
    u = rng.uniform(1.0 - cfg.pilot_spread, 1.0 + cfg.pilot_spread, size=cfg.pilot_count)
    return scale * u


def _fit_slope(quotients: np.ndarray, z: np.ndarray, reps: int,
               rng: np.random.Generator) -> tuple[float, float, float]:
    """OLS of the pilot means of ``quotients`` on ``z = c^2``, with a bootstrap.

    Returns ``(intercept, slope, slope_iqr)``, the last being the
    interquartile range of the slope over ``reps`` within-pilot resamples.
    With no spread in ``z`` the fit is rank-deficient: the slope and its IQR
    are then 0 and the intercept is the plain mean. The resample indices are
    drawn in either case, so the stream of ``rng`` does not depend on the
    pilot spread.
    """
    n_pilots, per_pilot = quotients.shape
    idx = rng.integers(0, per_pilot, size=(reps, n_pilots, per_pilot))
    y = quotients.mean(axis=1)
    zc = z - z.mean()
    denom = float(zc @ zc)
    if denom <= 0.0:
        return float(y.mean()), 0.0, 0.0
    slope = float(zc @ (y - y.mean())) / denom
    intercept = float(y.mean()) - slope * float(z.mean())
    rows = np.arange(n_pilots)[None, :, None]
    boot_means = quotients[rows, idx].mean(axis=2)            # (reps, n_pilots)
    slopes = (boot_means - boot_means.mean(axis=1, keepdims=True)) @ zc / denom
    q75, q25 = np.percentile(slopes, [75.0, 25.0])
    return intercept, slope, float(q75 - q25)


_MU3_FLOOR = 1e-12
_BOOTSTRAP_GUARD = 10.0


def cor_cfd_coordinate(oracle: NoisyOracle, x, coord: int, cfg: CorCfdConfig,
                       rng: np.random.Generator) -> tuple[float, ...]:
    """Cor-CFD estimate of one partial derivative; consumes exactly 2n evaluations.

    Returns ``(estimate, c_hat, sigma2_hat, mu3_hat, intercept, mu3_iqr)``,
    the diagnostics in the field order of :class:`GradientEstimate`.

    Pipeline: draw pilots, collect quotients per pilot, estimate the noise
    variance from within-pilot spread and the third derivative from the
    regression of pilot means on squared perturbations, pick the plug-in
    optimal perturbation (with a pilot-geometric-mean fallback and a clamp to
    the pilot range), and average the location/scale-recycled quotients. No
    fresh evaluations happen at the estimated perturbation.
    """
    p = as_point(x, oracle.dimension)
    n = cfg.batch_pairs
    pilots = sample_pilot_perturbations(cfg, n, rng)
    b = cfg.pairs_per_pilot

    quotients = np.empty((cfg.pilot_count, b))
    for r, c in enumerate(pilots):
        y_plus = oracle.evaluate_batch(_shifted(p, coord, c), b)
        y_minus = oracle.evaluate_batch(_shifted(p, coord, -c), b)
        quotients[r] = (y_plus - y_minus) / (2.0 * c)

    pilot_vars = quotients.var(axis=1, ddof=1)
    # Var[quotient] = sigma^2 / (2 c^2), inverted per pilot and averaged.
    sigma2_hat = float(np.mean(2.0 * pilots ** 2 * pilot_vars))

    z = pilots ** 2
    intercept, slope, slope_iqr = _fit_slope(quotients, z, cfg.bootstrap_reps, rng)
    mu3_hat = 6.0 * slope
    unstable = slope_iqr > _BOOTSTRAP_GUARD * abs(slope)

    if sigma2_hat <= 0.0 or abs(mu3_hat) < _MU3_FLOOR or unstable:
        c_hat = float(np.exp(np.mean(np.log(pilots))))
    else:
        c_hat = optimal_c(sigma2_hat, mu3_hat, n)
    c_hat = float(np.clip(c_hat, pilots.min() / 10.0, 10.0 * pilots.max()))

    # Recycle every quotient: match the regression mean at c_hat and rescale
    # the noise from sigma/(sqrt(2) c_r) to sigma/(sqrt(2) c_hat).
    fitted = intercept + slope * z
    target_mean = intercept + slope * c_hat ** 2
    recycled = target_mean + (pilots / c_hat)[:, None] * (quotients - fitted[:, None])
    estimate = float(recycled.mean())

    return estimate, c_hat, sigma2_hat, mu3_hat, intercept, 6.0 * slope_iqr


def cor_cfd_gradient(oracle: NoisyOracle, x, cfg: CorCfdConfig,
                     rng: np.random.Generator,
                     base_perturbations=None) -> GradientEstimate:
    """Cor-CFD estimate of the full gradient, one coordinate at a time.

    Coordinates are processed sequentially against the same oracle stream, so
    the run is reproducible; total cost is exactly ``2 * d * n`` evaluations
    (``d * n`` sample pairs). ``base_perturbations`` optionally overrides the
    pilot base scale per coordinate (used by the descent loop to adapt pilots
    to the local curvature).
    """
    p = as_point(x, oracle.dimension)
    d = oracle.dimension
    rows = []
    for coord in range(d):
        coord_cfg = cfg
        if base_perturbations is not None:
            coord_cfg = replace(cfg, base_perturbation=float(base_perturbations[coord]))
        rows.append(cor_cfd_coordinate(oracle, p, coord, coord_cfg, rng))
    # One contiguous (d,) array per field, in the order the tuples carry them.
    return GradientEstimate(*np.array(rows).T.copy(), pairs_used=d * cfg.batch_pairs)
