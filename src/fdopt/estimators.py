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

from dataclasses import dataclass

import numpy as np

from .oracle import NoisyOracle, as_point


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

    A batch of ``n`` pairs draws ``pilot_count`` pilot perturbations
    ``base_perturbation * n^(-1/10) * U(1 +- pilot_spread)``, each > 0.
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


def cfd_pair(oracle: NoisyOracle, x, coord: int, c: float) -> float:
    """One central difference quotient from two fresh evaluations at ``x +- c e_coord``."""
    return cfd_batch(oracle, x, coord, CfdConfig(1, c))


def cfd_batch(oracle: NoisyOracle, x, coord: int, cfg: CfdConfig) -> float:
    """Mean of ``n`` independent quotients at a fixed perturbation (2n evaluations)."""
    p = as_point(x, oracle.dimension)
    n, c = cfg.batch_pairs, cfg.perturbation
    points = np.array([p, p])
    points[:, coord] += (c, -c)
    y_plus, y_minus = oracle.evaluate_batch(points, 2 * n)
    return float(np.mean((y_plus - y_minus) / (2.0 * c)))


def optimal_c(sigma2, mu3, n: int):
    """MSE-optimal CFD perturbation ``(9 sigma2 / (n mu3^2))^(1/6)``.

    Minimizes ``mu3^2 c^4 / 36 + sigma2 / (2 n c^2)`` over ``c > 0``, for
    floats (giving a float) or arrays (elementwise); the power is libm's
    ``pow``, as Python's ``**`` takes it. Raises ``ValueError``, naming the
    first bad pair, unless every ``sigma2`` is finite and > 0 and every
    ``mu3`` finite and nonzero (otherwise no interior minimum exists).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma2, mu3 = np.broadcast_arrays(np.asarray(sigma2, dtype=float),
                                      np.asarray(mu3, dtype=float))
    bad = ~((0.0 < sigma2) & (sigma2 < np.inf) & (mu3 != 0.0) & np.isfinite(mu3))
    if bad.any():
        i = bad.argmax()
        raise ValueError(
            "optimal perturbation needs finite sigma2 > 0 and finite mu3 != 0, got "
            f"sigma2={float(sigma2.flat[i])!r}, mu3={float(mu3.flat[i])!r}")
    c = np.float_power(9.0 * sigma2 / (n * mu3 * mu3), 1.0 / 6.0)
    return float(c) if c.ndim == 0 else c


_MU3_FLOOR = 1e-12
_BOOTSTRAP_GUARD = 10.0
# A block of k coordinates draws k * bootstrap_reps * batch_pairs bootstrap
# indices; blocks hold at most this many (and at least one coordinate).
_BLOCK_INDICES = 2 ** 15


def _quartile_spread(samples: np.ndarray) -> np.ndarray:
    """Row-wise ``q75 - q25`` of a ``(k, m)`` array.

    Equal, bit for bit, to ``np.percentile(samples, [75, 25], axis=1)`` with
    its default linear method: the same partition and interpolation steps,
    without its fixed per-call overhead, which outweighs the whole bootstrap
    of a one-coordinate block.
    """
    m = samples.shape[1]
    # Interpolate at (m - 1) q between order statistics lo and lo + 1; one
    # sample is both, taken with weight 0 where numpy uses 1: the same spread.
    cuts = [(int(at), min(int(at) + 1, m - 1), at - int(at))
            for at in ((m - 1) * 0.75, (m - 1) * 0.25)]
    kth = sorted({0, m - 1} | {i for lo, hi, _ in cuts for i in (lo, hi)})
    ordered = np.partition(samples, kth, axis=1)
    quartiles = []
    for lo, hi, t in cuts:
        below, above = ordered[:, lo], ordered[:, hi]
        diff = above - below
        quartiles.append(above - diff * (1 - t) if t >= 0.5 else below + diff * t)
    spread = quartiles[0] - quartiles[1]
    spread[np.isnan(ordered[:, -1])] = np.nan  # numpy's answer for rows with a NaN
    return spread


def _cor_cfd_block(oracle: NoisyOracle, p: np.ndarray, coords: np.ndarray,
                   bases: np.ndarray, cfg: CorCfdConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """Cor-CFD estimates of the partials ``coords`` at ``p``, one oracle call.

    ``bases[i]`` is the pilot base scale of ``coords[i]``. Returns a
    ``(6, k)`` array whose rows are the fields of :class:`GradientEstimate`
    in order; charges exactly ``2 k n`` evaluations.

    Pipeline, per coordinate: draw pilots, collect quotients per pilot,
    estimate the noise variance from within-pilot spread and the third
    derivative from the regression of pilot means on squared perturbations
    (with a bootstrap of its spread), pick the plug-in optimal perturbation
    (with a pilot-geometric-mean fallback and a clamp to the pilot range),
    and average the location/scale-recycled quotients. No fresh evaluations
    happen at the estimated perturbation.

    Every draw and every floating-point result is the one a
    coordinate-by-coordinate loop would give: ``rng`` gives each coordinate
    its pilots and then its bootstrap indices, the oracle draws the noise of
    coordinate, pilot, then ``+``/``-`` side in turn, and each batched ``@``
    makes one kernel call per coordinate. A bootstrap mean sums its ``b``
    draws in draw order, from the first draw on.
    """
    k, d = len(coords), oracle.dimension
    n_pilots, b, n = cfg.pilot_count, cfg.pairs_per_pilot, cfg.batch_pairs
    reps = cfg.bootstrap_reps
    u = np.empty((k, n_pilots))
    # Indices are drawn as int64 (the dtype fixes the stream) but kept small,
    # draw-major: idx[j, i, r, q] is draw j of resample r of coordinate i's pilot q.
    idx = np.empty((b, k, reps, n_pilots), dtype=np.min_scalar_type(b - 1))
    for i in range(k):
        u[i] = rng.uniform(1.0 - cfg.pilot_spread, 1.0 + cfg.pilot_spread, size=n_pilots)
        idx[:, i] = rng.integers(0, b, size=(reps, n_pilots, b)).transpose(2, 0, 1)
    # Pilots c_base * n^(-1/10) * U(1 +- spread), as CorCfdConfig states.
    pilots = (bases * float(n) ** -0.1)[:, None] * u                # (k, R)

    points = np.empty((k, n_pilots, 2, d))
    points[...] = p
    points[np.arange(k), :, :, coords] += pilots[:, :, None] * np.array([1.0, -1.0])
    y = oracle.evaluate_batch(points.reshape(-1, d), 2 * k * n).reshape(k, n_pilots, 2, b)
    quotients = (y[:, :, 0] - y[:, :, 1]) / (2.0 * pilots[:, :, None])  # (k, R, b)

    # Means and variances take numpy's own ufunc steps, without its wrappers.
    add = np.add.reduce
    y_bar = add(quotients, 2) / b                                  # pilot means
    dev = quotients - y_bar[:, :, None]
    # Var[quotient] = sigma^2 / (2 c^2), inverted per pilot and averaged.
    var = add(np.square(dev, out=dev), 2) / (b - 1)
    sigma2_hat = add(2.0 * pilots ** 2 * var, 1) / n_pilots

    # OLS of the pilot means on z = c^2. With equal pilots (z - mean(z) may
    # still be rounding noise) the fit is rank-deficient: the slope and its
    # bootstrap IQR are then 0 and the intercept is the plain mean. The
    # bootstrap indices are drawn in either case, so rng's stream does not
    # depend on the pilot spread.
    z = pilots ** 2
    z_mean = add(z, 1, keepdims=True) / n_pilots
    y_mean = add(y_bar, 1, keepdims=True) / n_pilots
    zc = z - z_mean
    denom = (zc[:, None, :] @ zc[:, :, None])[:, 0, 0]
    low, high = np.minimum.reduce(pilots, 1), np.maximum.reduce(pilots, 1)
    fit = high > low
    denom[~fit] = 1.0
    cross = (zc[:, None, :] @ (y_bar - y_mean)[:, :, None])[:, 0, 0]
    slope = np.where(fit, cross / denom, 0.0)
    intercept = y_mean[:, 0] - slope * z_mean[:, 0]

    # Slope over `reps` within-pilot resamples, the whole block at once, one
    # take per draw (one take of all would hold a full intp copy of `flat`).
    starts = np.arange(0, k * n, b, dtype=np.min_scalar_type(k * n - 1))
    flat = idx + starts.reshape(k, 1, n_pilots)         # indices into quotients.flat
    boot_means = quotients.take(flat[0])
    for j in range(1, b):
        boot_means += quotients.take(flat[j])
    boot_means /= b
    centered = boot_means - add(boot_means, 2, keepdims=True) / n_pilots
    slopes = (centered @ zc[:, :, None])[:, :, 0] / denom[:, None]
    slopes[~fit] = 0.0
    slope_iqr = _quartile_spread(slopes)

    mu3_hat = 6.0 * slope
    unstable = slope_iqr > _BOOTSTRAP_GUARD * np.abs(slope)
    fallback = (sigma2_hat <= 0.0) | (np.abs(mu3_hat) < _MU3_FLOOR) | unstable
    c_hat = np.exp(add(np.log(pilots), 1) / n_pilots)
    plug_in = ~fallback
    try:
        c_hat[plug_in] = optimal_c(sigma2_hat[plug_in], mu3_hat[plug_in], n)
    except ValueError as exc:  # a non-finite sigma2_hat or mu3_hat: name its stage
        i = np.flatnonzero(plug_in & ~(np.isfinite(sigma2_hat) & np.isfinite(mu3_hat)))[0]
        stage, value = (("curvature estimate", mu3_hat[i]) if np.isfinite(sigma2_hat[i])
                        else ("within-pilot variance", sigma2_hat[i]))
        raise ValueError(f"Cor-CFD {stage} is not finite at coordinate {int(coords[i])}: "
                         f"{float(value)!r}; {exc}") from exc
    c_hat = np.minimum(np.maximum(c_hat, low / 10.0), 10.0 * high)

    # Recycle every quotient: match the regression mean at c_hat and rescale
    # the noise from sigma/(sqrt(2) c_r) to sigma/(sqrt(2) c_hat).
    fitted = intercept[:, None] + slope[:, None] * z
    # c_hat^2 by libm's pow, as the coordinate loop took it: numpy's ``** 2``
    # is c * c, which can differ in the last bit.
    target_mean = intercept + slope * np.float_power(c_hat, 2)
    recycled = (target_mean[:, None, None] + (pilots / c_hat[:, None])[:, :, None]
                * (quotients - fitted[:, :, None]))
    estimate = add(recycled.reshape(k, -1), 1) / n

    return np.array([estimate, c_hat, sigma2_hat, mu3_hat, intercept, 6.0 * slope_iqr])


def cor_cfd_coordinate(oracle: NoisyOracle, x, coord: int, cfg: CorCfdConfig,
                       rng: np.random.Generator) -> tuple[float, ...]:
    """Cor-CFD estimate of one partial derivative; consumes exactly 2n evaluations.

    Returns ``(estimate, c_hat, sigma2_hat, mu3_hat, intercept, mu3_iqr)``,
    the diagnostics in the field order of :class:`GradientEstimate`. This is
    :func:`cor_cfd_gradient`'s block computation for the single coordinate
    ``coord``, with pilot base scale ``cfg.base_perturbation``.
    """
    p = as_point(x, oracle.dimension)
    block = _cor_cfd_block(oracle, p, np.array([coord]),
                           np.array([cfg.base_perturbation]), cfg, rng)
    return tuple(block[:, 0].tolist())


def cor_cfd_gradient(oracle: NoisyOracle, x, cfg: CorCfdConfig,
                     rng: np.random.Generator,
                     base_perturbations=None) -> GradientEstimate:
    """Cor-CFD estimate of the full gradient, in blocks of coordinates.

    Each block of ``k`` coordinates is evaluated with one stacked oracle call
    and analysed as ``(k, R, b)`` arrays. The result equals, bit for bit and
    in the state it leaves ``rng`` and the oracle in, estimating coordinate
    after coordinate with :func:`cor_cfd_coordinate`, so the run is
    reproducible; total cost is exactly ``2 * d * n`` evaluations (``d * n``
    sample pairs). ``base_perturbations`` optionally overrides the pilot base
    scale per coordinate (used by the descent loop to adapt pilots to the
    local curvature): ``d`` values, each finite and > 0, checked before any
    evaluation. A gradient entry that is not finite raises ``ValueError``.
    """
    p = as_point(x, oracle.dimension)
    d = oracle.dimension
    if base_perturbations is None:
        bases = np.full(d, cfg.base_perturbation)
    else:
        bases = np.asarray(base_perturbations, dtype=float)
        if bases.shape != (d,) or not ((bases > 0.0) & (bases < np.inf)).all():
            raise ValueError(f"base_perturbations must be {d} finite values > 0, "
                             f"got {bases.tolist()!r}")
    width = max(1, _BLOCK_INDICES // (cfg.bootstrap_reps * cfg.batch_pairs))
    fields = np.empty((6, d))
    for start in range(0, d, width):
        coords = np.arange(start, min(start + width, d))
        fields[:, coords] = _cor_cfd_block(oracle, p, coords, bases[coords], cfg, rng)
    if not np.isfinite(fields[0]).all():  # sigma2_hat = inf can still give a finite fallback
        coord = int(np.argmin(np.isfinite(fields[0])))
        raise ValueError(f"Cor-CFD gradient is not finite at coordinate {coord}: "
                         f"{float(fields[0, coord])!r} at c_hat={float(fields[1, coord])!r}")
    return GradientEstimate(*fields, pairs_used=d * cfg.batch_pairs)
