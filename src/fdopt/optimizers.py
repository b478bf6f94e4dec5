"""The three derivative-free optimization loops: KW, SPSA, and Cor-CFD-GD.

All loops drive a :class:`~fdopt.oracle.NoisyOracle` under a shared budget
contract: the budget is a number of sample pairs, one pair equals two oracle
evaluations, and every iterate is projected into the box domain and recorded
together with the evaluation count at which it was produced. The oracle's own
evaluation counter is the only budget count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import CorCfdConfig, GradientEstimate, cor_cfd_gradient
from .oracle import BoxDomain, NoisyOracle, as_point


class ConfigurationError(ValueError):
    """Run settings that are invalid before any evaluation happens."""


@dataclass(frozen=True)
class GainSchedule:
    """Deterministic step-size and perturbation sequences ``a_k``, ``c_k``."""

    a: float
    c: float
    A: float = 0.0
    a_exponent: float = 1.0
    c_exponent: float = 0.25

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 < self.c < np.inf):  # also false for NaN
            raise ValueError(f"gains a={self.a!r} and c={self.c!r} must be finite and > 0")
        if not 0 <= self.A < np.inf:
            raise ValueError(f"stability constant A={self.A!r} must be finite and >= 0")

    @classmethod
    def kw(cls, a: float = 1.0, c: float = 1.0) -> "GainSchedule":
        """Classic KW gains ``a_k = a/k``, ``c_k = c/k^(1/4)``."""
        return cls(a=a, c=c, A=0.0, a_exponent=1.0, c_exponent=0.25)

    @classmethod
    def spsa(cls, a: float, c: float, A: float = 0.0) -> "GainSchedule":
        """Standard SPSA gains ``a_k = a/(A+k+1)^0.602``, ``c_k = c/(k+1)^0.101``."""
        return cls(a=a, c=c, A=A, a_exponent=0.602, c_exponent=0.101)


@dataclass
class Trajectory:
    """Iterates of one optimizer run, each stamped with the evaluation count.

    ``iterates`` has shape ``(m, d)``: row ``k`` is ``x_k`` and row 0 is the
    starting point. ``evaluations`` has shape ``(m,)`` and is increasing: entry
    ``k`` is the number of evaluations the run had used when it produced
    ``x_k`` (0 for the start). ``ls_exhausted`` lists iteration indices whose
    Armijo search accepted no trial. The smallest trial step is still taken,
    unless the search was cut short by the evaluation budget: then ``x_k``
    repeats ``x_{k-1}``.
    """

    iterates: np.ndarray
    evaluations: np.ndarray
    ls_exhausted: list[int] = field(default_factory=list)

    def at_pair_budget(self, pairs: int) -> np.ndarray:
        """Last iterate produced with at most ``2 * pairs`` evaluations."""
        i = int(np.searchsorted(self.evaluations, 2 * pairs, side="right")) - 1
        if i < 0:
            raise ValueError(f"no iterate within a budget of {pairs} pairs")
        return self.iterates[i]


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters for the noise-relaxed sufficient-decrease test."""

    l1: float = 1e-4
    l2: float = 0.5
    a0: float = 1.0
    max_backtracks: int = 30

    def __post_init__(self):
        if not 0 < self.l1 < 1:
            raise ValueError("l1 must lie in (0, 1)")
        if not 0 < self.l2 < 1:
            raise ValueError("l2 must lie in (0, 1)")
        if not 0 < self.a0 < np.inf:  # also false for NaN
            raise ValueError(f"a0={self.a0!r} must be finite and > 0")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


def armijo_search(oracle: NoisyOracle, x, g, params: ArmijoParams) -> tuple[float, int, bool]:
    """Backtracking line search under the noise-relaxed Armijo condition.

    Accepts the first step ``a`` (from ``a0`` downward by factors of ``l2``)
    with ``Y(x - a g) <= Y(x) - l1 a g.g + 2 sigma2``, where ``sigma2`` is the
    mean of ``g.sigma2_hat`` for a :class:`GradientEstimate` and 0 for a
    plain vector. One fresh baseline evaluation of ``Y(x)`` is drawn per
    search and reused across backtracks.
    Returns ``(a, evaluations_used, accepted)``; when the backtrack budget runs
    out, the smallest trial step is returned with ``accepted=False``.
    """
    p = as_point(x, oracle.dimension)
    if isinstance(g, GradientEstimate):
        g_vec, relax = g.g, 2.0 * float(np.mean(g.sigma2_hat))
    else:
        g_vec, relax = np.asarray(g, dtype=float), 0.0
    gg = float(g_vec @ g_vec)
    baseline = oracle.evaluate(p)
    n_ls = 1
    a = params.a0
    for _ in range(params.max_backtracks):
        candidate = oracle.evaluate(p - a * g_vec)
        n_ls += 1
        if candidate <= baseline - params.l1 * a * gg + relax:
            return a, n_ls, True
        a *= params.l2
    return a / params.l2, n_ls, False


def batch_schedule(n0: int, R: int, k: int) -> int:
    """Batch size at iteration ``k``: ``floor((n0 + k) / R) * R``.

    Nondecreasing in ``k``, always divisible by ``R``, equal to ``n0`` at 0.
    """
    if n0 < 1 or R < 1:
        raise ValueError("n0 and R must be >= 1")
    if n0 % R:
        raise ValueError("R must divide n0")
    if k < 0:
        raise ValueError("k must be >= 0")
    return ((n0 + k) // R) * R


def kw_run(oracle: NoisyOracle, domain: BoxDomain, x0: float,
           schedule: GainSchedule, budget_pairs: int) -> Trajectory:
    """Kiefer-Wolfowitz: one CFD pair per iteration with diminishing gains.

    ``x_{k+1} = project(x_k - a_k g_k)`` with ``a_k = a/(A+k)^p``,
    ``c_k = c/k^q`` (defaults ``p=1``, ``q=1/4``), iterating from ``k=1`` until
    ``2 * budget_pairs`` evaluations are consumed.
    """
    if oracle.dimension != 1:
        raise ValueError("kw_run requires a one-dimensional oracle")
    if budget_pairs < 1:
        raise ValueError("budget must be at least one pair")
    lower = float(domain.lower[0])
    upper = float(domain.upper[0])
    x = min(max(float(x0), lower), upper)
    start = oracle.eval_counter
    xs = np.empty(budget_pairs + 1)
    evaluations = np.zeros(budget_pairs + 1, dtype=int)
    xs[0] = x
    for k in range(1, budget_pairs + 1):  # every step charges exactly one pair
        a_k = schedule.a / (schedule.A + k) ** schedule.a_exponent
        c_k = schedule.c / k ** schedule.c_exponent
        y_plus = oracle.evaluate((x + c_k,))
        y_minus = oracle.evaluate((x - c_k,))
        g = (y_plus - y_minus) / (2.0 * c_k)
        x = min(max(x - a_k * g, lower), upper)
        xs[k] = x
        evaluations[k] = oracle.eval_counter - start
    return Trajectory(xs[:, None], evaluations)


def spsa_run(oracle: NoisyOracle, domain: BoxDomain, x0, schedule: GainSchedule,
             budget_pairs: int, rng: np.random.Generator) -> Trajectory:
    """SPSA: two evaluations per iteration along a random Bernoulli direction.

    Draws ``Delta in {-1,+1}^d``, forms the simultaneous-perturbation quotient
    ``g = (Y(x + c Delta) - Y(x - c Delta)) / (2c) * Delta`` (the elementwise
    reciprocal of a sign vector is itself), and takes a projected step with
    ``a_k = a/(A+k+1)^0.602``, ``c_k = c/(k+1)^0.101``.

    Directions are drawn in blocks of up to ``16384 // d`` rows. A block draw
    yields the same stream as one draw per step, so trajectories do not depend
    on the block size; if a run stops early (a non-finite step raises
    ``ValueError``), ``rng`` may have advanced to the end of its block.
    """
    if budget_pairs < 1:
        raise ValueError("budget must be at least one pair")
    d = oracle.dimension
    x = domain.project(as_point(x0, d))
    lower, upper = domain.lower, domain.upper
    a, A, alpha = schedule.a, schedule.A, schedule.a_exponent
    c, gamma = schedule.c, schedule.c_exponent
    evaluate = oracle.evaluate
    start = oracle.eval_counter
    xs = np.empty((budget_pairs + 1, d))
    evaluations = np.zeros(budget_pairs + 1, dtype=int)
    xs[0] = x
    rows = max(1, 16384 // d)  # 128 KiB of directions per draw, whatever d is
    k = 0
    while k < budget_pairs:  # every step charges exactly one pair
        block = rng.integers(0, 2, size=(min(budget_pairs - k, rows), d)) * 2.0 - 1.0
        for delta in block:
            k += 1
            a_k = a / (A + k + 1) ** alpha
            c_k = c / (k + 1) ** gamma
            cd = c_k * delta
            g = (evaluate(x + cd) - evaluate(x - cd)) / (2.0 * c_k) * delta
            step = x - a_k * g
            if not np.isfinite(step).all():
                raise ValueError("point has non-finite coordinates")
            x = np.minimum(np.maximum(step, lower, out=step), upper, out=xs[k])
            evaluations[k] = oracle.eval_counter - start
    return Trajectory(xs, evaluations)


def cor_cfd_gd_run(oracle: NoisyOracle, domain: BoxDomain, x0, cfg: CorCfdConfig,
                   armijo: ArmijoParams, budget_pairs: int,
                   rng: np.random.Generator) -> Trajectory:
    """Gradient descent with Cor-CFD batch gradients and Armijo line search.

    Starts from a gradient at batch ``n0 = cfg.batch_pairs`` with
    ``R = cfg.pilot_count`` pilots; each iteration runs the line search
    (charging its evaluations), takes a projected step, grows the batch to
    ``batch_schedule(n0, R, k)``, and estimates a fresh gradient. The cap of
    ``2 * budget_pairs`` evaluations is hard: a gradient starts only if the
    budget can also pay for the baseline and one trial of the search after
    it, so late sample pairs may be left unused, and a search gets no more
    backtracks than the remaining budget pays for. If a search cut short that
    way accepts no trial, no step is taken: the current ``x`` is recorded
    again and listed in ``ls_exhausted``, and the run ends. The Armijo noise
    term comes from the current gradient.

    The pilot scale is adapted per coordinate between iterations: where the
    estimated third derivative clearly exceeds its bootstrap dispersion, the
    next pilots re-center on that coordinate's estimated optimal perturbation
    (steep curved regions need much smaller probes than the configured base);
    where the curvature signal is just noise, the scale relaxes back toward
    the configured base, which is what keeps quotient noise low on flat
    landscapes.
    """
    d = oracle.dimension
    n0, R = cfg.batch_pairs, cfg.pilot_count
    cap = 2 * budget_pairs
    if 2 * d * n0 + 2 > cap:
        raise ConfigurationError(
            f"budget of {budget_pairs} pairs cannot fund the initial gradient "
            f"({d * n0} pairs) and one line-search trial")
    x = domain.project(as_point(x0, d))
    start = oracle.eval_counter
    xs, evaluations = [x], [0]
    ls_exhausted: list[int] = []

    def next_centers(estimate: GradientEstimate, centers: np.ndarray, n: int) -> np.ndarray:
        scale = cfg.base_perturbation * float(n) ** -0.1
        significant = estimate.curvature_significant
        # Significant curvature with c_hat far below the center is a regime
        # change: real curvature demands probes far below anything tried, so
        # the current scale is outside the valid Taylor range. Elsewhere the
        # center holds (significant) or grows, capped at the base scale.
        return np.where(significant & (estimate.c_hat < 0.25 * centers), estimate.c_hat,
                        np.minimum(np.where(significant, centers, 4.0 * centers), scale))

    centers = np.full(d, cfg.base_perturbation * float(n0) ** -0.1)
    g = cor_cfd_gradient(oracle, x, cfg, rng)
    centers = next_centers(g, centers, n0)

    k = 0
    while True:
        left = cap - (oracle.eval_counter - start)  # at least 2 here
        cut = left < 1 + armijo.max_backtracks
        search = replace(armijo, max_backtracks=left - 1) if cut else armijo
        a_k, _, accepted = armijo_search(oracle, x, g, search)
        used = oracle.eval_counter - start
        k += 1
        if not accepted:
            ls_exhausted.append(k)
        if accepted or not cut:
            x = domain.project(x - a_k * g.g)
        xs.append(x)
        evaluations.append(used)
        n_k = batch_schedule(n0, R, k)
        if used + 2 * d * n_k + 2 > cap:
            break
        # Feed the adapted centers through the pilot base scale so pilots at
        # batch n_k come out as center * U(1 +- spread).
        base = centers * float(n_k) ** 0.1
        g = cor_cfd_gradient(oracle, x, replace(cfg, batch_pairs=n_k), rng,
                             base_perturbations=base)
        centers = next_centers(g, centers, n_k)
    return Trajectory(np.stack(xs), np.array(evaluations), ls_exhausted)
