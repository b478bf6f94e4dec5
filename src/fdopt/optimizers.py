"""The three derivative-free optimization loops: KW, SPSA, and Cor-CFD-GD.

All loops drive a :class:`~fdopt.oracle.NoisyOracle` under a shared budget
contract: the budget is a number of sample pairs, one pair equals two oracle
evaluations, and every iterate is projected into the box domain and recorded
together with the evaluation count at which it was produced. The oracle's own
evaluation counter is the only budget count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import CorCfdConfig, GradientEstimate, cor_cfd_gradient
from .oracle import BoxDomain, NoisyOracle, as_point


class ConfigurationError(ValueError):
    """Run settings that are invalid before any evaluation happens."""


@dataclass(frozen=True)
class GainSchedule:
    """Gain constants ``a``, ``c`` and stability constant ``A`` of KW and SPSA.

    The exponents are fixed by each method (see :func:`kw_run` and
    :func:`spsa_run`). ``A = None`` stands for 10% of the run's pair budget.
    """

    a: float
    c: float
    A: float | None = 0.0

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 < self.c < np.inf):  # also false for NaN
            raise ValueError(f"gains a={self.a!r} and c={self.c!r} must be finite and > 0")
        if self.A is not None and not 0 <= self.A < np.inf:
            raise ValueError(f"stability constant A={self.A!r} must be finite and >= 0")

    def stability(self, budget_pairs: int) -> float:
        """``A`` of a run of ``budget_pairs`` pairs."""
        return 0.1 * budget_pairs if self.A is None else self.A


@dataclass
class Trajectory:
    """Iterates a run kept, each stamped with the evaluation count.

    ``iterates`` has shape ``(m, d)``: row 0 is the starting point and the
    other rows are the kept iterates in order (every one unless the run was
    asked to keep fewer). ``evaluations`` has shape ``(m,)`` and is increasing:
    entry ``i`` is the number of evaluations the run had used when it produced
    row ``i`` (0 for the start). :meth:`at_pair_budget` is exact at every
    budget whose iterate was kept. ``ls_exhausted`` lists iteration indices whose
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


def armijo_search(oracle: NoisyOracle, x, g: GradientEstimate,
                  params: ArmijoParams) -> tuple[float, int, bool]:
    """Backtracking line search under the noise-relaxed Armijo condition.

    Accepts the first step ``a`` (from ``a0`` downward by factors of ``l2``)
    with ``Y(x - a g) <= Y(x) - l1 a g.g + 2 sigma2``, where ``g`` is the
    estimate's gradient ``g.g`` and ``sigma2`` the mean of its
    ``sigma2_hat``. One fresh baseline evaluation of ``Y(x)`` is drawn per
    search and reused across backtracks.
    Returns ``(a, evaluations_used, accepted)``, the count being the baseline plus
    the trials run; if none passes, the smallest trial step comes with ``accepted=False``.
    """
    p = as_point(x, oracle.dimension)
    g_vec, relax = g.g, 2.0 * float(np.add.reduce(g.sigma2_hat) / len(g.sigma2_hat))
    gg = float(g_vec @ g_vec)
    baseline = oracle.evaluate(p)
    a = params.a0
    for t in range(params.max_backtracks):
        if oracle.evaluate(p - a * g_vec) <= baseline - params.l1 * a * gg + relax:
            return a, t + 2, True
        a *= params.l2
    return a / params.l2, params.max_backtracks + 1, False


def check_corcfd_budget(dimension: int, cfg: CorCfdConfig, budget_pairs: int) -> None:
    """Reject a budget that cannot fund Cor-CFD-GD's first gradient and one trial."""
    if 2 * dimension * cfg.batch_pairs + 2 > 2 * budget_pairs:
        raise ConfigurationError(
            f"budget of {budget_pairs} pairs cannot fund the initial gradient "
            f"({dimension * cfg.batch_pairs} pairs) and one line-search trial")


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


def _check_charged(oracle: NoisyOracle, start: int, budget_pairs: int) -> None:
    """``RuntimeError`` unless the oracle, the budget count, charged one pair per step."""
    if oracle.eval_counter - start != 2 * budget_pairs:
        raise RuntimeError(f"oracle charged {oracle.eval_counter - start} evaluations "
                           f"for {budget_pairs} pairs")


def kw_run(oracle: NoisyOracle, domain: BoxDomain, x0,
           schedule: GainSchedule, budget_pairs: int) -> Trajectory:
    """Kiefer-Wolfowitz: one CFD pair per iteration with diminishing gains.

    ``x_{k+1} = project(x_k - a_k g_k)`` with ``a_k = a/(A+k)`` and
    ``c_k = c/k^(1/4)``, iterating from ``k=1`` until ``2 * budget_pairs``
    evaluations are consumed; ``RuntimeError`` if the oracle counted any other number.
    ``x0`` is a one-coordinate point; a non-finite ``x0`` or step raises ``ValueError``.
    """
    if oracle.dimension != 1:
        raise ValueError("kw_run requires a one-dimensional oracle")
    if budget_pairs < 1:
        raise ValueError("budget must be at least one pair")
    lower = float(domain.lower[0])
    upper = float(domain.upper[0])
    x = min(max(float(as_point(x0, 1)[0]), lower), upper)
    a, c, A = schedule.a, schedule.c, schedule.stability(budget_pairs)
    evaluate, isfinite = oracle.evaluate, math.isfinite
    start = oracle.eval_counter
    xs = np.full(budget_pairs + 1, x)
    for k in range(1, budget_pairs + 1):  # step k is stamped 2k evaluations
        a_k = a / (A + k)
        c_k = c / k ** 0.25
        g = (evaluate((x + c_k,)) - evaluate((x - c_k,))) / (2.0 * c_k)
        step = x - a_k * g
        if not isfinite(step):  # the clamp would hide an overflow
            raise ValueError("point has non-finite coordinates")
        x = min(max(step, lower), upper)
        xs[k] = x
    _check_charged(oracle, start, budget_pairs)
    return Trajectory(xs[:, None], np.arange(0, 2 * budget_pairs + 1, 2))


def spsa_run(oracle: NoisyOracle, domain: BoxDomain, x0, schedule: GainSchedule,
             budget_pairs: int, rng: np.random.Generator, keep=None) -> Trajectory:
    """SPSA: two evaluations per iteration along a random Bernoulli direction.

    Draws ``Delta in {-1,+1}^d``, forms the simultaneous-perturbation quotient
    ``g = (Y(x + c Delta) - Y(x - c Delta)) / (2c) * Delta`` (the elementwise
    reciprocal of a sign vector is itself), and takes a projected step with
    ``a_k = a/(A+k+1)^0.602``, ``c_k = c/(k+1)^0.101``. Step ``k`` is stamped
    ``2k`` evaluations; ``RuntimeError`` if the oracle counted any other number.

    ``keep``, increasing pair budgets in ``[1, budget_pairs]``, limits the
    trajectory to ``x_0`` and the iterates at those budgets, equal bit for bit
    to the same rows of a full run; ``None`` keeps every iterate.

    Directions are drawn in blocks of up to ``16384 // d`` rows. A block draw
    yields the same stream as one draw per step, so trajectories do not depend
    on the block size; if a run stops early (a non-finite step raises
    ``ValueError``), ``rng`` may have advanced to the end of its block.
    """
    if budget_pairs < 1:
        raise ValueError("budget must be at least one pair")
    kept = np.arange(budget_pairs + 1) if keep is None else np.array([0, *keep])
    if kept.dtype.kind != "i" or (kept[1:] <= kept[:-1]).any() or kept[-1] > budget_pairs:
        raise ValueError(f"keep={keep!r} must be increasing pair budgets "
                         f"in [1, {budget_pairs}]")
    d = oracle.dimension
    x = domain.project(as_point(x0, d))
    lower, upper = domain.lower, domain.upper
    # x stays in the box, so a step x - s * delta with |s| <= limit cannot
    # overflow; only a larger |s|, NaN or an infinite box needs the full scan.
    # Rounded down, as float max - |bound| may round up.
    bound = max(float(np.abs(lower).max()), float(np.abs(upper).max()))
    limit = math.nextafter(sys.float_info.max - bound, -math.inf)
    a, c, A = schedule.a, schedule.c, schedule.stability(budget_pairs)
    evaluate = oracle.evaluate
    start = oracle.eval_counter
    xs = np.empty((len(kept), d))
    xs[0] = x
    marks = iter(kept[1:].tolist())
    i, mark = 1, next(marks, 0)  # the next row of xs, and the step it keeps
    rows = max(1, 16384 // d)  # 128 KiB of directions per draw, whatever d is
    k = 0
    while k < budget_pairs:  # every step charges exactly one pair
        block = rng.integers(0, 2, size=(min(budget_pairs - k, rows), d)) * 2.0 - 1.0
        for delta in block:
            k += 1
            a_k = a / (A + k + 1) ** 0.602
            c_k = c / (k + 1) ** 0.101
            cd = c_k * delta
            # a_k * (q * delta) == (a_k * q) * delta bit for bit: delta is +-1.
            s = a_k * ((evaluate(x + cd) - evaluate(x - cd)) / (2.0 * c_k))
            step = x - s * delta
            if not abs(s) <= limit and not np.isfinite(step).all():
                raise ValueError("point has non-finite coordinates")
            x = np.minimum(np.maximum(step, lower, out=step), upper,
                           out=xs[i] if k == mark else step)
            if k == mark:
                i, mark = i + 1, next(marks, 0)
    _check_charged(oracle, start, budget_pairs)
    return Trajectory(xs, 2 * kept)


def cor_cfd_gd_run(oracle: NoisyOracle, domain: BoxDomain, x0, cfg: CorCfdConfig,
                   armijo: ArmijoParams, budget_pairs: int,
                   rng: np.random.Generator) -> Trajectory:
    """Gradient descent with Cor-CFD batch gradients and Armijo line search.

    Each pass starts at batch ``n_k`` (``n0 = cfg.batch_pairs`` on the first)
    with ``R = cfg.pilot_count`` pilots, and runs only if the budget can pay
    for its gradient and for the baseline and one trial of its search, so
    late sample pairs may be left unused. The cap of ``2 * budget_pairs``
    evaluations is hard. A pass estimates the gradient at ``x``, adapts the
    pilot scale, runs the line search (charging its evaluations), takes a
    projected step and grows the batch to ``batch_schedule(n0, R, k)``. A
    search gets no more backtracks than the remaining budget pays for; if a
    search cut short that way accepts no trial, no step is taken: the current
    ``x`` is recorded again and listed in ``ls_exhausted``, and the run ends.
    The Armijo noise term comes from the pass's gradient.

    The pilot scale is adapted per coordinate after each gradient: where the
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
    check_corcfd_budget(d, cfg, budget_pairs)
    x = domain.project(as_point(x0, d))
    start = oracle.eval_counter
    xs, evaluations = [x], [0]
    ls_exhausted: list[int] = []
    centers = np.full(d, cfg.base_perturbation * float(n0) ** -0.1)
    k, n_k, base, batch_cfg = 0, n0, None, cfg
    while oracle.eval_counter - start + 2 * d * n_k + 2 <= cap:
        if n_k != batch_cfg.batch_pairs:  # once every R iterations
            batch_cfg = replace(cfg, batch_pairs=n_k)
        g = cor_cfd_gradient(oracle, x, batch_cfg, rng, base_perturbations=base)
        significant = g.curvature_significant
        # Significant curvature with c_hat far below the center is a regime
        # change: real curvature demands probes far below anything tried, so
        # the current scale is outside the valid Taylor range. Elsewhere the
        # center holds (significant) or grows, capped at the base scale.
        centers = np.where(significant & (g.c_hat < 0.25 * centers), g.c_hat,
                           np.minimum(np.where(significant, centers, 4.0 * centers),
                                      cfg.base_perturbation * float(n_k) ** -0.1))
        left = cap - (oracle.eval_counter - start)  # at least 2 here
        cut = left < 1 + armijo.max_backtracks
        search = replace(armijo, max_backtracks=left - 1) if cut else armijo
        a_k, _, accepted = armijo_search(oracle, x, g, search)
        k += 1
        if not accepted:
            ls_exhausted.append(k)
        if accepted or not cut:
            x = domain.project(x - a_k * g.g)
        xs.append(x)
        evaluations.append(oracle.eval_counter - start)
        n_k = batch_schedule(n0, R, k)
        # Feed the adapted centers through the pilot base scale so pilots at
        # batch n_k come out as center * U(1 +- spread).
        base = centers * float(n_k) ** 0.1
    return Trajectory(np.stack(xs), np.array(evaluations), ls_exhausted)
