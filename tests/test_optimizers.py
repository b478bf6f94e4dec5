"""Tests for the KW, SPSA, and Cor-CFD-GD loops and their shared pieces."""

from functools import partial

import numpy as np
import pytest

from fdopt.estimators import CorCfdConfig, GradientEstimate
from fdopt.metrics import oscillation_settle_index, oscillatory_period
from fdopt.optimizers import (ArmijoParams, ConfigurationError, GainSchedule,
                              armijo_search, batch_schedule, cor_cfd_gd_run,
                              Trajectory, kw_run, spsa_run)
from fdopt.oracle import (BoxDomain, NoisyOracle, as_point, get_test_function,
                          quartic_mean)

DOMAIN = BoxDomain.interval(-50, 50)


def _oracle(mean_fn, d=1, sigma=0.0, seed=0):
    return NoisyOracle(mean_fn, d, sigma, seed)


# ---------------------------------------------------------------------------
# batch_schedule
# ---------------------------------------------------------------------------

def test_batch_schedule_values():
    assert batch_schedule(20, 10, 0) == 20
    assert batch_schedule(20, 10, 5) == 20
    assert batch_schedule(20, 10, 10) == 30


def test_batch_schedule_validation():
    with pytest.raises(ValueError):
        batch_schedule(15, 10, 0)
    with pytest.raises(ValueError):
        batch_schedule(10, 10, -1)
    with pytest.raises(ValueError, match="n0 and R must be >= 1"):
        batch_schedule(0, 1, 0)


def test_batch_schedule_monotone_and_bounded():
    prev = 0
    for k in range(200):
        n_k = batch_schedule(20, 10, k)
        assert n_k >= prev
        assert n_k % 10 == 0
        assert n_k - 20 <= k
        prev = n_k


# ---------------------------------------------------------------------------
# armijo_search
# ---------------------------------------------------------------------------

def _estimate(g, sigma2_hat):
    """A gradient estimate whose every coordinate reports ``sigma2_hat``."""
    g = np.asarray(g, dtype=float)
    zeros = np.zeros_like(g)
    return GradientEstimate(g, np.ones_like(g), np.full_like(g, sigma2_hat),
                            zeros, zeros, zeros, pairs_used=0)


def test_armijo_hand_case_quadratic():
    # x=1, g=2 on x^2 with l1=l2=0.5: a=1 gives Y(-1)=1 > -1, rejected;
    # a=0.5 gives Y(0)=0 <= 1 - 0.5*0.5*4 = 0, accepted (the test is <=).
    o = _oracle(lambda x: float(x[0]) ** 2)
    params = ArmijoParams(l1=0.5, l2=0.5, a0=1.0, max_backtracks=30)
    a, n_ls, accepted = armijo_search(o, np.array([1.0]), _estimate([2.0], 0.0), params)
    assert accepted
    assert a == 0.5
    assert n_ls == 3  # one baseline plus two candidate evaluations


def test_armijo_zero_gradient_accepts_immediately():
    o = _oracle(lambda x: float(x[0]) ** 2)
    params = ArmijoParams(l1=0.5, l2=0.5, a0=1.0)
    a, n_ls, accepted = armijo_search(o, np.array([3.0]), _estimate([0.0], 0.0), params)
    assert accepted
    assert a == 1.0
    assert n_ls == 2


def test_armijo_noise_relaxation_dominates():
    # flat objective, sigma2 relaxation far above the decrease term: the first
    # trial is accepted in well over 90% of searches
    accepted_count = 0
    params = ArmijoParams(l1=0.5, l2=0.5, a0=1.0)
    g = _estimate([1.0], sigma2_hat=4.0)  # 2*sigma2 = 8 > 10*0.5
    for rep in range(100):
        o = _oracle(lambda x: 0.0, sigma=2.0, seed=rep)
        a, _, accepted = armijo_search(o, np.zeros(1), g, params)
        if accepted and a == 1.0:
            accepted_count += 1
    assert accepted_count >= 90


def test_armijo_exhaustion_returns_smallest_step_with_flag():
    # gradient points uphill on a linear slope: no step can satisfy the test
    o = _oracle(lambda x: float(x[0]))
    params = ArmijoParams(l1=0.5, l2=0.5, a0=1.0, max_backtracks=8)
    a, n_ls, accepted = armijo_search(o, np.zeros(1), _estimate([-1.0], 0.0), params)
    assert not accepted
    assert a == pytest.approx(0.5 ** 7)  # smallest step actually tried
    assert n_ls == 1 + 8


def test_armijo_noise_term_comes_from_the_estimate():
    # uphill on a noiseless linear slope from 0: Y(x - a g) = a exceeds
    # Y(x) - l1 a g.g = -0.5 a for every a > 0, so only the estimate's noise
    # term 2 * 1 admits the first trial a = 1; an estimate with no noise does not
    o = _oracle(lambda x: float(x[0]))
    params = ArmijoParams(l1=0.5, l2=0.5, a0=1.0, max_backtracks=8)
    assert armijo_search(o, np.zeros(1), _estimate([-1.0], 1.0), params) == (1.0, 2, True)
    assert not armijo_search(o, np.zeros(1), _estimate([-1.0], 0.0), params)[2]


def test_armijo_noiseless_guarantee():
    # accepted steps satisfy the sufficient decrease exactly when sigma=0
    o = _oracle(lambda x: float(x[0]) ** 4)
    params = ArmijoParams(l1=1e-4, l2=0.5, a0=1.0)
    x = np.array([2.0])
    g = _estimate([32.0], 0.0)
    a, _, accepted = armijo_search(o, x, g, params)
    assert accepted
    assert (x - a * g.g)[0] ** 4 <= x[0] ** 4 - params.l1 * a * float(g.g @ g.g)


# ---------------------------------------------------------------------------
# kw_run
# ---------------------------------------------------------------------------

def test_kw_requires_one_dimensional_oracle():
    o = _oracle(lambda x: float(np.sum(np.square(x))), d=2)
    with pytest.raises(ValueError):
        kw_run(o, BoxDomain.interval(-1, 1, 2), 0.5, GainSchedule(1.0, 1.0), 10)


def test_kw_budget_accounting():
    o = _oracle(lambda x: float(x[0]) ** 2)
    traj = kw_run(o, DOMAIN, 5.0, GainSchedule(0.1, 1.0), 100)
    assert o.eval_counter == 200
    assert traj.evaluations[-1] == 200
    assert traj.iterates.shape == (101, 1)  # starting point plus one per pair
    with pytest.raises(ValueError, match="budget must be at least one pair"):
        kw_run(o, DOMAIN, 5.0, GainSchedule(0.1, 1.0), 0)


def test_kw_noiseless_quadratic_contracts():
    o = _oracle(lambda x: float(x[0]) ** 2)
    traj = kw_run(o, DOMAIN, 5.0, GainSchedule(0.1, 1.0), 100)
    xs = np.abs(traj.iterates[:, 0])
    assert np.all(np.diff(xs) < 1e-12)


def test_kw_quartic_boundary_oscillation():
    # a=c=1 from x0=30: |quotient| at the bounds is 4*50^3 + 200 c_k^2, so
    # flips persist exactly while a_k * |g| >= 100, i.e. through k=5000
    fn = get_test_function("quartic")
    o = fn.make_oracle(0.0, seed=0)
    traj = kw_run(o, DOMAIN, 30.0, GainSchedule(1.0, 1.0), 10_000)
    xs = traj.iterates[:, 0]
    assert oscillation_settle_index(xs, -50.0, 50.0) == 5000
    assert oscillatory_period(xs, -50.0, 50.0) == 4999
    assert np.all(xs >= -50.0) and np.all(xs <= 50.0)


def test_kw_first_step_hits_lower_bound():
    fn = get_test_function("quartic")
    o = fn.make_oracle(0.0, seed=0)
    traj = kw_run(o, DOMAIN, 30.0, GainSchedule(1.0, 1.0), 1)
    assert traj.iterates[1, 0] == -50.0


def test_kw_non_finite_objective_raises_at_oracle():
    # the objective is undefined near 0; the first minus probe lands at 0.5
    o = _oracle(lambda x: float("nan") if abs(x[0]) < 1 else float(x[0]) ** 2)
    with pytest.raises(ValueError, match=r"non-finite value nan at point \[0\.5\]"):
        kw_run(o, DOMAIN, 1.5, GainSchedule(0.1, 1.0), 100)


def test_kw_non_finite_step_raises_like_spsa():
    # a_1 * |g| = 1e308 * 1e10 = inf: the clamp must not turn it into -2
    o = NoisyOracle(lambda x: 1e10 * float(x[0]), 1)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        kw_run(o, BoxDomain.interval(-2, 2), 0.0, GainSchedule(1e308, 0.5), 5)
    assert o.eval_counter == 2


@pytest.mark.parametrize("x0", [float("nan"), float("inf"), -float("inf")])
def test_kw_rejects_a_non_finite_x0_before_any_evaluation(x0):
    o = _oracle(lambda x: float(x[0]) ** 2)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        kw_run(o, DOMAIN, x0, GainSchedule(0.1, 1.0), 10)
    assert o.eval_counter == 0


def _kw_reference(oracle, domain, x0, schedule, budget_pairs):
    """The per-step KW loop, one projection and one counter read per step."""
    x = domain.project(as_point(x0, 1))
    A = schedule.stability(budget_pairs)
    start = oracle.eval_counter
    xs, evaluations = [x], [0]
    for k in range(1, budget_pairs + 1):
        a_k = schedule.a / (A + k) ** 1.0
        c_k = schedule.c / k ** 0.25
        y_plus = oracle.evaluate(x + c_k)
        y_minus = oracle.evaluate(x - c_k)
        x = domain.project(x - a_k * ((y_plus - y_minus) / (2.0 * c_k)))
        xs.append(x)
        evaluations.append(oracle.eval_counter - start)
    return Trajectory(np.stack(xs), np.array(evaluations))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("name", ["quartic", "cos100"])
def test_kw_matches_per_step_reference_bit_for_bit(name, sigma):
    # 300 pairs draw 600 normals, across the oracle's blocks of 128; on the
    # quartic, a = c = 1 from x0 = 30 clamps at both bounds.
    fn = get_test_function(name)
    o, o_ref = fn.make_oracle(sigma, seed=11), fn.make_oracle(sigma, seed=11)
    traj = kw_run(o, DOMAIN, 30.0, GainSchedule(1.0, 1.0), 300)
    ref = _kw_reference(o_ref, DOMAIN, 30.0, GainSchedule(1.0, 1.0), 300)
    assert np.array_equal(traj.iterates, ref.iterates)
    assert np.array_equal(traj.evaluations, ref.evaluations)
    assert traj.evaluations.dtype == ref.evaluations.dtype
    assert o.eval_counter == o_ref.eval_counter == 600
    assert o._rng.bit_generator.state == o_ref._rng.bit_generator.state


class _DoubleChargingOracle(NoisyOracle):
    def evaluate(self, x):
        self._count += 1
        return super().evaluate(x)


def test_kw_rejects_an_oracle_count_other_than_two_per_pair():
    o = _DoubleChargingOracle(lambda x: float(x[0]) ** 2, 1)
    with pytest.raises(RuntimeError, match="oracle charged 40 evaluations for 10 pairs"):
        kw_run(o, DOMAIN, 5.0, GainSchedule(0.1, 1.0), 10)


# ---------------------------------------------------------------------------
# spsa_run
# ---------------------------------------------------------------------------

def test_spsa_budget_accounting():
    o = _oracle(lambda x: float(np.sum(np.square(x))), d=3)
    dom = BoxDomain.interval(-5, 5, 3)
    traj = spsa_run(o, dom, np.ones(3), GainSchedule(0.1, 0.5, A=10),
                    50, np.random.default_rng(0))
    assert o.eval_counter == 100
    assert traj.iterates.shape == (51, 3)
    assert traj.evaluations[-1] == 100
    with pytest.raises(ValueError, match="budget must be at least one pair"):
        spsa_run(o, dom, np.ones(3), GainSchedule(0.1, 0.5), 0, np.random.default_rng(0))


def test_spsa_iterates_stay_feasible():
    o = _oracle(lambda x: float(np.sum(np.square(x))), d=2, sigma=5.0, seed=4)
    dom = BoxDomain.interval(-2, 2, 2)
    traj = spsa_run(o, dom, np.array([1.5, -1.5]), GainSchedule(1.0, 0.5, A=0),
                    200, np.random.default_rng(5))
    xs = traj.iterates
    assert np.all(xs >= -2.0) and np.all(xs <= 2.0)


def test_spsa_estimator_mean_matches_gradient():
    # noiseless quadratic: the simultaneous-perturbation quotient is exact in
    # the step direction, and its mean over Bernoulli draws is the gradient.
    # Reconstruct per-iteration estimates from consecutive iterates.
    mean_fn = lambda x: float(x[0]) ** 2 + 2.0 * float(x[1]) ** 2
    o = _oracle(mean_fn, d=2)
    dom = BoxDomain.interval(-10, 10, 2)
    m = 20_000
    a = 2.5e-8
    sched = GainSchedule(a, 0.1, A=0.0)
    traj = spsa_run(o, dom, np.array([1.0, 1.0]), sched, m, np.random.default_rng(6))
    xs = traj.iterates
    ks = np.arange(1, m + 1)
    a_k = a / (ks + 1) ** 0.602
    g_hat = (xs[:-1] - xs[1:]) / a_k[:, None]
    grad = np.array([2.0, 4.0])
    se = np.array([4.0, 2.0]) / np.sqrt(m)  # cross-term std per coordinate
    assert np.all(np.abs(g_hat.mean(axis=0) - grad) < 3 * se)
    # averaging error shrinks roughly like m^(-1/2)
    err_100 = np.linalg.norm(g_hat[:100].mean(axis=0) - grad)
    err_all = np.linalg.norm(g_hat.mean(axis=0) - grad)
    assert err_all < err_100


def _spsa_reference(oracle, domain, x0, schedule, budget_pairs, rng):
    """The per-step SPSA loop, one direction draw and one projection per step."""
    x = domain.project(as_point(x0, oracle.dimension))
    d = oracle.dimension
    start = oracle.eval_counter
    xs, evaluations = [x.copy()], [0]
    k = 0
    while oracle.eval_counter - start < 2 * budget_pairs:
        k += 1
        a_k = schedule.a / (schedule.A + k + 1) ** 0.602
        c_k = schedule.c / (k + 1) ** 0.101
        delta = rng.integers(0, 2, size=d) * 2.0 - 1.0
        y_plus = oracle.evaluate(x + c_k * delta)
        y_minus = oracle.evaluate(x - c_k * delta)
        g = (y_plus - y_minus) / (2.0 * c_k) * delta
        x = domain.project(x - a_k * g)
        xs.append(x.copy())
        evaluations.append(oracle.eval_counter - start)
    return Trajectory(np.stack(xs), np.array(evaluations))


def _quartic_bowl(x):
    return float((x ** 4).sum())


def _run_spsa(runner, d, sigma, budget, schedule=None, mean_fn=_quartic_bowl):
    # A box of [-2, 2] and a large gain drive some coordinates onto the bounds.
    o = _oracle(mean_fn, d=d, sigma=sigma, seed=d)
    dom = BoxDomain.interval(-2, 2, d)
    schedule = schedule or GainSchedule(0.05, 0.5, A=5)
    rng = np.random.default_rng((7, d))
    traj = runner(o, dom, np.linspace(-1.5, 1.9, d), schedule, budget, rng)
    return traj, o, rng


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 64])
def test_spsa_matches_per_step_reference_bit_for_bit(d, sigma):
    rows = 16384 // d  # the direction block size of spsa_run
    budgets = (1, rows - 1, rows, rows + 1, 3 * rows + 5)
    # A shorter run is a prefix of a longer one, so one reference run covers
    # every budget.
    ref, _, _ = _run_spsa(_spsa_reference, d, sigma, budgets[-1])
    for budget in budgets:
        traj, o, _ = _run_spsa(spsa_run, d, sigma, budget)
        assert o.eval_counter == 2 * budget
        assert traj.iterates.shape == (budget + 1, d)
        assert np.array_equal(traj.iterates, ref.iterates[:budget + 1])
        assert np.array_equal(traj.evaluations, ref.evaluations[:budget + 1])


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 64])
def test_spsa_kept_rows_equal_the_full_run_bit_for_bit(d, sigma):
    rows = 16384 // d  # the direction block size of spsa_run
    sparse = (1, rows - 1, rows, rows + 1, 3 * rows + 5)
    budget = sparse[-1]
    full, o_full, rng_full = _run_spsa(spsa_run, d, sigma, budget)
    assert np.array_equal(full.evaluations, 2 * np.arange(budget + 1))
    # A `keep` listing every step copies a row at every step, as `keep=None` does.
    for keep in (sparse, tuple(range(1, budget + 1))):
        kept, o_kept, rng_kept = _run_spsa(partial(spsa_run, keep=keep), d, sigma, budget)
        assert np.array_equal(kept.iterates, full.iterates[[0, *keep]])
        assert np.array_equal(kept.evaluations, full.evaluations[[0, *keep]])
        assert kept.evaluations.dtype == full.evaluations.dtype
        for pairs in keep:
            assert np.array_equal(kept.at_pair_budget(pairs), full.at_pair_budget(pairs))
        assert o_kept.eval_counter == o_full.eval_counter == 2 * budget
        assert o_kept._rng.bit_generator.state == o_full._rng.bit_generator.state
        assert rng_kept.bit_generator.state == rng_full.bit_generator.state


@pytest.mark.parametrize("keep", [(5, 5), (7, 3), (0, 5), (41,), (2.5,)])
def test_spsa_rejects_a_bad_keep_before_any_evaluation(keep):
    o = _oracle(_quartic_bowl, d=3, sigma=1.0, seed=3)
    rng = np.random.default_rng(3)
    states = rng.bit_generator.state, o._rng.bit_generator.state
    with pytest.raises(ValueError, match=r"must be increasing pair budgets in \[1, 40\]"):
        spsa_run(o, BoxDomain.interval(-2, 2, 3), np.zeros(3), GainSchedule(0.05, 0.5),
                 40, rng, keep=keep)
    assert o.eval_counter == 0
    assert (rng.bit_generator.state, o._rng.bit_generator.state) == states


def test_spsa_rejects_an_oracle_count_other_than_two_per_pair():
    o = _DoubleChargingOracle(_quartic_bowl, 3)
    with pytest.raises(RuntimeError, match="oracle charged 40 evaluations for 10 pairs"):
        spsa_run(o, BoxDomain.interval(-2, 2, 3), np.zeros(3), GainSchedule(0.05, 0.5),
                 10, np.random.default_rng(0))


def test_spsa_non_finite_step_raises_like_reference():
    # a finite but huge gain on a steep linear objective overflows the first
    # step: a_1 * |g| = 1e308 / 2^0.602 * 1e10 = inf
    sched = GainSchedule(1e308, 0.5)
    for runner in (spsa_run, _spsa_reference):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite coordinates"):
            _run_spsa(runner, 2, 0.0, 10, schedule=sched,
                      mean_fn=lambda x: 1e10 * float(x[0]))


def test_spsa_huge_finite_step_is_scanned_not_rejected():
    # On a box of +-1e308 the overflow bound is float max - 1e308 = 7.98e307.
    # On f = x_0 the first step has |s| = a_1 = 9.9e307 (finite), so it must
    # fall back to the full scan and go on; later steps have s = 0, as the
    # probes vanish next to iterates of 1e308.
    sched = GainSchedule(1.5e308, 0.5)
    assert 9.8e307 < sched.a / 2 ** 0.602 < 1e308
    for d in (2, 64):
        runs = []
        for runner in (spsa_run, _spsa_reference):
            o = _oracle(lambda x: float(x[0]), d=d)
            runs.append(runner(o, BoxDomain.interval(-1e308, 1e308, d), np.zeros(d),
                               sched, 5, np.random.default_rng(d)))
        traj, ref = runs
        assert np.abs(traj.iterates[1]).max() > 1e307
        assert np.array_equal(traj.iterates, ref.iterates)
        assert np.array_equal(traj.evaluations, ref.evaluations)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_spsa_on_an_infinite_box_scans_every_step(sigma):
    # With an infinite bound no step size is safe: every step is scanned.
    dom = BoxDomain.interval(-np.inf, np.inf, 3)
    runs = []
    for runner in (spsa_run, _spsa_reference):
        o = _oracle(_quartic_bowl, d=3, sigma=sigma, seed=3)
        runs.append(runner(o, dom, np.array([0.5, -1.5, 1.9]), GainSchedule(0.05, 0.5, A=5),
                           200, np.random.default_rng(3)))
    assert np.array_equal(runs[0].iterates, runs[1].iterates)
    assert np.array_equal(runs[0].evaluations, runs[1].evaluations)
    for runner in (spsa_run, _spsa_reference):
        o = _oracle(lambda x: 1e10 * float(x[0]), d=3)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite coordinates"):
            runner(o, dom, np.zeros(3), GainSchedule(1e308, 0.5), 10,
                   np.random.default_rng(0))


def test_spsa_overflow_bound_is_rounded_down():
    # For a bound of M = 2^1022 + 3 * 2^970, float max - M rounds up to
    # L = 3 * 2^1022 - 2^972, and M + L rounds to inf. A step of size exactly
    # L from x_0 = +-M must be scanned and rejected, as the reference does.
    M = 2.0 ** 1022 + 3 * 2.0 ** 970
    L = float(np.finfo(float).max) - M
    assert L == 3 * 2.0 ** 1022 - 2.0 ** 972 and M + L == np.inf
    a = 5.116074845687446e+307  # a_1 = a / 2^0.602 == L / 4 exactly
    assert 4 * (a / 2 ** 0.602) == L
    delta = np.random.default_rng(0).integers(0, 2, size=2) * 2.0 - 1.0
    # f = 4 x_1 gives s = 4 a_1 delta_1 = +-L exactly, and x_1 = 0 keeps the
    # probes exact; x_0 is the bound that the step moves away from.
    x0 = np.array([-M * delta[0] * delta[1], 0.0])
    for runner in (spsa_run, _spsa_reference):
        o = _oracle(lambda x: 4.0 * float(x[1]), d=2)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite coordinates"):
            runner(o, BoxDomain.interval(-M, M, 2), x0, GainSchedule(a, 0.5), 3,
                   np.random.default_rng(0))


def test_spsa_stored_iterates_share_no_memory():
    x0 = np.array([0.5, -0.5, 1.0])
    for keep in (None, (1, 7, 8, 40)):
        o = _oracle(_quartic_bowl, d=3, sigma=1.0, seed=3)
        traj = spsa_run(o, BoxDomain.interval(-2, 2, 3), x0, GainSchedule(0.05, 0.5),
                        40, np.random.default_rng(3), keep=keep)
        xs = list(traj.iterates) + [x0]
        for i, a in enumerate(xs):
            for b in xs[i + 1:]:
                assert not np.shares_memory(a, b)


def test_spsa_non_finite_objective_raises_at_oracle():
    o = _oracle(lambda x: float("nan") if abs(x[0]) < 1 else 1.0, d=2)
    with pytest.raises(ValueError, match="non-finite value nan"):
        spsa_run(o, BoxDomain.interval(-5, 5, 2), np.array([0.5, 3.0]),
                 GainSchedule(0.1, 0.5), 50, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# cor_cfd_gd_run
# ---------------------------------------------------------------------------

def _gd(oracle, budget, seed=1, x0=30.0, domain=DOMAIN, n0=20, R=10):
    return cor_cfd_gd_run(oracle, domain, np.full(oracle.dimension, x0),
                          CorCfdConfig(batch_pairs=n0, pilot_count=R), ArmijoParams(),
                          budget, np.random.default_rng(seed))


def test_gd_insufficient_budget_is_config_error():
    o = _oracle(lambda x: float(x[0]) ** 2)
    with pytest.raises(ConfigurationError):
        _gd(o, budget=10)  # initial gradient alone needs 20 pairs
    assert o.eval_counter == 0  # rejected before any evaluation


def test_gd_noiseless_quadratic_descends_monotonically():
    o = _oracle(lambda x: np.float_power(x[..., 0], 2))
    traj = _gd(o, budget=2000)
    vals = [x[0] ** 2 for x in traj.iterates]
    below = False
    for prev, cur in zip(vals, vals[1:]):
        if prev < 1e-4:
            below = True
            break
        assert cur < prev
    assert below or vals[-1] < 1e-4


def test_gd_budget_sync_and_early_exit():
    o = _oracle(quartic_mean, sigma=1.0, seed=9)
    budget = 500
    traj = _gd(o, budget=budget, seed=10)
    assert traj.evaluations[-1] == o.eval_counter
    assert traj.evaluations[-1] <= 2 * budget  # the cap is hard
    assert np.all(np.diff(traj.evaluations) > 0)


def test_gd_iterates_stay_feasible_under_noise():
    o = _oracle(quartic_mean, sigma=10.0, seed=21)
    traj = _gd(o, budget=1000, seed=22)
    xs = traj.iterates[:, 0]
    assert np.all(xs >= -50.0) and np.all(xs <= 50.0)


def test_gd_first_iteration_cost_matches_narrative():
    # d=64, n0=20: the first gradient costs exactly 20*64 pairs, and the first
    # update lands after that plus a line search of at most a few dozen pairs
    fn = get_test_function("fn213", 64)
    o = fn.make_oracle(1.0, seed=(30, 0))
    dom = BoxDomain.interval(-50, 50, 64)
    traj = cor_cfd_gd_run(o, dom, np.tile([3.0, 1.0], 32), CorCfdConfig(),
                          ArmijoParams(), 3000 * 64, np.random.default_rng(31))
    first_update_evals = traj.evaluations[1]
    assert first_update_evals >= 2 * 20 * 64
    assert first_update_evals <= 2 * 20 * 64 + 2 * (1 + 30)


def test_gd_batch_layout_comes_from_the_config():
    # n0 = 40 pairs per coordinate on d = 4: the first gradient costs 2*40*4
    # evaluations and the first line search at most 1 + max_backtracks more
    d = 4
    o = _oracle(lambda x: np.add.reduce(np.square(x), axis=-1), d=d, sigma=1.0, seed=40)
    traj = cor_cfd_gd_run(o, BoxDomain.interval(-10, 10, d), np.full(d, 3.0),
                          CorCfdConfig(batch_pairs=40, pilot_count=10), ArmijoParams(),
                          1000, np.random.default_rng(41))
    first_update_evals = traj.evaluations[1]
    assert 2 * 40 * d <= first_update_evals <= 2 * 40 * d + 2 * (1 + 30)


def test_gd_budget_exactness_random_configs():
    rng = np.random.default_rng(77)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        R = int(rng.choice([1, 2, 5]))
        n0 = R * int(rng.integers(2, 5))
        budget = int(rng.integers(2 * d * n0, 8 * d * n0))
        o = NoisyOracle(lambda x: np.add.reduce(np.square(x), axis=-1), d,
                        float(rng.uniform(0, 1)), seed=rng.integers(2 ** 32))
        dom = BoxDomain.interval(-10, 10, d)
        traj = cor_cfd_gd_run(o, dom, np.full(d, 3.0),
                              CorCfdConfig(pilot_count=R, batch_pairs=n0, bootstrap_reps=20),
                              ArmijoParams(), budget,
                              np.random.default_rng(rng.integers(2 ** 32)))
        assert traj.evaluations[-1] == o.eval_counter


def test_budget_contract_random_configs():
    # No run draws more than 2 * budget_pairs evaluations, and its last
    # iterate carries the oracle's own count. Long, shallow line searches
    # (up to 39 backtracks, l2 down to 0.1) on noisy objectives are the ones
    # that reach the cap mid-search.
    rng = np.random.default_rng(2024)
    for case in range(60):
        d = int(rng.integers(1, 4))
        R = int(rng.choice([1, 2, 5]))
        n0 = R * int(rng.integers(2, 5))
        armijo = ArmijoParams(l2=float(rng.uniform(0.1, 0.9)),
                              max_backtracks=int(rng.integers(1, 40)))
        budget = int(rng.integers(d * n0 + 1, 10 * d * n0))
        sigma = float(rng.uniform(0, 2))
        seeds = rng.integers(2 ** 32, size=2)
        dom = BoxDomain.interval(-10, 10, d)
        x0 = np.full(d, 3.0)
        runs = {
            "spsa": lambda o: spsa_run(o, dom, x0, GainSchedule(0.05, 0.5), budget,
                                       np.random.default_rng(seeds[1])),
            "corcfd": lambda o: cor_cfd_gd_run(
                o, dom, x0, CorCfdConfig(pilot_count=R, batch_pairs=n0,
                                         bootstrap_reps=20),
                armijo, budget, np.random.default_rng(seeds[1])),
        }
        if d == 1:
            runs["kw"] = lambda o: kw_run(o, dom, 3.0, GainSchedule(0.1, 1.0), budget)
        for name, run in runs.items():
            o = NoisyOracle(lambda x: np.add.reduce(np.asarray(x) ** 4, axis=-1), d, sigma,
                            seed=seeds[0])
            traj = run(o)
            assert o.eval_counter <= 2 * budget, (case, name)
            assert traj.evaluations[-1] == o.eval_counter, (case, name)


def test_gd_search_cut_short_by_the_budget_takes_no_step():
    # d=1, n0=20: the first gradient costs 40 of the 44 evaluations, so the
    # search may draw its baseline and 3 trials, not 1 + 30. On 10 x^2 from 3
    # the gradient is 60, and steps of 1, 0.5 and 0.25 times it all overshoot
    # uphill (the fifth trial would be accepted).
    o = _oracle(lambda x: 10.0 * np.float_power(x[..., 0], 2))
    traj = _gd(o, budget=22, x0=3.0)
    assert o.eval_counter == 44
    assert traj.evaluations.tolist() == [0, 44]
    assert traj.iterates[:, 0].tolist() == [3.0, 3.0]
    assert traj.ls_exhausted == [1]


@pytest.mark.parametrize("budget, stamps", [(21, [0, 42]), (42, [0, 42, 84])])
def test_gd_pass_runs_when_the_budget_pays_exactly_for_it(budget, stamps):
    # Noiseless 0.5 x^2 from 0.25: the first trial of every search is
    # accepted, so a pass costs a 40-evaluation gradient, a baseline and one
    # trial. A pass whose cost fills the budget to the last evaluation runs.
    o = _oracle(lambda x: 0.5 * np.float_power(x[..., 0], 2))
    traj = cor_cfd_gd_run(o, DOMAIN, np.array([0.25]), CorCfdConfig(), ArmijoParams(),
                          budget, np.random.default_rng(1))
    assert traj.evaluations.tolist() == stamps
    assert traj.ls_exhausted == []


def _last_iterate_by_scan(traj, pairs):
    """Reference lookup: walk the iterates in order, stop at the first one
    stamped past ``2 * pairs``."""
    best = None
    for x, n_count in zip(traj.iterates, traj.evaluations):
        if n_count > 2 * pairs:
            break
        best = x
    return best


def test_trajectory_checkpoint_extraction():
    o = _oracle(lambda x: float(x[0]) ** 2)
    traj = kw_run(o, DOMAIN, 5.0, GainSchedule(0.1, 1.0), 50)
    # iterate 10 is the last one produced within 20 evaluations
    assert traj.at_pair_budget(10)[0] == traj.iterates[10, 0]
    # a zero budget only covers the starting point
    assert traj.at_pair_budget(0)[0] == 5.0

    # Cor-CFD-GD stamps are irregular: a gradient plus a line search apart,
    # and odd whenever the search drew an even number of trials
    o = _oracle(quartic_mean, sigma=1.0, seed=9)
    traj = _gd(o, budget=500, seed=10)
    stamps = [int(n) for n in traj.evaluations]
    assert len(set(np.diff(stamps))) > 1 and any(n % 2 for n in stamps)
    assert len(np.unique(traj.iterates[:, 0])) == len(stamps)  # rows tell apart
    budgets = {0, stamps[-1] // 2 + 1, 10 ** 6}
    budgets |= {n // 2 + delta for n in stamps for delta in (-1, 0, 1)}
    for pairs in sorted(b for b in budgets if b >= 0):
        assert np.array_equal(traj.at_pair_budget(pairs),
                              _last_iterate_by_scan(traj, pairs)), pairs
    with pytest.raises(ValueError, match="no iterate within"):
        traj.at_pair_budget(-1)


@pytest.mark.parametrize("budget", [1, 37, 500])
def test_auto_stability_constant_is_a_tenth_of_the_budget(budget):
    # A=None and an explicit A=0.1*budget give the same runs, bit for bit
    def runs(A):
        kw = kw_run(_oracle(lambda x: float(x[0]) ** 4, sigma=1.0, seed=1), DOMAIN,
                    30.0, GainSchedule(0.1, 1.0, A=A), budget)
        spsa = _run_spsa(spsa_run, 3, 1.0, budget, GainSchedule(0.05, 0.5, A=A))[0]
        return kw, spsa
    for auto, explicit in zip(runs(None), runs(0.1 * budget)):
        assert np.array_equal(auto.iterates, explicit.iterates)
        assert np.array_equal(auto.evaluations, explicit.evaluations)


def test_gain_schedule_validation():
    with pytest.raises(ValueError):
        GainSchedule(a=0.0, c=1.0)
    with pytest.raises(ValueError):
        GainSchedule(a=1.0, c=-1.0)
    with pytest.raises(ValueError):
        GainSchedule(a=1.0, c=1.0, A=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gains_rejected(bad):
    with pytest.raises(ValueError, match="must be finite"):
        GainSchedule(a=bad, c=1.0)
    with pytest.raises(ValueError, match="must be finite"):
        GainSchedule(1.0, c=bad)
    with pytest.raises(ValueError, match="must be finite"):
        GainSchedule(1.0, 1.0, A=bad)
    with pytest.raises(ValueError, match="must be finite"):
        ArmijoParams(a0=bad)
