"""Tests for CFD quotients, the optimal perturbation, and the Cor-CFD pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from fdopt import estimators
from fdopt.estimators import (CfdConfig, CorCfdConfig, GradientEstimate,
                              _quartile_spread, cfd_batch, cfd_pair,
                              cor_cfd_coordinate, cor_cfd_gradient, optimal_c)
from fdopt.oracle import NoisyOracle, get_test_function, quartic_mean


def _oracle(mean_fn, d=1, sigma=0.0, seed=0):
    return NoisyOracle(mean_fn, d, sigma, seed)


# ---------------------------------------------------------------------------
# cfd_pair / cfd_batch
# ---------------------------------------------------------------------------

def test_cfd_pair_linear_is_exact():
    o = _oracle(lambda x: 3.0 * x[..., 0])
    for c in (0.01, 0.5, 2.0):
        assert cfd_pair(o, np.zeros(1), 0, c) == pytest.approx(3.0)


def test_cfd_pair_quartic_value():
    # ((1.1)^4 - (0.9)^4) / 0.2 = 4.04, the exact quotient 4 + 4 c^2 at c=0.1
    o = _oracle(quartic_mean)
    assert cfd_pair(o, np.array([1.0]), 0, 0.1) == pytest.approx(4.04)
    assert o.eval_counter == 2


def test_cfd_pair_symmetric_at_zero():
    o = _oracle(lambda x: np.float_power(x[..., 0], 2))
    assert cfd_pair(o, np.zeros(1), 0, 1.0) == 0.0


def test_cfd_pair_rejects_nonpositive_c():
    o = _oracle(lambda x: float(x[0]))
    with pytest.raises(ValueError):
        cfd_pair(o, np.zeros(1), 0, 0.0)
    with pytest.raises(ValueError):
        cfd_pair(o, np.zeros(1), 0, -0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="perturbation"):
            CfdConfig(1, bad)
    with pytest.raises(ValueError, match="batch_pairs must be >= 1"):
        CfdConfig(0, 0.1)


def _cfd_pair_reference(oracle, x, coord, c):
    """One quotient from two single-point evaluations."""
    e = np.zeros(oracle.dimension)
    e[coord] = c
    return (oracle.evaluate(x + e) - oracle.evaluate(x - e)) / (2.0 * c)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("c", [1e-3, 0.7, 3.0])
def test_cfd_pair_matches_single_evaluations_bit_for_bit(sigma, c):
    fn = get_test_function("quartic")
    for seed in range(50):
        o, ref = fn.make_oracle(sigma, seed=seed), fn.make_oracle(sigma, seed=seed)
        x = np.array([seed / 10.0 - 2.0])
        for _ in range(4):
            assert cfd_pair(o, x, 0, c) == _cfd_pair_reference(ref, x, 0, c)
        assert o.eval_counter == ref.eval_counter == 8


def test_cfd_bias_quadratic_in_c():
    # noiseless quartic at x=1: |quotient - 4| = 4 c^2 exactly, so the
    # log-log slope of bias against c is 2
    o = _oracle(quartic_mean)
    cs = np.logspace(-3, -1, 9)
    errs = [abs(cfd_pair(o, np.array([1.0]), 0, c) - 4.0) for c in cs]
    slope = np.polyfit(np.log(cs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_cfd_batch_noiseless_equals_pair():
    for n in (1, 7, 100):
        o = _oracle(quartic_mean)
        batch = cfd_batch(o, np.array([1.0]), 0, CfdConfig(n, 0.1))
        o2 = _oracle(quartic_mean)
        assert batch == pytest.approx(cfd_pair(o2, np.array([1.0]), 0, 0.1))
        assert o.eval_counter == 2 * n


def test_cfd_batch_variance_law():
    # empirical variance across repeats matches sigma^2 / (2 n c^2)
    sigma, n, c = 1.0, 1000, 0.3
    estimates = [
        cfd_batch(_oracle(quartic_mean, sigma=sigma, seed=rep),
                  np.array([1.0]), 0, CfdConfig(n, c))
        for rep in range(200)
    ]
    expected = sigma ** 2 / (2 * n * c ** 2)
    assert np.var(estimates) == pytest.approx(expected, rel=0.2)


def test_cfd_batch_clt_bound_on_linear():
    sigma, n, c = 1.0, 10_000, 0.5
    o = _oracle(lambda x: 2.5 * x[..., 0], sigma=sigma, seed=3)
    est = cfd_batch(o, np.zeros(1), 0, CfdConfig(n, c))
    se = np.sqrt(sigma ** 2 / (2 * n * c ** 2))
    assert abs(est - 2.5) < 3 * se


# ---------------------------------------------------------------------------
# optimal_c
# ---------------------------------------------------------------------------

def _mse(c, sigma2, mu3, n):
    return mu3 ** 2 * c ** 4 / 36.0 + sigma2 / (2 * n * c ** 2)


def test_optimal_c_matches_brute_force_grid():
    sigma2, mu3, n = 1.0, 6.0, 100
    grid = np.logspace(-4, 4, 100_000)
    brute = grid[np.argmin(_mse(grid, sigma2, mu3, n))]
    closed = optimal_c(sigma2, mu3, n)
    assert closed == pytest.approx((9.0 / 3600.0) ** (1 / 6))
    assert closed == pytest.approx(0.36840, abs=1e-4)
    # within one grid cell of the brute-force argmin
    assert abs(np.log(closed) - np.log(brute)) <= np.log(grid[1] / grid[0])


def test_optimal_c_scaling_laws():
    base = optimal_c(1.0, 6.0, 100)
    assert optimal_c(64.0, 6.0, 100) == pytest.approx(2 * base)
    assert optimal_c(1.0, 6.0, 6400) == pytest.approx(base / 2)


def test_optimal_c_degenerate_inputs():
    for sigma2, mu3 in [(0.0, 6.0), (-1.0, 6.0), (1.0, 0.0), (1.0, -0.0),
                        (np.nan, 6.0), (np.inf, 6.0), (-np.inf, 6.0),
                        (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)]:
        message = f"got sigma2={sigma2!r}, mu3={mu3!r}"
        with pytest.raises(ValueError, match=message):
            optimal_c(sigma2, mu3, 10)
        # in an array, the first bad entry is named
        with pytest.raises(ValueError, match=message):
            optimal_c(np.array([1.0, sigma2, 0.0]), np.array([6.0, mu3, 6.0]), 10)
    with pytest.raises(ValueError, match="n must be >= 1"):
        optimal_c(1.0, 1.0, 0)


def test_optimal_c_float_or_array():
    assert type(optimal_c(1.0, 6.0, 100)) is float
    assert type(optimal_c(np.float64(1.0), np.float64(6.0), 100)) is float
    got = optimal_c(np.array([1.0, 64.0]), np.array([6.0, -6.0]), 100)
    assert got.shape == (2,)
    assert got.tolist() == [optimal_c(1.0, 6.0, 100), optimal_c(64.0, -6.0, 100)]
    assert optimal_c(np.empty(0), np.empty(0), 100).shape == (0,)


def test_array_powers_equal_python_float_powers_bit_for_bit():
    # The block estimator takes c_hat and c_hat^2 with np.float_power on
    # arrays, where the coordinate loop took Python's ``**``; both must be
    # libm's pow, whatever SIMD kernels numpy dispatches for ``np.power``.
    rng = np.random.default_rng(15)
    m = 50_000
    sigma2 = 10.0 ** rng.uniform(-30, 30, m) * rng.uniform(0.5, 1.5, m)
    mu3 = (10.0 ** rng.uniform(-12, 12, m) * rng.uniform(0.5, 1.5, m)
           * rng.choice([-1.0, 1.0], m))
    for n in (2, 20, 140, 10_007):
        expected = np.array([(9.0 * s / (n * u * u)) ** (1.0 / 6.0)
                             for s, u in zip(sigma2.tolist(), mu3.tolist())])
        got = optimal_c(sigma2, mu3, n)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), n
    c = 10.0 ** rng.uniform(-150, 150, 4 * m) * rng.uniform(0.5, 1.5, 4 * m)
    squares = np.array([x ** 2 for x in c.tolist()])
    assert np.array_equal(np.float_power(c, 2).view(np.uint64), squares.view(np.uint64))


# ---------------------------------------------------------------------------
# pilot perturbations
# ---------------------------------------------------------------------------

def _pilots(cfg, seed=0, calls=1):
    """The pilots ``cor_cfd_coordinate`` draws, read off the ``+`` probes it
    sends a recording mean at x = 0, where 0 + c is exactly c."""
    probes = []

    def mean(stack):  # rows: pilot after pilot, the + side then the - side
        probes.append(stack[0::2, 0].copy())
        return np.zeros(len(stack))

    oracle, rng = _oracle(mean), np.random.default_rng(seed)
    for _ in range(calls):
        cor_cfd_coordinate(oracle, np.zeros(1), 0, replace(cfg, bootstrap_reps=1), rng)
    return np.concatenate(probes)


def test_pilots_degenerate_spread():
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=1000, base_perturbation=2.0,
                       pilot_spread=0.0)
    pilots = _pilots(cfg)
    assert np.allclose(pilots, 2.0 * 1000 ** -0.1)
    assert len(pilots) == 10


def test_pilots_power_law_scale():
    p1 = _pilots(CorCfdConfig(batch_pairs=20, pilot_spread=0.0))
    p2 = _pilots(CorCfdConfig(batch_pairs=20 * 1024, pilot_spread=0.0))
    assert np.allclose(p2, p1 * 0.5)


def test_pilots_variance_formula():
    # Var[c^r] = c_base^2 n^(-1/5) spread^2 / 3 for the uniform pilot law
    n = 50
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=n, base_perturbation=1.5,
                       pilot_spread=0.4)
    draws = _pilots(cfg, seed=5, calls=2_000)
    expected = 1.5 ** 2 * n ** -0.2 * 0.4 ** 2 / 3.0
    assert draws.var() == pytest.approx(expected, rel=0.05)
    assert np.all(draws > 0)


def test_corcfd_config_validation():
    with pytest.raises(ValueError):
        CorCfdConfig(pilot_count=3, batch_pairs=20)   # R must divide n
    with pytest.raises(ValueError):
        CorCfdConfig(pilot_count=10, batch_pairs=10)  # needs >= 2 pairs per pilot
    with pytest.raises(ValueError):
        CorCfdConfig(pilot_spread=1.0)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="base_perturbation"):
            CorCfdConfig(base_perturbation=bad)


# ---------------------------------------------------------------------------
# cor_cfd_coordinate / cor_cfd_gradient
# ---------------------------------------------------------------------------

def test_coordinate_noiseless_quartic_recovers_regression():
    # quotients are exactly 4 + 4 c^2, so the fit and the recycled estimate
    # are exact up to rounding
    o = _oracle(quartic_mean)
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=1000)
    est, c_hat, _, mu3_hat, intercept, _ = cor_cfd_coordinate(
        o, np.array([1.0]), 0, cfg, np.random.default_rng(3))
    assert o.eval_counter == 2000
    assert intercept == pytest.approx(4.0, abs=1e-9)
    assert mu3_hat == pytest.approx(24.0, abs=1e-9)
    assert est == pytest.approx(4.0 + 4.0 * c_hat ** 2, abs=1e-6)


def test_coordinate_noiseless_linear_is_exact():
    o = _oracle(lambda x: -7.0 * x[..., 0])
    cfg = CorCfdConfig(pilot_count=5, batch_pairs=20)
    est, _, sigma2_hat, *_ = cor_cfd_coordinate(o, np.array([2.0]), 0, cfg,
                                                np.random.default_rng(4))
    assert est == pytest.approx(-7.0, abs=1e-12)
    assert sigma2_hat == pytest.approx(0.0, abs=1e-20)


def test_coordinate_recycled_mean_matches_fit_when_noiseless():
    # with sigma=0 the recycled average equals the fitted mean at c_hat
    o = _oracle(lambda x: np.float_power(x[..., 0], 3))
    cfg = CorCfdConfig(pilot_count=4, batch_pairs=16)
    est, c_hat, _, mu3_hat, intercept, _ = cor_cfd_coordinate(
        o, np.array([0.5]), 0, cfg, np.random.default_rng(8))
    mu3 = 6.0
    expected = intercept + (mu3_hat / 6.0) * c_hat ** 2
    assert est == pytest.approx(expected, abs=1e-9)
    assert mu3_hat == pytest.approx(mu3, abs=1e-9)


def test_coordinate_mse_decreases_with_batch():
    # Monte Carlo MSE over repeats shrinks as the pair budget grows
    mses = []
    for n in (100, 400, 1600):
        cfg = CorCfdConfig(pilot_count=10, batch_pairs=n)
        errs = []
        for rep in range(200):
            o = _oracle(quartic_mean, sigma=1.0, seed=(n, rep))
            rng = np.random.default_rng((n, rep, 1))
            est = cor_cfd_coordinate(o, np.array([1.0]), 0, cfg, rng)[0]
            errs.append(est - 4.0)
        mses.append(float(np.mean(np.square(errs))))
    assert mses[0] > mses[1] > mses[2]


def test_coordinate_without_pilot_spread_is_rank_deficient():
    # every pilot sits at the same perturbation, so the regression has no
    # slope to fit; the bootstrap indices are drawn anyway, which keeps the
    # generator's stream independent of the spread
    R, b, reps = 5, 4, 30
    cfg = CorCfdConfig(pilot_count=R, batch_pairs=R * b, pilot_spread=0.0,
                       bootstrap_reps=reps)
    o = _oracle(quartic_mean, sigma=1.0, seed=5)
    rng = np.random.default_rng(6)
    _, c_hat, _, mu3_hat, _, mu3_iqr = cor_cfd_coordinate(o, np.array([1.0]), 0,
                                                         cfg, rng)
    assert mu3_hat == 0.0 and mu3_iqr == 0.0
    assert c_hat == pytest.approx((R * b) ** -0.1, rel=1e-14)  # the common pilot
    ref = np.random.default_rng(6)
    ref.uniform(size=R)
    ref.integers(0, b, size=(reps, R, b))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gradient_quadratic_bowl():
    o = _oracle(lambda x: np.float_power(x[..., 0], 2) + np.float_power(x[..., 1], 2), d=2)
    cfg = CorCfdConfig(pilot_count=5, batch_pairs=20)
    grad = cor_cfd_gradient(o, np.array([1.0, 2.0]), cfg, np.random.default_rng(2))
    assert grad.g == pytest.approx([2.0, 4.0], abs=1e-6)
    assert grad.pairs_used == 2 * 20
    assert o.eval_counter == 2 * 2 * 20


def test_gradient_pairs_accounting_d64():
    fn = get_test_function("fn213", 64)
    o = fn.make_oracle(0.0, seed=0)
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=20)
    grad = cor_cfd_gradient(o, fn.optimum_point, cfg, np.random.default_rng(0))
    assert grad.pairs_used == 64 * 20 == 1280
    assert o.eval_counter == 2560


def test_gradient_d1_reduces_to_coordinate():
    cfg = CorCfdConfig(pilot_count=5, batch_pairs=20)
    o1 = _oracle(quartic_mean, sigma=0.5, seed=11)
    row = cor_cfd_coordinate(o1, np.array([1.0]), 0, cfg, np.random.default_rng(12))
    o2 = _oracle(quartic_mean, sigma=0.5, seed=11)
    grad = cor_cfd_gradient(o2, np.array([1.0]), cfg, np.random.default_rng(12))
    assert (grad.g[0], grad.c_hat[0], grad.sigma2_hat[0], grad.mu3_hat[0],
            grad.intercept[0], grad.mu3_iqr[0]) == row


def test_coordinate_linear_function_curvature_insignificant():
    # on a linear objective the fitted third derivative is pure noise, so the
    # bootstrap dispersion should dominate it for nearly every seed
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=200)
    insignificant = 0
    for rep in range(100):
        o = _oracle(lambda x: 3.0 * x[..., 0], sigma=1.0, seed=(50, rep))
        grad = cor_cfd_gradient(o, np.zeros(1), cfg, np.random.default_rng((51, rep)))
        insignificant += int(not grad.curvature_significant[0])
    assert insignificant >= 90


def test_gradient_budget_across_random_configs():
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        R = int(rng.choice([1, 2, 5]))
        b = int(rng.integers(2, 6))
        n = R * b
        sigma = float(rng.uniform(0, 2))
        cfg = CorCfdConfig(pilot_count=R, batch_pairs=n,
                           base_perturbation=float(rng.uniform(0.2, 2.0)),
                           pilot_spread=float(rng.uniform(0, 0.9)),
                           bootstrap_reps=20)
        o = NoisyOracle(lambda x: np.add.reduce(np.square(x), axis=-1), d, sigma,
                        seed=rng.integers(2 ** 32))
        grad = cor_cfd_gradient(o, np.zeros(d), cfg,
                                np.random.default_rng(rng.integers(2 ** 32)))
        assert o.eval_counter == 2 * d * n
        assert grad.pairs_used == d * n
        assert np.all(np.isfinite(grad.g))
        assert np.all(grad.c_hat > 0)
        assert np.all(grad.sigma2_hat >= 0)


def _cor_cfd_reference(oracle, x, cfg, rng, base_perturbations=None):
    """The coordinate-by-coordinate Cor-CFD gradient: two one-point batches
    per pilot and one bootstrap and percentile pass per coordinate."""
    p = np.asarray(x, dtype=float)
    d, n, b = oracle.dimension, cfg.batch_pairs, cfg.pairs_per_pilot
    rows = []
    for coord in range(d):
        coord_cfg = cfg
        if base_perturbations is not None:
            coord_cfg = replace(cfg, base_perturbation=float(base_perturbations[coord]))
        spread = cfg.pilot_spread
        pilots = (coord_cfg.base_perturbation * float(n) ** -0.1
                  * rng.uniform(1 - spread, 1 + spread, size=cfg.pilot_count))
        quotients = np.empty((cfg.pilot_count, b))
        for r, c in enumerate(pilots):
            plus, minus = p.copy(), p.copy()
            plus[coord] += c
            minus[coord] += -c
            quotients[r] = ((oracle.evaluate_batch(plus[None], b)[0]
                             - oracle.evaluate_batch(minus[None], b)[0]) / (2.0 * c))
        sigma2_hat = float(np.mean(2.0 * pilots ** 2 * quotients.var(axis=1, ddof=1)))

        z = pilots ** 2
        idx = rng.integers(0, b, size=(cfg.bootstrap_reps, cfg.pilot_count, b))
        y = quotients.mean(axis=1)
        zc = z - z.mean()
        denom = float(zc @ zc)
        if not pilots.max() > pilots.min():
            intercept, slope, slope_iqr = float(y.mean()), 0.0, 0.0
        else:
            slope = float(zc @ (y - y.mean())) / denom
            intercept = float(y.mean()) - slope * float(z.mean())
            draws = quotients[np.arange(cfg.pilot_count)[None, :, None], idx]
            boot = np.add.accumulate(draws, axis=2)[:, :, -1] / b  # in draw order
            slopes = (boot - boot.mean(axis=1, keepdims=True)) @ zc / denom
            q75, q25 = np.percentile(slopes, [75.0, 25.0])
            slope_iqr = float(q75 - q25)

        mu3_hat = 6.0 * slope
        if (sigma2_hat <= 0.0 or abs(mu3_hat) < 1e-12
                or slope_iqr > 10.0 * abs(slope)):
            c_hat = float(np.exp(np.mean(np.log(pilots))))
        else:
            c_hat = optimal_c(sigma2_hat, mu3_hat, n)
        c_hat = float(np.clip(c_hat, pilots.min() / 10.0, 10.0 * pilots.max()))
        fitted = intercept + slope * z
        recycled = (intercept + slope * c_hat ** 2
                    + (pilots / c_hat)[:, None] * (quotients - fitted[:, None]))
        rows.append((float(recycled.mean()), c_hat, sigma2_hat, mu3_hat, intercept,
                     6.0 * slope_iqr))
    return GradientEstimate(*np.array(rows).T.copy(), pairs_used=d * n)


# (d, R, n): at the default 200 bootstrap resamples a block holds
# max(1, 2**15 // (200 n)) coordinates, so these give 1, 1, 2, 1, 2, 2, 1, 8,
# 4, 8, 22, 5, 1, 1, 1 and 1 blocks. b = n / R runs from 2 to 200. From
# b = 8 on, a sum in draw order can differ from numpy's own sum of the draws
# (8 interleaved lanes, then halves beyond 128), so the b >= 8 layouts pin
# the draw order: b = 8, 9, 22, 40 and 200 beyond 1-d, and 8, 9 and 14 among
# the 1-d layouts of the 1-d quartic table (with b = 2 and 7).
@pytest.mark.parametrize("d, R, n", [(1, 10, 20), (2, 10, 20), (2, 10, 400),
                                     (2, 10, 80), (2, 10, 90), (2, 2, 400),
                                     (8, 5, 20), (8, 10, 220), (64, 5, 10),
                                     (64, 10, 20), (64, 10, 50), (64, 4, 12),
                                     (1, 10, 70), (1, 10, 80), (1, 10, 90),
                                     (1, 10, 140)])
@pytest.mark.parametrize("sigma", [0.0, 1.5])
@pytest.mark.parametrize("adapted", [False, True])
def test_gradient_blocks_match_coordinate_loop_bit_for_bit(d, R, n, sigma, adapted):
    fn = get_test_function("quartic") if d == 1 else get_test_function("fn213", d)
    seed = 1000 * d + n
    x = 1.0 + np.random.default_rng(seed).normal(size=d)
    bases = np.random.default_rng(seed + 1).uniform(0.05, 3.0, size=d) if adapted else None
    # With spread 0 every pilot is equal and every coordinate takes the
    # rank-deficient branch (mu3_hat 0).
    for spread in (0.5, 0.0):
        cfg = CorCfdConfig(pilot_count=R, batch_pairs=n, pilot_spread=spread)
        o, o_ref = fn.make_oracle(sigma, seed=seed), fn.make_oracle(sigma, seed=seed)
        rng, rng_ref = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
        got = cor_cfd_gradient(o, x, cfg, rng, bases)
        ref = _cor_cfd_reference(o_ref, x, cfg, rng_ref, bases)
        for field in ("g", "c_hat", "sigma2_hat", "mu3_hat", "intercept", "mu3_iqr"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert got.pairs_used == ref.pairs_used == d * n
        assert o.eval_counter == o_ref.eval_counter == 2 * d * n
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert o._rng.bit_generator.state == o_ref._rng.bit_generator.state


@pytest.mark.parametrize("cap", [1, 2 ** 20])
def test_gradient_does_not_depend_on_block_size(cap, monkeypatch):
    fn = get_test_function("fn213", 8)
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=40)
    x = np.linspace(-1.0, 2.0, 8)

    def run():
        o, rng = fn.make_oracle(1.5, seed=6), np.random.default_rng(7)
        est = cor_cfd_gradient(o, x, cfg, rng)
        return est, o._rng.bit_generator.state, rng.bit_generator.state

    default = run()
    monkeypatch.setattr(estimators, "_BLOCK_INDICES", cap)  # 8 blocks or 1, not 2
    patched = run()
    for field in ("g", "c_hat", "sigma2_hat", "mu3_hat", "intercept", "mu3_iqr"):
        assert np.array_equal(getattr(patched[0], field), getattr(default[0], field)), field
    assert patched[1:] == default[1:]


@pytest.mark.parametrize("n", [200, 400])
def test_equal_pilots_give_no_slope(n):
    # At these n the mean of the ten equal z = c^2 rounds, so z - mean(z) is
    # not exactly 0; the fit must still count as rank-deficient.
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=n, pilot_spread=0.0)
    o = get_test_function("fn213", 2).make_oracle(0.0, seed=1)
    est = cor_cfd_gradient(o, np.array([1.3, 0.4]), cfg, np.random.default_rng(2))
    pilot = cfg.base_perturbation * float(n) ** -0.1
    assert np.array_equal(est.mu3_hat, [0.0, 0.0])
    assert np.array_equal(est.mu3_iqr, [0.0, 0.0])
    assert est.c_hat == pytest.approx([pilot, pilot], rel=1e-15)
    assert est.g == pytest.approx(est.intercept, rel=1e-12)  # the plain mean


@pytest.mark.parametrize("bases", [[1.0] * 6, [1.0] * 3, [[1.0] * 4],
                                   [1.0, 0.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0],
                                   [1.0, 1.0, np.nan, 1.0], [1.0, 1.0, 1.0, np.inf]],
                         ids=["six", "three", "2-d", "zero", "negative", "nan", "inf"])
def test_gradient_rejects_bad_base_perturbations_before_evaluating(bases):
    o = get_test_function("fn213", 4).make_oracle(1.0, seed=3)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="base_perturbations must be 4 finite values > 0"):
        cor_cfd_gradient(o, np.ones(4), CorCfdConfig(), rng, base_perturbations=bases)
    assert o.eval_counter == 0
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 10, 199, 200, 201])
def test_quartile_spread_equals_numpy_percentile(m):
    rng = np.random.default_rng(m)
    rows = [rng.normal(size=m) * 1e3, np.round(rng.normal(size=m)),  # ties, signed zeros
            np.zeros(m), np.full(m, -np.inf), rng.normal(size=m)]
    rows[-1][m // 2] = np.nan
    if m > 1:
        rows.append(np.where(np.arange(m) == 0, np.inf, rng.normal(size=m)))
    samples = np.array(rows)
    with np.errstate(invalid="ignore"):
        q75, q25 = np.percentile(samples, [75.0, 25.0], axis=1)
        expected = q75 - q25
        got = _quartile_spread(samples)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
