"""Tests for noisy oracles, test functions, and box projection."""

import numpy as np
import pytest

from fdopt.oracle import (BoxDomain, NoisyOracle, as_point, fn213_mean,
                          get_test_function, quartic_mean)


def test_noiseless_evaluate_is_exact():
    o = get_test_function("quartic").make_oracle(0.0, seed=1)
    assert o.evaluate(np.array([2.0])) == 16.0


def test_fn213_optimum_is_zero():
    fn = get_test_function("fn213", 64)
    assert fn.mean_fn(np.ones(64)) == 0.0
    assert fn.mean_fn(fn.optimum_point) == fn.optimum_value


def test_fn213_pair_term():
    # (10*(1-3)^2 + (1-3)^2)^4 = 44^4
    assert fn213_mean(np.array([3.0, 1.0])) == 44.0 ** 4 == 3_748_096.0


def test_fn213_starting_point_value():
    # 32 identical pair terms of 44^4 at the standard starting point
    x0 = np.tile([3.0, 1.0], 32)
    assert fn213_mean(x0) == 32 * 44.0 ** 4 == 119_939_072.0


def test_fn213_rejects_odd_dimension():
    with pytest.raises(ValueError):
        fn213_mean(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        get_test_function("fn213", 7)


def test_cos100_optimum():
    fn = get_test_function("cos100")
    assert fn.mean_fn(np.zeros(1)) == -100.0
    assert fn.optimum_value == -100.0


@pytest.mark.parametrize("name", ["quartic", "cos100", "fn213"])
def test_gradient_vanishes_at_optimum(name):
    fn = get_test_function(name)
    h = 1e-6
    for i in range(fn.dimension):
        xp = fn.optimum_point.copy()
        xm = fn.optimum_point.copy()
        xp[i] += h
        xm[i] -= h
        grad_i = (fn.mean_fn(xp) - fn.mean_fn(xm)) / (2 * h)
        assert grad_i == pytest.approx(0.0, abs=1e-5)


def test_unknown_function_id():
    with pytest.raises(ValueError):
        get_test_function("rosenbrock")


def test_projection_cases():
    dom = BoxDomain.interval(-50, 50)
    assert dom.project([30.0])[0] == 30.0
    # first KW step from x0=30 on the quartic overshoots far below the box
    assert dom.project([-107970.0])[0] == -50.0
    assert dom.project([50.0])[0] == 50.0


def test_projection_idempotent_and_identity_inside():
    rng = np.random.default_rng(0)
    dom = BoxDomain(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 3.0]))
    for _ in range(50):
        x = rng.uniform(-10, 10, size=3)
        p = dom.project(x)
        assert dom.contains(p)
        assert np.array_equal(dom.project(p), p)
        if dom.contains(x):
            assert np.array_equal(p, x)
        # clamping is 1-Lipschitz componentwise
        y = rng.uniform(-10, 10, size=3)
        assert np.all(np.abs(dom.project(x) - dom.project(y)) <= np.abs(x - y) + 1e-15)


def test_projection_moves_iff_outside():
    dom = BoxDomain.interval(-50, 50)
    assert np.linalg.norm(dom.project([10.0]) - 10.0) == 0.0
    assert np.linalg.norm(dom.project([60.0]) - 60.0) > 0.0


def test_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        BoxDomain(np.array([0.0, 2.0]), np.array([1.0]))


def test_eval_counter_exactness():
    o = NoisyOracle(quartic_mean, 1, 1.0, seed=7)
    for _ in range(17):
        o.evaluate(np.array([1.0]))
    assert o.eval_counter == 17
    o.evaluate_batch(np.array([1.0]), 5)
    assert o.eval_counter == 22
    # truth accessor never touches the budget
    o.true_mean(np.array([3.0]))
    assert o.eval_counter == 22


def test_true_mean_is_noiseless():
    o = NoisyOracle(quartic_mean, 1, 10.0, seed=7)
    assert o.true_mean(np.array([2.0])) == 16.0


def test_seed_determinism():
    a = NoisyOracle(quartic_mean, 1, 1.0, seed=42)
    b = NoisyOracle(quartic_mean, 1, 1.0, seed=42)
    xs = np.linspace(-3, 3, 100)
    ya = [a.evaluate(np.array([x])) for x in xs]
    yb = [b.evaluate(np.array([x])) for x in xs]
    assert ya == yb


def test_batch_stream_matches_single_calls():
    a = NoisyOracle(quartic_mean, 1, 1.0, seed=9)
    b = NoisyOracle(quartic_mean, 1, 1.0, seed=9)
    batch = a.evaluate_batch(np.array([1.5]), 8)
    singles = np.array([b.evaluate(np.array([1.5])) for _ in range(8)])
    assert np.array_equal(batch, singles)


def test_dimension_mismatch_raises():
    o = NoisyOracle(fn213_mean, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        o.evaluate(np.ones(3))
    with pytest.raises(ValueError):
        o.evaluate_batch(np.ones(5), 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_mean_value_rejected(value):
    o = NoisyOracle(lambda x: value, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match=rf"non-finite value {value} at point \[1\.0, 2\.0\]"):
        o.evaluate(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=rf"non-finite value {value} at point \[1\.0, 2\.0\]"):
        o.evaluate_batch(np.array([1.0, 2.0]), 3)


def test_noise_mean_law_of_large_numbers():
    # mean of Y(x) - mu(x) over 1e6 draws stays within 4e-3 of zero
    o = NoisyOracle(quartic_mean, 1, 1.0, seed=1234)
    x = np.array([1.0])
    draws = o.evaluate_batch(x, 1_000_000) - 1.0
    assert abs(float(draws.mean())) < 4e-3


def test_noise_variance_matches_sigma2():
    sigma = 3.0
    o = NoisyOracle(quartic_mean, 1, sigma, seed=77)
    draws = o.evaluate_batch(np.array([0.5]), 100_000) - 0.5 ** 4
    assert float(draws.var()) == pytest.approx(sigma ** 2, rel=0.05)


def test_as_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_point([np.nan])
    with pytest.raises(ValueError):
        as_point([np.inf, 0.0])
