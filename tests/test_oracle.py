"""Tests for noisy oracles, test functions, and box projection."""

import re

import numpy as np
import pytest

from fdopt.oracle import (_AHEAD, BoxDomain, NoisyOracle, as_point, fn213_mean,
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
        assert np.all(p >= dom.lower) and np.all(p <= dom.upper)
        assert np.array_equal(dom.project(p), p)
        if np.all(x >= dom.lower) and np.all(x <= dom.upper):
            assert np.array_equal(p, x)
        # clamping is 1-Lipschitz componentwise
        y = rng.uniform(-10, 10, size=3)
        assert np.all(np.abs(dom.project(x) - dom.project(y)) <= np.abs(x - y) + 1e-15)


def test_projection_moves_iff_outside():
    dom = BoxDomain.interval(-50, 50)
    assert np.linalg.norm(dom.project([10.0]) - 10.0) == 0.0
    assert np.linalg.norm(dom.project([60.0]) - 60.0) > 0.0


def test_projection_equals_numpy_clip_bit_for_bit():
    # signed zeros on both sides of a zero bound, points outside the box and
    # points on a bound; one box per case and one box holding every case
    bounds = [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-2.5, 7.25)]
    lower, upper, points = [], [], []
    for lo, hi in bounds:
        for x in (-0.0, 0.0, lo, hi, lo - 1.0, hi + 1.0, 0.5 * (lo + hi), -1e300, 1e300):
            lower.append(lo)
            upper.append(hi)
            points.append(x)
    cases = [(np.array([lo]), np.array([hi]), np.array([x]))
             for lo, hi, x in zip(lower, upper, points)]
    cases.append((np.array(lower), np.array(upper), np.array(points)))
    for lo, hi, x in cases:
        got = BoxDomain(lo, hi).project(x)
        assert np.array_equal(got.view(np.uint64), np.clip(x, lo, hi).view(np.uint64))


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
    o.evaluate_batch(np.array([[1.0]]), 5)
    assert o.eval_counter == 22


def test_evaluate_leaves_the_point_alone_when_the_mean_is_a_view_of_it():
    # x[..., 0] of a point is a 0-d view; adding the noise in place wrote it into x
    o = NoisyOracle(lambda x: x[..., 0], 1, 1.0, seed=0)
    p = np.array([2.0])
    assert o.evaluate(p) == 2.0 + np.random.default_rng(0).standard_normal()
    assert p.tolist() == [2.0]


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
    batch = a.evaluate_batch(np.array([[1.5]]), 8)[0]
    singles = np.array([b.evaluate(np.array([1.5])) for _ in range(8)])
    assert np.array_equal(batch, singles)


def test_block_draws_equal_the_per_call_stream():
    # Calls chosen to start, end and cross the edges of the blocks the oracle
    # draws ahead: ("e", 1) is one evaluate, ("p", size) a batch on a stack of
    # one point and ("s", size) a batch on a stack of several.
    b = _AHEAD
    script = [("e", 1), ("p", 1), ("p", b - 1), ("p", b), ("e", 1), ("s", b - 1),
              ("e", 1), ("s", b + 1), ("p", 3 * b + 5), ("e", 1), ("e", 1), ("e", 1),
              ("s", b), ("e", 1), ("p", b + 1), ("s", 3 * b + 5), ("e", 1), ("p", 1)]
    fn = get_test_function("fn213", 2)
    o = fn.make_oracle(2.5, seed=11)
    stream = np.random.default_rng(11)
    points = np.random.default_rng(0)
    for kind, size in script:
        if kind == "e":
            x = points.normal(size=2)
            assert o.evaluate(x) == fn.mean_fn(x) + 2.5 * stream.standard_normal()
            continue
        m = next(k for k in (3, 2, 1) if size % k == 0) if kind == "s" else 1
        x = points.normal(size=(m, 2))
        got = o.evaluate_batch(x, size)
        want = [[fn.mean_fn(p) + 2.5 * stream.standard_normal() for _ in range(size // m)]
                for p in x]
        assert np.array_equal(got, want), (kind, size)
    assert o.eval_counter == sum(size for _, size in script)


def test_zero_sigma_never_draws():
    o = NoisyOracle(quartic_mean, 1, 0.0, seed=3)
    state = o._rng.bit_generator.state
    o.evaluate(np.array([2.0]))
    assert np.array_equal(o.evaluate_batch(np.array([[1.0], [2.0]]), 2 * _AHEAD),
                          np.repeat([[1.0], [16.0]], _AHEAD, axis=1))
    o.evaluate(np.array([2.0]))
    assert o._rng.bit_generator.state == state


def test_non_finite_mean_does_not_use_a_normal():
    o = NoisyOracle(lambda x: np.where(x[..., 0] == 2.0, np.nan, 0.0), 1, 1.0, seed=5)
    stream = np.random.default_rng(5)
    with pytest.raises(ValueError, match="non-finite value nan"):
        o.evaluate(np.array([2.0]))
    assert o.evaluate(np.array([1.0])) == stream.standard_normal()
    with pytest.raises(ValueError, match="non-finite value nan"):
        o.evaluate(np.array([2.0]))
    assert o.evaluate(np.array([1.0])) == stream.standard_normal()
    with pytest.raises(ValueError, match="non-finite value nan"):
        o.evaluate_batch(np.array([[1.0], [2.0]]), 4)
    assert np.array_equal(o.evaluate_batch(np.array([[1.0]]), 3)[0],
                          [stream.standard_normal() for _ in range(3)])


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1])
def test_non_finite_or_negative_sigma_rejected(sigma):
    with pytest.raises(ValueError, match=rf"noise_sigma={sigma!r} must satisfy 0 <= sigma < inf"):
        NoisyOracle(quartic_mean, 1, sigma)


def _stack(m, d, seed=0):
    return 1.0 + np.random.default_rng(seed).normal(size=(m, d))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("fn_id, d", [("quartic", 1), ("cos100", 1), ("fn213", 6)])
def test_stack_batch_equals_point_batches_in_row_order(fn_id, d, sigma):
    fn = get_test_function(fn_id, d)
    points = _stack(5, d)
    a, b = fn.make_oracle(sigma, seed=9), fn.make_oracle(sigma, seed=9)
    got = a.evaluate_batch(points, 15)
    assert got.shape == (5, 3)
    assert a.eval_counter == 15
    assert np.array_equal(got, np.array([b.evaluate_batch(p[None], 3)[0] for p in points]))
    assert a._rng.bit_generator.state == b._rng.bit_generator.state
    if sigma == 0.0:
        assert np.array_equal(got, np.repeat([[fn.mean_fn(p)] for p in points], 3, axis=1))


@pytest.mark.parametrize("name", ["quartic", "cos100", "fn213"])
def test_mean_of_a_stack_equals_its_points_bit_for_bit(name):
    # A numpy kernel picked by CPU dispatch (say a SIMD pow) can round
    # differently from the per-point path; this names the function it breaks.
    fn = get_test_function(name, 2 if name == "fn213" else None)
    rng = np.random.default_rng(15)
    wide = rng.uniform(-50.0, 50.0, size=(150_000, fn.dimension))
    near_zero = rng.standard_normal((50_000, fn.dimension)) * 10.0 ** rng.uniform(
        -12.0, 0.0, size=(50_000, fn.dimension))
    stack = np.concatenate((wide, near_zero))
    got = fn.mean_fn(stack)
    assert got.shape == (200_000,)
    assert isinstance(fn.mean_fn(stack[0]), float)
    want = np.array([fn.mean_fn(p) for p in stack])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name, points", [
    ("quartic", [1e77, 1e80, -1e200]),  # x^4 is finite, then overflows
    ("cos100", [1e308, -1e308]),  # pi * x overflows
])
def test_mean_past_overflow_equals_its_stack(name, points):
    fn = get_test_function(name)
    stack = np.array(points)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        want = fn.mean_fn(stack)
    got = np.array([fn.mean_fn(p) for p in stack])
    assert np.array_equal(got, want, equal_nan=True)


def test_stack_batch_rejects_bad_sizes_and_widths():
    o = NoisyOracle(fn213_mean, 4, 1.0, seed=0)
    with pytest.raises(ValueError, match="size 7 is not a multiple of the 2 stacked points"):
        o.evaluate_batch(np.ones((2, 4)), 7)
    with pytest.raises(ValueError, match="dimension mismatch: oracle is 4-d, point is 6-d"):
        o.evaluate_batch(np.ones((2, 6)), 2)
    with pytest.raises(ValueError, match="size must be >= 1"):
        o.evaluate_batch(np.ones((2, 4)), 0)
    for shape in ((4,), (2, 2, 4)):
        with pytest.raises(ValueError, match=re.escape(f"an (m, d) stack, got shape {shape}")):
            o.evaluate_batch(np.ones(shape), 4)
    assert o.eval_counter == 0
    bad = NoisyOracle(lambda x: np.zeros(3), 4)
    with pytest.raises(ValueError, match=r"returned shape \(3,\) for 2 points"):
        bad.evaluate_batch(np.ones((2, 4)), 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stack_batch_names_the_non_finite_row(value):
    o = NoisyOracle(lambda x: np.where(x[..., 0] == 2.0, value, 1.0), 2, 1.0, seed=0)
    with pytest.raises(ValueError, match=rf"non-finite value {value} at point \[2\.0, 3\.0\]"):
        o.evaluate_batch(np.array([[1.0, 1.0], [2.0, 3.0], [2.0, 5.0]]), 6)


def test_dimension_mismatch_raises():
    o = NoisyOracle(fn213_mean, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        o.evaluate(np.ones(3))
    with pytest.raises(ValueError):
        o.evaluate_batch(np.ones((1, 5)), 2)
    with pytest.raises(ValueError, match="dimension mismatch: expected 4, got 3"):
        as_point(np.ones(3), 4)
    with pytest.raises(ValueError, match=re.escape("a 1-d vector, got shape (1, 4)")):
        as_point(np.ones((1, 4)), 4)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        NoisyOracle(fn213_mean, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_mean_value_rejected(value):
    o = NoisyOracle(lambda x: np.full(x.shape[:-1], value), 2, 1.0, seed=0)
    with pytest.raises(ValueError, match=rf"non-finite value {value} at point \[1\.0, 2\.0\]"):
        o.evaluate(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=rf"non-finite value {value} at point \[1\.0, 2\.0\]"):
        o.evaluate_batch(np.array([[1.0, 2.0]]), 3)


def test_noise_mean_law_of_large_numbers():
    # mean of Y(x) - mu(x) over 1e6 draws stays within 4e-3 of zero
    o = NoisyOracle(quartic_mean, 1, 1.0, seed=1234)
    x = np.array([1.0])
    draws = o.evaluate_batch(x[None], 1_000_000)[0] - 1.0
    assert abs(float(draws.mean())) < 4e-3


def test_noise_variance_matches_sigma2():
    sigma = 3.0
    o = NoisyOracle(quartic_mean, 1, sigma, seed=77)
    draws = o.evaluate_batch(np.array([[0.5]]), 100_000)[0] - 0.5 ** 4
    assert float(draws.var()) == pytest.approx(sigma ** 2, rel=0.05)


def test_as_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_point([np.nan], 1)
    with pytest.raises(ValueError):
        as_point([np.inf, 0.0], 2)
