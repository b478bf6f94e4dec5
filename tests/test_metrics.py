"""Tests for gap metrics, oscillation counting, and percentile summaries."""

import math

import numpy as np
import pytest

from fdopt.metrics import (optimality_gap, oscillation_settle_index,
                           oscillatory_period, percentiles, rmse, solution_gap)


def test_rmse_cases():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert rmse([2.5] * 9) == pytest.approx(2.5)
    assert rmse([-2.5] * 9) == pytest.approx(2.5)


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse([])


def test_rmse_dominates_mean():
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = rng.normal(size=rng.integers(1, 20))
        assert rmse(v) >= abs(v.mean()) - 1e-12


def test_solution_gap_cases():
    assert solution_gap([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert solution_gap([30.0], [0.0]) == 30.0
    x0 = np.tile([3.0, 1.0], 32)
    assert solution_gap(x0, np.ones(64)) == pytest.approx(math.sqrt(32 * 4))


def test_solution_gap_dimension_mismatch():
    with pytest.raises(ValueError):
        solution_gap([1.0, 2.0], [1.0])


def test_optimality_gap_cases():
    assert optimality_gap(0.0, 0.0) == 0.0
    assert optimality_gap(32 * 44.0 ** 4, 0.0) == 119_939_072.0
    assert optimality_gap(16.0, 0.0) == 16.0
    assert optimality_gap(-98.0, -100.0) == 2.0


def test_oscillatory_period_examples():
    assert oscillatory_period([30.0, 12.0, 3.0, 0.5], -50, 50) == 0
    assert oscillatory_period([30.0, -50.0, 50.0, -50.0, 50.0, 20.0], -50, 50) == 3
    assert oscillatory_period([50.0, 50.0, 50.0], -50, 50) == 0


def test_oscillatory_period_excludes_first_pair():
    # the flip between positions 0 and 1 is not counted (k >= 2)
    assert oscillatory_period([-50.0, 50.0, 20.0], -50, 50) == 0
    assert oscillatory_period([-50.0, 50.0, -50.0, 20.0], -50, 50) == 1


def test_oscillatory_period_invariant_to_interior_tail():
    base = [30.0, -50.0, 50.0, -50.0, 50.0]
    extended = base + [12.0, 0.5, -3.0, 1.0]
    assert oscillatory_period(base, -50, 50) == oscillatory_period(extended, -50, 50)


def test_oscillatory_period_rejects_multidimensional():
    with pytest.raises(ValueError):
        oscillatory_period(np.zeros((4, 2)), -50, 50)


def test_settle_index_cases():
    assert oscillation_settle_index([30.0, 12.0, 3.0], -50, 50) == 0
    # last flip happens at iteration 4
    assert oscillation_settle_index([30.0, -50.0, 50.0, -50.0, 50.0, 20.0], -50, 50) == 4
    # on a single leading chain the settle index is the flip count plus one
    series = [30.0] + [(-50.0) if i % 2 == 0 else 50.0 for i in range(7)] + [0.0]
    assert oscillation_settle_index(series, -50, 50) == \
        oscillatory_period(series, -50, 50) + 1


@pytest.mark.parametrize("series", [[], [50.0], [-50.0, 50.0]])
def test_short_series_have_no_oscillation(series):
    # Too short for a flip at k >= 2.
    assert oscillatory_period(series, -50, 50) == 0
    assert oscillation_settle_index(series, -50, 50) == 0


def test_oscillation_statistics_reject_a_0d_series():
    for statistic in (oscillatory_period, oscillation_settle_index):
        with pytest.raises(ValueError):
            statistic(np.float64(50.0), -50, 50)


def test_percentiles_nearest_rank():
    assert percentiles([5000] * 200) == (5000, 5000, 5000)
    assert percentiles(list(range(1, 101)))[1] == 50
    assert percentiles([7]) == (7, 7, 7)
    assert percentiles(list(range(1, 101))) == (5, 50, 95)


def test_percentiles_return_observed_values():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 1000, size=37).tolist()
    for p in percentiles(values):
        assert p in values


def test_percentiles_match_the_nearest_rank_loop():
    # The ceil(p * N)-th order statistic, with the input's own Python types.
    def reference(values):
        data = sorted(values)
        return tuple(data[min(len(data), max(1, math.ceil(p * len(data)))) - 1]
                     for p in (0.05, 0.5, 0.95))

    rng = np.random.default_rng(3)
    for n in range(1, 401):
        for values in (rng.standard_normal(n).tolist(), rng.integers(0, 5, n).tolist(),
                       range(n), [5000] * n):
            got = percentiles(values)
            assert got == reference(values)
            assert [type(v) for v in got] == [type(v) for v in reference(values)]


def test_percentiles_rejects_empty():
    with pytest.raises(ValueError):
        percentiles([])

