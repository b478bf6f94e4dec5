"""Tests of the benchmark's own arithmetic: self time, the tail rule, the
table-cell count and reference-relative wall times. Run with ``python3 -m pytest perfbench``."""

import math
from pathlib import Path

import pytest

import layers
import stats

WORKLOADS = Path(__file__).resolve().parent / "workloads"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def test_self_time_is_span_time_minus_child_coverage():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    leaf = tracer.span("oracle", "leaf", lambda: clock.advance(1.0))

    def middle_body():
        clock.advance(0.5)
        leaf()
        leaf()
        clock.advance(0.25)

    middle = tracer.span("estimators", "middle", middle_body)

    def outer_body():
        clock.advance(2.0)
        middle()
        clock.advance(1.0)
        middle()

    tracer.span("cli", "outer", outer_body)()

    records = {r[0]: r for r in tracer.spans}
    assert len(records) == 7
    for sid, _, _, start, end, self_s in records.values():
        children = [(r[3], r[4]) for r in records.values() if r[1] == sid]
        assert self_s == pytest.approx(end - start - covered(start, end, children))
    assert tracer.self_seconds("cli") == pytest.approx(3.0)
    assert tracer.self_seconds("estimators") == pytest.approx(1.5)
    assert tracer.self_seconds("oracle") == pytest.approx(4.0)
    assert tracer.layer_total() == pytest.approx(8.5)


def test_frames_count_calls_weights_and_leave_parent_self_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    batch = tracer.frame("oracle", "evaluate_batch",
                         lambda oracle, x, size: clock.advance(0.1 * size),
                         weight_arg=2)
    mean = tracer.frame("oracle.mean_fn", "mean_fn", lambda: clock.advance(0.5))

    def body():
        batch(None, None, 3)
        batch(None, None, 7)
        mean()
        clock.advance(2.0)

    tracer.span("optimizers", "run", body)()
    assert tracer.acc[("oracle", "evaluate_batch")] == [2, pytest.approx(1.0), 10]
    assert tracer.self_seconds("oracle.mean_fn") == pytest.approx(0.5)
    assert tracer.self_seconds("optimizers") == pytest.approx(2.0)
    assert tracer.layer_total() == pytest.approx(3.5)


@pytest.mark.parametrize("n, expected", [
    (1, (100.0, 1)),
    (19, (100.0, 19)),     # no ladder percentile has ten samples beyond it
    (20, (50.0, 10)),
    (59, (75.0, 45)),      # rank 45 leaves 14 beyond; p90 would leave 5
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))
    assert stats.tail_percentile(values) == expected


def test_tail_of_empty_sample_raises():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


@pytest.mark.parametrize("name, cells", [
    ("fn213-spsa", 1 * 1 * 2 * 3),
    ("fn213-corcfd", 1 * 1 * 2 * 2),
    ("lowdim-table", 2 * 3 * (2 * 3 + 3)),
])
def test_implied_cell_count(name, cells):
    assert len(stats.read_workload(WORKLOADS / f"{name}.cfg").implied_cells()) == cells


def lowdim_table(mutate=None) -> bytes:
    workload = stats.read_workload(WORKLOADS / "lowdim-table.cfg")
    rows = [format(sigma, ".17g") + f",{method},{metric},{checkpoint},1.5"
            for sigma, method, metric, checkpoint in sorted(workload.implied_cells())]
    if mutate:
        rows = mutate(rows)
    return ("\n".join([",".join(stats.TABLE_HEADER)] + rows) + "\n").encode()


def test_full_table_fails_no_cell():
    implied = stats.read_workload(WORKLOADS / "lowdim-table.cfg").implied_cells()
    assert any(sigma == 0.1 for sigma, *_ in implied)
    assert stats.failed_cells(lowdim_table(), implied) == 0


@pytest.mark.parametrize("mutate, failed", [
    (lambda rows: rows[1:], 1),                                   # missing
    (lambda rows: [rows[0].replace("1.5", "nan")] + rows[1:], 1),  # non-finite
    (lambda rows: [rows[0].replace("1.5", "inf")] + rows[1:], 1),
    (lambda rows: [rows[0].replace("1.5", "-1.5")] + rows[1:], 1),  # negative
    (lambda rows: [rows[0]] + rows, 1),                           # duplicated
    (lambda rows: rows + ["bad,row"], 54),                        # unparsable
])
def test_bad_cells_are_counted(mutate, failed):
    implied = stats.read_workload(WORKLOADS / "lowdim-table.cfg").implied_cells()
    assert stats.failed_cells(lowdim_table(mutate), implied) == failed


def test_missing_or_malformed_table_fails_every_cell():
    implied = stats.read_workload(WORKLOADS / "fn213-spsa.cfg").implied_cells()
    assert stats.failed_cells(None, implied) == len(implied)
    assert stats.failed_cells(b"a,b\n1,2\n", implied) == len(implied)
    assert stats.failed_cells(b"\xff\xfe", implied) == len(implied)


def test_budget_pairs_counts_every_cell():
    workload = stats.read_workload(WORKLOADS / "lowdim-table.cfg")
    assert workload.budget_pairs == 2 * 3 * workload.replications * 10_000
    fn213 = stats.read_workload(WORKLOADS / "fn213-spsa.cfg")
    assert fn213.budget_pairs == fn213.replications * 250 * 64
    assert math.isclose(fn213.effective_checkpoints[-1], 16_000)


def test_wall_ratio_divides_by_the_references_around_each_wall():
    assert stats.wall_ratios([3.0, 6.0], [1.0, 2.0, 4.0]) == [2.0, 2.0]


def test_wall_ratio_cancels_a_uniform_host_slowdown():
    fast = stats.wall_ratios([3.0, 3.0], [0.5, 0.5, 0.5])
    slow = stats.wall_ratios([3.9, 3.9], [0.65, 0.65, 0.65])
    assert slow == pytest.approx(fast)


def test_wall_ratio_needs_a_reference_on_both_sides():
    with pytest.raises(ValueError):
        stats.wall_ratios([3.0, 3.0], [1.0, 1.0])
