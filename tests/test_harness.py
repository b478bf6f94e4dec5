"""Tests for replication orchestration, seeding, and config parsing."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdopt import harness, metrics
from fdopt.harness import (ExperimentConfig, GridSpec, apply_profile,
                           grid_search_spsa, load_config, replication_seed,
                           run_replications, run_trajectory)
from fdopt.optimizers import ConfigurationError, GainSchedule
from fdopt.oracle import BoxDomain


def _small_config(**overrides):
    base = dict(
        function="quartic", dimension=1, noise_levels=(0.5,),
        x0=np.array([30.0]), domain=BoxDomain.interval(-50, 50),
        checkpoints=(20, 50), replications=3, master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_degenerate_single_noiseless_replication():
    config = _small_config(noise_levels=(0.0,), replications=1)
    (res,) = run_replications(config, "kw")
    # RMSE of a single replication equals that run's gap exactly
    assert res.solution_gaps.shape == (1, 2)
    for i, budget in enumerate(config.effective_checkpoints):
        assert res.rmse_solution_gap[budget] == res.solution_gaps[0, i]


def test_run_replications_reproducible():
    config = _small_config()
    a = run_replications(config, "corcfd")
    b = run_replications(config, "corcfd")
    assert np.array_equal(a[0].solution_gaps, b[0].solution_gaps)
    assert np.array_equal(a[0].optimality_gaps, b[0].optimality_gaps)


def test_worker_count_does_not_change_results():
    config = _small_config(replications=4)
    serial = run_replications(config, "kw")
    parallel = run_replications(replace(config, workers=2), "kw")
    assert np.array_equal(serial[0].solution_gaps, parallel[0].solution_gaps)
    assert serial[0].rmse_solution_gap == parallel[0].rmse_solution_gap
    assert serial[0].rmse_optimality_gap == parallel[0].rmse_optimality_gap
    assert serial[0].oscillation_percentiles == parallel[0].oscillation_percentiles


def _fail_first_replication(config, algorithm, sigma_index, rep):
    if rep == 0:
        raise RuntimeError(f"replication {sigma_index}/{rep} failed")
    time.sleep(0.2)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched function reaches pool workers only by fork")
def test_pooled_bench_stops_at_first_failure(monkeypatch):
    # lowdim-table's layout: 75 tasks on 2 workers. Waiting for the 72 that
    # sleep would take about 7.2 s; cancelling them leaves at most the few
    # the pool has already handed out.
    monkeypatch.setattr(harness, "_replication_gaps", _fail_first_replication)
    config = _small_config(noise_levels=(0.1, 1.0, 10.0), replications=25)
    with pytest.raises(RuntimeError, match="replication 0/0 failed"):
        run_replications(config, "kw")  # the error a 1-worker run raises
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="replication 0/0 failed"):
        run_replications(replace(config, workers=2), "kw")
    assert time.perf_counter() - start < 2.5


def test_a_64d_spsa_replication_holds_only_its_checkpoint_iterates():
    # fn213-spsa's shape at 16,000 pairs: every iterate would be 16,001 x 64
    # floats (8.2 MB), while the gaps read 3 of them.
    d = 64
    config = _small_config(function="fn213", dimension=d, noise_levels=(1.0,),
                           x0=np.tile([3.0, 1.0], d // 2),
                           domain=BoxDomain.interval(-50, 50, d),
                           checkpoints=(10, 100, 250), replications=1,
                           spsa=GainSchedule(1e-9, 2.0, None))
    tracemalloc.start()
    try:
        sol, opt, settle = harness._replication_gaps(config, "spsa", 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    fn, full = run_trajectory(config, "spsa", 0, 0)
    assert len(full.iterates) == 16_001
    for i, pairs in enumerate(config.effective_checkpoints):
        x = full.at_pair_budget(pairs)
        assert sol[i] == metrics.solution_gap(x, fn.optimum_point)
        assert opt[i] == metrics.optimality_gap(fn.mean_fn(x), fn.optimum_value)
    assert settle is None


def test_a_1d_replication_settles_on_its_whole_path():
    # The settle index reads every iterate, so a 1-d SPSA run keeps them all.
    config = _small_config(checkpoints=(20, 400), replications=1,
                           spsa=GainSchedule(0.01, 1.0, None))
    fn, full = run_trajectory(config, "spsa", 0, 0)
    settle = metrics.oscillation_settle_index(full.iterates[:, 0], -50.0, 50.0)
    assert settle > len(config.checkpoints)  # more than the checkpoint rows could show
    assert harness._replication_gaps(config, "spsa", 0, 0)[2] == settle


def test_loading_a_config_imports_no_process_pool():
    # A 1-worker run never starts a pool; its import costs about 20 ms of setup.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, fdopt; fdopt.load_config(sys.argv[1]); "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench/workloads/lowdim-table.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_replication_seed_disjoint_streams():
    seen = set()
    for alg in ("kw", "spsa", "corcfd"):
        for sigma_index in range(2):
            for rep in range(3):
                state = tuple(replication_seed(7, alg, sigma_index, rep)
                              .generate_state(4).tolist())
                assert state not in seen
                seen.add(state)


def test_checkpoint_iterates_respect_budgets():
    config = _small_config(noise_levels=(1.0,))
    results = run_replications(config, "kw")
    # a KW run to 50 pairs stops at exactly 100 evaluations; the gap at the
    # 20-pair checkpoint must come from the iterate at 40 evaluations
    assert results[0].solution_gaps.shape == (3, 2)
    assert np.all(results[0].solution_gaps >= 0)


def test_unknown_algorithm_rejected():
    config = _small_config()
    with pytest.raises(ConfigurationError):
        run_replications(config, "adam")


def test_fn213_budget_multiplier():
    config = ExperimentConfig(
        function="fn213", dimension=4, noise_levels=(1.0,),
        x0=np.tile([3.0, 1.0], 2), domain=BoxDomain.interval(-50, 50, 4),
        checkpoints=(100, 200), replications=1, master_seed=0)
    assert config.budget_multiplier == 4
    assert config.effective_checkpoints == (400, 800)


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        _small_config(checkpoints=(50, 20))
    with pytest.raises(ConfigurationError):
        _small_config(replications=0)
    with pytest.raises(ConfigurationError):
        _small_config(noise_levels=())
    with pytest.raises(ConfigurationError):
        _small_config(algorithm="nelder-mead")
    with pytest.raises(ConfigurationError):
        _small_config(x0=np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError, match="not one of noise_levels"):
        _small_config(run_sigma=2.0)
    fn213 = dict(function="fn213", dimension=4, x0=np.tile([3.0, 1.0], 2),
                 domain=BoxDomain.interval(-50, 50, 4))
    for listed in (dict(algorithm="kw"), dict(algorithms=("spsa", "kw"))):
        with pytest.raises(ConfigurationError, match="kw needs a one-dimensional "
                           "function, not dimension 4"):
            _small_config(**fn213, **listed)
    _small_config(**fn213, algorithm="spsa", algorithms=("spsa", "corcfd"))


def test_config_rejects_a_budget_below_the_first_corcfd_gradient():
    # Cor-CFD-GD needs 2 d n0 + 2 evaluations: its first gradient, then a
    # line-search baseline and one trial. At n0 = 20 in 1-d that is 21 pairs.
    for listed in (dict(algorithm="corcfd"), dict(algorithms=("kw", "corcfd"))):
        with pytest.raises(ConfigurationError, match=r"budget of 20 pairs cannot fund "
                           r"the initial gradient \(20 pairs\)"):
            _small_config(checkpoints=(10, 20), **listed)
        _small_config(checkpoints=(10, 21), **listed)
    _small_config(checkpoints=(5, 10), algorithm="kw", algorithms=("kw", "spsa"))
    # fn213 budgets are listed per dimension: 20 * 4 = 80 pairs < 4 * 20 + 1
    fn213 = dict(function="fn213", dimension=4, x0=np.tile([3.0, 1.0], 2),
                 domain=BoxDomain.interval(-50, 50, 4), algorithm="corcfd")
    with pytest.raises(ConfigurationError, match="budget of 80 pairs"):
        _small_config(**fn213, checkpoints=(20,))
    _small_config(**fn213, checkpoints=(21,))


def test_config_rejects_a_domain_of_another_dimension():
    with pytest.raises(ConfigurationError, match="domain of dimension 2 does not "
                       "match the function dimension 1"):
        _small_config(domain=BoxDomain.interval(-50, 50, 2))
    with pytest.raises(ConfigurationError, match="domain of dimension 2"):
        _small_config(function="fn213", dimension=4, x0=np.tile([3.0, 1.0], 2),
                      domain=BoxDomain.interval(-50, 50, 2), algorithm="spsa")


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_config_rejects_negative_or_non_finite_noise_levels(sigma):
    with pytest.raises(ConfigurationError, match=f"noise level {sigma!r}"):
        _small_config(noise_levels=(0.1, sigma))


def test_grid_search_single_cell():
    config = _small_config(replications=2, checkpoints=(10, 30))
    grid = GridSpec(a_values=(0.05,), c_values=(0.5,))
    result = grid_search_spsa(config, grid)
    assert (result.best_a, result.best_c) == (0.05, 0.5)
    assert len(result.rows) == 1


def test_grid_search_prefers_smaller_metric_and_breaks_ties():
    config = _small_config(replications=2, checkpoints=(10, 30))
    # identical cells tie; the smaller a then smaller c must win
    grid = GridSpec(a_values=(0.05, 0.05), c_values=(0.5, 0.5))
    result = grid_search_spsa(config, grid)
    assert (result.best_a, result.best_c) == (0.05, 0.5)
    assert len(result.rows) == 4


def test_grid_search_overlarge_step_loses():
    # a huge step size flings iterates against the box and scores worse
    config = _small_config(noise_levels=(1.0,), replications=2,
                           checkpoints=(10, 50))
    grid = GridSpec(a_values=(50.0, 1e-3), c_values=(1.0,))
    result = grid_search_spsa(config, grid)
    assert result.best_a == 1e-3
    by_cell = {(a, c): v for a, c, _, v in result.rows}
    assert by_cell[(50.0, 1.0)] > by_cell[(1e-3, 1.0)]


def test_spsa_params_auto_A():
    assert GainSchedule(a=1e-9, c=2.0, A=None).stability(64000) == pytest.approx(6400.0)
    assert GainSchedule(a=1e-9, c=2.0, A=10.0).stability(64000) == 10.0
    assert _small_config().spsa.stability(64000) == pytest.approx(6400.0)


def test_apply_profile():
    config = _small_config(replications=200, checkpoints=(100, 1000, 10000))
    desk = apply_profile(config, "desk")
    assert desk.replications == 50
    assert desk.checkpoints == (10, 100, 1000)
    assert apply_profile(config, "full") is config
    with pytest.raises(ConfigurationError):
        apply_profile(config, "fast")


def test_load_config_round_trip(tmp_path):
    text = textwrap.dedent("""
        [experiment]
        function = fn213
        dimension = 8
        noise_levels = 0.1, 1, 10
        x0 = 3 1
        lower = -50
        upper = 50
        checkpoints = 100 1000
        replications = 25
        master_seed = 4242
        algorithm = corcfd
        algorithms = spsa corcfd
        sigma = 1

        [kw]
        a = 2.0
        c = 0.5

        [spsa]
        a = 1e-8
        c = 2

        [grid]
        a_values = 1e-9 1e-8
        c_values = 1 2 4

        [corcfd]
        n0 = 40
        R = 10
        c_base = 2
        pilot_spread = 0.4
        l2 = 0.25

        [estimate]
        point = 1
        n = 500
        sigma = 0.5
    """)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    config = load_config(path)
    assert config.function == "fn213"
    assert config.dimension == 8
    assert config.noise_levels == (0.1, 1.0, 10.0)
    assert np.array_equal(config.x0, np.tile([3.0, 1.0], 4))
    assert config.checkpoints == (100, 1000)
    assert config.effective_checkpoints == (800, 8000)
    assert config.replications == 25
    assert config.master_seed == 4242
    assert config.algorithm == "corcfd"
    assert config.algorithms == ("spsa", "corcfd")
    assert config.run_sigma == 1.0
    assert config.kw.a == 2.0 and config.kw.c == 0.5
    assert config.spsa.a == 1e-8 and config.spsa.A is None
    assert config.grid.c_values == (1.0, 2.0, 4.0)
    assert config.corcfd.batch_pairs == 40 and config.corcfd.pilot_spread == 0.4
    assert config.corcfd.base_perturbation == 2.0 and config.armijo.l2 == 0.25
    assert config.estimate.n == 500
    assert np.array_equal(config.estimate.point, np.ones(8))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_bad_values(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nfunction = quartic\nreplications = many\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


@pytest.mark.parametrize("section, key", [("kw", "a"), ("kw", "c"), ("spsa", "a"),
                                          ("spsa", "c"), ("spsa", "A"), ("corcfd", "a0"),
                                          ("corcfd", "c_base")])
@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
def test_load_config_rejects_bad_gains(tmp_path, section, key, value):
    path = tmp_path / "gains.cfg"
    path.write_text(f"[experiment]\nfunction = quartic\n\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigurationError, match="must be finite"):
        load_config(path)


def test_spsa_params_reject_bad_gains():
    for bad in (dict(a=np.nan, c=2.0), dict(a=1e-9, c=np.inf),
                dict(a=1e-9, c=2.0, A=-5.0)):
        with pytest.raises(ValueError, match="must be finite"):
            GainSchedule(**bad)


def test_load_config_rejects_unknown_sections_and_keys(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\nfunction = quartic\n\n"
                    "[corcfd]\nbootstrap_rep = 20\n\n[spssa]\na = 1\n")
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert "[corcfd] bootstrap_rep" in str(info.value)
    assert "[spssa]" in str(info.value)
