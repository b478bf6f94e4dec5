"""Tests for replication orchestration, seeding, and config parsing."""

import textwrap
from dataclasses import replace

import numpy as np
import pytest

from fdopt.harness import (ExperimentConfig, GridSpec, SpsaParams,
                           apply_profile, grid_search_spsa, load_config,
                           replication_seed, run_replications)
from fdopt.optimizers import ConfigurationError
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
        assert res.summary.rmse_solution_gap[budget] == res.solution_gaps[0, i]


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
    assert serial[0].summary == parallel[0].summary


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
    assert SpsaParams(a=1e-9, c=2.0).schedule(64000).A == pytest.approx(6400.0)
    assert SpsaParams(a=1e-9, c=2.0, A=10.0).schedule(64000).A == 10.0


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
    for bad in (dict(a=np.nan), dict(c=np.inf), dict(A=-5.0)):
        with pytest.raises(ValueError, match="must be finite"):
            SpsaParams(**bad)


def test_load_config_rejects_unknown_sections_and_keys(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\nfunction = quartic\n\n"
                    "[corcfd]\nbootstrap_rep = 20\n\n[spssa]\na = 1\n")
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert "[corcfd] bootstrap_rep" in str(info.value)
    assert "[spssa]" in str(info.value)
