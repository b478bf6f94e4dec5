"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    python -m pytest tests/test_acceptance.py -s
"""

import time

import numpy as np
import pytest

import fdopt
from fdopt.cli import main as cli_main
from fdopt.estimators import (CfdConfig, CorCfdConfig, cfd_batch, cfd_pair,
                              cor_cfd_coordinate, cor_cfd_gradient, optimal_c)
from fdopt.harness import ExperimentConfig, run_replications
from fdopt.metrics import percentiles
from fdopt.optimizers import (ArmijoParams, GainSchedule, cor_cfd_gd_run,
                              kw_run, spsa_run)
from fdopt.oracle import BoxDomain, NoisyOracle, get_test_function, quartic_mean

ACCEPTANCE_SEED = 20240817

DOMAIN_1D = BoxDomain.interval(-50, 50)


def _report(criterion: str, ok: bool, detail: str, started: float,
            limit_s: float | None = None) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"
    if limit_s is not None:
        assert elapsed < limit_s, f"{criterion} exceeded {limit_s:.0f}s ({elapsed:.1f}s)"


def _config_1d(function, noise_levels, replications):
    return ExperimentConfig(
        function=function, noise_levels=noise_levels,
        x0=np.array([30.0]), domain=DOMAIN_1D,
        checkpoints=(100, 1000, 10000), replications=replications,
        master_seed=ACCEPTANCE_SEED)


def test_criterion_1_kw_oscillation():
    t0 = time.time()
    config = _config_1d("quartic", (0.1, 1.0, 10.0), 50)
    details = []
    ok = True
    for res in run_replications(config, "kw"):
        p5, med, p95 = percentiles(res.oscillation.tolist())
        details.append(f"sigma={res.sigma:g}:({p5},{med},{p95})")
        ok &= abs(med - 5000) <= 1 and p5 >= 4999 and p95 <= 5000
    _report("1 KW oscillation percentiles", ok, " ".join(details), t0, limit_s=60)


def test_criterion_2_corcfd_quartic_rmse():
    t0 = time.time()
    config = _config_1d("quartic", (0.1,), 50)
    (res,) = run_replications(config, "corcfd")
    rmse_100 = res.rmse_solution_gap[100]
    rmse_10k = res.rmse_solution_gap[10000]
    osc_all_zero = bool(np.all(res.oscillation == 0))
    ok = rmse_10k <= 0.05 and rmse_100 <= 0.2 and osc_all_zero
    _report("2 Cor-CFD-GD quartic RMSE", ok,
            f"rmse@100={rmse_100:.4f}<=0.2 rmse@10000={rmse_10k:.4f}<=0.05 "
            f"osc_all_zero={osc_all_zero}", t0, limit_s=300)


def test_criterion_3_cos100_orderings():
    t0 = time.time()
    config = _config_1d("cos100", (1.0, 10.0), 50)
    kw = run_replications(config, "kw")
    cor = run_replications(config, "corcfd")
    ok = True
    details = []
    for kw_res, cor_res in zip(kw, cor):
        for budget in (1000, 10000):
            c = cor_res.rmse_solution_gap[budget]
            k = kw_res.rmse_solution_gap[budget]
            ok &= c < k
            details.append(f"s={kw_res.sigma:g}@{budget}:{c:.2f}<{k:.2f}")
    _report("3 cos100 Cor-CFD-GD beats KW", ok, " ".join(details), t0, limit_s=300)


def _fn213_config(replications):
    return ExperimentConfig(
        function="fn213", noise_levels=(1.0,),
        x0=np.tile([3.0, 1.0], 32), domain=BoxDomain.interval(-50, 50, 64),
        checkpoints=(1000,), replications=replications,
        master_seed=ACCEPTANCE_SEED)


def test_criterion_4_fn213_rmse_ratio():
    t0 = time.time()
    config = _fn213_config(25)
    budget = config.largest_budget  # 1000 * 64 pairs
    (spsa_res,) = run_replications(config, "spsa")   # a=1e-9, c=2 defaults
    (cor_res,) = run_replications(config, "corcfd")
    spsa_rmse = spsa_res.rmse_optimality_gap[budget]
    cor_rmse = cor_res.rmse_optimality_gap[budget]
    ok = cor_rmse < 0.25 * spsa_rmse
    _report("4 fn213 optimality-gap RMSE ratio", ok,
            f"corcfd={cor_rmse:.2f} spsa={spsa_rmse:.2f} "
            f"ratio={cor_rmse / spsa_rmse:.4f}<0.25", t0, limit_s=600)


def test_criterion_5_fn213_crossover():
    t0 = time.time()
    fn = get_test_function("fn213", 64)
    x0 = np.tile([3.0, 1.0], 32)
    dom = BoxDomain.interval(-50, 50, 64)
    budget = 1000 * 64

    oracle_c = fn.make_oracle(1.0, seed=(ACCEPTANCE_SEED, 1))
    traj_c = cor_cfd_gd_run(oracle_c, dom, x0, CorCfdConfig(), ArmijoParams(),
                            budget, np.random.default_rng((ACCEPTANCE_SEED, 2)))
    oracle_s = fn.make_oracle(1.0, seed=(ACCEPTANCE_SEED, 3))
    traj_s = spsa_run(oracle_s, dom, x0, GainSchedule(1e-9, 2.0, A=0.1 * budget),
                      budget, np.random.default_rng((ACCEPTANCE_SEED, 4)))

    def gap(traj, pairs):
        return fn.mean_fn(traj.at_pair_budget(pairs))

    # just before Cor-CFD-GD's first update lands (hence before its second
    # gradient completes), SPSA has already been iterating for >1000 pairs
    first_update_pairs = traj_c.evaluations[1] // 2
    early = first_update_pairs - 1
    early_ok = gap(traj_s, early) < gap(traj_c, early)
    final_ok = gap(traj_c, budget) < gap(traj_s, budget)
    ok = early_ok and final_ok
    _report("5 fn213 crossover", ok,
            f"early@{early}pairs: spsa={gap(traj_s, early):.3g}<corcfd={gap(traj_c, early):.3g}; "
            f"final@{budget}: corcfd={gap(traj_c, budget):.3g}<spsa={gap(traj_s, budget):.3g}",
            t0)


def test_criterion_6_estimator_near_optimality():
    t0 = time.time()
    x = np.array([1.0])
    n, repeats = 1000, 200
    cfg = CorCfdConfig(pilot_count=10, batch_pairs=n)
    errs = []
    for rep in range(repeats):
        o = NoisyOracle(quartic_mean, 1, 1.0,
                        seed=(ACCEPTANCE_SEED, 6, rep))
        rng = np.random.default_rng((ACCEPTANCE_SEED, 7, rep))
        est = cor_cfd_coordinate(o, x, 0, cfg, rng)[0]
        errs.append(est - 4.0)
    cor_mse = float(np.mean(np.square(errs)))

    grid = np.logspace(-2, 0.5, 20)
    grid_mses = []
    for i, c in enumerate(grid):
        cell = []
        for rep in range(repeats):
            o = NoisyOracle(quartic_mean, 1, 1.0,
                            seed=(ACCEPTANCE_SEED, 8, i, rep))
            cell.append(cfd_batch(o, x, 0, CfdConfig(n, c)) - 4.0)
        grid_mses.append(float(np.mean(np.square(cell))))
    grid_min = min(grid_mses)
    ok = cor_mse <= 1.5 * grid_min
    _report("6 Cor-CFD near-optimality", ok,
            f"cor_mse={cor_mse:.5f} grid_min={grid_min:.5f} "
            f"ratio={cor_mse / grid_min:.3f}<=1.5", t0, limit_s=120)


def test_criterion_7_bias_and_variance_laws():
    t0 = time.time()
    # noiseless CFD bias on the quartic scales exactly like c^2
    o = NoisyOracle(quartic_mean, 1, 0.0, seed=0)
    cs = np.logspace(-3, -1, 12)
    errs = [abs(cfd_pair(o, np.array([1.0]), 0, c) - 4.0) for c in cs]
    slope = float(np.polyfit(np.log(cs), np.log(errs), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.01

    sigma, n, c = 1.0, 1000, 0.3
    estimates = [
        cfd_batch(NoisyOracle(quartic_mean, 1, sigma,
                              seed=(ACCEPTANCE_SEED, 9, rep)),
                  np.array([1.0]), 0, CfdConfig(n, c))
        for rep in range(200)
    ]
    expected = sigma ** 2 / (2 * n * c ** 2)
    observed = float(np.var(estimates))
    var_ok = abs(observed - expected) <= 0.2 * expected
    ok = slope_ok and var_ok
    _report("7 bias/variance laws", ok,
            f"loglog_slope={slope:.4f} (2.00+-0.01) "
            f"var={observed:.3e} vs {expected:.3e} (+-20%)", t0, limit_s=60)


def test_criterion_8_optimal_c_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    grid = np.logspace(-4, 4, 100_000)
    log_step = np.log(grid[1] / grid[0])
    worst = 0.0
    for _ in range(20):
        sigma2 = float(10 ** rng.uniform(-3, 3))
        mu3 = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 3))
        n = int(rng.integers(1, 100_000))
        mse = mu3 ** 2 * grid ** 4 / 36.0 + sigma2 / (2 * n * grid ** 2)
        brute = grid[np.argmin(mse)]
        closed = optimal_c(sigma2, mu3, n)
        worst = max(worst, abs(np.log(closed) - np.log(brute)))
    ok = worst <= log_step + 1e-12
    _report("8 optimal_c matches brute force", ok,
            f"worst log-gap={worst:.2e} <= grid step {log_step:.2e}", t0)


def test_criterion_9_budget_exactness():
    t0 = time.time()
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 5))
        R = int(rng.choice([1, 2, 5]))
        n = R * int(rng.integers(2, 7))
        o = NoisyOracle(lambda v: np.add.reduce(np.square(v), axis=-1), d,
                        float(rng.uniform(0, 2)), seed=rng.integers(2 ** 32))
        cfg = CorCfdConfig(pilot_count=R, batch_pairs=n, bootstrap_reps=20,
                           pilot_spread=float(rng.uniform(0, 0.9)))
        grad = cor_cfd_gradient(o, np.zeros(d), cfg,
                                np.random.default_rng(rng.integers(2 ** 32)))
        ok &= o.eval_counter == 2 * d * n and grad.pairs_used == d * n

    # optimizer ledgers stay in lockstep with the oracle counter
    fn = get_test_function("quartic")
    o = fn.make_oracle(1.0, seed=(ACCEPTANCE_SEED, 10))
    traj = kw_run(o, DOMAIN_1D, 30.0, GainSchedule(1.0, 1.0), 500)
    ok &= traj.evaluations[-1] == o.eval_counter == 1000

    o = fn.make_oracle(1.0, seed=(ACCEPTANCE_SEED, 11))
    traj = spsa_run(o, DOMAIN_1D, np.array([30.0]), GainSchedule(1e-3, 1.0, A=50),
                    500, np.random.default_rng(0))
    ok &= traj.evaluations[-1] == o.eval_counter == 1000

    o = fn.make_oracle(1.0, seed=(ACCEPTANCE_SEED, 12))
    traj = cor_cfd_gd_run(o, DOMAIN_1D, np.array([30.0]), CorCfdConfig(),
                          ArmijoParams(), 500, np.random.default_rng(1))
    ok &= traj.evaluations[-1] == o.eval_counter
    _report("9 budget exactness", ok, "100 gradient configs + 3 optimizer runs", t0)


ACCEPTANCE_CFG = """
[experiment]
function = quartic
dimension = 1
noise_levels = 0.5
x0 = 30
lower = -50
upper = 50
checkpoints = 20 50
replications = 4
master_seed = 20240817
algorithms = kw corcfd
"""


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(ACCEPTANCE_CFG)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(outs[0])]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(outs[2]),
                     "--workers", "3"]) == 0
    b0 = (outs[0] / "table.csv").read_bytes()
    repeat_ok = b0 == (outs[1] / "table.csv").read_bytes()
    workers_ok = b0 == (outs[2] / "table.csv").read_bytes()
    ok = repeat_ok and workers_ok
    _report("10 determinism", ok,
            f"repeat_identical={repeat_ok} workers_identical={workers_ok}", t0)
