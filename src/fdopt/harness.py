"""Experiment orchestration: seeded replications, checkpoints, and grid search.

Every replication owns an independent oracle and algorithm RNG derived from
``(master_seed, algorithm, noise-level index, replication index)``, so results
are reproducible and independent of worker scheduling. Configurations load
from sectioned key/value text files (one section per algorithm block).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics
from .estimators import CorCfdConfig
from .optimizers import (ArmijoParams, ConfigurationError, GainSchedule,
                         check_corcfd_budget, cor_cfd_gd_run, kw_run, spsa_run)
from .oracle import BoxDomain, get_test_function

ALGORITHMS = ("kw", "spsa", "corcfd")

# Stable per-algorithm seed keys; never reorder, or every table changes.
_ALGO_SEED_ID = {"kw": 1, "spsa": 2, "corcfd": 3, "estimate": 4}


@dataclass(frozen=True)
class GridSpec:
    """SPSA tuning grid; selection metric is RMSE(optimality gap) at the largest budget."""

    a_values: tuple[float, ...]
    c_values: tuple[float, ...]

    def __post_init__(self):
        if not self.a_values or not self.c_values:
            raise ConfigurationError("grid needs at least one a value and one c value")
        for key, values in (("a_values", self.a_values), ("c_values", self.c_values)):
            if not all(0 < v < np.inf for v in values):  # also false for NaN
                raise ConfigurationError(f"[grid] {key} {values} must be finite and > 0")


@dataclass(frozen=True)
class EstimateParams:
    """Inputs of a single standalone gradient-estimation call."""

    point: np.ndarray
    n: int = 1000
    sigma: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.point).all():
            raise ConfigurationError("[estimate] point must have finite coordinates")
        if not 0 <= self.sigma < np.inf:  # also false for NaN
            raise ConfigurationError(
                f"[estimate] sigma={self.sigma!r} must be finite and >= 0")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One benchmark cell family: a function, noise levels, and algorithm blocks.

    The dimension is the domain's. ``checkpoints`` are listed pair budgets; the
    effective budgets are the listed values times the dimension. The defaults are
    those of a config file that leaves the key out. Cor-CFD-GD starts at
    batch ``corcfd.batch_pairs`` with ``corcfd.pilot_count`` pilots. SPSA's
    stability constant defaults to 10% of the largest budget.
    """

    function: str
    noise_levels: tuple[float, ...] = (1.0,)
    x0: np.ndarray
    domain: BoxDomain
    checkpoints: tuple[int, ...] = (100, 1000, 10000)
    replications: int = 1
    master_seed: int = 0
    kw: GainSchedule = GainSchedule(1.0, 1.0)
    spsa: GainSchedule = GainSchedule(1e-9, 2.0, None)
    corcfd: CorCfdConfig = field(default_factory=CorCfdConfig)
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    grid: GridSpec | None = None
    algorithm: str | None = None            # `run` subcommand
    algorithms: tuple[str, ...] = ()        # `bench` subcommand
    run_sigma: float | None = None          # `run` noise level
    estimate: EstimateParams | None = None  # `estimate` subcommand
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.workers < 1:
            raise ConfigurationError(f"workers={self.workers} must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed={self.master_seed} must be >= 0")
        if not self.noise_levels:
            raise ConfigurationError("at least one noise level is required")
        for sigma in self.noise_levels:
            if not 0.0 <= sigma < float("inf"):  # also false for NaN
                raise ConfigurationError(
                    f"noise level {sigma!r} must be finite and >= 0")
        for key, values in (("noise_levels", self.noise_levels),
                            ("algorithms", self.algorithms)):
            if len(set(values)) < len(values):  # it would duplicate table rows
                raise ConfigurationError(f"{key} {values} repeats an entry")
        if not self.checkpoints:
            raise ConfigurationError("at least one checkpoint budget is required")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ConfigurationError("checkpoint budgets must be strictly increasing")
        if any(b < 1 for b in self.checkpoints):
            raise ConfigurationError("checkpoint budgets must be positive")
        for alg in (self.algorithm, *self.algorithms):
            if alg is not None and alg not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {alg!r}")
        if self.run_sigma is not None and self.run_sigma not in self.noise_levels:
            raise ConfigurationError(
                f"sigma {self.run_sigma!r} is not one of noise_levels {self.noise_levels}")
        # Fails early on bad function/dimension combinations.
        fn = get_test_function(self.function, self.dimension)
        if self.x0.shape[0] != fn.dimension:
            raise ConfigurationError("x0 does not match the function dimension")
        if not np.isfinite(self.x0).all():
            raise ConfigurationError("x0 must have finite coordinates")
        if fn.dimension != 1 and "kw" in (self.algorithm, *self.algorithms):
            raise ConfigurationError(
                f"kw needs a one-dimensional function, not dimension {fn.dimension}")
        if "corcfd" in (self.algorithm, *self.algorithms):
            check_corcfd_budget(fn.dimension, self.corcfd, self.largest_budget)
        if self.estimate is not None:
            try:
                replace(self.corcfd, batch_pairs=self.estimate.n)
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid [estimate]/[corcfd] combination: {exc}") from exc

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def effective_checkpoints(self) -> tuple[int, ...]:
        return tuple(b * self.dimension for b in self.checkpoints)

    @property
    def largest_budget(self) -> int:
        return self.effective_checkpoints[-1]


@dataclass(frozen=True)
class ReplicationResult:
    """Gap series and their statistics for one noise level.

    The gap arrays have shape ``(replications, checkpoints)``; each RMSE dict
    maps an effective checkpoint to the RMSE of its column. ``oscillation``
    holds every replication's settle index and ``oscillation_percentiles``
    their nearest-rank 5%, 50% and 95% points; both are None beyond 1-d.
    """

    sigma: float
    solution_gaps: np.ndarray
    optimality_gaps: np.ndarray
    rmse_solution_gap: dict[int, float]
    rmse_optimality_gap: dict[int, float]
    oscillation: np.ndarray | None
    oscillation_percentiles: tuple | None


@dataclass(frozen=True)
class GridSearchResult:
    best_a: float
    best_c: float
    best_metric: float
    rows: tuple[tuple[float, float, float, float], ...]  # (a, c, sigma, rmse_opt_gap)


def replication_seed(master_seed: int, algorithm: str, sigma_index: int,
                     rep: int) -> np.random.SeedSequence:
    """Deterministic seed for one replication, independent of scheduling."""
    return np.random.SeedSequence(
        [int(master_seed), _ALGO_SEED_ID[algorithm], int(sigma_index), int(rep)])


def replication_streams(fn, sigma, master_seed: int, key: str, sigma_index=0, rep=0):
    """``fn``'s oracle at noise ``sigma`` and a replication's RNG, seeded in that order."""
    oracle_seed, algo_seed = replication_seed(master_seed, key, sigma_index, rep).spawn(2)
    return fn.make_oracle(sigma, oracle_seed), np.random.default_rng(algo_seed)


def iterate_gaps(fn, x) -> tuple[float, float]:
    """``(solution_gap, optimality_gap)`` of iterate ``x`` against ``fn``'s optimum."""
    return (metrics.solution_gap(x, fn.optimum_point),
            metrics.optimality_gap(fn.mean_fn(x), fn.optimum_value))


def run_trajectory(config: ExperimentConfig, algorithm: str, sigma_index: int,
                   rep: int, keep=None):
    """One seeded run of ``algorithm`` to the largest budget; returns ``(fn, traj)``.

    This is the only place that maps an algorithm name to its optimizer loop.
    ``keep`` goes to :func:`spsa_run` alone; the other runners keep every iterate.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    fn = get_test_function(config.function, config.dimension)
    oracle, rng = replication_streams(fn, config.noise_levels[sigma_index],
                                      config.master_seed, algorithm, sigma_index, rep)
    budget = config.largest_budget
    # Call the runners by their module-level names, not through a table built
    # at import: perfbench/layers.py traces runs by rebinding those names.
    if algorithm == "kw":
        traj = kw_run(oracle, config.domain, config.x0, config.kw, budget)
    elif algorithm == "spsa":
        traj = spsa_run(oracle, config.domain, config.x0, config.spsa, budget, rng, keep)
    else:
        traj = cor_cfd_gd_run(oracle, config.domain, config.x0, config.corcfd,
                              config.armijo, budget, rng)
    return fn, traj


def _replication_gaps(config: ExperimentConfig, algorithm: str, sigma_index: int,
                      rep: int):
    """Run one replication to the largest budget; return per-checkpoint gaps.

    Returns ``(solution_gaps, optimality_gaps, settle_index)`` where the
    settle index is the boundary-oscillation statistic (1-d runs only).
    """
    # Beyond 1-d only the checkpoint iterates are read; the settle index needs them all.
    keep = config.effective_checkpoints if config.dimension > 1 else None
    fn, traj = run_trajectory(config, algorithm, sigma_index, rep, keep)
    sol, opt = np.array([iterate_gaps(fn, traj.at_pair_budget(pairs))
                         for pairs in config.effective_checkpoints]).T
    settle = None
    if fn.dimension == 1:
        settle = metrics.oscillation_settle_index(
            traj.iterates[:, 0], config.domain.lower[0], config.domain.upper[0])
    return sol, opt, settle


def _pool_map(workers: int, fn, tasks):
    """Apply ``fn`` over argument tuples, preserving task order. The first
    failure in task order is raised at once and unstarted tasks are cancelled.
    The pool has at most one worker per task."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*t) for t in tasks]
    # Imported here: it loads multiprocessing and logging, which a 1-worker run never uses.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def run_replications(config: ExperimentConfig, algorithm: str) -> list[ReplicationResult]:
    """Run all (noise level, replication) cells for one algorithm and aggregate.

    Aggregation is a symmetric reduce over replication indices, so permuting
    workers or replication order cannot change the statistics.
    """
    checkpoints = config.effective_checkpoints
    reps = config.replications
    # One pool for every noise level; outcomes come back in task order.
    tasks = [(config, algorithm, sigma_index, rep)
             for sigma_index in range(len(config.noise_levels)) for rep in range(reps)]
    all_outcomes = _pool_map(config.workers, _replication_gaps, tasks)
    results = []
    for sigma_index, sigma in enumerate(config.noise_levels):
        outcomes = all_outcomes[sigma_index * reps:(sigma_index + 1) * reps]
        sol = np.stack([o[0] for o in outcomes])
        opt = np.stack([o[1] for o in outcomes])
        settles = [o[2] for o in outcomes]
        osc = osc_pcts = None
        if settles[0] is not None:
            osc = np.array(settles, dtype=int)
            osc_pcts = metrics.percentiles(osc.tolist())
        results.append(ReplicationResult(
            sigma, sol, opt,
            {b: metrics.rmse(sol[:, i]) for i, b in enumerate(checkpoints)},
            {b: metrics.rmse(opt[:, i]) for i, b in enumerate(checkpoints)},
            osc, osc_pcts))
    return results


def grid_search_spsa(config: ExperimentConfig, grid: GridSpec) -> GridSearchResult:
    """Evaluate every (a, c) cell and pick the argmin of the selection metric.

    The metric is the mean over noise levels of RMSE(optimality gap) at the
    largest budget; ties break toward smaller ``a``, then smaller ``c``.
    Replication seeds do not depend on the cell, so cells share noise streams.
    """
    rows = []
    scores = []
    for a in grid.a_values:
        for c in grid.c_values:
            cell = run_replications(replace(config, spsa=replace(config.spsa, a=a, c=c)),
                                    "spsa")
            values = [res.rmse_optimality_gap[config.largest_budget] for res in cell]
            rows += [(a, c, res.sigma, value) for res, value in zip(cell, values)]
            scores.append((float(np.mean(values)), a, c))
    score, best_a, best_c = min(scores)
    return GridSearchResult(best_a, best_c, score, tuple(rows))


def apply_profile(config: ExperimentConfig, profile: str) -> ExperimentConfig:
    """``full`` leaves the config untouched; ``desk`` caps replications at 50
    and divides the listed budgets by 10 (deduplicated, floor of 1)."""
    if profile == "full":
        return config
    if profile != "desk":
        raise ConfigurationError(f"unknown profile {profile!r}")
    tenths = (max(1, b // 10) for b in config.checkpoints)  # never decreasing
    return replace(config, replications=min(50, config.replications),
                   checkpoints=tuple(dict.fromkeys(tenths)))


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def _split(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _split(raw))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _split(raw))


# Every accepted config-file key with its value parser, per section; anything
# else is rejected. Defaults live on the dataclasses the sections fill, except
# the tiled [experiment] x0, lower and upper and `dimension`, the function's own.
_KEYS = {
    "experiment": {"function": str, "dimension": int, "noise_levels": _floats,
                   "x0": _floats, "lower": _floats, "upper": _floats,
                   "checkpoints": _ints, "replications": int, "master_seed": int,
                   "algorithm": str, "algorithms": _split, "sigma": float,
                   "workers": int},
    "kw": {"a": float, "c": float},
    "spsa": {"a": float, "c": float, "A": float},
    "corcfd": {"n0": int, "R": int, "c_base": float, "pilot_spread": float,
               "bootstrap_reps": int, "l1": float, "l2": float, "a0": float,
               "max_backtracks": int},
    "grid": {"a_values": _floats, "c_values": _floats},
    "estimate": {"point": _floats, "n": int, "sigma": float},
}
# [corcfd] keys named differently from their CorCfdConfig field; the keys
# that name ArmijoParams fields fill the line search instead.
_CORCFD_FIELDS = {"n0": "batch_pairs", "R": "pilot_count", "c_base": "base_perturbation"}
_EXPERIMENT_FIELDS = {"sigma": "run_sigma"}


def _tile(values: tuple[float, ...], dimension: int, what: str) -> np.ndarray:
    """Expand a short value list to the full dimension by tiling."""
    if not values or dimension % len(values):
        raise ConfigurationError(
            f"{what} has {len(values)} entries, not a divisor of dimension {dimension}")
    return np.tile(np.asarray(values, dtype=float), dimension // len(values))


def load_config(path) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a sectioned key/value file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive: spsa `a` vs `A`
    try:
        if not parser.read(str(path), encoding="utf-8-sig"):  # a BOM is not a key
            raise ConfigurationError(f"cannot read config file {path}")
        return _config_from_parser(parser)
    except (configparser.Error, KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid config {path}: {exc}") from exc


def _read_sections(parser: configparser.ConfigParser) -> dict[str, dict]:
    """Parse every key through ``_KEYS``, naming any unknown section or key."""
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigurationError("unknown config entries: [DEFAULT]")
    unknown = [f"[{name}]" for name in parser.sections() if name not in _KEYS]
    unknown += [f"[{name}] {key}" for name in parser.sections() if name in _KEYS
                for key in parser[name] if key not in _KEYS[name]]
    if unknown:
        raise ConfigurationError(f"unknown config entries: {', '.join(unknown)}")
    return {name: {key: _KEYS[name][key](raw) for key, raw in parser[name].items()}
            for name in parser.sections()}


def _config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    sections = _read_sections(parser)
    exp = sections.get("experiment", {})
    if "function" not in exp:
        raise ConfigurationError("[experiment] must set `function`")
    dimension = exp.pop("dimension", get_test_function(exp["function"]).dimension)

    corcfd = {_CORCFD_FIELDS.get(k, k): v for k, v in sections.get("corcfd", {}).items()}
    armijo = {f.name: corcfd.pop(f.name) for f in fields(ArmijoParams)
              if f.name in corcfd}

    grid = sections.get("grid")
    if grid is not None:
        grid = GridSpec(grid.get("a_values", ()), grid.get("c_values", ()))

    estimate = sections.get("estimate")
    if estimate is not None:
        point = _tile(estimate.pop("point", (0.0,)), dimension, "point")
        estimate = EstimateParams(point, **estimate)

    x0, lower, upper = (_tile(exp.pop(key, (default,)), dimension, key)
                        for key, default in (("x0", 0.0), ("lower", -50.0), ("upper", 50.0)))
    return ExperimentConfig(
        **{_EXPERIMENT_FIELDS.get(k, k): v for k, v in exp.items()},
        x0=x0, domain=BoxDomain(lower, upper),
        kw=replace(ExperimentConfig.kw, **sections.get("kw", {})),
        spsa=replace(ExperimentConfig.spsa, **sections.get("spsa", {})),
        corcfd=CorCfdConfig(**corcfd), armijo=ArmijoParams(**armijo), grid=grid,
        estimate=estimate)
