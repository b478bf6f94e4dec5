"""Outside-in tracing of one `fdopt bench` invocation.

``instrument`` swaps fdopt's public functions, in the module namespaces that
call them, for timing wrappers and puts the originals back on exit. Nothing
under ``src/`` changes, and the wrapped functions return exactly what the
originals return, so a traced run writes the same table bytes.

Two kinds of wrapper keep the cost low:

- a *span* (replication, gradient, line search, harness, CLI) is recorded
  with its parent, start, end and self time and written out when the run
  ends;
- a *frame* (every oracle call, every ``mean_fn`` call, every coordinate
  estimate, the metrics helpers) only adds to a call count and a summed self
  time, because these run millions of times.

Both subtract their own duration from the enclosing frame's self time, so
the self times of all layers add up to the time of the outermost span.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import statistics
import time
from dataclasses import replace

import stats

LAYERS = ("cli", "cli.config", "harness", "optimizers", "optimizers.armijo",
          "estimators", "oracle", "oracle.mean_fn", "metrics")

METRICS_FUNCTIONS = ("rmse", "solution_gap", "optimality_gap",
                     "oscillatory_period", "oscillation_settle_index",
                     "percentiles")
OPTIMIZER_RUNS = ("kw_run", "spsa_run", "cor_cfd_gd_run")

# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "oracle.calls": "count", "oracle.evals": "count",
    "oracle.mean_fn_s": "s", "oracle.self_s": "s",
    "estimators.gradient_calls": "count", "estimators.coordinate_calls": "count",
    "estimators.self_s": "s", "estimators.us_per_coordinate": "us",
    "optimizers.iterations": "count", "optimizers.self_s": "s",
    "optimizers.us_per_iter": "us", "optimizers.reps": "count",
    "optimizers.rep_s_p50": "s", "optimizers.rep_s_tail": "s",
    "optimizers.rep_tail_pct": "%", "optimizers.armijo_calls": "count",
    "optimizers.armijo_self_s": "s", "optimizers.backtracks": "count",
    "optimizers.ls_exhausted": "count", "optimizers.unused_pairs": "count",
    "optimizers.overrun_reps": "count", "optimizers.overrun_max_evals": "count",
    "metrics.self_s": "s", "harness.self_s": "s", "harness.tasks": "count",
    "cli.config_s": "s", "cli.self_s": "s", "trace.wall_s": "s",
    "trace.self_sum_share": "share", "trace.overhead_share": "share",
}


class Tracer:
    """Span records plus per-function call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.acc: dict[tuple[str, str], list] = {}   # -> [calls, self_s, weight]
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.reps: list[dict] = []    # one entry per optimizer run
        self.backtracks = 0
        self.searches_exhausted = 0
        self.tasks = 0
        self._covered = [0.0]  # child time inside each open frame
        self._open = [None]    # ids of open spans
        self._ids = itertools.count(1)

    def _cell(self, layer: str, name: str) -> list:
        return self.acc.setdefault((layer, name), [0, 0.0, 0])

    def frame(self, layer: str, name: str, fn, weight_arg: int | None = None):
        """Wrap ``fn`` to add its count and self time to ``(layer, name)``.

        With ``weight_arg`` the positional argument at that index is summed
        as the frame's weight (the evaluations an oracle batch charges).
        """
        cell = self._cell(layer, name)
        covered = self._covered
        clock = self.clock

        if weight_arg is None:
            def wrapper(*args, **kwargs):
                covered.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    cell[0] += 1
                    cell[1] += d - covered.pop()
                    covered[-1] += d
        else:
            def wrapper(*args, **kwargs):
                covered.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    cell[0] += 1
                    cell[1] += d - covered.pop()
                    covered[-1] += d
                    cell[2] += args[weight_arg]
        return wrapper

    def span(self, layer: str, name: str, fn, after=None):
        """Wrap ``fn`` as a recorded span; ``after(bound_args, result, d)``
        runs once the span has closed."""
        cell = self._cell(layer, name)
        covered, open_ids, spans = self._covered, self._open, self.spans
        clock, ids = self.clock, self._ids
        signature = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = open_ids[-1]
            open_ids.append(sid)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                self_s = d - covered.pop()
                open_ids.pop()
                cell[0] += 1
                cell[1] += self_s
                covered[-1] += d
                spans.append((sid, parent, name, t0, t1, self_s))
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result, d)
            return result
        return wrapper

    # -- hooks run after a span closes -------------------------------------

    def after_optimizer_run(self, bound, traj, d):
        self.reps.append({
            "seconds": d,
            "budget_pairs": int(bound["budget_pairs"]),
            "evaluations": bound["oracle"].eval_counter,
            "iterations": len(traj.iterates) - 1,
            "ls_exhausted": len(traj.ls_exhausted),
        })

    def after_armijo(self, bound, result, d):
        _, evaluations, accepted = result
        trials = evaluations - 1  # one baseline evaluation per search
        self.backtracks += trials - 1 if accepted else trials
        self.searches_exhausted += not accepted

    def after_run_replications(self, bound, result, d):
        config = bound["config"]
        self.tasks += config.replications * len(config.noise_levels)

    # -- results -------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        return sum(c[1] for (lay, _), c in self.acc.items() if lay == layer)

    def calls(self, layer: str, name: str) -> int:
        return self.acc.get((layer, name), (0, 0.0, 0))[0]

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics of one traced invocation as ``(times, counts)``.

        Times may vary between invocations at one seed; counts may not.
        """
        t = {lay: self.self_seconds(lay) for lay in LAYERS}
        coords = self.calls("estimators", "cor_cfd_coordinate")
        iters = sum(r["iterations"] for r in self.reps)
        oracle_calls = (self.calls("oracle", "evaluate")
                        + self.calls("oracle", "evaluate_batch"))
        oracle_evals = (self.calls("oracle", "evaluate")
                        + self.acc.get(("oracle", "evaluate_batch"), (0, 0.0, 0))[2])
        over = [r["evaluations"] - 2 * r["budget_pairs"] for r in self.reps]
        rep_s = [r["seconds"] for r in self.reps]
        tail_pct, tail_s = stats.tail_percentile(rep_s)
        times = {
            "oracle.mean_fn_s": t["oracle.mean_fn"],
            "oracle.self_s": t["oracle"],
            "estimators.self_s": t["estimators"],
            "estimators.us_per_coordinate":
                1e6 * t["estimators"] / coords if coords else 0.0,
            "optimizers.self_s": t["optimizers"],
            "optimizers.us_per_iter": 1e6 * t["optimizers"] / iters if iters else 0.0,
            "optimizers.rep_s_p50": statistics.median(rep_s),
            "optimizers.rep_s_tail": tail_s,
            "optimizers.armijo_self_s": t["optimizers.armijo"],
            "metrics.self_s": t["metrics"],
            "harness.self_s": t["harness"],
            "cli.config_s": t["cli.config"],
            "cli.self_s": t["cli"],
        }
        counts = {
            "oracle.calls": oracle_calls,
            "oracle.evals": oracle_evals,
            "estimators.gradient_calls": self.calls("estimators", "cor_cfd_gradient"),
            "estimators.coordinate_calls": coords,
            "optimizers.iterations": iters,
            "optimizers.reps": len(rep_s),
            "optimizers.rep_tail_pct": tail_pct,
            "optimizers.armijo_calls": self.calls("optimizers.armijo", "armijo_search"),
            "optimizers.backtracks": self.backtracks,
            "optimizers.ls_exhausted": self.searches_exhausted,
            "optimizers.unused_pairs": sum(-o for o in over if o < 0) / 2.0,
            "optimizers.overrun_reps": sum(o > 0 for o in over),
            "optimizers.overrun_max_evals": max([0] + over),
            "harness.tasks": self.tasks,
        }
        return times, counts

    def consistency_errors(self) -> list[str]:
        """Cross-checks between what the wrappers saw and what the program
        reports about itself."""
        errors = []
        _, counts = self.summary()
        charged = sum(r["evaluations"] for r in self.reps)
        if counts["oracle.evals"] != charged:
            errors.append(f"oracle wrappers saw {counts['oracle.evals']} "
                          f"evaluations, oracle counters hold {charged}")
        recorded = sum(r["ls_exhausted"] for r in self.reps)
        if counts["optimizers.ls_exhausted"] != recorded:
            errors.append(f"{counts['optimizers.ls_exhausted']} exhausted line "
                          f"searches seen, trajectories record {recorded}")
        if counts["harness.tasks"] != len(self.reps):
            errors.append(f"{counts['harness.tasks']} tasks but "
                          f"{len(self.reps)} optimizer runs")
        return errors

    def layer_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(c[1] for c in self.acc.values())

    def write_spans(self, path, trace_id: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"trace": trace_id, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "self_s": self_s}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap fdopt's public functions for ``tracer`` wrappers while active."""
    from fdopt import cli, estimators, harness, metrics, optimizers, oracle

    saved = []

    def patch(owner, name, wrapper):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    t = tracer
    noisy = oracle.NoisyOracle
    patch(noisy, "evaluate", t.frame("oracle", "evaluate", noisy.evaluate))
    patch(noisy, "evaluate_batch",
          t.frame("oracle", "evaluate_batch", noisy.evaluate_batch, weight_arg=2))

    lookup = oracle.get_test_function

    def get_test_function(name, dimension=None):
        fn = lookup(name, dimension)
        return replace(fn, mean_fn=t.frame("oracle.mean_fn", "mean_fn", fn.mean_fn))

    for owner in (harness, cli):
        patch(owner, "get_test_function", get_test_function)

    patch(estimators, "cor_cfd_coordinate",
          t.frame("estimators", "cor_cfd_coordinate", estimators.cor_cfd_coordinate))
    gradient = t.span("estimators", "cor_cfd_gradient", estimators.cor_cfd_gradient)
    for owner in (optimizers, cli):
        patch(owner, "cor_cfd_gradient", gradient)

    patch(optimizers, "armijo_search",
          t.span("optimizers.armijo", "armijo_search", optimizers.armijo_search,
                 after=t.after_armijo))
    for name in OPTIMIZER_RUNS:
        run = t.span("optimizers", name, getattr(optimizers, name),
                     after=t.after_optimizer_run)
        for owner in (harness, cli):
            patch(owner, name, run)

    for name in METRICS_FUNCTIONS:
        patch(metrics, name, t.frame("metrics", name, getattr(metrics, name)))

    patch(cli, "run_replications",
          t.span("harness", "run_replications", harness.run_replications,
                 after=t.after_run_replications))
    patch(cli, "load_config", t.span("cli.config", "load_config", harness.load_config))
    patch(cli, "main", t.span("cli", "main", cli.main))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
