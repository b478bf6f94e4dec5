"""fdopt benchmark: `fdopt bench` on named workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload fn213-spsa --seed 7 --seconds 25 --trace 0

A workload is a config file in ``perfbench/workloads/``. The loop is closed:
one benchmark process calls ``fdopt.cli.main`` in-process, one invocation at a
time, with at most ``nproc`` pool workers. The seed reaches the program only
as ``--seed``. Invocations repeat until ``--seconds`` would be exceeded, and
every one of them must write the same ``table.csv`` bytes.

``--trace 0`` reports the end-to-end metrics with tracing off (a pooled
workload is then run once more at 1 worker, untimed, and its table checked
against the pooled ones):

- ``wall_ref``: median over invocations of the invocation's wall time divided
  by the time of a fixed reference loop (``reference_block_s``, run on as
  many CPUs as the invocation uses) timed just before and just after it. A
  shared host's speed can drift by a quarter or more over minutes; the ratio
  cancels that drift, while a change to fdopt moves it as it moves the wall
  time.
- ``setup_s``: median time for a fresh interpreter to import fdopt and load
  the workload config.
- ``peak_rss_mb``: largest resident set of this process or any child.

Lines before the result also give ``wall_s`` (median invocation wall time,
excluding setup), ``pairs_per_s`` (budgeted sample pairs over ``wall_s``) and
``fail_share`` (table cells missing, non-finite or negative, over the cells
the config implies; ``failed / attempted`` in the result). ``wall_s`` and
``pairs_per_s`` are plain wall-clock figures, so they carry the host's drift.

``--trace 1`` alternates untraced and traced 1-worker invocations and reports
the per-layer split (see ``layers.py``), with the tracing overhead.

The last line of stdout is the JSON result; the line before it records the
machine. Span records of the last traced invocation go to
``.perfbench/<workload>/spans.jsonl``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import layers
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = {p.stem: p for p in sorted((HERE / "workloads").glob("*.cfg"))}

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_TIMED = 3        # untraced invocations per end-to-end run, at least
REFERENCE_STEPS = 4000  # iterations of one reference block, about 0.25 s
REFERENCE_SHARE = 0.1   # reference time around an invocation, over its wall time
SETUP_SAMPLES = 11   # fresh interpreters timed per run, after one warm-up
MAX_SELF_GAP = 0.05  # layer self times must sum to the traced wall within this

SETUP_CODE = """import sys, time
t0 = time.perf_counter()
import fdopt
fdopt.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def load_fdopt():
    """Import fdopt from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "fdopt" / "__init__.py").is_file():
        sys.exit(f"fdopt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdopt.cli
    if SRC not in Path(fdopt.__file__).resolve().parents:
        sys.exit(f"imported fdopt from {fdopt.__file__}, not from {SRC}")
    return fdopt


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def machine(np_version: str) -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": usable_cpus(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np_version}


def reference_block_s() -> float:
    """Wall time of a fixed loop shaped like fdopt's hot path: SPSA-style
    steps on a 64-d quadratic with box clamping and normal draws, in small
    numpy calls driven from Python. It imports nothing from fdopt, so only the
    host's speed moves it. Keep it fixed: ``wall_ref`` is measured in its
    units."""
    import numpy as np
    rng = np.random.default_rng(1)
    lo, hi = np.full(64, -50.0), np.full(64, 50.0)
    x = np.tile([3.0, 1.0], 32)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        d = rng.integers(0, 2, 64) * 2.0 - 1.0
        xp = np.clip(x + 2.0 * d, lo, hi)
        xm = np.clip(x - 2.0 * d, lo, hi)
        if not np.all(np.isfinite(xp)):
            raise FloatingPointError("reference loop left the reals")
        yp = float(np.sum(xp[0::2] ** 2 + 0.5 * xp[1::2] ** 2)) + float(rng.standard_normal())
        ym = float(np.sum(xm[0::2] ** 2 + 0.5 * xm[1::2] ** 2)) + float(rng.standard_normal())
        x = np.clip(x - 1e-9 * (yp - ym) / (4.0 * d), lo, hi)
    return time.perf_counter() - t0


def reference_s(at_least: float) -> float:
    """Mean time of one reference block, over blocks run for ``at_least``
    seconds (one block at least). A longer sample is steadier."""
    blocks = [reference_block_s()]
    while sum(blocks) < at_least:
        blocks.append(reference_block_s())
    return statistics.fmean(blocks)


def measure_setup(workload: stats.Workload) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(workload.path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


class Invoker:
    """Runs `fdopt bench` and checks every table it writes."""

    def __init__(self, fdopt, workload: stats.Workload, seed: int):
        self.cli = fdopt.cli
        self.workload = workload
        self.seed = seed
        self.implied = workload.implied_cells()
        self.out = STATE / workload.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, workers: int) -> float:
        table_path = self.out / "table.csv"
        table_path.unlink(missing_ok=True)
        argv = ["bench", "--config", str(self.workload.path), "--out", str(self.out),
                "--seed", str(self.seed), "--workers", str(workers)]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        table = table_path.read_bytes() if table_path.is_file() else None
        self._check(code, table, workers)
        return wall

    def _check(self, code: int, table: bytes | None, workers: int) -> None:
        failed = stats.failed_cells(table, self.implied)
        digest = hashlib.sha256(table).hexdigest() if table is not None else None
        if code != 0:
            self.errors.append(f"fdopt bench exited with {code} at {workers} workers")
            failed = len(self.implied)
        elif self.digest is not None and digest != self.digest:
            self.errors.append(f"table.csv at {workers} workers differs from the "
                               f"first table at seed {self.seed}")
            failed = len(self.implied)
        if failed:
            self.errors.append(f"{failed} of {len(self.implied)} table cells failed")
        self.digest = self.digest or digest
        self.attempted += len(self.implied)
        self.failed += failed

    def check_against_earlier_runs(self) -> None:
        """Compare this run's table with earlier runs at the same seed, the
        same sources and the same workload, traced or untraced."""
        if self.digest is None:
            return
        sources = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + [self.workload.path]:
            sources.update(path.relative_to(ROOT).as_posix().encode())
            sources.update(path.read_bytes())
        key = f"{self.workload.name}:{self.seed}:{sources.hexdigest()}"
        store = STATE / "tables.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        if known.setdefault(key, self.digest) != self.digest:
            self.errors.append(f"table.csv differs from an earlier run at seed {self.seed}")
            self.failed = self.attempted  # every table of this run differs
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)


def run_end_to_end(workload, invoke, seconds) -> dict:
    setup_s = measure_setup(workload)
    workers = min(workload.workers, usable_cpus())
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # A pooled invocation runs on `workers` CPUs, so the reference
            # runs on as many at once.
            pool = stack.enter_context(ProcessPoolExecutor(workers))

            def reference(at_least):
                return statistics.fmean(pool.map(reference_s, [at_least] * workers))
        else:
            reference = reference_s
        reference(0.0)  # warm-up
        deadline = time.perf_counter() + seconds
        walls, refs = [], [reference(0.0)]
        while (len(walls) < MIN_TIMED or time.perf_counter()
               + (1.0 + REFERENCE_SHARE) * statistics.median(walls) <= deadline):
            walls.append(invoke(workers))
            refs.append(reference(REFERENCE_SHARE * walls[-1]))
    ratios = stats.wall_ratios(walls, refs)
    if workers > 1:
        invoke(1)  # results must not depend on the worker count
    wall_s = statistics.median(walls)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(f"# {workload.name}: {len(walls)} invocations at {workers} workers, "
          f"wall_s {walls}, wall_ref {ratios}", file=sys.stderr)
    print(f"wall_s {wall_s!r} s")
    print(f"pairs_per_s {workload.budget_pairs / wall_s!r} 1/s")
    return {
        "wall_ref": (statistics.median(ratios), "x"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_traced(workload, invoke, seconds) -> dict:
    deadline = time.perf_counter() + seconds
    plain, traced, times, counts = [], [], [], []
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(invoke(1))
        tracer = layers.Tracer()
        with layers.instrument(tracer):
            wall = invoke(1)
        traced.append(wall)
        t, c = tracer.summary()
        t["trace.self_sum_share"] = tracer.layer_total() / wall
        times.append(t)
        counts.append(c)
        invoke.errors.extend(tracer.consistency_errors())
        if abs(t["trace.self_sum_share"] - 1.0) > MAX_SELF_GAP:
            invoke.errors.append(f"layer self times sum to {t['trace.self_sum_share']:.3f}"
                                 " of the traced wall time")
    if any(c != counts[0] for c in counts):
        invoke.errors.append("per-layer counts differ between traced invocations")
    tracer.write_spans(invoke.out / "spans.jsonl", f"{workload.name}:{invoke.seed}")
    values = {name: statistics.median(t[name] for t in times) for name in times[0]}
    values.update(counts[0])
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {name: (values[name], unit) for name, unit in layers.UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Before numpy loads, so this process and every child use one BLAS thread.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    fdopt = load_fdopt()
    import numpy
    workload = stats.read_workload(WORKLOADS[args.workload])
    invoke = Invoker(fdopt, workload, args.seed)
    run = run_traced if args.trace else run_end_to_end
    metrics = run(workload, invoke, args.seconds)
    invoke.check_against_earlier_runs()

    for error in invoke.errors:
        print(f"# check failed: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_share {invoke.failed / invoke.attempted!r} share")
    print("# machine " + json.dumps(machine(numpy.__version__)))
    print(json.dumps({
        "correct": not invoke.errors,
        "attempted": invoke.attempted,
        "failed": invoke.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
