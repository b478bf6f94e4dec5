"""Tests for the command-line interface and its CSV outputs."""

import csv
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fdopt import cli, harness
from fdopt.cli import main

QUARTIC_CFG = textwrap.dedent("""
    [experiment]
    function = quartic
    dimension = 1
    noise_levels = 0.5
    x0 = 30
    lower = -50
    upper = 50
    checkpoints = 20 50
    replications = 3
    master_seed = 777
    algorithm = corcfd
    algorithms = kw corcfd

    [corcfd]
    n0 = 20
    R = 10

    [grid]
    a_values = 0.05 1e-3
    c_values = 0.5

    [estimate]
    point = 1
    n = 100
    sigma = 0.5
""")


# Exercises every algorithm, a noise level other than the first for `run`, and
# non-default [corcfd] estimator and line-search keys.
GOLDEN_CFG = textwrap.dedent("""
    [experiment]
    function = quartic
    dimension = 1
    noise_levels = 0.5 2
    x0 = 3
    lower = -50
    upper = 50
    checkpoints = 30 100
    replications = 3
    master_seed = 777
    algorithm = corcfd
    algorithms = kw spsa corcfd
    sigma = 2

    [kw]
    a = 0.01
    c = 0.5

    [spsa]
    a = 0.01
    c = 0.5

    [corcfd]
    n0 = 20
    R = 10
    c_base = 2.0
    max_backtracks = 12

    [grid]
    a_values = 0.01 1e-3
    c_values = 0.5 1

    [estimate]
    point = 1
    n = 100
    sigma = 0.5
""")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(QUARTIC_CFG)
    return path


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", ["nope.cfg", "a_directory"])
def test_missing_config_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    assert main(["run", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
    assert "configuration error: cannot read config file" in capsys.readouterr().err


def test_module_entry_point_exit_codes(config_path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)

    def fdopt(config):
        return subprocess.run(
            [sys.executable, "-m", "fdopt", "bench", "--config", str(config),
             "--out", str(tmp_path / "bench")],
            env=env, capture_output=True, text=True, timeout=120)

    proc = fdopt(config_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bench" / "table.csv").is_file()
    proc = fdopt(tmp_path / "nope.cfg")
    assert proc.returncode == 2
    assert "configuration error: cannot read config file" in proc.stderr


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_exits_2(config_path, tmp_path, capsys, out):
    (tmp_path / "taken").write_text("")
    assert main(["bench", "--config", str(config_path), "--out", str(tmp_path / out)]) == 2
    assert f"{tmp_path / 'taken'} is a file, not a directory" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nfunction = quartic\nreplications = soon\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", [
    QUARTIC_CFG.replace("[experiment]", ""),
    QUARTIC_CFG + "\n[experiment]\nreplications = 2\n",
    QUARTIC_CFG.replace("dimension = 1", "function = fn213"),
    QUARTIC_CFG.replace("master_seed = 777", "master_seed = 7\xff7"),
], ids=["no-header", "repeated-section", "repeated-key", "not-utf8"])
def test_bench_unparsable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_bytes(text.encode("latin-1"))
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_run_writes_trajectory(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    rows = _read(out / "trajectory.csv")
    assert rows[0] == ["iter", "pairs_used", "x_1", "solution_gap", "optimality_gap"]
    body = rows[1:]
    assert len(body) >= 1
    assert float(body[0][1]) >= 1.0                 # first row used at least one pair
    assert float(body[-1][1]) <= 50.0               # never beyond the budget
    iters = [int(r[0]) for r in body]
    assert iters == sorted(iters)


def test_run_noiseless_corcfd_gap_nonincreasing(tmp_path):
    cfg = QUARTIC_CFG.replace("noise_levels = 0.5", "noise_levels = 0")
    path = tmp_path / "noiseless.cfg"
    path.write_text(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    gaps = [float(r[-1]) for r in _read(out / "trajectory.csv")[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_bench_writes_table(config_path, tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_path), "--out", str(out)]) == 0
    rows = _read(out / "table.csv")
    assert rows[0] == ["sigma", "method", "metric", "checkpoint", "value"]
    methods = {r[1] for r in rows[1:]}
    assert methods == {"kw", "corcfd"}
    metrics = {r[2] for r in rows[1:]}
    assert {"rmse_solution_gap", "rmse_optimality_gap", "osc_p5", "osc_median",
            "osc_p95"} <= metrics
    # oscillation rows carry no checkpoint
    for r in rows[1:]:
        if r[2].startswith("osc_"):
            assert r[3] == ""


def test_bench_empty_algorithms_exits_2(tmp_path):
    cfg = QUARTIC_CFG.replace("algorithms = kw corcfd", "algorithms =")
    path = tmp_path / "empty.cfg"
    path.write_text(cfg)
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "table.csv").exists()


@pytest.mark.parametrize("levels", ["0.1 -1 10", "0.1 nan"])
def test_bench_bad_noise_levels_exit_2(tmp_path, capsys, levels):
    path = tmp_path / "noise.cfg"
    path.write_text(QUARTIC_CFG.replace("noise_levels = 0.5", f"noise_levels = {levels}"))
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert "noise level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bench", "estimate"])
@pytest.mark.parametrize("default", ["sigma = 0.5", "n0 = 40"])
def test_default_section_exits_2(tmp_path, capsys, command, default):
    # configparser copies [DEFAULT] keys into every section: without the check
    # `sigma` would silently set both [experiment] and [estimate] sigma, and
    # `n0` would be reported as an [experiment] and an [estimate] key.
    path = tmp_path / "default.cfg"
    path.write_text(f"[DEFAULT]\n{default}\n" + textwrap.dedent("""
        [experiment]
        function = quartic
        noise_levels = 0.5
        checkpoints = 20 50
        algorithm = kw
        algorithms = kw

        [estimate]
        point = 1
        n = 100
    """))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "unknown config entries: [DEFAULT]\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, repeated", [
    ("noise_levels = 0.5", "noise_levels = 1 1"),
    ("algorithms = kw corcfd", "algorithms = kw kw"),
])
def test_bench_repeated_list_entry_exits_2(tmp_path, capsys, line, repeated):
    # A repeat would write table rows that share a key.
    path = tmp_path / "repeat.cfg"
    path.write_text(QUARTIC_CFG.replace(line, repeated))
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {repeated.split()[0]} " in err and "repeats an entry" in err
    assert not out.exists()


@pytest.mark.parametrize("section", ["[kw]\na = nan", "[spsa]\nA = -5"])
def test_bench_bad_gains_exit_2(tmp_path, capsys, section):
    path = tmp_path / "gains.cfg"
    path.write_text(QUARTIC_CFG + "\n" + section + "\n")
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# Each bad value is rejected while the config loads, before the output
# directory is created.
# A `line` that starts with "--" is a flag: the file stays valid and the flag
# passes the bad value of the key it overrides.
@pytest.mark.parametrize("command, line, bad, output", [
    ("estimate", "sigma = 0.5", "sigma = nan", "estimate.csv"),
    ("estimate", "sigma = 0.5", "sigma = -1", "estimate.csv"),
    ("estimate", "point = 1", "point = nan", "estimate.csv"),
    ("grid", "a_values = 0.05 1e-3", "a_values = 0.05 nan", "grid.csv"),
    ("bench", "x0 = 30", "x0 = nan", "table.csv"),
    ("bench", "x0 = 30", "x0 =", "table.csv"),
    ("bench", "lower = -50", "lower =", "table.csv"),
    ("bench", "upper = 50", "upper =", "table.csv"),
    ("estimate", "point = 1", "point =", "estimate.csv"),
    ("bench", "replications = 3", "workers = 0", "table.csv"),
    ("bench", "master_seed = 777", "master_seed = -1", "table.csv"),
    ("bench", "--workers", "workers = -3", "table.csv"),
    ("run", "--seed", "master_seed = -1", "trajectory.csv"),
])
def test_bad_config_values_exit_2(tmp_path, capsys, command, line, bad, output):
    path = tmp_path / "bad.cfg"
    flags = [line, bad.split()[-1]] if line.startswith("--") else []
    path.write_text(QUARTIC_CFG if flags else QUARTIC_CFG.replace(line, bad))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and bad.split()[0] in err
    assert not out.exists()  # not even the directory that would hold `output`


# Faults whose message does not name the key; `line` is replaced by `bad`.
@pytest.mark.parametrize("command, line, bad, message", [
    ("bench", "checkpoints = 20 50", "checkpoints =",
     "at least one checkpoint budget is required"),
    ("bench", "checkpoints = 20 50", "checkpoints = 0 50",
     "checkpoint budgets must be positive"),
    ("grid", "a_values = 0.05 1e-3", "a_values =",
     "grid needs at least one a value and one c value"),
    ("bench", "function = quartic\n", "", "[experiment] must set `function`"),
    ("bench", "R = 10", "R = 0", "pilot_count must be >= 1"),
    ("bench", "R = 10", "R = 10\nbootstrap_reps = 0", "bootstrap_reps must be >= 1"),
    ("bench", "R = 10", "R = 10\nl1 = 0", "l1 must lie in (0, 1)"),
    ("bench", "R = 10", "R = 10\nl2 = 1", "l2 must lie in (0, 1)"),
    ("bench", "R = 10", "R = 10\nmax_backtracks = 0", "max_backtracks must be >= 1"),
    ("bench", "dimension = 1", "dimension = 2", "quartic is one-dimensional"),
    ("run", "algorithm = corcfd\n", "",
     "`run` needs `algorithm` in the [experiment] section"),
    ("estimate", "[estimate]\npoint = 1\nn = 100\nsigma = 0.5\n", "",
     "`estimate` needs an [estimate] section"),
], ids=["no-checkpoints", "zero-checkpoint", "no-grid-a", "no-function", "R-0",
        "bootstrap_reps-0", "l1-0", "l2-1", "max_backtracks-0", "quartic-2d",
        "run-no-algorithm", "estimate-no-section"])
def test_config_faults_exit_2(tmp_path, capsys, command, line, bad, message):
    assert line in QUARTIC_CFG
    path = tmp_path / "bad.cfg"
    path.write_text(QUARTIC_CFG.replace(line, bad))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


def test_bench_deterministic_across_runs_and_workers(config_path, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("b1", "b2", "b3"))
    for out, workers in ((out1, None), (out2, None), (out3, "2")):
        argv = ["bench", "--config", str(config_path), "--out", str(out)]
        if workers:
            argv += ["--workers", workers]
        assert main(argv) == 0
    b1 = (out1 / "table.csv").read_bytes()
    assert b1 == (out2 / "table.csv").read_bytes()
    assert b1 == (out3 / "table.csv").read_bytes()


def test_seed_override_changes_output(config_path, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["bench", "--config", str(config_path), "--out", str(out1),
                 "--seed", "1"]) == 0
    assert main(["bench", "--config", str(config_path), "--out", str(out2),
                 "--seed", "2"]) == 0
    assert (out1 / "table.csv").read_bytes() != (out2 / "table.csv").read_bytes()


def test_grid_writes_cells_and_prints_argmin(config_path, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(config_path), "--out", str(out)]) == 0
    rows = _read(out / "grid.csv")
    assert rows[0] == ["a", "c", "sigma", "rmse_opt_gap"]
    assert len(rows) - 1 == 2  # two cells, one noise level
    printed = capsys.readouterr().out
    assert printed.startswith(f"wrote {out / 'grid.csv'} (2 cells; selected a=0.001 c=0.5 ")
    assert printed.count("\n") == 1


def test_grid_without_section_exits_2(tmp_path, capsys):
    cfg = "\n".join(line for line in QUARTIC_CFG.splitlines()
                    if not line.startswith(("[grid]", "a_values", "c_values")))
    path = tmp_path / "nogrid.cfg"
    path.write_text(cfg)
    out = tmp_path / "o"
    assert main(["grid", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error: `grid` needs a [grid] section" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_writes_diagnostics(config_path, tmp_path):
    out = tmp_path / "est"
    assert main(["estimate", "--config", str(config_path), "--out", str(out)]) == 0
    rows = _read(out / "estimate.csv")
    assert rows[0] == ["coord", "c_hat", "sigma2_hat", "mu3_hat", "intercept",
                       "estimate", "pairs_used"]
    assert len(rows) == 2  # one coordinate
    assert int(rows[1][-1]) == 100
    assert float(rows[1][1]) > 0


def test_estimate_noiseless_quartic_diagnostics(tmp_path):
    cfg = QUARTIC_CFG.replace("n = 100\nsigma = 0.5", "n = 1000\nsigma = 0")
    path = tmp_path / "est.cfg"
    path.write_text(cfg)
    out = tmp_path / "est0"
    assert main(["estimate", "--config", str(path), "--out", str(out)]) == 0
    row = _read(out / "estimate.csv")[1]
    mu3_hat, intercept = float(row[3]), float(row[4])
    assert mu3_hat == pytest.approx(24.0, abs=1e-3)
    assert intercept == pytest.approx(4.0, abs=1e-3)


_NOISELESS = {"noise_levels = 0.5": "noise_levels = 0", "sigma = 0.5": "sigma = 0"}


# Valid configs whose within-pilot variance overflows: sigma2_hat becomes nan
# or inf, and the plug-in step must fail. Without noise, a pilot spread whose
# square underflows leaves a 0/0 slope behind a fallback c_hat, and the
# gradient check must fail. Neither may pass a NaN gradient on to the oracle
# (which then blames the objective) or write NaN cells. The overflow and 0/0
# warnings themselves are still raised.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["bench", "estimate"])
@pytest.mark.parametrize("edits, message", [
    ({"R = 10": "R = 10\nc_base = 1e-200"}, "optimal perturbation"),
    ({"R = 10": "R = 10\nc_base = 1e-160"}, "optimal perturbation"),
    ({"noise_levels = 0.5": "noise_levels = 1e160", "sigma = 0.5": "sigma = 1e160"},
     "optimal perturbation"),
    ({**_NOISELESS, "R = 10": "R = 10\nc_base = 1e-100"},
     "Cor-CFD gradient is not finite at coordinate 0: nan"),
    ({**_NOISELESS, "R = 10": "R = 10\nc_base = 1e-200"},
     "Cor-CFD gradient is not finite at coordinate 0: nan"),
], ids=["c_base-1e-200", "c_base-1e-160", "noise-1e160", "noiseless-c_base-1e-100",
        "noiseless-c_base-1e-200"])
def test_overflowing_corcfd_estimate_exits_1(tmp_path, capsys, command, edits, message):
    cfg = QUARTIC_CFG
    for line, bad in edits.items():
        cfg = cfg.replace(line, bad)
    path = tmp_path / "overflow.cfg"
    path.write_text(cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "objective returned" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "run"])
def test_overflowing_kw_objective_exits_1(tmp_path, capsys, command):
    # (x +- c)^4 overflows at c = 1e80: the objective's inf must reach the
    # oracle's check, not end the run with a bare math error.
    path = tmp_path / "overflow.cfg"
    path.write_text(QUARTIC_CFG.replace("algorithm = corcfd", "algorithm = kw")
                    + "\n[kw]\nc = 1e80\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "objective returned non-finite value inf" in capsys.readouterr().err


def test_17_digit_serialization(config_path, tmp_path):
    out = tmp_path / "digits"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    rows = _read(out / "trajectory.csv")[1:]
    # values survive a text round trip bit-for-bit
    for r in rows[:20]:
        v = float(r[2])
        assert format(v, ".17g") == r[2]


# SPSA in more than one dimension: 2,400 steps cross the 2,048-row direction
# block of d=8, and the upper bound of 3 clamps coordinates from the first step.
FN213_CFG = textwrap.dedent("""
    [experiment]
    function = fn213
    dimension = 8
    noise_levels = 1
    x0 = 3 1
    lower = -2
    upper = 3
    checkpoints = 30 300
    replications = 1
    master_seed = 2024
    algorithm = spsa

    [spsa]
    a = 2e-8
    c = 0.5
""")


def test_bench_estimate_n_that_pilots_cannot_split_exits_2(tmp_path, capsys):
    # `bench` never estimates alone, but the file is checked as a whole.
    path = tmp_path / "split.cfg"
    path.write_text(QUARTIC_CFG.replace("n = 100", "n = 15"))
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert ("configuration error: invalid [estimate]/[corcfd] combination: "
            "pilot_count must divide batch_pairs") in capsys.readouterr().err
    assert not out.exists()


def test_bench_kw_beyond_one_dimension_exits_2(tmp_path, capsys):
    # rejected while the config loads, not after the SPSA cells have run
    path = tmp_path / "kw8.cfg"
    path.write_text(FN213_CFG.replace("algorithm = spsa", "algorithms = spsa kw"))
    out = tmp_path / "b"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert "kw needs a one-dimensional function, not dimension 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checkpoints, profile", [("5 10", "full"), ("50 100", "desk")])
def test_bench_corcfd_budget_too_small_exits_2(tmp_path, capsys, monkeypatch,
                                               checkpoints, profile):
    # rejected while the config loads, not after the KW cells have run
    kw_calls = []
    monkeypatch.setattr(harness, "kw_run", lambda *a: kw_calls.append(a))
    path = tmp_path / "small.cfg"
    path.write_text(QUARTIC_CFG.replace("checkpoints = 20 50", f"checkpoints = {checkpoints}"))
    out = tmp_path / "b"
    argv = ["bench", "--config", str(path), "--out", str(out), "--profile", profile]
    assert main(argv) == 2
    assert ("budget of 10 pairs cannot fund the initial gradient (20 pairs) and one "
            "line-search trial") in capsys.readouterr().err
    assert not out.exists()
    assert kw_calls == []


# Cor-CFD-GD in 8 dimensions: the run takes every branch of the pilot-center
# update (61 of its 96 coordinate estimates show significant curvature), and
# the estimate writes one row per coordinate.
FN213_CORCFD_CFG = FN213_CFG.replace("algorithm = spsa", "algorithm = corcfd") + textwrap.dedent("""
    [estimate]
    point = 2 0.5
    n = 60
    sigma = 1
""")


def _golden(command, algorithm, output, digest, config=GOLDEN_CFG, label=""):
    return pytest.param(command, algorithm, output, digest, config,
                        id=label + "-".join((command, algorithm, output, digest)))


# The output bytes are the published numbers: these digests change only with a
# deliberate change of the tables, recorded as such.
@pytest.mark.parametrize("command, algorithm, output, digest, config", [
    _golden("run", "kw", "trajectory.csv",
            "4565d11aaac41e596b5af4585171205d357377413a80255e486b84eab0151fcb"),
    _golden("run", "spsa", "trajectory.csv",
            "07ba3bb97bef673c1288606ee673349bd85ad8c794d7ee3c1c69a0f56814e5d7"),
    _golden("run", "corcfd", "trajectory.csv",
            "182801c01aa6115cadd3580294529b1ba90351ea8253fd1b078af553c772be7b"),
    _golden("bench", "corcfd", "table.csv",
            "8bce5ed05113a116b87a19f21ab505f107ea3ea03aac093cb0efcdb4ca859475"),
    _golden("grid", "corcfd", "grid.csv",
            "268fc9b97d8e25280eb4cd9ced8e392bee9c9f63736634c680f7b3c758aa9b0d"),
    _golden("estimate", "corcfd", "estimate.csv",
            "5159200b26683057e7b17d2ee357f93807b4f5696826902e5ae0df040ad3efcb"),
    _golden("run", "spsa", "trajectory.csv",
            "34fdd79286e8c6c22e7bcef5415c4bc4470637944f1dc776a3281d3516874883",
            config=FN213_CFG, label="fn213-"),
    _golden("run", "corcfd", "trajectory.csv",
            "25fa2c803e44425ea5ad825bf436a8f58768f7d7c7e31a1284ebb45066d53c5d",
            config=FN213_CORCFD_CFG, label="fn213-"),
    _golden("estimate", "corcfd", "estimate.csv",
            "0b7cdcbf681f4c36ea6c6a08bf5c214a448d282160d184ee97e20f56efec19fa",
            config=FN213_CORCFD_CFG, label="fn213-"),
    # n = 200 puts the 8 coordinates in blocks of 3, 3 and 2.
    _golden("estimate", "corcfd", "estimate.csv",
            "db80033ba79d49a7d13f657ca9f3633a416ae33b3614d0614193954bbc357cdd",
            config=FN213_CORCFD_CFG.replace("n = 60", "n = 200"), label="fn213-n200-"),
])
def test_golden_output_bytes(tmp_path, command, algorithm, output, digest, config):
    path = tmp_path / "golden.cfg"
    path.write_text(config.replace("algorithm = corcfd", f"algorithm = {algorithm}"))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest


def test_perfbench_trace_matches_untraced_bench(tmp_path, monkeypatch):
    # perfbench/layers.py patches runners and helpers by name in fdopt's
    # modules; a traced bench must still see every run and write the same bytes.
    # The fn213 bench charges its Cor-CFD gradients through stacked batches.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers

    fn213 = FN213_CORCFD_CFG.replace("algorithm = corcfd", "algorithms = corcfd")
    for name, config, runs in (("golden", GOLDEN_CFG, 3 * 2 * 3),  # algorithms x
                               ("fn213", fn213, 1)):              # levels x reps
        path = tmp_path / f"{name}.cfg"
        path.write_text(config)
        argv = ["bench", "--config", str(path), "--workers", "1", "--out"]
        assert main(argv + [str(tmp_path / name / "plain")]) == 0
        with layers.instrument(layers.Tracer()) as tracer:
            assert cli.main(argv + [str(tmp_path / name / "traced")]) == 0
        assert ((tmp_path / name / "traced" / "table.csv").read_bytes()
                == (tmp_path / name / "plain" / "table.csv").read_bytes())
        assert len(tracer.reps) == runs
        assert tracer.consistency_errors() == []
