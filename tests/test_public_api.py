"""The package's public surface: every exported name and console script resolves."""

import functools
import importlib
import re
from pathlib import Path

import fdopt

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fdopt import *", namespace)  # a stale __all__ entry raises here
    for name in fdopt.__all__:
        assert namespace[name] is getattr(fdopt, name)


def test_console_scripts_name_callables():
    # Python 3.10 has no tomllib; the [project.scripts] table is read by hand.
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                      PYPROJECT.read_text(), re.M | re.S)
    targets = re.findall(r'^[\w.-]+\s*=\s*"([\w.]+):([\w.]+)"', table.group(1), re.M)
    assert targets
    for module, attr in targets:
        target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(target), f"{module}:{attr}"
