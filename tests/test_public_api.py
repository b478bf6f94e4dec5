"""The package's public surface: every exported name and console script resolves."""

import ast
import functools
import importlib
import re
from pathlib import Path

import fdopt

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdopt"


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


def test_every_import_is_used():
    # A name imported into a module and never used there must be exported
    # through __all__ or marked `# noqa: F401` on its import (kept so that it
    # can be patched by name).
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        nodes = list(ast.walk(ast.parse(source)))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        used.update(*(ast.literal_eval(node.value) for node in nodes
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["__all__"]))
        for node in nodes:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # `import a.b` binds a
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
