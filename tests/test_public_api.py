"""The package's public surface: every exported name resolves."""

import fdopt


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fdopt import *", namespace)  # a stale __all__ entry raises here
    for name in fdopt.__all__:
        assert namespace[name] is getattr(fdopt, name)
