"""The package's public surface: every exported name resolves."""

import nanoband


def test_every_name_in_all_resolves():
    missing = [n for n in nanoband.__all__ if not hasattr(nanoband, n)]
    assert not missing
    assert len(set(nanoband.__all__)) == len(nanoband.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nanoband import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(nanoband.__all__)
    assert all(namespace[n] is getattr(nanoband, n) for n in namespace)
