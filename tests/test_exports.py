"""The package's export list."""

import cyclolab


def test_every_export_resolves_once():
    assert [name for name in cyclolab.__all__ if not hasattr(cyclolab, name)] == []
    assert len(set(cyclolab.__all__)) == len(cyclolab.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cyclolab import *", namespace)
    assert set(cyclolab.__all__) <= namespace.keys()
