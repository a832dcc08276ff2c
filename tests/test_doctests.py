import doctest
import importlib
import pkgutil

import xrmatrix


def test_every_module_doctest_passes():
    attempted = 0
    for info in pkgutil.iter_modules(xrmatrix.__path__):
        module = importlib.import_module(f"xrmatrix.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    # guard against a walk that passes because it finds no examples
    assert attempted >= 3
