"""The examples embedded in docstrings must actually hold."""
import doctest
import importlib
import pkgutil

import rslab
from rslab import bijections, perms, polynomials, realroot


def test_perms_doctests():
    result = doctest.testmod(perms)
    assert result.failed == 0 and result.attempted > 0


def test_polynomials_doctests():
    result = doctest.testmod(polynomials)
    assert result.failed == 0 and result.attempted > 0


def test_bijections_doctests():
    result = doctest.testmod(bijections)
    assert result.failed == 0 and result.attempted > 0


def test_realroot_doctests():
    result = doctest.testmod(realroot)
    assert result.failed == 0 and result.attempted > 0


def test_every_module_doctests():
    # a new module's examples run without being listed here; __main__ is
    # skipped, since importing it runs the command line
    names = [rslab.__name__] + [
        m.name for m in pkgutil.iter_modules(rslab.__path__, "rslab.") if m.name != "rslab.__main__"
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert len(names) > 1 and attempted > 0
