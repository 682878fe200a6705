"""The examples embedded in docstrings must actually hold."""
import doctest

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
