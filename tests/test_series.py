"""Formal series engine and the closed-form generating functions."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab.binwords import binary_descent_poly
from rslab.polynomials import Poly, peak_poly, runsorted_descent_poly
from rslab.series import (
    Series,
    _egf_report,
    egf_binary_descents,
    egf_binary_report,
    egf_peaks,
    egf_peaks_report,
    egf_runsorted_descents,
    egf_runsorted_report,
    exp_u,
    expected_peaks_series,
    series_div,
    series_exp,
    sheffer_product_check,
    tan_u,
)


def test_exp_and_tan():
    e = exp_u(8)
    assert e.coeffs[3] == Fraction(1, 6)
    t = tan_u(9)
    # tan u = u + u^3/3 + 2u^5/15 + 17u^7/315 + ...
    assert t.coeffs[1] == 1
    assert t.coeffs[3] == Fraction(1, 3)
    assert t.coeffs[5] == Fraction(2, 15)
    assert t.coeffs[7] == Fraction(17, 315)
    assert all(t.coeffs[i] == 0 for i in (0, 2, 4, 6, 8))


def test_series_exp_inverts_log_style():
    # exp of u equals the exponential series
    u = Series([Fraction(0), Fraction(1)] + [Fraction(0)] * 7)
    assert series_exp(u, Fraction(1)) == exp_u(8)
    with pytest.raises(ValueError):
        series_exp(exp_u(4), Fraction(1))


def test_series_div_roundtrip():
    num = exp_u(8)
    den = Series([Fraction(1), Fraction(-1)] + [Fraction(0)] * 7)
    q = series_div(num, den, Fraction(1))
    assert q * den == num


@settings(max_examples=40)
@given(
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
)
def test_series_ring_laws_order8(a, b, c):
    sa = Series([Fraction(x) for x in a])
    sb = Series([Fraction(x) for x in b])
    sc = Series([Fraction(x) for x in c])
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa * sb) * sc == sa * (sb * sc)


def test_egf_runsorted():
    g = egf_runsorted_descents(11)
    for n in range(12):
        assert g.coeffs[n] * factorial(n) == runsorted_descent_poly(n + 1)
    assert egf_runsorted_report(11)["ok"]


def test_sheffer_product():
    rep = sheffer_product_check(10)
    assert rep["identity_holds"]
    # the inner series has no linear term, outside the classical
    # normalisation; the report must say so rather than hide it
    assert rep["q_linear_coefficient_zero"]


def test_sheffer_negative_control():
    # a deliberately perturbed assembly must be detected
    g = egf_runsorted_descents(6)
    broken = Series(list(g.coeffs))
    broken.coeffs[3] = broken.coeffs[3] + Poly([1])
    assert broken != g


def test_egf_peaks():
    g = egf_peaks(10)
    assert g.coeffs[0].is_zero()
    for n in range(1, 11):
        assert g.coeffs[n] * factorial(n) == peak_poly(n)
    assert egf_peaks_report(10)["ok"]


def test_expected_peaks_series():
    means = expected_peaks_series(10)
    assert means[2] == 0
    assert means[5] == 1
    assert means[8] == 2
    for n in range(2, 11):
        assert means[n] == Fraction(n - 2, 3)


def test_egf_report_lists_each_mismatch():
    # n! [u^n] of the runsorted EGF is the run-sorted descent polynomial of
    # S_{n+1}; compared with that of S_n it differs from n = 2 on (both
    # S_1 and S_2 give 1)
    rep = _egf_report(4, egf_runsorted_descents(4), runsorted_descent_poly, first=1)
    assert rep["order"] == 4 and rep["ok"] is False
    assert [m["n"] for m in rep["mismatches"]] == [2, 3, 4]
    for m in rep["mismatches"]:
        assert m["got"] == runsorted_descent_poly(m["n"] + 1).to_json()
        assert m["want"] == runsorted_descent_poly(m["n"]).to_json()


def test_egf_binary():
    g = egf_binary_descents(12)
    for n in range(13):
        assert g.coeffs[n] * factorial(n) == binary_descent_poly(n)
    assert egf_binary_report(12)["ok"]

