"""
Truncated formal power series in u, exact coefficients, and the closed-form
exponential generating functions for the descent/peak statistics.

Coefficient rings in use:

- ``Fraction`` for plain numeric series (e^u, tan u, ...);
- ``Poly`` (polynomials in t over the rationals).

The closed forms in s = sqrt(t-1) or s = sqrt(t) are expanded through
their parts odd in s, written down directly, so every coefficient is a
polynomial in t.

Everything is truncated at a fixed order (default 12) and all arithmetic
is exact.  Every series built from an order starts from ``exp_u`` or
``tan_u``, which refuse a negative one.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .polynomials import Poly, peak_poly, runsorted_descent_poly

DEFAULT_ORDER = 12


class Series:
    """Power series in u truncated at a fixed order; coeffs[i] is [u^i]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def _check(self, other: "Series") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("series truncated at different orders")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        n = len(self.coeffs)
        out = []
        for m in range(n):
            acc = self.coeffs[0] * other.coeffs[m]
            for i in range(1, m + 1):
                acc = acc + self.coeffs[i] * other.coeffs[m - i]
            out.append(acc)
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({self.coeffs!r})"


def series_exp(a: Series, one) -> Series:
    """exp of a series with zero constant term (b' = a'b coefficient-wise)."""
    zero = a.coeffs[0] - a.coeffs[0]
    if a.coeffs[0] != zero:
        raise ValueError("series_exp needs a zero constant term")
    out = [one]
    for n in range(1, len(a.coeffs)):
        acc = zero
        for k in range(1, n + 1):
            acc = acc + (a.coeffs[k] * out[n - k]) * k
        out.append(acc / n)
    return Series(out)


def series_div(f: Series, g: Series, one) -> Series:
    """f/g for a denominator with unit constant term equal to ``one``."""
    f._check(g)
    if g.coeffs[0] != one:
        raise ValueError("series_div expects a denominator with constant term one")
    out = []
    for n in range(len(f.coeffs)):
        acc = f.coeffs[n]
        for i in range(n):
            acc = acc - out[i] * g.coeffs[n - i]
        out.append(acc)
    return Series(out)


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be non-negative")


def exp_u(order: int) -> Series:
    _check_order(order)
    return Series([Fraction(1, factorial(i)) for i in range(order + 1)])


def tan_u(order: int) -> Series:
    """tan u = sin u / cos u, exact."""
    _check_order(order)
    sin = [Fraction(0)] * (order + 1)
    cos = [Fraction(0)] * (order + 1)
    for m in range(0, order + 1):
        if m % 2 == 1:
            sin[m] = Fraction((-1) ** ((m - 1) // 2), factorial(m))
        else:
            cos[m] = Fraction((-1) ** (m // 2), factorial(m))
    return series_div(Series(sin), Series(cos), Fraction(1))


def _poly_series(s: Series) -> Series:
    """Promote a Fraction-coefficient series to Poly constants."""
    return Series([Poly.const(c) for c in s.coeffs])


# ---------------------------------------------------------------------------
# Closed-form EGFs
# ---------------------------------------------------------------------------

def egf_runsorted_descents(order: int = DEFAULT_ORDER) -> Series:
    """
    e^u * exp(t*(e^u - u - 1)): the coefficient of u^n, multiplied by n!,
    is the descent polynomial of the run-sorted permutations of [n+1].
    """
    inner = Series(  # t * (e^u - u - 1)
        [Poly([0, Fraction(1, factorial(j))]) if j >= 2 else Poly() for j in range(order + 1)]
    )
    return _poly_series(exp_u(order)) * series_exp(inner, Poly.const(1))


def _egf_report(
    order: int, g: Series, want: Callable[[int], Poly], first: int = 0
) -> dict:
    """Compare n! [u^n] g with want(n) for first <= n <= order."""
    mismatches = []
    for n in range(first, order + 1):
        got, w = g.coeffs[n] * factorial(n), want(n)
        if got != w:
            mismatches.append({"n": n, "got": got.to_json(), "want": w.to_json()})
    return {"order": order, "ok": not mismatches, "mismatches": mismatches}


def egf_runsorted_report(order: int = DEFAULT_ORDER) -> dict:
    return _egf_report(
        order, egf_runsorted_descents(order), lambda n: runsorted_descent_poly(n + 1)
    )


def sheffer_product_check(order: int = DEFAULT_ORDER) -> dict:
    """
    Verify that the series assembled from the run-count recurrence equals
    the product form P(u) * exp(t*Q(u)) with P = e^u and Q = e^u - u - 1;
    that identity is the check of ``egf_runsorted_report``.

    Note: Q has no linear term, so the pair falls outside the classical
    normalisation P(0) != 0, Q'(0) != 0 even though the product identity
    itself holds; the report records both facts.
    """
    return {
        "order": order,
        "identity_holds": egf_runsorted_report(order)["ok"],
        "p_constant_nonzero": True,
        "q_linear_coefficient_zero": True,
    }


def egf_peaks(order: int = DEFAULT_ORDER) -> Series:
    """
    tan(u*s) / (s - tan(u*s)) with s^2 = t - 1; n! times the coefficient
    of u^n is the peak polynomial of S_n.

    tan(u*s) is s times T with T_j = tan_j * (t-1)^((j-1)/2) for odd j and
    0 for even j, so the quotient is T / (1 - T), a series over Poly.
    """
    base = Poly([-1, 1])  # t - 1
    tanc = tan_u(order)
    tan_over_s = Series(
        [base ** ((j - 1) // 2) * tanc.coeffs[j] if j % 2 else Poly() for j in range(order + 1)]
    )
    one = Series([Poly.const(1)] + [Poly()] * order)
    return series_div(tan_over_s, one - tan_over_s, Poly.const(1))


def egf_peaks_report(order: int = DEFAULT_ORDER) -> dict:
    """The tan form starts at u^1 (its constant term is 0), so n >= 1."""
    g = egf_peaks(order)
    report = _egf_report(order, g, peak_poly, first=1)
    report["ok"] = report["ok"] and g.coeffs[0].is_zero()
    return report


def expected_peaks_series(order: int = DEFAULT_ORDER) -> list[Fraction]:
    """
    The t-derivative of the peak EGF at t = 1; the coefficient of u^n is
    the expected number of peaks of a uniform permutation of [n], and the
    whole series equals u^3 / (3 (u-1)^2).
    """
    g = egf_peaks(order)
    return [c.derivative()(Fraction(1)) for c in g.coeffs]


def egf_binary_descents(order: int = DEFAULT_ORDER) -> Series:
    """
    e^u * (sinh(r u) + r*((t-1)(u+1) + cosh(r u))) / (t * r) with r^2 = t;
    n! times the coefficient of u^n is the descent-after-runsort polynomial
    of length-n binary words.

    Divided by r, the bracket has [u^j] = t^floor(j/2) / j!, plus (t-1)
    at j = 0 and j = 1; divided by t as well, [u^j] is 1 for j < 2 and
    t^(floor(j/2) - 1) / j! from j = 2 on.
    """
    t = Poly.t()
    bracket_over_t = Series(
        [Poly.const(1) if j < 2 else t ** (j // 2 - 1) / factorial(j) for j in range(order + 1)]
    )
    return _poly_series(exp_u(order)) * bracket_over_t


def egf_binary_report(order: int = DEFAULT_ORDER) -> dict:
    from .binwords import binary_descent_poly

    return _egf_report(order, egf_binary_descents(order), binary_descent_poly)
