"""
Euclid over the rationals on ``Poly``: division with remainder, exact
division, gcd and square-free part.  The library reads every gcd off an
integer Sturm chain and divides no polynomial by another; these are the
oracles the tests check it against.  The file name keeps pytest from
collecting it.
"""
from fractions import Fraction

from rslab.polynomials import Poly


def divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    div = [Fraction(c) for c in b.coeffs]
    dq = len(rem) - len(div)
    quo = [Fraction(0)] * (dq + 1 if dq >= 0 else 0)
    lead = div[-1]
    for i in range(dq, -1, -1):
        c = rem[i + len(div) - 1] / lead
        quo[i] = c
        if c:
            for j, d in enumerate(div):
                rem[i + j] -= c * d
    return Poly(quo), Poly(rem[: len(div) - 1])


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod(a, b)
    if not r.is_zero():
        raise ValueError(f"{a.human()} is not divisible by {b.human()}")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


def square_free(p: Poly) -> Poly:
    """The monic product of the distinct irreducible factors of p."""
    if p.degree <= 0:
        return p.monic()
    return exact_div(p, gcd(p, p.derivative())).monic()
