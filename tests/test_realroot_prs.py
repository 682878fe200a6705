"""
The Sturm chain over the integers against Euclid over the rationals, its
oracle: on families, random root-multiset pairs and rational-coefficient
inputs, every member of ``sturm_chain`` is a positive multiple of the
oracle's member, so every sign variation, Cauchy index and root count is
the same.  Also the reach this buys: the Eulerian family to n = 40.
"""
import time
from fractions import Fraction
from math import gcd

import pytest

from rslab import realroot as rr
from rslab.polynomials import MULTIVAR_FAMILIES, Poly
from rslab.prng import SplitMix64

import euclid_oracle as euclid
from test_realroot_chains import family_pairs, random_products, random_root_pairs


def sturm_chain_over_q(p, q):
    """Signed remainder sequence by Euclid over the rationals: p, q, then
    the negated remainders down to gcd(p, q)."""
    chain = [p, q]
    while chain[-1].degree > 0:
        rem = euclid.divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return chain


def with_derivatives(polys):
    """(p, p') for every non-constant p: the chains that count roots."""
    return [(p, p.derivative()) for p in polys if p.degree > 0]


def family_inputs():
    pairs = list(family_pairs())
    members = list({f.coeffs: f for f, _ in pairs}.values())
    return pairs + with_derivatives(members)


def random_inputs():
    pairs = list(random_root_pairs(7001, 5000))
    return pairs + with_derivatives(f for f, _ in pairs)


def fraction_inputs():
    """Monic family members and products, and ray restrictions of Q, E and
    B with their previous member: all with Fraction coefficients."""
    monic = [f.monic() for f, _ in family_pairs()] + [p.monic() for p in random_products(7002, 200)]
    pairs = with_derivatives(monic)
    for name, (make, code) in sorted(MULTIVAR_FAMILIES.items()):
        for n in range(3, 9):
            above, below = make(n), make(n - 1)
            for s in range(4):
                lam = rr.sample_lambdas(n, 7003, code, n, s)
                f, g = below.ray_restriction(lam), above.ray_restriction(lam)
                pairs += [(g, f), (f, g)] + with_derivatives([g])
    assert all(any(isinstance(c, Fraction) for c in p.coeffs + q.coeffs) for p, q in pairs)
    return pairs


def sample_points(rng):
    """Both infinities and one seeded rational."""
    return [rr.NEG_INF, rr.POS_INF, Fraction(rng.below(61) - 40, 1 + rng.below(9))]


@pytest.mark.parametrize("inputs, least", [
    (family_inputs, 200),
    (random_inputs, 9000),
    (fraction_inputs, 500),
])
def test_chain_is_positive_multiple_of_euclid_over_q(inputs, least):
    rng = SplitMix64.seed_from(7004)
    pairs = inputs()
    assert len(pairs) >= least
    longest = 0
    for p, q in pairs:
        want, got = sturm_chain_over_q(p, q), rr.sturm_chain(p, q)
        assert len(got) == len(want), (p.human(), q.human())
        assert got[0] is p and got[1] is q
        for a, b in zip(want[2:], got[2:]):
            ratio = Fraction(b.coeffs[-1]) / a.coeffs[-1]
            assert ratio > 0 and a * ratio == b, (p.human(), q.human())
            assert all(type(c) is int for c in b.coeffs) and gcd(*b.coeffs) == 1
        for x in sample_points(rng):
            assert rr._variations(got, x) == rr._variations(want, x), (p.human(), q.human(), x)
        longest = max(longest, len(got))
    assert longest >= 6


def test_chain_divides_no_polynomial(monkeypatch):
    # Poly divides by no polynomial; Euclid lives in the oracle only
    assert not any(hasattr(Poly, name) for name in ("divmod", "exact_div", "gcd", "square_free"))
    calls = []
    divmod_ = euclid.divmod
    monkeypatch.setattr(euclid, "divmod", lambda a, b: calls.append(a) or divmod_(a, b))
    sturm_chain_over_q(Poly([1, 3, 1]), Poly([3, 2]))
    assert calls  # the counter sees the oracle's divisions
    calls.clear()
    for p, q in family_inputs() + fraction_inputs():
        rr.sturm_chain(p, q)
    assert calls == []


def test_root_error_names_the_polynomial_passed_in():
    # the chain works on 2t-1, but the refusal names t-1/2 as given
    with pytest.raises(ValueError, match=r"^lower endpoint 1/2 is a root of t-1/2$"):
        rr.count_real_roots(Poly([Fraction(-1, 2), 1]), Fraction(1, 2))


def test_eulerian_interlacing_reaches_n40():
    t0 = time.monotonic()
    assert rr.verify_interlacing_family("E", 40)["verdict"]
    assert time.monotonic() - t0 < 30.0
