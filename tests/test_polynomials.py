"""Polynomial arithmetic and the counting families."""
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab import bijections as bj
from rslab import perms, realroot
from rslab.polynomials import (
    Monomial,
    MPoly,
    Poly,
    descent_multivar,
    eulerian_multivar,
    eulerian_poly,
    monomial_from_set,
    peak_multivar,
    peak_poly,
    peak_poly_by_derivative,
    peak_poly_by_enumeration,
    peak_triangle,
    run_count_poly,
    run_count_triangle,
    runsorted_descent_poly,
)

import euclid_oracle as euclid


def run_count_poly_by_derivative(n: int) -> Poly:
    """Oracle for :func:`run_count_poly`:
    R_n = t R'_{n-1} + t (n-2) R_{n-2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = Poly.t()
    r_prev2, r_prev = t, t  # n = 1 and n = 2
    if n <= 2:
        return t
    for m in range(3, n + 1):
        r_new = t * r_prev.derivative() + (m - 2) * t * r_prev2
        r_prev2, r_prev = r_prev, r_new
    return r_prev


def descent_multivar_by_enumeration(n: int) -> MPoly:
    """Oracle for :func:`descent_multivar`: filter all of S_n."""
    out: dict[Monomial, int] = {}
    for p in perms.enumerate_sn(n):
        if perms.is_runsorted(p):
            key = monomial_from_set(perms.descent_set(p))
            out[key] = out.get(key, 0) + 1
    return MPoly(out)


@cache
def descent_counts_from_end_by_first_run(n: int) -> dict[tuple[int, ...], int]:
    """Descent sets of the run-sorted permutations of [n], positions
    counted from the end (position j is n - j), with their counts: peel
    the first run, with weight C(n-1, i) - 1 for a tail of length i."""
    out = {(): 1}
    for i in range(1, n - 1):
        w = comb(n - 1, i) - 1
        for des, c in descent_counts_from_end_by_first_run(i).items():
            out[des + (i,)] = out.get(des + (i,), 0) + w * c
    return out


def descent_multivar_by_first_run(n: int) -> MPoly:
    """Oracle for :func:`descent_multivar`: the first-run recursion,
    relabelled to absolute positions."""
    return MPoly({
        monomial_from_set(n - v for v in des): c
        for des, c in descent_counts_from_end_by_first_run(n).items()
    })


def descent_multivar_by_partitions(n: int) -> MPoly:
    """Oracle for :func:`descent_multivar`: sum over the set partitions of
    [n-1] through the run-sorted bijection."""
    out: dict[Monomial, int] = {}
    for p in bj.enumerate_set_partitions(n - 1):
        key = monomial_from_set(bj.partition_descents(p))
        out[key] = out.get(key, 0) + 1
    return MPoly(out)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def eulerian_multivar_by_enumeration(n: int) -> MPoly:
    """Oracle for :func:`eulerian_multivar`: sum over all of S_n."""
    out: dict[Monomial, int] = {}
    for p in perms.enumerate_sn(n):
        key = monomial_from_set(perms.descent_set(p))
        out[key] = out.get(key, 0) + 1
    return MPoly(out)


def peak_multivar_by_enumeration(n: int) -> MPoly:
    """Oracle for :func:`peak_multivar`: sum over all of S_n."""
    out: dict[Monomial, int] = {}
    for p in perms.enumerate_sn(n):
        key = monomial_from_set(perms.peak_values(p))
        out[key] = out.get(key, 0) + 1
    return MPoly(out)

TABLE_A = {
    1: "1",
    2: "1",
    3: "t+1",
    4: "4t+1",
    5: "3t^2+11t+1",
    6: "25t^2+26t+1",
    7: "15t^3+130t^2+57t+1",
    8: "210t^3+546t^2+120t+1",
    9: "105t^4+1750t^3+2037t^2+247t+1",
}

TABLE_PEAKS = {1: "1", 2: "2", 3: "2t+4", 4: "16t+8", 5: "16t^2+88t+16", 6: "272t^2+416t+32"}


class TestPoly:
    def test_arith(self):
        t = Poly.t()
        assert (t + 1) * (t - 1) == t * t - 1
        assert Poly([1, 2, 1]) == (t + 1) ** 2
        assert (t**3).derivative() == 3 * t * t
        assert Poly([1, 11, 3])(2) == 35

    def test_pow_refuses_negative_exponent(self):
        assert Poly([1, 1]) ** 0 == Poly([1])
        with pytest.raises(ValueError, match="^exponent must be non-negative$"):
            Poly([1, 1]) ** -2

    def test_trimming_and_degree(self):
        assert Poly([1, 0, 0]).degree == 0
        assert Poly([]).degree == -1
        assert Poly([0]).is_zero()

    def test_divmod_gcd(self):
        # the tests' Euclid oracle
        f = Poly([2, 3, 1])  # (t+1)(t+2)
        q, r = euclid.divmod(f, Poly([1, 1]))
        assert r.is_zero() and q == Poly([2, 1])
        assert euclid.gcd(f, Poly([1, 1])) == Poly([1, 1])
        assert euclid.square_free(Poly([1, 2, 1])) == Poly([1, 1])
        with pytest.raises(ValueError):
            euclid.exact_div(Poly([1, 1]), Poly([0, 1]))

    def test_human(self):
        assert Poly([1, 11, 3]).human() == "3t^2+11t+1"
        assert Poly([0, 4]).human() == "4t"
        assert Poly([-1, 1]).human() == "t-1"
        assert Poly([8]).human() == "8"
        assert Poly([]).human() == "0"

    def test_json(self):
        assert Poly([1, Fraction(1, 2)]).to_json() == [1, [1, 2]]
        assert Poly([Fraction(2, 1)]).to_json() == [2]

    def test_refuses_inexact_coefficients(self):
        with pytest.raises(ValueError, match=r"^coefficient 0\.1 is not an int or a Fraction$"):
            Poly([1, 0.1])
        # the root 0.1000000000000000055... lies above 1/10, but a float
        # polynomial reads p(1/10) as 0.0
        with pytest.raises(ValueError, match="coefficient -0.1 is not"):
            realroot.count_real_roots(Poly([-0.1, 1]), Fraction(0), Fraction(1, 10))


class TestMPoly:
    def test_basics(self):
        assert MPoly({(): 1, ((2, 1),): 1}).to_json() == [
            {"exponents": [], "coeff": 1},
            {"exponents": [[2, 1]], "coeff": 1},
        ]

    def test_relabel_and_specialize(self):
        p = MPoly({((1, 1), (2, 1)): 3})
        assert p.ray_restriction([1] * 2) == Poly([0, 0, 3])

    def test_ray_restriction(self):
        p = MPoly({(): 1, ((2, 1),): 1})
        lam = [Fraction(1), Fraction(3, 2)]
        assert p.ray_restriction(lam) == Poly([1, Fraction(3, 2)])
        with pytest.raises(ValueError):
            p.ray_restriction([Fraction(1)])

    def test_ray_restriction_refuses_inexact_coefficients(self):
        p = MPoly({(): 1, ((1, 1),): 0.5})
        with pytest.raises(ValueError, match="coefficient 0.5 is not"):
            p.ray_restriction([Fraction(1)])


class TestDescentFamilies:
    def test_table_rows(self):
        for n, human in TABLE_A.items():
            assert runsorted_descent_poly(n).human() == human

    def test_run_count_triangle_values(self):
        tri = run_count_triangle(7)
        assert tri[4] == [1, 11, 3]
        assert tri[6] == [1, 57, 130, 15]
        assert all(row[0] == 1 for row in tri)

    def test_run_count_poly_matches(self):
        for n in range(1, 31):
            assert run_count_poly(n) == run_count_poly_by_derivative(n)
        assert run_count_poly(1) == Poly.t()
        assert run_count_poly(3) == Poly([0, 1, 1])
        assert run_count_poly(4) == Poly([0, 1, 4])

    def test_degree_and_edge_values(self):
        # degree law (one less than the naive bound at even n)
        for n in range(1, 20):
            p = runsorted_descent_poly(n)
            assert p.degree == (n - 1) // 2
            assert p[0] == 1
            assert p(1) == len(list(perms.enumerate_runsorted(n))) if n <= 8 else True

    def test_multivar_three_routes(self):
        for n in range(1, 15):
            got = descent_multivar(n)
            assert got == descent_multivar_by_first_run(n), n
            if n <= 9:
                assert got == descent_multivar_by_partitions(n), n

    def test_multivar_fibonacci_terms_and_all_ones_ray(self):
        for n in range(1, 21):
            got = descent_multivar(n)
            assert len(got.terms) == fibonacci(n), n
            assert got.ray_restriction([1] * n) == runsorted_descent_poly(n), n

    def test_multivar_equals_enumeration(self):
        for n in range(1, 9):
            got = descent_multivar(n)
            assert got == descent_multivar_by_enumeration(n)
            assert all(type(c) is int for c in got.terms.values())

    def test_multivar_small_values(self):
        assert descent_multivar(3) == MPoly({(): 1, ((2, 1),): 1})
        assert descent_multivar(1) == MPoly({(): 1})
        for n in range(1, 8):
            assert descent_multivar(n).ray_restriction([1] * n) == runsorted_descent_poly(n)


class TestEulerian:
    def test_values(self):
        assert eulerian_poly(1) == Poly([1])
        assert eulerian_poly(3).human() == "t^2+4t+1"
        for n in range(1, 10):
            assert eulerian_poly(n)(1) == factorial(n)

    def test_multivar(self):
        for n in range(1, 8):
            assert eulerian_multivar(n).ray_restriction([1] * n) == eulerian_poly(n)

    def test_multivar_equals_enumeration(self):
        for n in range(1, 9):
            got = eulerian_multivar(n)
            assert got == eulerian_multivar_by_enumeration(n), n
            assert len(got.terms) == 2 ** (n - 1)
            assert all(type(c) is int for c in got.terms.values())


class TestPeaks:
    def test_table_three_ways(self):
        for n, human in TABLE_PEAKS.items():
            assert peak_poly(n).human() == human
            assert peak_poly_by_derivative(n).human() == human
            assert peak_poly_by_enumeration(n).human() == human

    def test_rows_sum_to_factorial(self):
        for n in range(1, 12):
            assert peak_poly(n)(1) == factorial(n)

    def test_triangle(self):
        tri = peak_triangle(6)
        assert tri[5] == [32, 416, 272]

    def test_multivar_recursion_vs_enum(self):
        for n in range(1, 9):
            assert peak_multivar(n) == peak_multivar_by_enumeration(n)
            assert peak_multivar(n).ray_restriction([1] * n) == peak_poly(n)

    def test_multivar_small(self):
        assert peak_multivar(1) == MPoly({(): 1})
        assert peak_multivar(3) == MPoly({(): 4, ((3, 1),): 2})

    def test_multivar_past_the_cap(self, monkeypatch):
        monkeypatch.setenv("RSLAB_MAX_N", "16")
        for n in range(1, 17):
            b = peak_multivar(n)
            assert b.ray_restriction([1] * n) == peak_poly(n)
            assert sum(b.terms.values()) == factorial(n)
            assert len(b.terms) == comb(n - 1, (n - 1) // 2)

    def test_multivar_refuses_above_the_cap(self, monkeypatch):
        monkeypatch.delenv("RSLAB_MAX_N", raising=False)
        with pytest.raises(perms.CapExceeded) as exc:
            peak_multivar(12)
        with pytest.raises(perms.CapExceeded) as want:
            perms.check_cap(12)
        assert str(exc.value) == str(want.value) == (
            "refusing n=12: cap is 11 (raise RSLAB_MAX_N to override)"
        )


@settings(max_examples=60)
@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
)
def test_poly_ring_laws(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa + pb == pb + pa


def test_enumeration_cross_check_tables():
    for n in range(1, 9):
        counts = Counter(perms.des(p) for p in perms.enumerate_runsorted(n))
        assert Poly([counts.get(i, 0) for i in range(max(counts) + 1)]) == runsorted_descent_poly(n)


@pytest.mark.parametrize(
    "builder",
    [
        peak_multivar,
        descent_multivar,
        eulerian_multivar,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("n", [0, -1])
def test_multivar_builders_refuse_n_below_one(builder, n):
    with pytest.raises(ValueError, match="n must be"):
        builder(n)
