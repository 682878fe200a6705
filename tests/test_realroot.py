"""Sturm machinery, isolation, interlacing, stability sampling."""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab import realroot as rr
from rslab.polynomials import (
    MPoly,
    Poly,
    descent_multivar,
    run_count_poly,
    runsorted_descent_poly,
)
from rslab.prng import SplitMix64, rational_in_0_10
from rslab.realroot import interlaces

import euclid_oracle as euclid


def _positive_root_count(p: Poly) -> int:
    """Distinct roots in (0, +inf); strips any root at the origin first so
    the Sturm endpoint is never itself a root."""
    q = p
    while q.degree > 0 and q[0] == 0:
        q = Poly(q.coeffs[1:])
    if q.degree == 0:
        return 0
    return rr.count_real_roots(q, Fraction(0), rr.POS_INF)


class TestSturm:
    def test_counts(self):
        assert rr.count_real_roots(Poly([-2, 0, 1])) == 2  # t^2-2
        assert rr.count_real_roots(Poly([1, 0, 1])) == 0
        assert rr.count_real_roots(Poly([-2, 0, 1]), Fraction(0), rr.POS_INF) == 1
        assert rr.count_real_roots(Poly([0, 1])) == 1

    def test_lower_endpoint_must_not_be_a_root(self):
        with pytest.raises(ValueError):
            rr.count_real_roots(Poly([0, 1]), Fraction(0))

    def test_reversed_interval_refused(self):
        p = Poly([-2, 0, 1])
        for lo, hi in ((rr.POS_INF, rr.NEG_INF), (Fraction(3), Fraction(-3)),
                       (Fraction(0), rr.NEG_INF), (rr.POS_INF, Fraction(0))):
            with pytest.raises(ValueError, match="reversed interval"):
                rr.count_real_roots(p, lo, hi)
        # (lo, lo] is empty, not reversed
        assert rr.count_real_roots(p, Fraction(3), Fraction(3)) == 0
        assert rr.count_real_roots(p, rr.NEG_INF, rr.NEG_INF) == 0
        assert rr.count_real_roots(p, rr.POS_INF, rr.POS_INF) == 0

    def test_inexact_endpoints_refused(self):
        p = Poly([-2, 0, 1])
        for lo, hi, bad in ((0.1, 3.0, "0.1"), (Fraction(0), 3.0, "3.0"),
                            (rr.NEG_INF, 1.5, "1.5"), ("inf", rr.POS_INF, "'inf'")):
            with pytest.raises(ValueError, match=f"^endpoint {bad} is not an int or a Fraction$"):
                rr.count_real_roots(p, lo, hi)
        # a constant has no roots, but a float endpoint is still refused
        with pytest.raises(ValueError, match="endpoint 0.5"):
            rr.count_real_roots(Poly([1]), 0.5)
        assert rr.count_real_roots(p, 0, 3) == 1

    def test_real_rooted(self):
        assert not rr.is_real_rooted(Poly([1, 0, 1]))
        assert rr.is_real_rooted(Poly([0, 1, 11, 3]))  # t(3t^2+11t+1)
        assert rr.is_real_rooted(Poly([1, 2, 1]))  # double root
        with pytest.raises(ValueError):
            rr.is_real_rooted(Poly([]))


class TestIsolation:
    def test_no_real_root(self):
        iso = rr.isolate_real_roots(Poly([1, 0, 1]), width=Fraction(1, 8))
        assert iso.roots == [] and iso.square_free == Poly([1, 0, 1])

    def test_simple(self):
        iso = rr.isolate_real_roots(Poly([0, 1]) * Poly([1, 1]))
        assert len(iso.roots) == 2
        lo = [r for r in iso.roots]
        assert lo[0].lo < lo[1].lo or lo[0].hi <= lo[1].lo

    def test_linear_exact(self):
        iso = rr.isolate_real_roots(Poly([1, 4]), width=Fraction(1, 10**6))
        r = iso.roots[0]
        if r.kind == "point":
            assert r.lo == Fraction(-1, 4)
        else:
            assert r.lo < Fraction(-1, 4) <= r.hi and r.hi - r.lo <= Fraction(1, 10**6)

    def test_multiplicity(self):
        iso = rr.isolate_real_roots(Poly([1, 2, 1]) * Poly([2, 1]))
        mults = sorted(r.multiplicity for r in iso.roots)
        assert mults == [1, 2]

    def test_count_equals_interval_count(self):
        for coeffs in ([0, 1, 11, 3], [1, 4], [0, 0, 1], [2, 3, 1]):
            p = Poly(coeffs)
            iso = rr.isolate_real_roots(p)
            assert len(iso.roots) == rr.count_real_roots(euclid.square_free(p))


class TestRecords:
    """The three result records: repr text (pinned at the dataclass
    version), equality of fields against the same class only, fresh
    default lists, and no hash."""

    def test_reprs_pinned(self):
        root = rr.IsolatedRoot("interval", Fraction(-3, 2), Fraction(1))
        assert repr(root) == ("IsolatedRoot(kind='interval', lo=Fraction(-3, 2), "
                              "hi=Fraction(1, 1), multiplicity=1)")
        assert repr(rr.isolate_real_roots(Poly([2, 3, 1]))) == (
            "RootIsolation(poly=Poly(t^2+3t+2), square_free=Poly(t^2+3t+2), roots=["
            "IsolatedRoot(kind='interval', lo=Fraction(-11, 4), hi=Fraction(-13, 8), "
            "multiplicity=1), IsolatedRoot(kind='interval', lo=Fraction(-13, 8), "
            "hi=Fraction(-1, 2), multiplicity=1)])")
        assert repr(interlaces(Poly([2, 3, 1]), Poly([1, 1]))) == (
            "InterlaceReport(f=Poly(t^2+3t+2), g=Poly(t+1), verdict=True, "
            "reason='chain holds', witness=[('g', -0.5), ('f', -1.0625), ('f', -2.1875)])")

    def test_equality_and_defaults(self):
        point = rr.IsolatedRoot("point", Fraction(0), Fraction(0), 2)
        assert point == rr.IsolatedRoot(kind="point", lo=0, hi=0, multiplicity=2)
        assert point != rr.IsolatedRoot("point", Fraction(0), Fraction(0))
        assert point != ("point", 0, 0, 2)
        p = Poly([1, 1])
        a, b = rr.RootIsolation(p, p), rr.RootIsolation(poly=p, square_free=p)
        assert a == b and a.roots == [] and a.roots is not b.roots
        assert a != rr.RootIsolation(p, p, [point])
        r, s = rr.InterlaceReport(p, p, True, "x"), rr.InterlaceReport(p, p, True, "x")
        assert r == s and r.witness == [] and r.witness is not s.witness
        assert r != rr.InterlaceReport(p, p, True, "x", [("f", -1.0)])
        assert rr.isolate_real_roots(Poly([6, 5, 1])) == rr.isolate_real_roots(Poly([6, 5, 1]))

    def test_records_unhashable(self):
        p = Poly([1, 1])
        for record in (rr.IsolatedRoot("point", Fraction(0), Fraction(0)),
                       rr.RootIsolation(p, p), rr.InterlaceReport(p, p, True, "x")):
            with pytest.raises(TypeError):
                hash(record)

    def test_records_pickle_and_copy(self):
        p = Poly([6, 5, 1])
        for record in (rr.isolate_real_roots(p), interlaces(p, Poly([2, 1]))):
            for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                         copy.deepcopy(record)):
                assert twin == record


class TestInterlace:
    def test_equal_linear(self):
        t = Poly.t()
        assert rr.interlaces(t, t).verdict

    def test_three_root_example(self):
        f = Poly([3, 1]) * Poly([1, 1])
        g = Poly([2, 1])
        assert rr.interlaces(f, g).verdict

    def test_run_count_pair(self):
        assert rr.interlaces(run_count_poly(4), run_count_poly(5)).verdict

    def test_rejections(self):
        with pytest.raises(ValueError):
            rr.interlaces(Poly([1, 0, 1]), Poly.t())  # complex roots
        with pytest.raises(ValueError):
            rr.interlaces(-Poly.t(), Poly.t())  # negative leading coefficient
        with pytest.raises(ValueError):
            rr.interlaces(Poly([-1, 1]), Poly.t())  # positive root

    def test_degree_gap(self):
        f = Poly([1, 1]) * Poly([2, 1]) * Poly([3, 1])
        assert not rr.interlaces(f, Poly([1])).verdict

    def test_shared_roots_weakly_legal(self):
        f = Poly([1, 1]) * Poly([3, 1])
        g = Poly([1, 1]) * Poly([2, 1])
        # roots f: -1, -3; g: -1, -2; chain: -1 <= -1 <= -2 <= -3 descending
        assert rr.interlaces(f, g).verdict

    def test_families_exact(self):
        for fam, top in (("A", 12), ("R", 12), ("B", 16), ("E", 14)):
            rep = rr.verify_interlacing_family(fam, top)
            assert rep["verdict"], rep

    def test_nonpositive_roots_all_n(self):
        for n in range(1, 16):
            p = runsorted_descent_poly(n)
            assert rr.is_real_rooted(p)
            assert _positive_root_count(p) == 0


class TestSamePhase:
    def test_all_ones_matches_univariate(self):
        for n in range(2, 7):
            q = descent_multivar(n)
            res = rr.same_phase_check(q, [Fraction(1)] * n)
            assert res["real_rooted"] == rr.is_real_rooted(runsorted_descent_poly(n))

    def test_rejects_bad_rays(self):
        q = descent_multivar(3)
        with pytest.raises(ValueError):
            rr.same_phase_check(q, [Fraction(1), Fraction(-1), Fraction(1)])
        with pytest.raises(ValueError):
            rr.same_phase_check(q, [Fraction(1)])

    def test_rejects_float_rays(self):
        q = descent_multivar(3)
        for lam in ([0.5, Fraction(1), Fraction(2)], [Fraction(1), 2, 1e-3]):
            bad = next(x for x in lam if isinstance(x, float))
            with pytest.raises(ValueError, match=f"^ray weight {bad!r} is not an int or a Fraction$"):
                rr.same_phase_check(q, lam, partner=descent_multivar(2))
        res = rr.same_phase_check(q, [1, 2, Fraction(1, 2)])
        assert res["lambda"] == [[1, 1], [2, 1], [1, 2]]

    def test_checks_each_restriction_once(self, monkeypatch):
        checked = []
        is_real_rooted = rr.is_real_rooted
        monkeypatch.setattr(rr, "is_real_rooted", lambda p: checked.append(p) or is_real_rooted(p))
        lam = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 3)]
        res = rr.same_phase_check(descent_multivar(4), lam, partner=descent_multivar(3))
        assert res["real_rooted"] and res["interlaces"]
        assert checked == [descent_multivar(4).ray_restriction(lam),
                           descent_multivar(3).ray_restriction(lam)]

    @pytest.mark.parametrize("partner, text", [
        (MPoly({((1, 1),): -1, (): -1}), "f must have a positive leading coefficient"),  # -x1 - 1
        (MPoly({((1, 1),): 1, (): -1}), "f has a root above 0"),  # x1 - 1
    ])
    def test_partner_errors_are_those_of_interlaces(self, partner, text):
        p = MPoly({((1, 2),): 1, ((1, 1),): 3, (): 2})  # (x1 + 1)(x1 + 2)
        lam = [Fraction(1)]
        with pytest.raises(ValueError, match=f"^{text}$"):
            interlaces(partner.ray_restriction(lam), p.ray_restriction(lam))
        with pytest.raises(ValueError, match=f"^{text}$"):
            rr.same_phase_check(p, lam, partner=partner)

    def test_partner_not_real_rooted_is_a_finding(self):
        p = MPoly({((1, 1),): 1, (): 1})  # x1 + 1
        partner = MPoly({((1, 2),): 1, (): 1})  # x1^2 + 1
        res = rr.same_phase_check(p, [Fraction(1)], partner=partner)
        assert res["real_rooted"] and res["interlaces"] is False

    def test_sampler_deterministic(self):
        a = rr.sample_lambdas(6, 11, 2, 5, 0)
        b = rr.sample_lambdas(6, 11, 2, 5, 0)
        assert a == b
        assert all(0 < x <= 10 and x.denominator <= 64 for x in a)

    def test_scan_small(self):
        for fam in ("Q", "E", "B"):
            rep = rr.conjecture_scan(fam, n_max=5, samples=12, seed=3)
            assert rep["verdict"], rep["failures"][:1]

    def test_scan_shards_compose(self):
        whole = rr.conjecture_scan("Q", n_max=4, samples=10, seed=1)
        parts = [
            rr.conjecture_scan("Q", n_max=4, samples=5, seed=1, first_sample=0),
            rr.conjecture_scan("Q", n_max=4, samples=5, seed=1, first_sample=5),
        ]
        assert whole["verdict"] == all(p["verdict"] for p in parts)


def wagner_closure_check(f: Poly, g: Poly, h: Poly) -> dict:
    """
    For real-rooted f, g, h with non-positive roots and positive leading
    coefficients, test the three classical closure laws:

    (i)   f <= h and g <= h  implies  f+g <= h
    (ii)  h <= f and h <= g  implies  h <= f+g
    (iii) g <= f  iff  f <= t*g

    (<= meaning "interlaces").  Returns which hypotheses applied and
    whether the corresponding conclusions held.
    """
    t = Poly.t()
    out = {}
    fg = f + g
    if interlaces(f, h).verdict and interlaces(g, h).verdict:
        out["sum_below"] = interlaces(fg, h).verdict
    if interlaces(h, f).verdict and interlaces(h, g).verdict:
        out["sum_above"] = interlaces(h, fg).verdict
    out["shift_equivalence"] = (
        interlaces(g, f).verdict == interlaces(f, t * g).verdict
    )
    return out


def random_interlacing_pair(rng: SplitMix64, degree: int) -> tuple[Poly, Poly]:
    """
    A random pair f <= g built from an interleaved chain of non-positive
    rational roots (g's largest root on top), with random positive leading
    coefficients.
    """
    chain = sorted(
        (-rational_in_0_10(rng) for _ in range(2 * degree)), reverse=True
    )
    g_roots = chain[0::2]
    f_roots = chain[1::2]

    def build(roots: list[Fraction]) -> Poly:
        out = Poly.const(1 + rng.below(4))
        for r in roots:
            out = out * Poly([-r, 1])
        return out

    return build(f_roots), build(g_roots)


class TestWagnerClosure:
    def test_fixed_triples(self):
        t = Poly.t()
        out = wagner_closure_check(t, t, t)
        assert out["shift_equivalence"]

    def test_random_suite(self):
        rng = SplitMix64.seed_from(20240)
        for _ in range(200):
            deg = 1 + rng.below(6)
            f, g = random_interlacing_pair(rng, deg)
            assert rr.interlaces(f, g).verdict
            # antisymmetry: with all roots distinct and g's largest root on
            # top, the reversed relation must fail
            froots = rr.isolate_real_roots(f).roots
            groots = rr.isolate_real_roots(g).roots
            if len(froots) + len(groots) == 2 * deg and euclid.gcd(f, g).degree == 0:
                assert not rr.interlaces(g, f).verdict
            out = wagner_closure_check(f, g, g)
            assert out.get("sum_below", True)
            assert out.get("sum_above", True)
            assert out["shift_equivalence"]

    def test_named_pair(self):
        # shift law on the run-count pair
        f, g = run_count_poly(5), run_count_poly(4)
        assert rr.interlaces(g, f).verdict
        assert rr.interlaces(f, Poly.t() * g).verdict


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32))
def test_interlace_reflexive_on_random_products(deg, seed):
    rng = SplitMix64.seed_from(seed)
    f, _ = random_interlacing_pair(rng, deg)
    assert rr.interlaces(f, f).verdict
