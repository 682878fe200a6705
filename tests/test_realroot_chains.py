"""
Chain reuse in the real-root layer: isolation and real-rootedness read
one Sturm chain per polynomial, each evaluated once per point, and must
agree exactly with the route that rebuilds the chain for every count.
The interlacing verdict reads the undivided chain of f and g, and the
"root above 0" check reads coefficient signs; both must agree with the
gcd-divided and the Sturm routes.
"""
import hashlib
import json
from fractions import Fraction

import pytest

from rslab import realroot as rr
from rslab.polynomials import (
    Poly,
    eulerian_poly,
    peak_poly,
    run_count_poly,
    runsorted_descent_poly,
)
from rslab.prng import SplitMix64

import euclid_oracle as euclid
from test_realroot import _positive_root_count


def poly_from_roots(roots, lead=1):
    out = Poly.const(lead)
    for r in roots:
        out = out * Poly([-r, 1])
    return out


def isolate_by_recount(p, width=None):
    """Isolation with a fresh ``count_real_roots`` (and so a fresh chain)
    for every count: the bisection, each root's multiplicity layers and
    each width refinement step.  Returns (square-free part, roots as
    (kind, lo, hi, multiplicity) tuples in ascending order)."""
    q = euclid.square_free(p)
    total = rr.count_real_roots(q)
    if total == 0:
        return q, []
    bound = rr.root_bound(q)
    stack = [(-bound - 1, bound, total)]
    found = []
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            found.append(["interval", a, b, 1])
            continue
        mid = (a + b) / 2
        step = (b - a) / 4
        while q(mid) == 0:
            mid = mid + step
            step = step / 2
        left = rr.count_real_roots(q, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, cnt - left))
    layers = []
    layer = p.monic()
    while (layer := euclid.gcd(layer, layer.derivative())).degree > 0:
        layers.append(layer)
    for r in found:
        for layer in layers:
            if rr.count_real_roots(layer, r[1], r[2]) == 0:
                break
            r[3] += 1
    found.sort(key=lambda r: (r[1], r[2]))
    if width is not None:
        for r in found:
            while r[0] == "interval" and r[2] - r[1] > width:
                mid = (r[1] + r[2]) / 2
                if q(mid) == 0:
                    r[0], r[1], r[2] = "point", mid, mid
                elif rr.count_real_roots(q, r[1], mid) == 1:
                    r[2] = mid
                else:
                    r[1] = mid
    return q, [tuple(r) for r in found]


def real_rooted_by_square_free(p):
    q = euclid.square_free(p)
    return rr.count_real_roots(q) == q.degree


def family_members():
    for make, top in ((run_count_poly, 10), (runsorted_descent_poly, 10),
                      (peak_poly, 10), (eulerian_poly, 9)):
        for n in range(1, top + 1):
            yield make(n)


def random_products(seed, count):
    """Products over a small pool of non-positive rationals (half the time
    holding 0), so that roots repeat; times an irreducible quadratic on
    every fourth draw."""
    rng = SplitMix64.seed_from(seed)
    for i in range(count):
        pool = [Fraction(-rng.below(30), 1 + rng.below(6)) for _ in range(1 + rng.below(4))]
        if rng.below(2):
            pool.append(Fraction(0))
        roots = [pool[rng.below(len(pool))] for _ in range(1 + rng.below(7))]
        p = poly_from_roots(roots, lead=1 + rng.below(3))
        if i % 4 == 3:
            p = p * Poly([-2, 0, 1])
        yield p


def as_tuples(iso):
    return [(r.kind, r.lo, r.hi, r.multiplicity) for r in iso.roots]


def test_isolation_matches_recount_oracle():
    inputs = list(family_members()) + list(random_products(6001, 80))
    # negative and fractional leading coefficients
    inputs += ([-p for p in inputs[::2]] + [p * Fraction(-2, 7) for p in inputs[1::4]]
               + [p * Fraction(5, 3) for p in inputs[3::4]])
    for p in inputs:
        for width in (None, Fraction(1, 1000)):
            q, want = isolate_by_recount(p, width)
            iso = rr.isolate_real_roots(p, width)
            assert iso.square_free == q
            assert as_tuples(iso) == want, (p.human(), width)


def test_real_rooted_matches_square_free_route():
    rng = SplitMix64.seed_from(6002)
    verdicts = {True: 0, False: 0}
    for p in list(family_members()) + list(random_products(6003, 150)):
        assert rr.is_real_rooted(p) == real_rooted_by_square_free(p)
        # a constant shift moves the roots, often off the real line
        shifted = p + Fraction(rng.below(9) - 4, 1 + rng.below(5))
        if shifted.is_zero():
            continue
        got = rr.is_real_rooted(shifted)
        assert got == real_rooted_by_square_free(shifted), shifted.human()
        verdicts[got] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


def test_isolation_builds_one_chain_per_counted_polynomial(monkeypatch):
    built = []
    sturm_chain = rr.sturm_chain

    def recording(p, q):
        built.append(p)
        return sturm_chain(p, q)

    monkeypatch.setattr(rr, "sturm_chain", recording)
    # roots +-sqrt(2) (multiplicity 3), +-sqrt(3), -1 (twice) and 0
    p = Poly([-2, 0, 1]) ** 3 * Poly([-3, 0, 1]) * Poly([1, 1]) ** 2 * Poly.t()
    iso = rr.isolate_real_roots(p, width=Fraction(1, 10**6))
    assert sum(r.kind == "interval" for r in iso.roots) >= 4  # 20+ steps each
    assert sorted(r.multiplicity for r in iso.roots) == [1, 1, 1, 2, 3, 3]
    # p itself, then the layers gcd(p, p') and (t^2 - 2)
    assert built == [p, euclid.gcd(p, p.derivative()), Poly([-2, 0, 1]).monic()]


def test_real_rooted_builds_one_chain(monkeypatch):
    built = []
    sturm_chain = rr.sturm_chain
    monkeypatch.setattr(rr, "sturm_chain", lambda p, q: built.append(p) or sturm_chain(p, q))
    p = Poly([1, 1]) ** 3 * Poly([2, 1])
    assert rr.is_real_rooted(p)
    assert built == [p]


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 3), 0, -1])
def test_isolation_refuses_nonpositive_width(width):
    with pytest.raises(ValueError, match="width must be positive"):
        rr.isolate_real_roots(Poly([-2, 0, 1]), width=width)


def test_family_members_checked_once(monkeypatch):
    # member 1 is checked in full; every later member's interlacing chain
    # against its predecessor proves it real-rooted, so each member gets
    # exactly one chain
    checked, built = [], []
    is_real_rooted, sturm_chain = rr.is_real_rooted, rr.sturm_chain
    monkeypatch.setattr(rr, "is_real_rooted", lambda p: checked.append(p) or is_real_rooted(p))
    monkeypatch.setattr(rr, "sturm_chain", lambda p, q: built.append(p) or sturm_chain(p, q))
    assert rr.verify_interlacing_family("R", 9)["verdict"]
    assert checked == [run_count_poly(1)]
    assert built == [run_count_poly(n) for n in range(1, 10)]


@pytest.mark.parametrize("g, text", [
    (Poly([]), "g is the zero polynomial"),
    (Poly([-1, -1]), "g must have a positive leading coefficient"),
    (Poly([3, 1]) * Poly([-1, 1]), "g has a root above 0"),
    (Poly([1, 0, 1]), "g is not real-rooted (is_real_rooted failed)"),
])
def test_family_refuses_a_bad_later_member_as_interlaces_does(monkeypatch, g, text):
    from rslab import polynomials

    f = Poly([2, 1])
    monkeypatch.setitem(polynomials.FAMILIES, "R", lambda n: f if n == 1 else g)
    with pytest.raises(ValueError) as want:
        rr.interlaces(f, g)
    assert str(want.value) == text
    with pytest.raises(ValueError) as got:
        rr.verify_interlacing_family("R", 2)
    assert str(got.value) == text


def test_a_member_with_a_root_above_0_can_interlace():
    # (t+3)(t-1) interlaces t+2, so only the coefficient signs refuse it
    assert rr._interlaces(Poly([2, 1]), Poly([3, 1]) * Poly([-1, 1]))


def record_isolations(monkeypatch):
    """Every polynomial ``isolate_real_roots`` is called on from here on."""
    seen = []
    isolate = rr.isolate_real_roots
    monkeypatch.setattr(rr, "isolate_real_roots", lambda p, width=None: seen.append(p) or isolate(p, width))
    return seen


@pytest.mark.parametrize("run", [
    lambda: rr.verify_interlacing_family("E", 20),
    lambda: rr.conjecture_scan("Q", 6, 10),
])
def test_passing_runs_isolate_no_root(monkeypatch, run):
    seen = record_isolations(monkeypatch)
    assert run()["verdict"]
    assert seen == []


def test_family_failure_reports_the_public_verdict(monkeypatch):
    from rslab import polynomials

    below, above = Poly([1, 1]), Poly([3, 1]) * Poly([4, 1])
    monkeypatch.setitem(polynomials.FAMILIES, "R", lambda n: below if n == 1 else above)
    rep = rr.verify_interlacing_family("R", 2)
    assert not rep["verdict"]
    assert rep["failures"] == [{"n": 2, "report": rr.interlaces(below, above).to_json()}]
    assert rep["failures"][0]["report"]["witness"]


def test_family_failure_on_a_degree_jump(monkeypatch):
    from rslab import polynomials

    # (t+1)^(2n): degrees 2, 4, 6 jump by two at every step
    monkeypatch.setitem(polynomials.FAMILIES, "R", lambda n: Poly([1, 1]) ** (2 * n))
    rep = rr.verify_interlacing_family("R", 3)
    assert not rep["verdict"]
    assert [f["n"] for f in rep["failures"]] == [2, 3]
    for f in rep["failures"]:
        assert f["report"]["verdict"] is False and f["report"]["witness"] == []
        assert f["report"]["reason"] == "degrees differ by more than one"


@pytest.mark.parametrize("bad_n, name", [(1, "f"), (2, "g"), (5, "g")])
def test_family_refusal_names_the_first_bad_member(monkeypatch, bad_n, name):
    from rslab import polynomials

    def make(n):
        return Poly([1, 0, 1]) if n == bad_n else run_count_poly(n)

    monkeypatch.setitem(polynomials.FAMILIES, "R", make)
    # the text interlaces gives on the pair that first holds the bad member
    with pytest.raises(ValueError, match=f"^{name} is not real-rooted"):
        rr.interlaces(make(max(bad_n - 1, 1)), make(max(bad_n, 2)))
    with pytest.raises(ValueError, match=f"^{name} is not real-rooted"):
        rr.verify_interlacing_family("R", 6)
    # members past n_max are never built or checked
    assert rr.verify_interlacing_family("R", bad_n - 1)["verdict"]


def record_evaluations(monkeypatch):
    """Every ``Poly`` evaluation from here on, as (polynomial, point)
    pairs; the polynomials stay referenced, so their ids stay unique."""
    seen = []
    call = Poly.__call__

    def recording(p, x):
        seen.append((p, x))
        return call(p, x)

    monkeypatch.setattr(Poly, "__call__", recording)
    return seen


@pytest.mark.parametrize("p, width", [
    # roots +-sqrt(2) (multiplicity 3), +-sqrt(3), -1 (twice) and 0
    (Poly([-2, 0, 1]) ** 3 * Poly([-3, 0, 1]) * Poly([1, 1]) ** 2 * Poly.t(), Fraction(1, 10**6)),
    (run_count_poly(20), None),
    (run_count_poly(20), Fraction(1, 1000)),
])
def test_isolation_evaluates_each_chain_member_once_per_point(monkeypatch, p, width):
    seen = record_evaluations(monkeypatch)
    iso = rr.isolate_real_roots(p, width)
    assert iso.roots
    keys = [(id(q), x) for q, x in seen]
    assert len(seen) > 100
    assert len(set(keys)) == len(keys)


def interlace_by_gcd(f, g):
    """The gcd-divided route: f and g interlace iff f/h and g/h do, with
    h = gcd(f, g), and the coprime pair is read off its Cauchy index.
    Returns (verdict, reason) as ``interlaces`` reports them."""
    if abs(f.degree - g.degree) > 1:
        return False, "degrees differ by more than one"
    h = euclid.gcd(f, g)
    f1, g1 = euclid.exact_div(f, h), euclid.exact_div(g, h)
    top, low = (f1, g1) if f1.degree > g1.degree else (g1, f1)
    chain = rr.sturm_chain(top, low)
    ok = rr._variations(chain, rr.NEG_INF)[0] - rr._variations(chain, rr.POS_INF)[0] == top.degree
    return ok, "chain holds" if ok else "chain violated"


def family_pairs(top_rab=22, top_e=15):
    """Consecutive members of R, A, B (to ``top_rab``) and E (to
    ``top_e``), in both orders."""
    for make, top in ((run_count_poly, top_rab), (runsorted_descent_poly, top_rab),
                      (peak_poly, top_rab), (eulerian_poly, top_e)):
        members = [make(n) for n in range(1, top + 1)]
        for f, g in zip(members, members[1:]):
            yield f, g
            yield g, f


def random_root_pairs(seed, count):
    """Pairs of products over one shared pool of rationals, so that roots
    are shared and repeated; one pool in four also holds a positive
    root."""
    rng = SplitMix64.seed_from(seed)
    for i in range(count):
        pool = [Fraction(-rng.below(12), 1 + rng.below(4)) for _ in range(1 + rng.below(4))]
        if i % 4 == 0:
            pool.append(Fraction(1 + rng.below(5), 1 + rng.below(3)))
        f, g = (poly_from_roots([pool[rng.below(len(pool))] for _ in range(rng.below(7))],
                                lead=1 + rng.below(3)) for _ in range(2))
        yield f, g


def test_interlace_verdict_matches_gcd_route():
    verdicts = {True: 0, False: 0}
    pairs = list(family_pairs()) + [
        (f, g) for f, g in random_root_pairs(6004, 4000)
        if not (rr._has_positive_root(f) or rr._has_positive_root(g))
    ]
    assert len(pairs) >= 3000 + 154
    for f, g in pairs:
        rep = rr.interlaces(f, g)
        assert (rep.verdict, rep.reason) == interlace_by_gcd(f, g), (f.human(), g.human())
        verdicts[rep.verdict] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500, verdicts


def zero_rooted_pairs(seed, count):
    """Pairs of products over one shared pool of non-positive rationals
    that always holds 0, so that roots are shared and repeated."""
    rng = SplitMix64.seed_from(seed)
    for _ in range(count):
        pool = [Fraction(0)] + [Fraction(-rng.below(12), 1 + rng.below(4))
                                for _ in range(1 + rng.below(3))]
        f, g = (poly_from_roots([pool[rng.below(len(pool))] for _ in range(1 + rng.below(6))],
                                lead=1 + rng.below(3)) for _ in range(2))
        yield f, g


@pytest.mark.parametrize("pairs, digest", [
    (lambda: family_pairs(top_rab=14, top_e=12),
     "282269620679b04357719a16987f5e7541c6d5dd87a09aeaf648915d294dced4"),
    (lambda: zero_rooted_pairs(6006, 300),
     "2bdc253669952aa6fdbe9f66b718c4a56244db19449334024e45e217d03e2e48"),
], ids=["families", "zero_rooted_pairs"])
def test_interlace_reports_keep_their_bytes(pairs, digest):
    # the float witnesses are read by people only, and no verdict pins
    # them: the digests of whole reports keep them byte-stable
    reports = [rr.interlaces(f, g).to_json() for f, g in pairs()]
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == digest


def test_descartes_matches_sturm_on_real_rooted_inputs():
    found = {True: 0, False: 0}
    members = [p for pair in family_pairs() for p in pair]
    randoms = [p for pair in random_root_pairs(6004, 4000) for p in pair]
    for p in members + randoms:
        got = rr._has_positive_root(p)
        assert got == (_positive_root_count(p) > 0), p.human()
        found[got] += 1
    assert found[True] > 500, found
