"""
Ground-truth fuzzing of the exact root machinery: polynomials are built
from known random non-positive rational root multisets, so isolation
output and interlacing verdicts can be checked against answers computed
directly from the construction (including deliberately shared roots,
repeated roots, and non-interlacing pairs).
"""
from fractions import Fraction

from rslab import realroot as rr
from rslab.polynomials import Poly
from rslab.prng import SplitMix64


def poly_from_roots(roots, lead=1):
    out = Poly.const(lead)
    for r in roots:
        out = out * Poly([-r, 1])
    return out


def random_roots(rng, max_deg=5, pool_step=4):
    """Multiset of non-positive rationals with deliberate repetitions."""
    pool = [Fraction(-rng.below(40), 1 + rng.below(8)) for _ in range(pool_step)]
    deg = rng.below(max_deg + 1)
    return sorted((pool[rng.below(len(pool))] for _ in range(deg)), reverse=True)


def close_degree_roots(rng):
    """Two root multisets whose sizes differ by at most one, drawn from one
    small shared pool (half the time holding 0), so that roots repeat and
    are shared between the two."""
    pool = [Fraction(-rng.below(30), 1 + rng.below(6)) for _ in range(1 + rng.below(5))]
    if rng.below(2):
        pool.append(Fraction(0))
    df = rng.below(7)
    dg = max(0, df - 1 + rng.below(3))

    def draw(deg):
        return sorted((pool[rng.below(len(pool))] for _ in range(deg)), reverse=True)

    return draw(df), draw(dg)


def chain_verdict(froots, groots):
    """The interlacing definition evaluated straight on the known roots."""
    if abs(len(froots) - len(groots)) > 1:
        return False
    top, low = (froots, groots) if len(froots) > len(groots) else (groots, froots)
    for i in range(len(low)):
        if not low[i] <= top[i]:
            return False
        if i + 1 < len(top) and not top[i + 1] <= low[i]:
            return False
    return True


def test_isolation_matches_known_roots():
    rng = SplitMix64.seed_from(4001)
    for _ in range(250):
        roots = random_roots(rng)
        if not roots:
            continue
        p = poly_from_roots(roots, lead=1 + rng.below(3))
        iso = rr.isolate_real_roots(p, width=Fraction(1, 10**9))
        distinct = sorted(set(roots))
        assert len(iso.roots) == len(distinct)
        for r, want in zip(iso.roots, distinct):
            if r.kind == "point":
                assert r.lo == want
            else:
                assert r.lo < want <= r.hi
            assert r.multiplicity == roots.count(want)


def test_interlace_verdicts_match_known_roots():
    rng = SplitMix64.seed_from(4002)
    agree = {True: 0, False: 0}
    for _ in range(400):
        froots = random_roots(rng)
        groots = random_roots(rng)
        f = poly_from_roots(froots, lead=1 + rng.below(3))
        g = poly_from_roots(groots, lead=1 + rng.below(3))
        want = chain_verdict(froots, groots)
        got = rr.interlaces(f, g).verdict
        assert got == want, (froots, groots, want, got)
        agree[want] += 1
    # the stream must have produced both outcomes in bulk
    assert agree[True] > 40 and agree[False] > 40, agree

    # a second stream that never stops at the degree-gap return, with both
    # argument orders
    rng = SplitMix64.seed_from(4005)
    agree = {True: 0, False: 0}
    for _ in range(300):
        froots, groots = close_degree_roots(rng)
        f = poly_from_roots(froots, lead=1 + rng.below(3))
        g = poly_from_roots(groots, lead=1 + rng.below(3))
        for a, b, aroots, broots in ((f, g, froots, groots), (g, f, groots, froots)):
            want = chain_verdict(aroots, broots)
            got = rr.interlaces(a, b).verdict
            assert got == want, (aroots, broots, want, got)
            agree[want] += 1
    assert agree[True] > 150 and agree[False] > 150, agree


def test_interlace_witness_lists_every_root():
    rng = SplitMix64.seed_from(4006)
    gaps = 0
    for _ in range(150):
        froots, groots = random_roots(rng), random_roots(rng)
        f = poly_from_roots(froots, lead=1 + rng.below(3))
        g = poly_from_roots(groots, lead=1 + rng.below(3))
        rep = rr.interlaces(f, g)
        if abs(f.degree - g.degree) > 1:
            assert rep.witness == []
            gaps += 1
            continue
        tags = [tag for tag, _ in rep.witness]
        assert tags.count("f") == f.degree and tags.count("g") == g.degree
        values = [x for _, x in rep.witness]
        assert values == sorted(values, reverse=True)
    assert gaps > 10


def test_interlace_shared_root_cases():
    rng = SplitMix64.seed_from(4003)
    for _ in range(150):
        shared = random_roots(rng, max_deg=3)
        extra_f = random_roots(rng, max_deg=2)
        extra_g = random_roots(rng, max_deg=2)
        froots = sorted(shared + extra_f, reverse=True)
        groots = sorted(shared + extra_g, reverse=True)
        f = poly_from_roots(froots)
        g = poly_from_roots(groots)
        assert rr.interlaces(f, g).verdict == chain_verdict(froots, groots)


def test_count_real_roots_matches_known():
    rng = SplitMix64.seed_from(4004)
    for _ in range(200):
        roots = random_roots(rng)
        if not roots:
            continue
        p = poly_from_roots(roots)
        distinct = set(roots)
        assert rr.count_real_roots(p) == len(distinct)
        cut = Fraction(-rng.below(40), 1 + rng.below(8))
        if cut in distinct:
            continue
        below = sum(1 for r in distinct if r <= cut)
        assert rr.count_real_roots(p, rr.NEG_INF, cut) == below
