"""
Acceptance suite: the eleven headline checks, each printed as a single
pass/fail line with its timing (run pytest with -s to see them inline).

Everything here is exact: a "tolerance" is always equality, and each
criterion also asserts its stated wall-clock budget.
"""
import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from math import factorial

from rslab import bijections as bj
from rslab import binwords as bw
from rslab import perms
from rslab import realroot as rr
from rslab import series as sr
from rslab import stats as st
from rslab.polynomials import (
    Poly,
    peak_poly,
    peak_poly_by_derivative,
    peak_poly_by_enumeration,
    runsorted_descent_poly,
)

P = lambda s: tuple(int(c) for c in s)


def _positive_root_count(p: Poly) -> int:
    """Distinct roots in (0, +inf); strips any root at the origin first so
    the Sturm endpoint is never itself a root."""
    q = p
    while q.degree > 0 and q[0] == 0:
        q = Poly(q.coeffs[1:])
    if q.degree == 0:
        return 0
    return rr.count_real_roots(q, Fraction(0), rr.POS_INF)


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_table_of_descent_polynomials():
    t0 = time.monotonic()
    expected = {
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
    for n, human in expected.items():
        assert runsorted_descent_poly(n).human() == human
    _report(1, "descent polynomial table rows 1..9 exact", t0, 1.0)


def test_criterion_02_peak_polynomials_three_ways():
    t0 = time.monotonic()
    expected = {1: "1", 2: "2", 3: "2t+4", 4: "16t+8", 5: "16t^2+88t+16", 6: "272t^2+416t+32"}
    for n, human in expected.items():
        routes = (peak_poly, peak_poly_by_derivative, peak_poly_by_enumeration)
        triple = {route(n).human() for route in routes}
        assert triple == {human}, (n, triple)
    _report(2, "peak polynomial rows 1..6, three routes agree exactly", t0, 5.0)


def test_criterion_03_generating_functions():
    t0 = time.monotonic()
    g = sr.egf_runsorted_descents(11)
    for n in range(12):
        assert g.coeffs[n] * factorial(n) == runsorted_descent_poly(n + 1)
    h = sr.egf_peaks(10)
    assert h.coeffs[0].is_zero()
    for n in range(1, 11):
        assert h.coeffs[n] * factorial(n) == peak_poly(n)
    k = sr.egf_binary_descents(12)
    for n in range(13):
        assert k.coeffs[n] * factorial(n) == bw.binary_descent_poly(n)
    _report(3, "three closed-form EGFs match their polynomial families", t0, 10.0)


def test_criterion_04_bijection_suites():
    t0 = time.monotonic()
    # set partitions of [n], n <= 7: round trip and the descent-set rule
    for n in range(0, 8):
        for part in bj.enumerate_set_partitions(n):
            sig = bj.partition_to_runsorted(part)
            assert bj.runsorted_to_partition(sig) == part
            assert bj.partition_descents(part) == perms.descent_set(sig)
    # insertion bijectivity with the five update formulas, building S_n, n <= 8
    for n in range(2, 9):
        seen = set()
        for p in itertools.permutations(range(1, n)):
            for a in bj.anchor_labels(n):
                q, case = bj.lex_peak_insert(a, p)
                assert q not in seen
                seen.add(q)
                s, s2 = perms.spv(p), perms.spv(q)
                if case in (1, 2):
                    assert s2 == s
                elif case == 3:
                    assert s2 == (s - {a}) | {n}
                elif case == 4:
                    w = perms.runsort(p)
                    assert s2 == (s - {w[w.index(a) + 1]}) | {n}
                else:
                    assert s2 == s | {n}
        assert len(seen) == factorial(n)
    # characterisations equal the defining conditions, n <= 8
    for m in range(2, 8):
        for p in itertools.permutations(range(1, m + 1)):
            for i in range(m - 1):
                a, k = p[i], p[i + 1]
                if k in perms.spv(p):
                    assert bj.is_peak_admissible(p, a) == bj.peak_admissible_by_definition(p, a)
            for a in perms.slope_set(p):
                assert bj.is_slope_admissible(p, a) == bj.slope_admissible_by_definition(p, a)
    # residual census at (7, 3) equals the published member lists
    census = bj.residual_census(7, 3)
    as_str = lambda vals: sorted("".join(map(str, v)) for v in vals)
    assert len(census[1]) == 40
    assert P("1235647") in census[1] and P("4735621") in census[1]
    assert as_str(census[2]) == ["7134526", "7261345"]
    assert as_str(census[3]) == ["7134625", "7251346"]
    assert as_str(census[4]) == ["1345276", "2761345", "6134527", "6271345"]
    assert as_str(census[5]) == ["1347625", "2513476", "6134725", "6251347"]
    # the sixteen printed flip pairs
    flip_table = [
        ("2351467", "2367145"), ("2571346", "2461357"), ("1473526", "1453726"),
        ("2467135", "2513467"), ("7135246", "7134625"), ("7134526", "7136245"),
        ("7625134", "7624135"), ("7362145", "7352146"), ("1342576", "1357624"),
        ("6134275", "6137524"), ("2476135", "2513476"), ("7265134", "7241365"),
        ("1342756", "1375624"), ("2657134", "2413657"), ("3762145", "3521476"),
        ("2761345", "2451376"),
    ]
    for src, dst in flip_table:
        assert bj.flip_tails(1, P(src)) == P(dst)
        assert bj.flip_tails(1, P(dst)) == P(src)
    _report(4, "bijection suites exhaustive to n=8 plus published censuses", t0, 300.0)


def test_criterion_05_main_identity_and_transport():
    t0 = time.monotonic()
    for n in range(1, 9):
        lhs = Counter(
            (frozenset(perms.run_starts(p)), frozenset(perms.peak_values(p)))
            for p in perms.enumerate_sn(n)
        )
        rhs = Counter(
            (frozenset(perms.run_starts(p)), frozenset(perms.spv(p)))
            for p in perms.enumerate_sn(n)
        )
        assert lhs == rhs
    for n in range(1, 9):
        table = bj.build_peak_transport(n)
        assert len(table) == factorial(n)
        assert len(set(table.values())) == factorial(n)
        for sig, img in table.items():
            assert perms.peak_values(sig) == perms.spv(img)
            assert perms.run_starts(sig) == perms.run_starts(img)
    t3 = bj.build_peak_transport(3)
    assert t3[P("213")] == P("231") and t3[P("231")] == P("213")
    for fixed in ("123", "132", "312", "321"):
        assert t3[P(fixed)] == P(fixed)
    t4 = bj.build_peak_transport(4)
    assert t4[P("2134")] == P("2341")
    assert t4[P("3142")] == P("3142")
    assert t4[P("4321")] == P("4321")
    _report(5, "refined identity over S_n and transport realisation, n<=8", t0, 300.0)


def test_criterion_06_interlacing_families():
    t0 = time.monotonic()
    for family in ("R", "A"):
        rep = rr.verify_interlacing_family(family, 25)
        assert rep["verdict"], rep
    for n in range(1, 26):
        p = runsorted_descent_poly(n)
        assert rr.is_real_rooted(p)
        assert _positive_root_count(p) == 0
    _report(6, "consecutive interlacing and real roots <= 0 up to n=25", t0, 30.0)


def test_criterion_07_conjecture_harness():
    t0 = time.monotonic()
    findings = []
    for family in ("Q", "E"):
        rep = rr.conjecture_scan(family, n_max=8, samples=100, seed=0)
        if not rep["verdict"]:
            findings.append(rep)
            print(f"COUNTEREXAMPLE FOUND in family {family}:")
            print(json.dumps(rep["failures"][:3], default=str, indent=2))
        assert rep["samples"] == 100 and rep["seed"] == 0
    assert not findings, "sampled stability scan found counterexamples (see output)"
    _report(7, "same-phase stability + interlacing, 100 rays, n<=8, Q and E", t0, 600.0)


def test_criterion_08_expectations():
    t0 = time.monotonic()
    for n in range(2, 9):
        total_des = 0
        total_peaks = 0
        total_sorted_des = 0
        for p in perms.enumerate_sn(n):
            total_des += perms.des(p)
            total_peaks += perms.peaks(p)
            total_sorted_des += perms.des(perms.runsort(p))
        assert Fraction(total_des, factorial(n)) == Fraction(n - 1, 2)
        assert Fraction(total_peaks, factorial(n)) == Fraction(n - 2, 3)
        assert Fraction(total_sorted_des, factorial(n)) == Fraction(n - 2, 3)
    # binary side: the closed form equals the derivative route (n >= 1; at
    # n = 0 the closed form's -1/4 is a known artefact of the formula)
    for n in range(1, 17):
        c = bw.binary_descent_poly(n)
        assert bw.expected_binary_descents(n) == Fraction(c.derivative()(1), 2**n)
    _report(8, "descent/peak expectations exact, n<=8; binary side n<=16", t0, 120.0)


def test_criterion_09_word_count_identities():
    t0 = time.monotonic()
    table = bw.product_count_table(10, 10)
    for tot in range(0, 11):
        for a in range(tot + 1):
            b = tot - a
            rsw = bw.count_runsorted_words(a, b)
            biw = len({bw.word_to_biword(w).columns for w in bw.enumerate_runsorted_words(a, b)})
            mip = bw.maj_pair_count(a, b)
            gf = table[a][b]
            assert rsw == biw  # the biword encoding is injective
            if (a >= 1 and b >= 1) or tot == 0:
                assert rsw == gf == mip, (a, b, rsw, gf, mip)
            else:
                # the pure words 0^a and 1^b: run-sorted, but with maj pair
                # (a, 0)/(0, b) unreachable; both sides asserted exactly
                assert rsw == 1 and gf == 0 and mip == 0, (a, b)
    for n in range(0, 13):
        assert len(bw.symmetric_fixed_words(n)) == bw.partition_count(n)
    assert bw.partition_count(12) == 77
    assert bw.roselle_identity_check(4, 6, 6)["ok"]
    _report(
        9,
        "word = biword = product = maj-pair counts (a+b<=10, positive part; "
        "axes asserted as the documented off-by-one), fixed points = p(n)<=12, "
        "Roselle orders (4,6,6)",
        t0,
        300.0,
    )


def test_criterion_10_golden_sequences():
    t0 = time.monotonic()
    for sid in ("A124324", "A008303", "A202365", "A000125", "A090806"):
        rep = st.golden_check(sid)
        assert rep["ok"], rep
    assert st.GOLDEN["A202365"]["values"] == [2, 10, 54, 336, 2400, 19440, 176400]
    _report(10, "golden sequence prefixes match recomputation", t0, 5.0)


def test_criterion_11_figure_data():
    t0 = time.monotonic()
    data = st.figure_data(20000, seed=1)
    assert sorted(v for _, v in data) == list(range(1, 20001))
    assert st.figure_csv(20000, 1) == st.figure_csv(20000, 1)
    _report(11, "20000-point scatter is a permutation, byte-reproducible", t0, 1.0)
