"""Set-partition correspondence and the two insertion bijections."""
import hashlib
import itertools
import math
import re

import pytest

from rslab import bijections as bj
from rslab import perms
from rslab.perms import descent_set, peak_values, run_starts, runs, runsort, spv

P = lambda s: tuple(int(c) for c in s)


def in_swap_image(p, a) -> bool:
    """Swap-image membership by building the preimage; the oracle for the
    None verdict of the case-5 classifier."""
    return bj.swap_tail_inverse(a, tuple(p)) is not None


BELL = [1, 1, 2, 5, 15, 52, 203, 877]

FLIP_TABLE = [
    ("2351467", 1, "2367145", 1),
    ("2571346", 1, "2461357", 1),
    ("1473526", 1, "1453726", 1),
    ("2467135", 1, "2513467", 1),
    ("7135246", 2, "7134625", 3),
    ("7134526", 2, "7136245", 3),
    ("7625134", 2, "7624135", 3),
    ("7362145", 2, "7352146", 3),
    ("1342576", 4, "1357624", 5),
    ("6134275", 4, "6137524", 5),
    ("2476135", 4, "2513476", 5),
    ("7265134", 4, "7241365", 5),
    ("1342756", 4, "1375624", 5),
    ("2657134", 4, "2413657", 5),
    ("3762145", 4, "3521476", 5),
    ("2761345", 4, "2451376", 5),
]


class TestSetPartitions:
    def test_examples(self):
        p = bj.parse_set_partition("1258|3|47|6")
        assert bj.partition_to_runsorted(p) == P("136924857")
        assert bj.runsorted_to_partition(P("136924857")) == p
        p2 = bj.parse_set_partition("18|27|3|46|5")
        assert bj.partition_to_runsorted(p2) == P("192834756")
        assert bj.partition_descents(p2) == {2, 4, 7}

    def test_singletons(self):
        singles = bj.canonical_partition([(i,) for i in range(1, 8)])
        assert bj.partition_to_runsorted(singles) == tuple(range(1, 9))
        assert bj.partition_descents(singles) == set()
        assert bj.runsorted_to_partition(tuple(range(1, 9))) == singles

    def test_parser_comma_form(self):
        assert bj.parse_set_partition("1,8|2,7|3|4,6|5") == bj.parse_set_partition("18|27|3|46|5")
        big = bj.parse_set_partition("1,12|2|3,4|5|6|7|8|9|10|11")
        assert big[0] == (1, 12)
        assert bj.parse_set_partition(bj.format_set_partition(big)) == big
        with pytest.raises(ValueError):
            bj.parse_set_partition("12|2")  # digit shorthand: not a partition

    def test_rejects_noncanonical_input(self):
        with pytest.raises(ValueError):
            bj.partition_to_runsorted(((2, 1), (3,)))
        with pytest.raises(ValueError):
            bj.runsorted_to_partition(P("213"))

    def test_exhaustive_small(self):
        for n in range(0, 8):
            image = set()
            count = 0
            for part in bj.enumerate_set_partitions(n):
                count += 1
                sig = bj.partition_to_runsorted(part)
                assert bj.runsorted_to_partition(sig) == part
                assert bj.partition_descents(part) == descent_set(sig)
                big = sum(1 for b in part if len(b) >= 2)
                assert len(runs(sig)) == 1 + big
                image.add(sig)
            assert count == BELL[n]
            # brute force over S_{n+1}: enumerate_runsorted is this very image
            assert image == {p for p in perms.enumerate_sn(n + 1) if perms.is_runsorted(p)}


class TestPeakInsert:
    def test_cases_and_counts(self):
        q, case = bj.peak_insert(2, (1, 3, 2))
        assert case == 2 and q == (1, 3, 2, 4)
        assert perms.peak_values(q) == perms.peak_values((1, 3, 2))
        q, case = bj.peak_insert(3, (1, 3, 2))  # 3 is a peak value, not last
        assert case == 3 and q == (1, 3, 4, 2)
        q, case = bj.peak_insert(bj.FRONT, (1, 2))
        assert case == 1 and q == (3, 1, 2)

    def test_bijection_and_peak_rules(self):
        for n in range(2, 8):
            seen = set()
            for p in itertools.permutations(range(1, n)):
                for a in bj.anchor_labels(n):
                    q, case = bj.peak_insert(a, p)
                    assert q not in seen
                    seen.add(q)
                    pv, pv2 = peak_values(p), peak_values(q)
                    if case in (1, 2):
                        assert pv2 == pv
                    elif case == 3:
                        assert pv2 == (pv - {a}) | {n}
                    elif case == 4:
                        k = p[p.index(a) + 1]
                        assert pv2 == (pv - {k}) | {n}
                    else:
                        assert pv2 == pv | {n}
                    back = bj.peak_insert_inverse(q)
                    assert back[1] == p and (back[0] is a or back[0] == a)
            assert len(seen) == math.factorial(n)

    def test_case_counts_match_triangle_weights(self):
        # a permutation with k peaks admits 2k+2 insertions keeping the
        # count and n-2k-2 insertions creating a peak
        for n in range(3, 8):
            for p in itertools.permutations(range(1, n)):
                k = perms.peaks(p)
                cases = [bj.peak_insert(a, p)[1] for a in bj.anchor_labels(n)]
                assert sum(1 for c in cases if c in (1, 2, 3, 4)) == 2 * k + 2
                assert sum(1 for c in cases if c == 5) == n - 2 * k - 2


class TestAdmissibility:
    def test_peak_examples(self):
        assert bj.is_peak_admissible(P("52674318"), 6) is True
        assert bj.is_peak_admissible(P("38256714"), 6) is False
        assert bj.insert_after(6, P("52674318")) == P("526974318")
        assert bj.insert_after(6, P("38256714")) == P("382569714")
        assert spv(P("526974318")) == {8, 9}
        assert spv(P("382569714")) == {4, 8, 9}

    def test_peak_characterisation_equals_definition(self):
        for m in range(2, 8):
            for p in itertools.permutations(range(1, m + 1)):
                for i in range(m - 1):
                    a, k = p[i], p[i + 1]
                    if k not in spv(p):
                        continue
                    assert bj.is_peak_admissible(p, a) == bj.peak_admissible_by_definition(p, a), (p, a)

    def test_slope_characterisation_equals_definition(self):
        for m in range(2, 8):
            for p in itertools.permutations(range(1, m + 1)):
                for a in perms.slope_set(p):
                    assert bj.is_slope_admissible(p, a) == bj.slope_admissible_by_definition(p, a), (p, a)

    def test_slope_identity_permutation(self):
        ident = tuple(range(1, 8))
        for a in range(1, 6):
            assert bj.is_slope_admissible(ident, a)

    def test_slope_example(self):
        p = P("2561734")
        assert bj.is_slope_admissible(p, 2) == bj.slope_admissible_by_definition(p, 2)


class TestSwap:
    def test_example(self):
        assert bj.swap_tail(6, P("38256714")) == P("32567814")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bj.swap_tail(6, P("52674318"))  # admissible pair: nothing to fix
        with pytest.raises(ValueError):
            bj.swap_tail(1, P("12345"))  # successor not a sorted peak

    def test_roundtrip_and_update_rule(self):
        for m in range(3, 8):
            n = m + 1
            for p in itertools.permutations(range(1, m + 1)):
                for i in range(m - 1):
                    a, k = p[i], p[i + 1]
                    if k not in spv(p) or bj.is_peak_admissible(p, a):
                        continue
                    swapped = bj.swap_tail(a, p)
                    assert bj.swap_tail_inverse(a, swapped) == p
                    assert in_swap_image(swapped, a)
                    image = bj.insert_after(a, swapped)
                    assert spv(image) == (spv(p) - {k}) | {n}

    def test_swap_image_verdict_needs_no_confirmation(self):
        # wherever the lex insertion repairs a case-5 pair by the swap
        # inverse, the candidate it takes unconfirmed is the preimage
        repaired = 0
        for m in range(2, 8):
            for p in itertools.permutations(range(1, m + 1)):
                rr = bj._lex_runs(p)
                view = bj._sorted_view(p, rr)
                for a in range(1, m + 1):
                    if bj._insert_case(a, view)[0] != 5 or bj._case5_class(p, a, rr) is not None:
                        continue
                    pre = bj._swap_tail_inverse(a, p, rr)
                    assert pre is not None and pre == bj.swap_tail_inverse(a, p), (p, a)
                    repaired += 1
        assert repaired > 100

    def test_non_admissible_insertion_grows_spv(self):
        # inserting without the repair adds the stranded run end as well
        p, a, k = P("38256714"), 6, 7
        assert spv(bj.insert_after(a, p)) == (spv(p) - {k}) | {8, 9}


class TestResidualClasses:
    def test_census_n7_a3(self):
        census = bj.residual_census(7, 3)
        assert [len(census[j]) for j in (1, 2, 3, 4, 5)] == [40, 2, 2, 4, 4]
        as_str = lambda vals: sorted("".join(map(str, v)) for v in vals)
        assert P("1235647") in census[1] and P("4735621") in census[1]
        assert as_str(census[2]) == ["7134526", "7261345"]
        assert as_str(census[3]) == ["7134625", "7251346"]
        assert as_str(census[4]) == ["1345276", "2761345", "6134527", "6271345"]
        assert as_str(census[5]) == ["1347625", "2513476", "6134725", "6251347"]

    def test_class_pair_sizes_match(self):
        for m in range(3, 8):
            for a in range(1, m + 1):
                census = bj.residual_census(m, a)
                assert len(census[2]) == len(census[3])
                assert len(census[4]) == len(census[5])

    def test_case5_partition(self):
        # slope-admissible, swap image, and the residual classes tile the
        # slope-set anchors with nothing left over; the classifier's
        # verdict is checked against the defining conditions
        for m in range(2, 8):
            for p in itertools.permutations(range(1, m + 1)):
                slopes = perms.slope_set(p)
                for a in range(1, m + 1):
                    swap = in_swap_image(p, a)
                    if a not in slopes:
                        assert not swap, (p, a)
                        with pytest.raises(ValueError):
                            bj.residual_class(p, a)
                        continue
                    slope = bj.slope_admissible_by_definition(p, a)
                    assert bj.is_slope_admissible(p, a) == slope, (p, a)
                    try:
                        cls = bj.residual_class(p, a)
                    except ValueError:
                        cls = None
                    assert (cls is None) == (slope or swap), (p, a)
                    assert not (slope and swap), (p, a)
                    assert cls in (None, 1, 2, 3, 4, 5)

    def test_residual_class_refuses_pairs_outside_its_domain(self):
        for p, a in (((1, 2, 3), 1), ((5, 3, 4, 1, 2), 4), ((2, 1), 1)):
            with pytest.raises(ValueError):
                bj.residual_class(p, a)

    def test_spv_update_formulas(self):
        # each class updates the sorted peak set by its own recipe
        for m in range(3, 8):
            n = m + 1
            for p in itertools.permutations(range(1, m + 1)):
                for a in perms.slope_set(p):
                    if bj.is_slope_admissible(p, a) or in_swap_image(p, a):
                        continue
                    cls = bj.residual_class(p, a)
                    rr_ = sorted((p[s:e] for s, e in perms.runs_positions(p)))
                    i = p.index(a)
                    k = p[i + 1]
                    top = next(w for w in rr_ if a in w)[-1]
                    got = spv(bj.insert_after(a, p))
                    base = spv(p)
                    above = [w for w in rr_ if w[0] > k]
                    if cls == 1:
                        er = rr_[-1][-1]
                        assert got == (base - {top}) | {er, n}
                    elif cls in (2, 3):
                        em = max(w for w in rr_ if w[0] < k)[-1]
                        assert got == (base - {top}) | {em, n}
                    elif cls == 4:
                        assert got == (base - {top}) | {n}
                    else:
                        em = max(w for w in rr_ if w[0] < k)[-1]
                        assert got == base | {em, n}


class TestFlip:
    def test_definition_examples(self):
        assert bj.flip_tails(2, P("83724561")) == P("83562471")
        assert bj.flip_tails(1, P("134265")) == P("136524")

    def test_printed_table(self):
        for src, c_src, dst, c_dst in FLIP_TABLE:
            assert bj.residual_class(P(src), 1) == c_src
            assert bj.flip_tails(1, P(src)) == P(dst)
            assert bj.residual_class(P(dst), 1) == c_dst
            assert bj.flip_tails(1, P(dst)) == P(src)

    def test_involution_and_class_action(self):
        for m in range(3, 8):
            n = m + 1
            for a in range(1, m + 1):
                census = bj.residual_census(m, a)
                for cls, members in census.items():
                    for p in members:
                        q = bj.flip_tails(a, p)
                        assert bj.flip_tails(a, q) == p
                        target = {1: 1, 2: 3, 3: 2, 4: 5, 5: 4}[cls]
                        assert bj.residual_class(q, a) == target
                        assert spv(p) | {n} == spv(bj.insert_after(a, q))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            bj.flip_tails(1, P("12345"))  # slope admissible, not residual


class TestLexPeakInsert:
    def test_bijective_with_case_formulas(self):
        for n in range(2, 8):
            seen = set()
            for p in itertools.permutations(range(1, n)):
                for a in bj.anchor_labels(n):
                    q, case = bj.lex_peak_insert(a, p)
                    assert q not in seen
                    seen.add(q)
                    s, s2 = spv(p), spv(q)
                    if case in (1, 2):
                        assert s2 == s
                    elif case == 3:
                        assert s2 == (s - {a}) | {n}
                    elif case == 4:
                        w = runsort(p)
                        k = w[w.index(a) + 1]
                        assert s2 == (s - {k}) | {n}
                    else:
                        assert s2 == s | {n}
            assert len(seen) == math.factorial(n)

    def test_inverse_both_directions(self):
        for n in range(2, 9):
            for p in itertools.permutations(range(1, n)):
                for a in bj.anchor_labels(n):
                    q, _ = bj.lex_peak_insert(a, p)
                    ai, pi = bj.lex_peak_insert_inverse(q)
                    assert pi == p and (ai is a or ai == a)
            for q in itertools.permutations(range(1, n + 1)):
                a, p = bj.lex_peak_insert_inverse(q)
                assert bj.lex_peak_insert(a, p)[0] == q

    def test_inverse_examples(self):
        assert bj.lex_peak_insert_inverse(P("526974318")) == (6, P("52674318"))
        a, p = bj.lex_peak_insert_inverse((4, 2, 3, 1))
        assert a is bj.FRONT and p == (2, 3, 1)
        assert bj.lex_peak_insert_inverse((5, 1, 2, 3, 4, 6)) == (4, (5, 1, 2, 3, 4))

    @pytest.mark.parametrize("q", [(2, 1, 4, 5), (5, 1, 2, 2, 4, 6), (), (1, 1)])
    def test_inverse_refuses_a_non_permutation(self, q):
        with pytest.raises(ValueError, match=re.escape(f"not a permutation: {q}")):
            bj.lex_peak_insert_inverse(q)

    def test_run_start_rules_both_kinds(self):
        for n in range(2, 8):
            for p in itertools.permutations(range(1, n)):
                for a in bj.anchor_labels(n):
                    for kind, image in (
                        ("peaks", bj.peak_insert(a, p)[0]),
                        ("sorted", bj.lex_peak_insert(a, p)[0]),
                    ):
                        case, predicted = bj.run_start_case(kind, a, p)
                        assert run_starts(image) == predicted, (kind, a, p)

    def test_front_adds_max_run_start(self):
        p = (2, 1, 3)
        _, predicted = bj.run_start_case("sorted", bj.FRONT, p)
        assert predicted == run_starts(p) | {4}

    @pytest.mark.parametrize("a", [0, 4])
    def test_case_rule_refuses_an_anchor_outside_the_word(self, a):
        # the rule reads the letter after a from a map, where a missing
        # letter must not read as case 5
        p = (2, 1, 3)
        for route in (
            lambda: bj.run_start_case("peaks", a, p),
            lambda: bj.run_start_case("sorted", a, p),
            lambda: bj.lex_peak_insert(a, p),
            lambda: bj.is_peak_admissible(p, a),
            lambda: bj.swap_tail(a, p),
        ):
            with pytest.raises(ValueError, match=f"^anchor {a} is not a letter of the word$"):
                route()


def test_residual_census_json():
    census = bj.residual_census(7, 3)
    assert [len(census[j]) for j in (1, 2, 3, 4, 5)] == [40, 2, 2, 4, 4]
    assert sorted(census[2]) == [P("7134526"), P("7261345")]


def test_residual_census_matches_unfiltered_scan():
    # the census reads runs only where a < k < (letter after k); the oracle
    # classifies every permutation, in enumerate_sn order
    for m in range(1, 8):
        for a in range(1, m + 1):
            want: dict[int, list] = {1: [], 2: [], 3: [], 4: [], 5: []}
            for p in perms.enumerate_sn(m):
                try:
                    want[bj.residual_class(p, a)].append(p)
                except ValueError:
                    pass
            assert bj.residual_census(m, a) == want, (m, a)


def test_residual_census_refuses_anchor_outside_range():
    for a in (0, 9):
        with pytest.raises(ValueError):
            bj.residual_census(5, a)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_residual_census_n7_pinned():
    # recorded before the admissibility bodies read precomputed runs
    census = {a: bj.residual_census(7, a) for a in range(1, 8)}
    assert _digest(census) == (
        "b9f4e7ebbdf939d2cdebacadfe40012ad0be53eedf94f6c80eed6d910d42c51b"
    )


def test_lex_insertion_pinned():
    # every anchor and every p in S_m, m <= 6; recorded before the
    # five-case rule read a precomputed (word, peak set) pair
    rows = []
    for m in range(1, 7):
        for p in itertools.permutations(range(1, m + 1)):
            for a in bj.anchor_labels(m + 1):
                case, starts = bj.run_start_case("sorted", a, p)
                rows.append((p, a, bj.lex_peak_insert(a, p), case, sorted(starts)))
    assert len(rows) == 5912
    assert _digest(rows) == (
        "120e9abce93159e6bda2cdd0b38fed8b66a9d21bc31a9cfa3d2f53f37d981479"
    )
