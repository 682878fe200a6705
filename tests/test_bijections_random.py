"""
Randomised checks of the insertion bijections at sizes beyond the
exhaustive range (n = 9..11, and 30 and 120 for the lex insertion): the
five update formulas, run-start rules, and inverse round-trips must keep
holding where full enumeration is no longer affordable.
"""
from rslab import bijections as bj
from rslab.perms import run_starts, runsort, spv
from rslab.prng import SplitMix64, fisher_yates
import bijection_oracle as oracle
from test_bijections import in_swap_image


def _random_cases(n: int, count: int, seed: int):
    for i in range(count):
        rng = SplitMix64.seed_from(seed, n, i)
        p = fisher_yates(n - 1, rng)
        pick = rng.below(n)
        a = bj.FRONT if pick == 0 else pick
        yield a, p


def test_lex_insert_random_large_n():
    for n in (9, 10, 11, 30, 120):
        for a, p in _random_cases(n, 400, seed=17):
            q, case = bj.lex_peak_insert(a, p)
            assert sorted(q) == list(range(1, n + 1))
            s, s2 = spv(p), spv(q)
            if case in (1, 2):
                assert s2 == s
            elif case == 3:
                assert s2 == (s - {a}) | {n}
            elif case == 4:
                w = runsort(p)
                assert s2 == (s - {w[w.index(a) + 1]}) | {n}
            else:
                assert s2 == s | {n}
            ai, pi = bj.lex_peak_insert_inverse(q)
            assert pi == p and (ai is a or ai == a)
            _, rs_pred = oracle.run_start_case("sorted", a, p)
            assert run_starts(q) == rs_pred


def test_plain_insert_random_large_n():
    from rslab.perms import peak_values

    for n in (9, 10, 11):
        for a, p in _random_cases(n, 400, seed=23):
            q, case = bj.peak_insert(a, p)
            pv, pv2 = peak_values(p), peak_values(q)
            if case in (1, 2):
                assert pv2 == pv
            elif case == 3:
                assert pv2 == (pv - {a}) | {n}
            elif case == 4:
                assert pv2 == (pv - {p[p.index(a) + 1]}) | {n}
            else:
                assert pv2 == pv | {n}
            _, rs_pred = oracle.run_start_case("peaks", a, p)
            assert run_starts(q) == rs_pred


def test_swap_and_flip_random_large_n():
    from rslab.perms import slope_set

    hits = {"swap": 0, "flip": 0}
    for n in (9, 10, 11):
        for i in range(1500):
            rng = SplitMix64.seed_from(99, n, i)
            p = fisher_yates(n - 1, rng)
            a = 1 + rng.below(n - 1)
            pos = p.index(a)
            if pos + 1 < len(p) and p[pos + 1] in spv(p) and not bj.is_peak_admissible(p, a):
                swapped = bj.swap_tail(a, p)
                assert oracle.swap_tail_inverse(a, swapped) == p
                assert spv(bj.insert_after(a, swapped)) == (spv(p) - {p[pos + 1]}) | {n}
                hits["swap"] += 1
            elif (
                a in slope_set(p)
                and not bj.is_slope_admissible(p, a)
                and not in_swap_image(p, a)
            ):
                flipped = bj.flip_tails(a, p)
                assert bj.flip_tails(a, flipped) == p
                assert spv(p) | {n} == spv(bj.insert_after(a, flipped))
                hits["flip"] += 1
    # the random stream must actually have exercised both repairs
    assert hits["swap"] > 50 and hits["flip"] > 50, hits
