"""
The benchmark's two workloads as flat lists of ops.

An op is ``(key, run, check)``: ``run()`` does the program's work and is
the only part that is timed; ``check(result)`` runs afterwards, outside
the timed region, and returns ``(verdict_ok, exact)`` where ``exact`` is
the part of the result that the recorded digest covers.  ``exact`` holds
verdicts, polynomials, counts and tables only: the float ``witness``
annotations and isolating intervals are left out, because a different
root isolator may legitimately change them.

Verdict checks use small oracles written here (Bell numbers, factorials,
the positive-pair product count, run-sorting), not the program's own
helpers, wherever that is cheap.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import partial
from math import comb, factorial

WORKLOADS = ("interlace", "enumerate")

# Sizes.  interlace: R, A and B to n=20 and E to n=13 keep a pass near
# 8 s on a 2-core machine, so a run holds several passes and reports each
# op at its median (the criterion-06 range, n=25, takes 25 s a pass).
INTERLACE_FAMILIES = (("R", 20), ("A", 20), ("B", 20), ("E", 13))
# enumerate: the n! scans stop at these sizes so that a pass takes 5-7 s
# and a run holds several passes; one n more on each would double
# the pass.  The 10! maj table, the slowest op, is built once a pass, by
# golden/A090806.  The binary counts are cheap and go to n=14.
TRANSPORT_TOP = 7
RUNSORTED_TOP = 8
MULTIVAR_TOP = 8
MAJ_TOP = 9
ADMISSIBILITY_TOP = 6
INSERTION_TOP = 7
PAIR_TOP = 14
FIGURE_N = 20000


# ---------------------------------------------------------------------------
# Digests of exact results
# ---------------------------------------------------------------------------

def canon(x):
    """JSON-ready canonical form of an exact result; floats are refused."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]
    if isinstance(x, float):
        raise TypeError("floats are not exact and stay out of digests")
    if hasattr(x, "to_json"):
        return canon(x.to_json())
    if isinstance(x, dict):
        items = [[canon(k), canon(v)] for k, v in x.items()]
        if all(isinstance(k, str) for k, _ in items):
            return {k: v for k, v in items}
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(exact) -> str:
    text = json.dumps(canon(exact), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def bell(n: int) -> int:
    return sum(_stirling2(n, k) for k in range(n + 1))


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)) // factorial(k)


def positive_pair_counts(top: int) -> list[list[int]]:
    """[a][b] = multisets of pairs (i, j), i, j >= 1, summing to (a, b)."""
    t = [[0] * (top + 1) for _ in range(top + 1)]
    t[0][0] = 1
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            for a in range(i, top + 1):
                for b in range(j, top + 1):
                    t[a][b] += t[a - i][b - j]
    return t


def integer_partitions(n: int) -> int:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p[n]


def _runs(w):
    out, start = [], 0
    for i in range(1, len(w)):
        if w[i] < w[i - 1]:
            out.append(tuple(w[start:i]))
            start = i
    out.append(tuple(w[start:]))
    return out


def _runsort(w):
    return tuple(x for r in sorted(_runs(w)) for x in r)


def _peak_values(w):
    return {w[i] for i in range(1, len(w) - 1) if w[i - 1] < w[i] > w[i + 1]}


def _run_starts(w):
    return {r[0] for r in _runs(w)}


def _is_runsorted(w):
    rr = _runs(w)
    return all(rr[i] <= rr[i + 1] for i in range(len(rr) - 1))


# ---------------------------------------------------------------------------
# interlace
# ---------------------------------------------------------------------------

def _member(rr, make, n):
    """Real-rootedness of one family member, and its count of positive roots
    (roots at 0 stripped first, so the Sturm endpoint is never a root)."""
    p = make(n)
    real = rr.is_real_rooted(p)
    k = 0
    while k < p.degree and p[k] == 0:
        k += 1
    q = type(p)(p.coeffs[k:])
    positive = rr.count_real_roots(q, Fraction(0), rr.POS_INF) if q.degree > 0 else 0
    return p, real, positive


def _check_member(res):
    p, real, positive = res
    return real is True and positive == 0, [p, real, positive]


def _pair(rr, make, n):
    return rr.interlaces(make(n - 1), make(n))


def _check_pair(rep):
    return rep.verdict is True, [rep.f, rep.g, rep.verdict, rep.reason]


def interlace_ops(rslab, seed: int) -> list:
    """Exhaustive; the seed is ignored."""
    P, rr = rslab.polynomials, rslab.realroot
    makers = {
        "R": P.run_count_poly,
        "A": P.runsorted_descent_poly,
        "B": P.peak_poly,
        "E": P.eulerian_poly,
    }
    ops = []
    for fam, top in INTERLACE_FAMILIES:
        make = makers[fam]
        for n in range(1, top + 1):
            ops.append((f"{fam}/member/{n}", partial(_member, rr, make, n), _check_member))
        for n in range(2, top + 1):
            ops.append((f"{fam}/pair/{n}", partial(_pair, rr, make, n), _check_pair))
    return ops


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _check_transport(n, table):
    ok = len(table) == factorial(n) and len(set(table.values())) == factorial(n)
    ok = ok and all(
        _peak_values(sig) == _peak_values(_runsort(img)) and _run_starts(sig) == _run_starts(img)
        for sig, img in table.items()
    )
    return ok, table


def _check_runsorted(bj, n, words):
    want = sorted(bj.partition_to_runsorted(p) for p in bj.enumerate_set_partitions(n - 1))
    ok = words == want and all(_is_runsorted(w) for w in words)
    return ok, words


def _check_size(expected, mp):
    """A multivariate counting polynomial's coefficients sum to the size
    of the set it counts."""
    return sum(mp.terms.values()) == expected, mp


def _maj_pair(bw, n):
    return bw.maj_pair_table(n), [bw.maj_pair_count(a, n - a) for a in range(n + 1)]


def _check_maj_pair(n, cells, res):
    """The table counts all of S_n and is symmetric; the cells with
    a + b = n equal the positive-pair product counts."""
    table, got = res
    ok = sum(map(sum, table)) == factorial(n) and all(
        table[a][b] == table[b][a] for a in range(len(table)) for b in range(len(table))
    )
    return ok and got == cells, [table, got]


def _check_equals(want, got):
    return got == want, got


def _admissibility(perms, bj, m):
    checked = mismatched = 0
    for p in perms.enumerate_sn(m):
        for a in range(1, m + 1):
            i = p.index(a)
            if i + 1 < m and p[i + 1] in perms.spv(p):
                checked += 1
                mismatched += bj.is_peak_admissible(p, a) != bj.peak_admissible_by_definition(p, a)
            if a in perms.slope_set(p):
                checked += 1
                mismatched += bj.is_slope_admissible(p, a) != bj.slope_admissible_by_definition(p, a)
    return checked, mismatched


def _check_admissibility(res):
    return res[1] == 0, list(res)


def _insertion(perms, bj, n):
    seen = set()
    cases = [0] * 6
    for p in perms.enumerate_sn(n - 1):
        for a in bj.anchor_labels(n):
            q, case = bj.lex_peak_insert(a, p)
            seen.add(q)
            cases[case] += 1
    return len(seen), cases


def _check_insertion(n, res):
    return res[0] == factorial(n), list(res)


def _check_census(n, census):
    members = [p for j in census for p in census[j]]
    ok = len(members) == len(set(members)) and all(
        sorted(p) == list(range(1, n + 1)) for p in members
    )
    return ok, census


def _check_report(key):
    return lambda rep: (rep[key] is True, rep)


def _check_means(means):
    return means[5] == 1, means


def _check_figure(n, seed, text):
    lines = text.splitlines()
    pairs = [tuple(map(int, line.split(","))) for line in lines[1:]]
    word = tuple(v for _, v in pairs)
    ok = (
        lines[0] == f"# rng=splitmix64 seed={seed} n={n}"
        and [i for i, _ in pairs] == list(range(1, n + 1))
        and sorted(word) == list(range(1, n + 1))
        and _is_runsorted(word)
    )
    return ok, text


def enumerate_ops(rslab, seed: int) -> list:
    """Exhaustive except for the one figure op, which draws from the seed."""
    perms, bj, P = rslab.perms, rslab.bijections, rslab.polynomials
    bw, sr, st = rslab.binwords, rslab.series, rslab.stats
    counts = positive_pair_counts(PAIR_TOP)

    def pure_or_product(a, b, pure):
        return counts[a][b] if (a >= 1 and b >= 1) or a + b == 0 else pure

    ops = []
    for n in range(1, TRANSPORT_TOP + 1):
        ops.append((f"transport/{n}", partial(bj.build_peak_transport, n),
                    partial(_check_transport, n)))
    for n in range(1, RUNSORTED_TOP + 1):
        ops.append((f"runsorted/{n}", lambda n=n: list(perms.enumerate_runsorted(n)),
                    partial(_check_runsorted, bj, n)))
    for n in range(1, MULTIVAR_TOP + 1):
        ops.append((f"descent_multivar/{n}", partial(P.descent_multivar, n),
                    partial(_check_size, bell(n - 1))))
    for n in range(1, MULTIVAR_TOP + 1):
        ops.append((f"eulerian_multivar/{n}", partial(P.eulerian_multivar, n),
                    partial(_check_size, factorial(n))))
    for n in range(0, MAJ_TOP + 1):
        # one op fills the table and then reads its cells, so the cells
        # are not timed as lookups in a table another op already cached
        ops.append((f"maj_pair/{n}", partial(_maj_pair, bw, n),
                    partial(_check_maj_pair, n,
                            [pure_or_product(a, n - a, 0) for a in range(n + 1)])))
    for m in range(2, ADMISSIBILITY_TOP + 1):
        ops.append((f"admissibility/{m}", partial(_admissibility, perms, bj, m),
                    _check_admissibility))
    for n in range(2, INSERTION_TOP + 1):
        ops.append((f"insertion/{n}", partial(_insertion, perms, bj, n),
                    partial(_check_insertion, n)))
    for a in range(1, 8):
        ops.append((f"residual_census/7/{a}", partial(bj.residual_census, 7, a),
                    partial(_check_census, 7)))
    ops += [
        ("egf/runsorted", partial(sr.egf_runsorted_report, 11), _check_report("ok")),
        ("egf/peaks", partial(sr.egf_peaks_report, 10), _check_report("ok")),
        ("egf/binary", partial(sr.egf_binary_report, 12), _check_report("ok")),
        ("egf/sheffer", partial(sr.sheffer_product_check, 10), _check_report("identity_holds")),
        ("egf/expected_peaks", partial(sr.expected_peaks_series, 10), _check_means),
    ]
    for gid in sorted(st.GOLDEN):
        ops.append((f"golden/{gid}", partial(st.golden_check, gid), _check_report("ok")))
    ops.append(("binary/product_count_table", partial(bw.product_count_table, PAIR_TOP, PAIR_TOP),
                partial(_check_equals, counts)))
    for n in range(0, PAIR_TOP + 1):
        ops.append((f"binary/runsorted_words/{n}",
                    lambda n=n: [bw.count_runsorted_words(a, n - a) for a in range(n + 1)],
                    partial(_check_equals, [pure_or_product(a, n - a, 1) for a in range(n + 1)])))
    for n in range(0, 13):
        ops.append((f"binary/symmetric_fixed/{n}", lambda n=n: len(bw.symmetric_fixed_words(n)),
                    partial(_check_equals, integer_partitions(n))))
    ops.append(("binary/roselle", partial(bw.roselle_identity_check, 4, 6, 6), _check_report("ok")))
    ops.append((f"seed{seed}/figure", partial(st.figure_csv, FIGURE_N, seed),
                partial(_check_figure, FIGURE_N, seed)))
    return ops


OP_LISTS = {
    "interlace": interlace_ops,
    "enumerate": enumerate_ops,
}
