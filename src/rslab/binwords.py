"""
Run-sorted binary words, their biword encoding, the reverse-complement
involution, partition fixed points, and the product-formula count
identities (including the classical Roselle series identity, verified as
truncated trivariate series).

Binary words are plain strings over "01"; the empty word is written "".
A maximal weakly increasing segment of a binary word always has the shape
0^i 1^j, so a word is determined by its sequence of (zeros, ones) blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from .perms import check_cap, runs_positions
from .polynomials import Poly


def bw_runs(w: str) -> list[str]:
    """Maximal weakly increasing segments, in occurrence order."""
    return [w[a:b] for a, b in runs_positions(w)] if w else []


def bw_runsort(w: str) -> str:
    """Concatenate the runs of ``w`` in lexicographic order."""
    return "".join(sorted(bw_runs(w)))


def is_runsorted_word(w: str) -> bool:
    rr = bw_runs(w)
    return all(rr[i] <= rr[i + 1] for i in range(len(rr) - 1))


def run_blocks(w: str) -> list[tuple[int, int]]:
    """(zeros, ones) per run, in occurrence order."""
    return [(r.count("0"), len(r) - r.count("0")) for r in bw_runs(w)]


def enumerate_runsorted_words(a: int, b: int) -> Iterator[str]:
    """
    Stream every binary word with ``a`` zeros and ``b`` ones whose runs
    appear in lexicographic order.

    With two or more runs, every run of such a word is 0^i 1^j with
    i, j >= 1 (an all-0 or all-1 run would merge into a neighbour), so the
    words correspond to multisets of such blocks; the pure words 0^a and
    1^b are the only single-run exceptions.
    """
    if a < 0 or b < 0:
        raise ValueError("counts must be non-negative")
    if a == 0 and b == 0:
        yield ""
        return
    if a == 0:
        yield "1" * b
        return
    if b == 0:
        yield "0" * a
        return

    def key(i: int, j: int) -> tuple[int, int]:
        # lexicographic order on the block words 0^i 1^j
        return (-i, j)

    def rec(rem_a: int, rem_b: int, min_key: tuple[int, int]) -> Iterator[list[tuple[int, int]]]:
        if rem_a == 0 and rem_b == 0:
            yield []
            return
        if rem_a == 0 or rem_b == 0:
            return
        for i in range(rem_a, 0, -1):
            for j in range(1, rem_b + 1):
                if key(i, j) < min_key:
                    continue
                for rest in rec(rem_a - i, rem_b - j, key(i, j)):
                    yield [(i, j)] + rest

    for blocks in rec(a, b, (-a, 0)):
        yield "".join("0" * i + "1" * j for i, j in blocks)


def count_runsorted_words(a: int, b: int) -> int:
    return sum(1 for _ in enumerate_runsorted_words(a, b))


# ---------------------------------------------------------------------------
# Biwords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Biword:
    """
    Two-row array of column pairs (u_i, v_i): top row weakly increasing,
    and columns with equal tops sorted by weakly decreasing bottom (the
    orientation produced by reading the runs of a run-sorted word from
    lexicographically largest to smallest).

    Zero entries appear only in the degenerate one-column biwords coming
    from the pure words 0^a and 1^b; with two or more columns all entries
    are positive.
    """

    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cols = self.columns
        for u, v in cols:
            if u < 0 or v < 0 or (u, v) == (0, 0):
                raise ValueError(f"bad biword column {(u, v)}")
        if len(cols) > 1 and any(u == 0 or v == 0 for u, v in cols):
            raise ValueError("zero entries only allowed in one-column biwords")
        for (u1, v1), (u2, v2) in zip(cols, cols[1:]):
            if u1 > u2 or (u1 == u2 and v1 < v2):
                raise ValueError("columns out of canonical order")

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.columns)

    @property
    def bottom(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.columns)

    def row_sums(self) -> tuple[int, int]:
        return sum(self.top), sum(self.bottom)

    def to_json(self) -> list[list[int]]:
        return [list(self.top), list(self.bottom)]


def word_to_biword(w: str) -> Biword:
    """Column i holds the zero/one counts of the (r+1-i)-th run."""
    if not is_runsorted_word(w):
        raise ValueError(f"word is not run-sorted: {w!r}")
    return Biword(tuple(reversed(run_blocks(w))))


def biword_to_word(bw: Biword) -> str:
    return "".join("0" * u + "1" * v for u, v in reversed(bw.columns))


# ---------------------------------------------------------------------------
# Reverse-complement involution and its partition fixed points
# ---------------------------------------------------------------------------

def reverse_complement(w: str) -> str:
    """Reverse the word and swap 0 <-> 1."""
    return "".join("1" if c == "0" else "0" for c in reversed(w))


def rc_runsort(w: str) -> str:
    """Run-sort the reverse complement; swaps the zero/one counts."""
    return bw_runsort(reverse_complement(w))


def symmetric_fixed_words(n: int) -> list[str]:
    """
    Run-sorted words with n zeros and n ones equal to their own reverse
    complement, in lexicographic order.  These are exactly the words whose
    biword is a reversed partition over itself, so they are built as the
    images of the partitions of n under ``partition_to_fixed_word``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sorted(partition_to_fixed_word(lam) for lam in partitions(n))


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive integer tuples summing to n."""
    def rec(rem: int, mx: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield ()
            return
        for part in range(min(rem, mx), 0, -1):
            for rest in rec(rem - part, part):
                yield (part,) + rest

    return rec(n, n)


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (independent of partitions())."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def fixed_word_to_partition(w: str) -> tuple[int, ...]:
    """Bottom biword row of a reverse-complement-fixed word: a partition."""
    bw = word_to_biword(w)
    lam = bw.bottom
    if bw.top != tuple(reversed(lam)):
        raise ValueError(f"word is not reverse-complement symmetric: {w!r}")
    return lam


def partition_to_fixed_word(lam: Sequence[int]) -> str:
    lam = tuple(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(x < 1 for x in lam):
        raise ValueError("need weakly decreasing positive parts")
    return biword_to_word(Biword(tuple(zip(reversed(lam), lam))))


# ---------------------------------------------------------------------------
# Counting identities
# ---------------------------------------------------------------------------

def product_count_table(max_a: int, max_b: int) -> list[list[int]]:
    """
    Coefficients of prod_{i,j >= 1} 1/(1 - q^i t^j) up to q^max_a t^max_b;
    entry [a][b] counts multisets of positive pairs with componentwise sum
    (a, b).
    """
    if max_a < 0 or max_b < 0:
        raise ValueError("counts must be non-negative")
    table = [[0] * (max_b + 1) for _ in range(max_a + 1)]
    table[0][0] = 1
    for i in range(1, max_a + 1):
        for j in range(1, max_b + 1):
            for x in range(i, max_a + 1):
                row, prev = table[x], table[x - i]
                for y in range(j, max_b + 1):
                    row[y] += prev[y - j]
    return table


@lru_cache(maxsize=None)
def maj_pair_table(n: int) -> tuple[tuple[int, ...], ...]:
    """
    ``table[a][b]`` = number of permutations of [n] with major index a whose
    inverse has major index b.

    RSK carries Des(pi) to Des(Q) and Des(pi^-1) to Des(P), so the table is
    sum over shapes lambda of f_lambda[a] * f_lambda[b], where f_lambda is
    the q-hook-length polynomial q^b(lambda) [n]_q! / prod [h(u)]_q
    (Stanley, EC2 7.21.5).  Its (1-q)^n factors cancel, so f_lambda is
    q^b(lambda) prod_k (1-q^k) / prod_u (1-q^h(u)), expanded modulo
    q^(top+1) with top = n(n-1)/2, its largest degree.
    """
    if n == 0:
        return ((1,),)
    check_cap(n)
    top = n * (n - 1) // 2
    table = [[0] * (top + 1) for _ in range(top + 1)]
    for lam in partitions(n):
        conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        f = [0] * (top + 1)
        f[sum(i * part for i, part in enumerate(lam))] = 1
        for k in range(1, n + 1):
            for i in range(top, k - 1, -1):
                f[i] -= f[i - k]
        for i, part in enumerate(lam):
            for j in range(part):
                h = part - j + conj[j] - i - 1
                for x in range(h, top + 1):
                    f[x] += f[x - h]
        for a, c in enumerate(f):
            if c:
                table[a] = [t + c * g for t, g in zip(table[a], f)]
    return tuple(map(tuple, table))


def maj_pair_count(a: int, b: int) -> int:
    """Number of permutations of [a+b] with maj = a and inverse maj = b."""
    if a < 0 or b < 0:
        raise ValueError("counts must be non-negative")
    table = maj_pair_table(a + b)
    if a >= len(table) or b >= len(table):
        return 0
    return table[a][b]


def _inv_pochhammer(n: int, order: int) -> list[int]:
    """Series of prod_{i=1..n} 1/(1 - x^i) up to x^order."""
    out = [0] * (order + 1)
    out[0] = 1
    for i in range(1, n + 1):
        for x in range(i, order + 1):
            out[x] += out[x - i]
    return out


def z_pair_product_table(z_order: int, q_order: int, t_order: int) -> list:
    """
    Coefficients of prod_{i,j >= 0} 1/(1 - z q^i t^j) as a nested list
    indexed [z][q][t].  Unlike product_count_table this product includes
    the i = 0 and j = 0 factors, with z marking the number of columns.
    """
    rhs = [
        [[0] * (t_order + 1) for _ in range(q_order + 1)] for _ in range(z_order + 1)
    ]
    rhs[0][0][0] = 1
    for i in range(q_order + 1):
        for j in range(t_order + 1):
            for zi in range(1, z_order + 1):
                for qi in range(i, q_order + 1):
                    for ti in range(j, t_order + 1):
                        rhs[zi][qi][ti] += rhs[zi - 1][qi - i][ti - j]
    return rhs


def roselle_identity_check(z_order: int = 4, q_order: int = 6, t_order: int = 6) -> dict:
    """
    Compare, as truncated trivariate series, the classical two-sided
    major-index identity

        sum_n z^n / ((q)_n (t)_n) * sum_{pi in S_n} t^maj(pi) q^maj(pi^-1)
            = prod_{i,j >= 0} 1/(1 - z q^i t^j),

    with (q)_n = (1-q)(1-q^2)...(1-q^n).  Note the product here runs over
    i, j >= 0, unlike the positive-pair product in product_count_table.
    """
    lhs = [
        [[0] * (t_order + 1) for _ in range(q_order + 1)] for _ in range(z_order + 1)
    ]
    for n in range(z_order + 1):
        joint = maj_pair_table(n)
        poch_q = _inv_pochhammer(n, q_order)
        poch_t = _inv_pochhammer(n, t_order)
        # (joint in q, t) * 1/(q)_n * 1/(t)_n
        layer = [[0] * (t_order + 1) for _ in range(q_order + 1)]
        for a, row in enumerate(joint):
            if a > q_order:
                break
            for b, c in enumerate(row):
                if b > t_order or c == 0:
                    continue
                for qa in range(a, q_order + 1):
                    pq = poch_q[qa - a]
                    if pq == 0:
                        continue
                    for tb in range(b, t_order + 1):
                        layer[qa][tb] += c * pq * poch_t[tb - b]
        lhs[n] = layer

    rhs = z_pair_product_table(z_order, q_order, t_order)

    first_diff = next(
        ({"z": zi, "q": qi, "t": ti, "lhs": lhs[zi][qi][ti], "rhs": rhs[zi][qi][ti]}
         for zi in range(z_order + 1)
         for qi in range(q_order + 1)
         for ti in range(t_order + 1)
         if lhs[zi][qi][ti] != rhs[zi][qi][ti]),
        None,
    )
    return {"orders": [z_order, q_order, t_order], "ok": first_diff is None,
            "first_diff": first_diff}


# ---------------------------------------------------------------------------
# Descents after run-sorting
# ---------------------------------------------------------------------------

def binary_descent_poly(n: int) -> Poly:
    """
    Generating polynomial over all 2^n binary words of length n for the
    number of descents after run-sorting: constant term C(n+1,3) + (n+1)
    (the cake numbers), and coefficient C(n,2k) + C(n,2k+1) at t^(k-1)
    for k >= 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = {0: comb(n + 1, 3) + (n + 1)}
    for k in range(2, n + 1):
        c = comb(n, 2 * k) + comb(n, 2 * k + 1)
        if c:
            coeffs[k - 1] = c
    return Poly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def expected_binary_descents(n: int) -> Fraction:
    """
    Expected number of descents after run-sorting a uniform binary word of
    length n >= 1: (n-5)/4 + (n+1)/2^n.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    return Fraction(n - 5, 4) + Fraction(n + 1, 2**n)
