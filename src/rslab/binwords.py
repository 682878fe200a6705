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

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from ._record import Record
from .perms import check_cap, runs_positions
from .polynomials import Poly


def check_binary_word(w: str) -> None:
    """Refuse a string with a letter other than "0" and "1"."""
    if set(w) - {"0", "1"}:
        raise ValueError(f"not a binary word: {w!r}")


def bw_runs(w: str) -> list[str]:
    """Maximal weakly increasing segments, in occurrence order; the one
    letter check of every helper below."""
    check_binary_word(w)
    return [w[a:b] for a, b in runs_positions(w)] if w else []


def bw_runsort(w: str) -> str:
    """Concatenate the runs of ``w`` in lexicographic order."""
    return "".join(sorted(bw_runs(w)))


def is_runsorted_word(w: str) -> bool:
    """Whether the runs of ``w`` are in lexicographic order: run-sorting fixes w."""
    return bw_runsort(w) == w


def run_blocks(w: str) -> list[tuple[int, int]]:
    """(zeros, ones) per run, in occurrence order."""
    return [(r.count("0"), r.count("1")) for r in bw_runs(w)]


def enumerate_runsorted_words(a: int, b: int) -> Iterator[str]:
    """
    Stream every binary word with ``a`` zeros and ``b`` ones whose runs
    appear in lexicographic order.

    With two or more runs, every run of such a word is 0^i 1^j with
    i, j >= 1 (an all-0 or all-1 run would merge into a neighbour), so the
    words correspond to multisets of such blocks; the pure words 0^a and
    1^b are the only single-run exceptions.  The blocks are appended in
    lexicographic order, which is the order of (-i, j).
    """
    if a < 0 or b < 0:
        raise ValueError("counts must be non-negative")
    if a * b == 0:
        yield "0" * a + "1" * b
        return

    def rec(word: str, rem_a: int, rem_b: int, last_i: int, last_j: int) -> Iterator[str]:
        if rem_a == rem_b == 0:
            yield word
        for i in range(min(rem_a, last_i), 0, -1):
            for j in range(last_j if i == last_i else 1, rem_b + 1):
                yield from rec(word + "0" * i + "1" * j, rem_a - i, rem_b - j, i, j)

    yield from rec("", a, b, a, 1)


def count_runsorted_words(a: int, b: int) -> int:
    return sum(1 for _ in enumerate_runsorted_words(a, b))


# ---------------------------------------------------------------------------
# Biwords
# ---------------------------------------------------------------------------

class Biword(Record):
    """
    Two-row array of column pairs (u_i, v_i): top row weakly increasing,
    and columns with equal tops sorted by weakly decreasing bottom (the
    orientation produced by reading the runs of a run-sorted word from
    lexicographically largest to smallest).

    Zero entries appear only in the degenerate one-column biwords coming
    from the pure words 0^a and 1^b; with two or more columns all entries
    are positive.  A biword is immutable and hashable.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[tuple[int, int], ...]):
        for u, v in columns:
            if u < 0 or v < 0 or (u, v) == (0, 0):
                raise ValueError(f"bad biword column {(u, v)}")
        if len(columns) > 1 and any(u == 0 or v == 0 for u, v in columns):
            raise ValueError("zero entries only allowed in one-column biwords")
        for (u1, v1), (u2, v2) in zip(columns, columns[1:]):
            if u1 > u2 or (u1 == u2 and v1 < v2):
                raise ValueError("columns out of canonical order")
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild a biword through its constructor, since
        # no attribute can be set on one
        return Biword, (self.columns,)

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
    runs = bw_runs(w)
    if "".join(sorted(runs)) != w:
        raise ValueError(f"word is not run-sorted: {w!r}")
    return Biword(tuple((r.count("0"), r.count("1")) for r in reversed(runs)))


def biword_to_word(bw: Biword) -> str:
    return "".join("0" * u + "1" * v for u, v in reversed(bw.columns))


# ---------------------------------------------------------------------------
# Reverse-complement involution and its partition fixed points
# ---------------------------------------------------------------------------

def reverse_complement(w: str) -> str:
    """Reverse the word and swap 0 <-> 1."""
    check_binary_word(w)
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
    """
    p(n), the coefficient of x^n in prod_{i <= n} 1/(1 - x^i) (independent
    of partitions()).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    p = [1] + [0] * n
    for i in range(1, n + 1):
        for x in range(i, n + 1):
            p[x] += p[x - i]
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


def z_pair_product_table(z_order: int, q_order: int, t_order: int) -> list:
    """
    Coefficients of prod_{i,j >= 0} 1/(1 - z q^i t^j) as a nested list
    indexed [z][q][t].  Unlike product_count_table this product includes
    the i = 0 and j = 0 factors, with z marking the number of columns.
    """
    if min(z_order, q_order, t_order) < 0:
        raise ValueError("orders must be non-negative")
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
    rhs = z_pair_product_table(z_order, q_order, t_order)
    lhs = [
        [[0] * (t_order + 1) for _ in range(q_order + 1)] for _ in range(z_order + 1)
    ]
    for n, layer in enumerate(lhs):
        # the joint table in (q, t), times 1/(q)_n and 1/(t)_n in place
        for a, row in enumerate(maj_pair_table(n)[:q_order + 1]):
            cut = row[:t_order + 1]
            layer[a][:len(cut)] = cut
        for i in range(1, n + 1):
            for qa in range(i, q_order + 1):
                layer[qa] = [x + y for x, y in zip(layer[qa], layer[qa - i])]
            for row in layer:
                for tb in range(i, t_order + 1):
                    row[tb] += row[tb - i]

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
    return Poly([comb(n + 1, 3) + n + 1]
                + [comb(n, 2 * k) + comb(n, 2 * k + 1) for k in range(2, n + 1)])


def expected_binary_descents(n: int) -> Fraction:
    """
    Expected number of descents after run-sorting a uniform binary word of
    length n >= 1: (n-5)/4 + (n+1)/2^n.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    return Fraction(n - 5, 4) + Fraction(n + 1, 2**n)
