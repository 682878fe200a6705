"""
Exact univariate polynomial arithmetic, sparse multivariate polynomials,
and the descent- and peak-counting polynomial families built on them.

Coefficients are Python ints or ``fractions.Fraction``; nothing here ever
rounds.  Univariate polynomials are dense (degrees stay small), the
multivariate ones are sparse maps from exponent vectors to coefficients
that are built term by term and only restricted to rays, never
multiplied.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from . import perms

Scalar = int | Fraction


def _check_exact(what: str, values: Iterable) -> None:
    """Refuse a float (or any other inexact value) among ``values`` where a
    result needs exact arithmetic."""
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"{what} {x!r} is not an int or a Fraction")


def _trim(coeffs: list[Scalar]) -> tuple[Scalar, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """
    Dense univariate polynomial; ``coeffs[i]`` is the coefficient of t^i.
    A coefficient that is not an int or a Fraction raises ValueError.

    >>> Poly([1, 11, 3]).human()
    '3t^2+11t+1'
    >>> (Poly.t() * Poly([1, 1])).coeffs
    (0, 1, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        coeffs = list(coeffs)
        _check_exact("coefficient", coeffs)
        self.coeffs = _trim(coeffs)

    @staticmethod
    def t() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.const(-other))

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Poly":
        return Poly([Fraction(c) / scalar for c in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("exponent must be non-negative")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_up(self) -> "Poly":
        """Multiply by t."""
        return Poly([0] + list(self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([Fraction(c, 1) / lead for c in self.coeffs])

    def human(self) -> str:
        """Descending-degree ASCII rendering, e.g. ``3t^2+11t+1``."""
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                v = "t" if i == 1 else f"t^{i}"
                body = v if mag == 1 else f"{mag}{v}"
            parts.append(sign + body)
        return "".join(parts)

    def to_json(self) -> list:
        """Ascending coefficient list (ints where possible, else [num, den])."""
        out: list = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                out.append(int(c) if c.denominator == 1 else [c.numerator, c.denominator])
            else:
                out.append(c)
        return out

    def __repr__(self) -> str:
        return f"Poly({self.human()})"


Monomial = tuple[tuple[int, int], ...]  # sorted ((var, exp), ...), exp >= 1


def monomial_from_set(vars_: Iterable[int]) -> Monomial:
    return tuple((v, 1) for v in sorted(vars_))


class MPoly:
    """
    Sparse multivariate polynomial over the integers (or Fractions);
    variables are indexed by positive integers.  The zero coefficient is
    never stored.  It holds terms and restricts them to a ray; it has no
    arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = c

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self) -> set[int]:
        return {v for m in self.terms for v, _ in m}

    def ray_restriction(self, lam: Sequence[Scalar]) -> Poly:
        """
        Substitute x_i -> lam[i-1] * t, giving a univariate polynomial.
        ``lam`` must cover every variable appearing here.
        """
        out: dict[int, Scalar] = {}
        for m, c in self.terms.items():
            d = 0
            for v, e in m:
                if v > len(lam):
                    raise ValueError(f"no ray weight supplied for x_{v}")
                c = c * lam[v - 1] ** e
                d += e
            out[d] = out.get(d, 0) + c
        size = max(out) + 1 if out else 0
        return Poly([out.get(i, 0) for i in range(size)])

    def to_json(self) -> list[dict]:
        items = sorted(self.terms.items())
        return [{"exponents": [list(p) for p in m], "coeff": c} for m, c in items]

    def __repr__(self) -> str:
        def mono(m):
            return "".join(f"x{v}" + (f"^{e}" if e > 1 else "") for v, e in m) or "1"

        return "MPoly(" + " + ".join(f"{c}*{mono(m)}" for m, c in sorted(self.terms.items())) + ")"


# ---------------------------------------------------------------------------
# Descent polynomials of run-sorted permutations
# ---------------------------------------------------------------------------

def run_count_triangle(n_max: int) -> list[list[int]]:
    """
    Triangle ``f[n][k-1]`` = number of run-sorted permutations of [n] with
    exactly k runs, for 1 <= n <= n_max, from the two-term recurrence
    f(n,k) = k*f(n-1,k) + (n-2)*f(n-2,k-1).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows: list[list[int]] = [[1]]  # n = 1
    if n_max >= 2:
        rows.append([1])
    for n in range(3, n_max + 1):
        width = (n + 1) // 2
        prev, prev2 = rows[n - 2], rows[n - 3]
        row = []
        for k in range(1, width + 1):
            a = prev[k - 1] if k - 1 < len(prev) else 0
            b = prev2[k - 2] if 0 <= k - 2 < len(prev2) else 0
            row.append(k * a + (n - 2) * b)
        rows.append(row)
    return rows


def runsorted_descent_poly(n: int) -> Poly:
    """
    Descent generating polynomial of the run-sorted permutations of [n]:
    coefficient of t^d counts those with d descents.
    """
    row = run_count_triangle(n)[n - 1]
    return Poly(row)  # k runs <-> k-1 descents, so the row is already aligned


def run_count_poly(n: int) -> Poly:
    """
    Run-count generating polynomial R with coefficient of t^k counting
    run-sorted permutations of [n] with k runs: k runs means k-1 descents,
    so R_n = t A_n.
    """
    return runsorted_descent_poly(n).shift_up()


def descent_multivar(n: int) -> MPoly:
    """
    Multivariate descent-set polynomial of run-sorted permutations of [n]
    with absolute descent positions: each word contributes
    prod_{j in DES} x_j.  This is the same-phase-stability test subject.

    Read off the set partitions of [N], N = n-1, through
    :func:`~rslab.bijections.partition_to_runsorted`.  With the blocks
    ordered by their minima, block sizes s_1, s_2, ... and prefix sums
    S_j, the image's descent set is {S_j : s_j >= 2}.  Block j holds the
    least element left and s_j - 1 of the N - S_{j-1} - 1 elements above
    it, so C(N - S_{j-1} - 1, s_j - 1) choices give it the same size.
    ``rows[S]`` counts the block prefixes covering S elements by descent
    set, so nothing scans a partition; Q_n has F_n (Fibonacci) terms.

    >>> descent_multivar(4)
    MPoly(1*1 + 2*x2 + 2*x3)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n - 1
    rows: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
    rows[0][()] = 1
    for start in range(size):
        left = size - start
        for s in range(1, left + 1):
            w = comb(left - 1, s - 1)
            nxt = rows[start + s]
            for des, c in rows[start].items():
                key = des + (start + s,) if s >= 2 else des
                nxt[key] = nxt.get(key, 0) + w * c
    return MPoly({monomial_from_set(des): c for des, c in rows[size].items()})


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------

def eulerian_poly(n: int) -> Poly:
    """Descent generating polynomial of all of S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    row = [1]
    for m in range(2, n + 1):
        new = [0] * m
        for k, c in enumerate(row):
            new[k] += (k + 1) * c
            new[k + 1] += (m - 1 - k) * c
        row = new
    return Poly(row)


def eulerian_multivar(n: int) -> MPoly:
    """
    Multivariate Eulerian polynomial: sum over S_n of prod_{j in DES} x_j.

    Built letter by letter (Stanley, EC1 1.4): ``rows[S][r]`` counts the
    prefixes of length i with descent set S whose last letter has rank
    r + 1 among them.  A new last letter of rank r' + 1 ascends from every
    smaller rank and descends at i from every rank >= r' + 1, so each of
    the 2^(n-1) descent sets is reached once and nothing scans S_n.
    """
    perms.check_cap(n)
    rows: dict[tuple[int, ...], list[int]] = {(): [1]}
    for i in range(1, n):
        nxt = {}
        for S, row in rows.items():
            below = [0, *itertools.accumulate(row)]
            nxt[S] = below
            nxt[S + (i,)] = [below[-1] - c for c in below]
        rows = nxt
    return MPoly({monomial_from_set(S): sum(row) for S, row in rows.items()})


# ---------------------------------------------------------------------------
# Peak polynomials
# ---------------------------------------------------------------------------

def peak_triangle(n_max: int) -> list[list[int]]:
    """
    Triangle ``b[n][k]`` = number of permutations of [n] with k peaks,
    via the insertion recurrence
    b(n,k) = (2k+2) b(n-1,k) + (n-2k) b(n-1,k-1).
    """
    rows = [[1]]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        width = (n + 1) // 2  # k ranges over 0 .. ceil(n/2)-1
        row = []
        for k in range(width):
            a = prev[k] if k < len(prev) else 0
            b = prev[k - 1] if 0 <= k - 1 < len(prev) else 0
            row.append((2 * k + 2) * a + (n - 2 * (k - 1) - 2) * b)
        rows.append(row)
    return rows


def peak_poly(n: int) -> Poly:
    """
    Peak generating polynomial of S_n: coefficient of t^k counts the
    permutations with k peaks, read off the insertion triangle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Poly(peak_triangle(n)[n - 1])


def peak_poly_by_derivative(n: int) -> Poly:
    """Oracle for :func:`peak_poly`:
    B_n = (2 + t(n-2)) B_{n-1} + 2t(1-t) B'_{n-1}."""
    b = Poly.const(1)
    t = Poly.t()
    for m in range(2, n + 1):
        b = (Poly.const(2) + (m - 2) * t) * b + 2 * t * (1 - t) * b.derivative()
    return b


def peak_poly_by_enumeration(n: int) -> Poly:
    """Oracle for :func:`peak_poly`: count the peaks of all of S_n."""
    counts: dict[int, int] = {}
    for p in perms.enumerate_sn(n):
        k = perms.peaks(p)
        counts[k] = counts.get(k, 0) + 1
    return Poly([counts.get(i, 0) for i in range(max(counts) + 1)])


def peak_multivar(n: int) -> MPoly:
    """
    Multivariate peak-value polynomial of S_n: each permutation
    contributes prod of x_v over its peak values v.

    Built by inserting the letters 1, 2, ..., n in turn, the recurrence
    behind :func:`peak_triangle`.  Inserting m into a word with peak set P:
    at either border it changes nothing; in one of the m-2-2|P| gaps next
    to no peak it adds the peak m; in either gap beside a peak p it
    replaces p by m.  That is
    B_m = (2 + (m-2) x_m) B_{m-1} + 2 x_m sum_p (1 - x_p) d/dx_p B_{m-1},
    and B_n has C(n-1, floor((n-1)/2)) terms.

    >>> peak_multivar(3)
    MPoly(4*1 + 2*x3)
    """
    perms.check_cap(n)
    counts: dict[tuple[int, ...], int] = {(): 1}
    for m in range(2, n + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for peaks, c in counts.items():
            nxt[peaks] = nxt.get(peaks, 0) + 2 * c
            free = m - 2 - 2 * len(peaks)
            if free:
                nxt[peaks + (m,)] = nxt.get(peaks + (m,), 0) + free * c
            for i in range(len(peaks)):
                key = peaks[:i] + peaks[i + 1 :] + (m,)
                nxt[key] = nxt.get(key, 0) + 2 * c
        counts = nxt
    return MPoly({monomial_from_set(peaks): c for peaks, c in counts.items()})


# the univariate families that verify_interlacing_family walks, and the
# multivariate ones of conjecture_scan with the code seeding their rays
FAMILIES = {"A": runsorted_descent_poly, "R": run_count_poly, "B": peak_poly, "E": eulerian_poly}
MULTIVAR_FAMILIES = {"Q": (descent_multivar, 1), "E": (eulerian_multivar, 2), "B": (peak_multivar, 3)}


def lookup_family(table: Mapping, name: str):
    """The entry of ``name`` in ``FAMILIES`` or ``MULTIVAR_FAMILIES``."""
    if name not in table:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(table)}")
    return table[name]
