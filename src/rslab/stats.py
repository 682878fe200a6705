"""
Expectation identities, the descent-at-position-2 counting sequence,
embedded golden sequence data, and reproducible scatter data for
run-sorted random permutations.

All expectations are exact rationals; decimals belong to the caller.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import perms
from .binwords import binary_descent_poly, maj_pair_count, product_count_table
from .polynomials import peak_poly, peak_triangle, run_count_triangle
from .prng import SplitMix64, fisher_yates


def expected_descents(n: int) -> Fraction:
    """Mean number of descents over S_n: (n-1)/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(n - 1, 2)


def expected_descents_by_enumeration(n: int) -> Fraction:
    return Fraction(sum(perms.des(p) for p in perms.enumerate_sn(n)), factorial(n))


def expected_peaks(n: int) -> Fraction:
    """Mean number of peaks over S_n: (n-2)/3 for n >= 2."""
    if n < 2:
        return Fraction(0)
    return Fraction(n - 2, 3)


def expected_peaks_three_ways(n: int) -> dict[str, Fraction]:
    """
    The same mean through three independent pipelines: direct peak
    enumeration, descents-after-runsort enumeration (equal by the peak
    transport bijection), and the peak polynomial derivative at 1.
    """
    enum_peaks = Fraction(sum(perms.peaks(p) for p in perms.enumerate_sn(n)), factorial(n))
    enum_sorted = Fraction(
        sum(perms.des(perms.runsort(p)) for p in perms.enumerate_sn(n)), factorial(n)
    )
    derivative = Fraction(peak_poly(n).derivative()(1), factorial(n))
    return {
        "formula": expected_peaks(n),
        "enumeration_peaks": enum_peaks,
        "enumeration_sorted_descents": enum_sorted,
        "poly_derivative": derivative,
    }


# ---------------------------------------------------------------------------
# Permutations whose run-sorted image descends right after position 2
# ---------------------------------------------------------------------------

def descent_at_two_sequence(n_max: int) -> list[int]:
    """
    For n = 3..n_max, the number of permutations of [n] whose run-sorted
    image has a descent at position 2, from the recurrence
    B_n = (n-1)! + (n-2) B_{n-1} with B_3 = 2.
    """
    if n_max < 3:
        return []
    out = [2]
    for n in range(4, n_max + 1):
        out.append(factorial(n - 1) + (n - 2) * out[-1])
    return out


def descent_at_two_closed(n: int) -> int:
    """Closed form (n-2)! (n+1) (n-2) / 2 for n >= 3; the product is even,
    as (n-2)! is from n = 4 on and n = 3 gives 4."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return factorial(n - 2) * (n + 1) * (n - 2) // 2


def descent_at_two_by_enumeration(n: int) -> int:
    return sum(1 for p in perms.enumerate_sn(n) if 2 in perms.descent_set(perms.runsort(p)))


# ---------------------------------------------------------------------------
# Scatter data for the run-sorted image of a random permutation
# ---------------------------------------------------------------------------

RNG_NAME = "splitmix64"


def figure_data(n: int, seed: int) -> list[tuple]:
    """
    Deterministic (i, runsort(sigma)(i)) pairs for a uniform sigma drawn
    with splitmix64-driven Fisher-Yates from ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma = fisher_yates(n, SplitMix64.seed_from(seed))
    w = perms.runsort(sigma)
    return [(i, w[i - 1]) for i in range(1, n + 1)]


def figure_csv(n: int, seed: int) -> str:
    lines = [f"# rng={RNG_NAME} seed={seed} n={n}"]
    lines.extend(f"{i},{v}" for i, v in figure_data(n, seed))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Golden sequence data (embedded; no network anywhere)
# ---------------------------------------------------------------------------

GOLDEN: dict[str, dict] = {
    # Set partitions of [n] by number of blocks of size >= 2 (rows n = 0..8,
    # ascending k).  Row n equals the run-count row of [n+1] shifted by one.
    "A124324": {
        "kind": "triangle",
        "offset": 0,
        "orientation": "ascending",
        "rows": [
            [1],
            [1],
            [1, 1],
            [1, 4],
            [1, 11, 3],
            [1, 26, 25],
            [1, 57, 130, 15],
            [1, 120, 546, 210],
            [1, 247, 2037, 1750, 105],
        ],
    },
    # Permutations of [n] by number of peaks (rows n = 1..9, ascending k;
    # note the polynomial tables print the same rows in descending order).
    "A008303": {
        "kind": "triangle",
        "offset": 1,
        "orientation": "ascending",
        "rows": [
            [1],
            [2],
            [4, 2],
            [8, 16],
            [16, 88, 16],
            [32, 416, 272],
            [64, 1824, 2880, 272],
            [128, 7680, 24576, 7936],
            [256, 31616, 185856, 137216, 7936],
        ],
    },
    # Permutations whose run-sorted image descends at position 2 (n >= 3).
    "A202365": {
        "kind": "sequence",
        "offset": 3,
        "values": [2, 10, 54, 336, 2400, 19440, 176400],
    },
    # Cake numbers: binary words of length n with no descent after
    # run-sorting.
    "A000125": {
        "kind": "sequence",
        "offset": 0,
        "values": [1, 2, 4, 8, 15, 26, 42, 64, 93, 130, 176],
    },
    # Diagonal joint major-index counts: permutations of [2k] with
    # maj = maj of inverse = k.
    "A090806": {
        "kind": "sequence",
        "offset": 0,
        "values": [1, 1, 2, 4, 9, 20],
    },
}


def golden_check(seq_id: str) -> dict:
    """Recompute a golden prefix from scratch and compare."""
    if seq_id not in GOLDEN:
        raise ValueError(f"unknown golden id {seq_id!r}; have {sorted(GOLDEN)}")
    entry = GOLDEN[seq_id]
    cross_checked = True
    if seq_id == "A124324":
        computed = [run_count_triangle(n + 1)[n] for n in range(len(entry["rows"]))]
        expected = entry["rows"]
    elif seq_id == "A008303":
        computed = peak_triangle(len(entry["rows"]))
        expected = entry["rows"]
    elif seq_id == "A202365":
        computed = descent_at_two_sequence(len(entry["values"]) + 2)
        expected = entry["values"]
    elif seq_id == "A000125":
        computed = [binary_descent_poly(n)[0] for n in range(len(entry["values"]))]
        expected = entry["values"]
    else:  # A090806
        computed = [maj_pair_count(k, k) for k in range(len(entry["values"]))]
        table = product_count_table(len(entry["values"]) - 1, len(entry["values"]) - 1)
        # the maj-pair counts must also be the product formula's diagonal
        cross_checked = computed == [table[k][k] for k in range(len(entry["values"]))]
        expected = entry["values"]
    return {
        "schema": 1,
        "id": seq_id,
        "ok": cross_checked and computed == expected,
        "computed": computed,
        "expected": expected,
    }
