"""
Words, permutations, their run decompositions, and scalar/set statistics.

Conventions used throughout the package:

- A *permutation* of [n] is a tuple of the integers 1..n in one-line
  notation, e.g. ``(2, 9, 7, 3, 6, 8, 5, 1, 4)``.  Positions and values
  are both 1-based.
- A *word* is any tuple of non-negative integers (letters may repeat).
  Every permutation is a word.
- A *run* is a maximal weakly increasing contiguous segment of a word.
  For a permutation the letters are distinct, so runs are strictly
  increasing.  A word with exactly d descents has d+1 runs.
- ``runsort`` rearranges the runs of a word into lexicographic order
  (standard word order on integer sequences, a proper prefix sorting
  before its extensions).

All functions are pure and all values immutable, so everything here is
safe to use from multiple threads.  ``enumerate_sn`` streams S_n and
never materialises n! objects at once; ``enumerate_runsorted`` builds its
Bell(n-1) words in a list, through the set-partition bijection.  Every
exhaustive route in the package refuses sizes above one cap, enforced by
``check_cap``.
"""
from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

#: Default size cap of the exhaustive routes; override with RSLAB_MAX_N.
DEFAULT_MAX_N = 11


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""


def is_permutation(word: Sequence[int]) -> bool:
    """
    True if ``word`` is a rearrangement of 1..n.

    >>> is_permutation((2, 1, 3)), is_permutation((1, 1, 2)), is_permutation(())
    (True, False, False)
    """
    n = len(word)
    return n >= 1 and sorted(word) == list(range(1, n + 1))


def runs_positions(word: Sequence[int]) -> list[tuple[int, int]]:
    """
    Index ranges ``(start, stop)`` of the maximal weakly increasing
    segments of ``word``, in occurrence order (0-based, half open).
    """
    if len(word) == 0:
        raise ValueError("the empty word has no run decomposition")
    out = []
    start = 0
    for i in range(1, len(word)):
        if word[i] < word[i - 1]:
            out.append((start, i))
            start = i
    out.append((start, len(word)))
    return out


def runs(word: Sequence[int]) -> list[Word]:
    """
    The runs of a word, in occurrence order.

    >>> runs((1, 5, 2, 6, 7, 3, 4))
    [(1, 5), (2, 6, 7), (3, 4)]
    >>> runs((1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1))
    [(1,), (0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1, 1)]
    """
    w = tuple(word)
    return [w[a:b] for a, b in runs_positions(w)]


def runsort(word: Sequence[int]) -> Word:
    """
    Concatenate the runs of ``word`` in lexicographic order.

    >>> runsort((2, 9, 7, 3, 6, 8, 5, 1, 4))
    (1, 4, 2, 9, 3, 6, 8, 5, 7)
    """
    return tuple(itertools.chain.from_iterable(sorted(runs(word))))


def is_runsorted(word: Sequence[int]) -> bool:
    """True if the runs of ``word`` already appear in lexicographic order."""
    rr = runs(word)
    return all(rr[i] <= rr[i + 1] for i in range(len(rr) - 1))


def descent_set(word: Sequence[int]) -> set[int]:
    """
    Positions k (1-based) with ``word[k] > word[k+1]``.

    >>> sorted(descent_set((1, 5, 2, 6, 7, 3, 4)))
    [2, 5]
    """
    return {k + 1 for k in range(len(word) - 1) if word[k] > word[k + 1]}


def des(word: Sequence[int]) -> int:
    """Number of descents."""
    return sum(1 for k in range(len(word) - 1) if word[k] > word[k + 1])


def maj(word: Sequence[int]) -> int:
    """Major index: the sum of the descent positions."""
    return sum(k + 1 for k in range(len(word) - 1) if word[k] > word[k + 1])


def inversions(word: Sequence[int]) -> int:
    """Number of pairs i < j with ``word[i] > word[j]`` (O(n^2) scan)."""
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def peak_positions(word: Sequence[int]) -> set[int]:
    """Interior positions i (1-based) with a strict rise into i and fall after."""
    return {
        i + 1
        for i in range(1, len(word) - 1)
        if word[i - 1] < word[i] > word[i + 1]
    }


def peak_values(word: Sequence[int]) -> set[int]:
    """
    Letters sitting at peak positions.

    >>> sorted(peak_values((1, 3, 7, 4, 6, 2, 5)))
    [6, 7]
    """
    return {
        word[i]
        for i in range(1, len(word) - 1)
        if word[i - 1] < word[i] > word[i + 1]
    }


def peaks(word: Sequence[int]) -> int:
    return len(peak_positions(word))


def spv(perm: Sequence[int]) -> set[int]:
    """
    Peak values of ``runsort(perm)`` ("sorted peak values").

    >>> sorted(spv((5, 2, 6, 7, 4, 3, 1, 8)))
    [7, 8]
    """
    return peak_values(runsort(perm))


def run_starts(word: Sequence[int]) -> set[int]:
    """
    The set of letters that begin a run.

    >>> sorted(run_starts((6, 4, 1, 3, 2, 5)))
    [1, 2, 4, 6]
    """
    w = tuple(word)
    return {w[a] for a, _ in runs_positions(w)}


def slope_set(perm: Sequence[int]) -> set[int]:
    """
    Letters a of ``perm`` such that inserting a new maximum right after a
    in ``runsort(perm)`` turns it into a peak while every existing peak
    survives.

    Concretely: writing w = runsort(perm), a qualifies iff a is not the
    last letter of its run of w, and, when that run is not the last run
    of w, a is not the second-to-last letter either.

    >>> sorted(slope_set((2, 5, 6, 1, 7, 3, 4)))
    [2, 3]
    >>> sorted(slope_set((4, 3, 1, 2, 6, 5, 7)))
    [1, 3, 4, 5]
    """
    return runsorted_slope_set(runsort(perm))


def runsorted_slope_set(w: Sequence[int]) -> set[int]:
    """
    ``slope_set`` read off a run-sorted word w in one pass: keep w[j] when
    w[j] < w[j+1] and either w[j+1] ends w or w[j+1] < w[j+2].
    """
    n = len(w)
    return {
        w[j]
        for j in range(n - 1)
        if w[j] < w[j + 1] and (j + 2 == n or w[j + 1] < w[j + 2])
    }


def standardize(word: Sequence[int]) -> Word:
    """
    Order-isomorphic permutation of [len(word)]; letters must be distinct.

    >>> standardize((2, 9, 8, 3, 4, 7))
    (1, 6, 5, 2, 3, 4)
    """
    if len(set(word)) != len(word):
        raise ValueError("standardize needs distinct letters")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def inverse(perm: Sequence[int]) -> Word:
    """The inverse permutation in one-line notation."""
    out = [0] * len(perm)
    for pos, v in enumerate(perm):
        out[v - 1] = pos + 1
    return tuple(out)


def check_cap(n: int) -> None:
    """The one size guard of every exhaustive route: refuse n above the
    cap (default 11, env var RSLAB_MAX_N) so a typo cannot silently start
    a computation that grows faster than any power of n."""
    cap = int(os.environ.get("RSLAB_MAX_N", DEFAULT_MAX_N))
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise CapExceeded(f"refusing n={n}: cap is {cap} (raise RSLAB_MAX_N to override)")


def enumerate_sn(n: int) -> Iterator[Word]:
    """Stream all n! permutations of [n] in lexicographic order."""
    check_cap(n)
    return iter(itertools.permutations(range(1, n + 1)))


def enumerate_runsorted(n: int) -> list[Word]:
    """The permutations of [n] fixed by runsort, in lexicographic order:
    the images of the Bell(n-1) set partitions of [n-1] (each one starts
    with 1)."""
    from .bijections import enumerate_set_partitions, partition_to_runsorted  # imports perms

    check_cap(n)
    return sorted(partition_to_runsorted(p) for p in enumerate_set_partitions(n - 1))


# Serialisation --------------------------------------------------------------

def parse_perm(text: str) -> Word:
    """
    Parse "2,9,7,3,6,8,5,1,4"; a bare digit string like "297368514" is
    accepted when every value is a single digit.
    """
    text = text.strip()
    if "," in text:
        vals = tuple(int(part) for part in text.split(","))
    else:
        vals = tuple(int(c) for c in text)
    if not is_permutation(vals):
        raise ValueError(f"not a permutation of 1..{len(vals)}: {text!r}")
    return vals


def format_perm(perm: Sequence[int]) -> str:
    return ",".join(str(v) for v in perm)


def format_int_set(values: Iterable[int]) -> str:
    """Render a set of integers as "{1,2,6}" (sorted, brace delimited)."""
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"
