"""
Constructive bijections between set partitions, run-sorted permutations,
and insertion-labelled permutations.

Two insertion bijections drive everything.  Both send a pair (a, p) with
p a permutation of [n-1] and a in {FRONT, 1, ..., n-1} to a permutation
of [n] by placing the new maximum n right after the letter a (or in front
of the word when a is FRONT):

- ``peak_insert`` tracks the plain peak-value set and needs nothing more
  than the placement itself;
- ``lex_peak_insert`` tracks the peak-value set *after run-sorting* and
  must occasionally rearrange p first (``swap_tail``, its inverse, or
  ``flip_tails``) so that the sorted peak set updates by the same clean
  five-case rule.  For each anchor that repair is an involution of
  S_{n-1}, so ``lex_peak_insert_inverse`` is the forward map on q's peel.

The case analysis for the second map, with k the letter following a in
``runsort(p)``:

1. a = FRONT                               -> sorted peaks unchanged
2. a is the last letter of runsort(p)      -> unchanged
3. a is a sorted peak value                -> a replaced by n
4. k is a sorted peak value                -> k replaced by n
5. otherwise                               -> n joins the sorted peaks

Case 4 splits on "peak admissibility" and case 5 on "slope
admissibility"; the non-admissible case-5 permutations fall into either
the swap image or one of five residual classes permuted by the
``flip_tails`` involution.  One classifier decides this three-way
branch from the runs of p, and every case-5 route takes its verdict;
the tests check its swap-image verdict against ``swap_tail_inverse``,
which builds the preimage.

One function, ``_insert_case``, decides the five cases for both maps,
on a view built once per word: the word the rule reads, its peak values,
and the letter after each letter of p.  It also gives the letter a case
turns on, and for case 5 the new run start k when a < k.

``eta`` stitches the two insertions together into an explicit bijection
of S_n that maps the peak-value set onto the sorted peak-value set while
preserving the set of run starts.  One step of the recursion takes a
parent in S_{n-1} and its image to the images of the parent's children;
it pairs the anchors of the two by the case rule's own output.
``eta`` peels one permutation by ``peak_insert_inverse`` and replays one
branch of that step per level; ``build_peak_transport`` applies it to
every entry of the table of S_{n-1} to get the table of S_n.
"""
from __future__ import annotations

import csv
from itertools import accumulate
from typing import Iterator, Sequence

from .perms import (
    CapExceeded,
    Word,
    check_cap,
    enumerate_sn,
    is_permutation,
    is_runsorted,
    peak_values,
    runs_positions,
    run_starts,
    runsorted_slope_set,
    spv,
)


class _Front:
    """Sentinel label for inserting the new maximum at the front."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FRONT"


FRONT = _Front()

Anchor = int | _Front


def anchor_labels(n: int) -> list[Anchor]:
    """The n insertion labels for building S_n out of S_{n-1}."""
    return [FRONT, *range(1, n)]


# ---------------------------------------------------------------------------
# Set partitions <-> run-sorted permutations
# ---------------------------------------------------------------------------

SetPartition = tuple[tuple[int, ...], ...]


def canonical_partition(blocks: Sequence[Sequence[int]]) -> SetPartition:
    """Sort each block and then the blocks; reject non-partitions of [n]."""
    canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
    flat = [x for b in canon for x in b]
    if any(not b for b in canon) or sorted(flat) != list(range(1, len(flat) + 1)):
        raise ValueError("blocks must partition 1..n into non-empty pieces")
    return canon


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n], in canonical form."""
    if n == 0:
        yield ()
        return

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    # blocks stay canonical automatically: each block is increasing and
    # blocks are ordered by their minima.
    yield from rec(1, [])


def parse_set_partition(text: str) -> SetPartition:
    """
    Parse "18|27|3|46|5" (single-digit shorthand, usable only when every
    element is below 10) or "1,8|2,7|3|4,6|5".  Any comma in the input
    switches the whole string to comma-separated mode.
    """
    text = text.strip()
    comma_mode = "," in text
    blocks = []
    for tok in text.split("|"):
        tok = tok.strip()
        if comma_mode:
            blocks.append([int(x) for x in tok.split(",")])
        else:
            blocks.append([int(c) for c in tok])
    return canonical_partition(blocks)


def format_set_partition(p: SetPartition) -> str:
    n = sum(len(b) for b in p)
    sep = "" if n <= 9 else ","
    return "|".join(sep.join(str(x) for x in b) for b in p)


def partition_to_runsorted(p: SetPartition) -> Word:
    """
    Rotate each block's minimum to the back, concatenate the blocks in
    canonical order, shift every letter up by one and stick a 1 in front.
    The image is exactly the set of run-sorted permutations starting at 1,
    with one run per multi-element block plus one for the leading 1.
    """
    if p != canonical_partition(p):
        raise ValueError("set partition must be canonical")
    word = [1]
    for b in p:
        word.extend(x + 1 for x in b[1:])
        word.append(b[0] + 1)
    out = tuple(word)
    if not is_runsorted(out):
        raise AssertionError("image failed to be run-sorted")
    return out


def runsorted_to_partition(sigma: Sequence[int]) -> SetPartition:
    """Inverse of :func:`partition_to_runsorted`."""
    sigma = tuple(sigma)
    if not (is_permutation(sigma) and is_runsorted(sigma) and sigma[0] == 1):
        raise ValueError("need a run-sorted permutation starting with 1")
    # the blocks come in the order of their minima, each written with its
    # minimum last, so a block ends at the least letter not yet placed:
    # at each letter below every letter after it
    w = [v - 1 for v in sigma[1:]]
    least_from = list(accumulate(reversed(w), min))[::-1]
    blocks, start = [], 0
    for j, x in enumerate(w):
        if x == least_from[j]:
            blocks.append(w[start : j + 1])
            start = j + 1
    out = canonical_partition(blocks)
    if partition_to_runsorted(out) != sigma:
        raise AssertionError(f"round trip failed for {sigma}")
    return out


def partition_descents(p: SetPartition) -> set[int]:
    """
    Descent set of ``partition_to_runsorted(p)`` read straight off the
    partition: the positions of the last letters of the blocks of size
    two or more, inside the plain block concatenation.
    """
    out = set()
    pos = 0
    for b in p:
        pos += len(b)
        if len(b) >= 2:
            out.add(pos)
    return out


# ---------------------------------------------------------------------------
# Insertion maps
# ---------------------------------------------------------------------------

def insert_after(a: Anchor, p: Sequence[int]) -> Word:
    """Insert n = len(p)+1 right after the letter a, or at the front."""
    p = tuple(p)
    n = len(p) + 1
    if isinstance(a, _Front):
        return (n,) + p
    i = p.index(a)
    return p[: i + 1] + (n,) + p[i + 1 :]


CaseView = tuple[Word, set[int], dict[int, int | None]]


def _case_view(kind: str, p: Word) -> CaseView:
    """
    Everything the five-case rule reads for the anchors of p: the word w
    it reads, with its peak values, where w = p for kind = "peaks"
    (``peak_insert``) and w = runsort(p) for kind = "sorted"
    (``lex_peak_insert``); and the letter after each letter of p (None
    after the last one).
    """
    if kind not in ("peaks", "sorted"):
        raise ValueError("kind must be 'peaks' or 'sorted'")
    if kind == "sorted":
        return _sorted_view(p, _lex_runs(p))
    return p, peak_values(p), dict(zip(p, p[1:] + (None,)))


def _insert_case(a: Anchor, view: CaseView) -> tuple[int, int | None]:
    """
    The five-case rule of the insertion maps on ``view = _case_view(kind,
    p)``, together with the letter the case turns on: a for case 3, the
    traded peak value for case 4, and for case 5 the letter k after a in p
    when a < k (k then starts a new run of the image), None otherwise.

    Case 4 trades the letter after a in w, which is also the letter after a
    in p: a run start is never a peak of runsort(p).
    """
    if isinstance(a, _Front):
        return 1, None
    w, peaks, after = view
    if a == w[-1]:
        return 2, None
    if a in peaks:
        return 3, a
    if a not in after:
        raise ValueError(f"anchor {a} is not a letter of the word")
    k = after[a]
    if k in peaks:
        return 4, k
    return 5, (k if k is not None and a < k else None)


def peak_insert(a: Anchor, p: Sequence[int]) -> tuple[Word, int]:
    """
    Insert the new maximum after a and report which of the five cases
    applies for the plain peak-value update.
    """
    p = tuple(p)
    return insert_after(a, p), _insert_case(a, _case_view("peaks", p))[0]


def peak_insert_inverse(q: Sequence[int]) -> tuple[Anchor, Word]:
    q = tuple(q)
    n = len(q)
    i = q.index(n)
    a: Anchor = FRONT if i == 0 else q[i - 1]
    return a, q[:i] + q[i + 1 :]


LexRuns = list[tuple[Word, int, int]]


def _lex_runs(p: Word) -> LexRuns:
    """(run word, start, stop) triples sorted lexicographically by word."""
    return sorted([(p[s:e], s, e) for s, e in runs_positions(p)])


def _joined(rr: LexRuns) -> Word:
    """runsort(p), read off ``rr = _lex_runs(p)``."""
    return tuple([x for w, _, _ in rr for x in w])


def _sorted_view(p: Word, rr: LexRuns) -> CaseView:
    """``_case_view("sorted", p)`` read off ``rr = _lex_runs(p)``."""
    w = _joined(rr)
    return w, peak_values(w), dict(zip(p, p[1:] + (None,)))


def is_peak_admissible(p: Sequence[int], a: int) -> bool:
    """
    For a immediately preceding a sorted peak value k of p: does inserting
    the new maximum after a simply trade k for it in the sorted peak set?
    Characterised by the lexicographically largest run starting below k:
    admissible iff that run ends below k, or ends beyond the next run's
    start.
    """
    p = tuple(p)
    rr = _lex_runs(p)
    case, k = _insert_case(a, _sorted_view(p, rr))
    if case != 4:
        raise ValueError("needs the letter after a to be a sorted peak value")
    return _peak_admissible(k, rr)


def _peak_admissible(k: int, rr: LexRuns) -> bool:
    """``is_peak_admissible`` for the traded sorted peak k, on the
    caller's ``_lex_runs(p)``."""
    starts = [w[0] for w, _, _ in rr]
    ends = [w[-1] for w, _, _ in rr]
    m = max(j for j in range(len(rr)) if starts[j] < k)
    if ends[m] < k:
        return True
    return m < len(rr) - 1 and ends[m] > starts[m + 1]


def peak_admissible_by_definition(p: Sequence[int], a: int) -> bool:
    """The defining condition itself, used as the oracle in verification."""
    p = tuple(p)
    i = p.index(a)
    n = len(p) + 1
    return spv(insert_after(a, p)) == (spv(p) - set(p[i + 1 : i + 2])) | {n}


def swap_tail(a: int, p: Sequence[int]) -> Word:
    """
    For a non-peak-admissible pair: split the lexicographically largest
    run straddling k (the letter after a) at value k, and reattach its
    upper part right after k.  Composing with ``insert_after`` then trades
    k for the new maximum in the sorted peak set.
    """
    p = tuple(p)
    rr = _lex_runs(p)
    case, k = _insert_case(a, _sorted_view(p, rr))
    if case != 4:
        raise ValueError("swap_tail: letter after a must be a sorted peak value")
    if _peak_admissible(k, rr):
        raise ValueError("swap_tail: pair is peak admissible, nothing to fix")
    return _swap_tail(p, k, rr)


def _swap_tail(p: Word, k: int, rr: LexRuns) -> Word:
    """``swap_tail`` on the caller's ``rr = _lex_runs(p)``, for the letter
    k after a once k is known to be a sorted peak value of a pair that is
    not peak admissible."""
    straddle = [(w, s, e) for w, s, e in rr if w[0] < k < w[-1]]
    word, s, e = max(straddle, key=lambda t: t[0][0])
    cut = s
    while p[cut] < k:
        cut += 1
    upper = list(p[cut:e])
    rest = list(p[:cut]) + list(p[e:])
    pos_k = rest.index(k)
    return tuple(rest[: pos_k + 1] + upper + rest[pos_k + 1 :])


def swap_tail_inverse(a: int, p: Sequence[int]) -> Word | None:
    """
    Recover the unique preimage under ``swap_tail`` with the same anchor,
    or None when p is not in the swap image for a.
    """
    p = tuple(p)
    i = p.index(a)
    if i + 1 >= len(p) or p[i + 1] < a:
        return None
    sigma = _swap_tail_inverse(a, p, _lex_runs(p))
    if sigma is None:
        return None
    try:
        # swap_tail raises unless k is a sorted peak of sigma and the pair
        # is not peak admissible
        if sigma[sigma.index(a) + 1] == p[i + 1] and swap_tail(a, sigma) == p:
            return sigma
    except (IndexError, ValueError):
        return None
    return None


def _swap_tail_inverse(a: int, p: Word, rr: LexRuns) -> Word | None:
    """The one candidate preimage of p under ``swap_tail``, on the caller's
    ``rr = _lex_runs(p)``, for a followed in p by a larger letter, or None
    when there is none.  It is the preimage whenever p is in the swap image
    for a (the case-5 verdict None); otherwise ``swap_tail_inverse``
    confirms it."""
    i = p.index(a)
    k = p[i + 1]
    a_run = next((w, s, e) for w, s, e in rr if s <= i < e)
    _, s, e = a_run
    if i + 2 >= e:
        return None  # nothing after k inside the run
    upper = list(p[i + 2 : e])
    below = [(w, s2, e2) for w, s2, e2 in rr if w[0] < k and (s2, e2) != (s, e)]
    if not below:
        return None
    g1 = max(below)
    if g1[0][-1] >= k:
        return None
    rest = list(p[: i + 2]) + list(p[e:])
    pos = rest.index(g1[0][-1])
    return tuple(rest[: pos + 1] + upper + rest[pos + 1 :])


def _case5_class(p: Word, a: int, rr: LexRuns) -> int | None:
    """
    The case-5 verdict for a in slope_set(p), on the caller's
    ``rr = _lex_runs(p)``: 0 when the pair is slope admissible, the
    residual class 1..5, or None when p lies in the swap image for a.

    Outside the slope set a ends its run or precedes its run's last
    letter k, so the verdict is 0 or None: every residual class needs a
    letter above k in a's run.  A verdict 1..5 alone marks a residual pair.
    """
    i = p.index(a)
    aidx = next(j for j, (w, s, e) in enumerate(rr) if s <= i < e)
    word, s, e = rr[aidx]
    if i == e - 1 or aidx == len(rr) - 1:
        return 0  # a ends its run, or a's run is lexicographically largest
    k = p[i + 1]
    if k < rr[aidx + 1][0][0]:
        return 0  # the next run starts above k
    top = word[-1]
    above = [j for j, (w, _, _) in enumerate(rr) if w[0] > k]
    if not above:
        return 1 if rr[-1][0][-1] > k and top > k else None
    m1 = min(above)
    em, sm1 = rr[m1 - 1][0][-1], rr[m1][0][0]
    if top > sm1 and (em < k) == (em < sm1):
        return 0
    if k < top < em < sm1:
        return 2
    if k < em < top < sm1:
        return 3
    if k < top < sm1 < em:
        return 4
    if k < em < sm1 < top:
        return 5
    return None


def is_slope_admissible(p: Sequence[int], a: int) -> bool:
    """
    For a in slope_set(p): does inserting the new maximum after a leave
    every sorted peak in place and just add the new letter?  Four
    sufficient-and-exhaustive structural cases on the runs of p.
    """
    p = tuple(p)
    rr = _lex_runs(p)
    if a not in runsorted_slope_set(_joined(rr)):
        raise ValueError("a must lie in the slope set")
    return _case5_class(p, a, rr) == 0


def slope_admissible_by_definition(p: Sequence[int], a: int) -> bool:
    p = tuple(p)
    n = len(p) + 1
    return spv(insert_after(a, p)) == spv(p) | {n}


def residual_class(p: Sequence[int], a: int) -> int:
    """
    Classify a case-5 pair that is neither slope admissible nor in the
    swap image into one of five residual classes (1..5), read off from
    the run straddling k with the largest start.  The classes are pairwise
    disjoint and ``flip_tails`` fixes class 1 setwise while exchanging
    2 <-> 3 and 4 <-> 5.  Any other pair raises ValueError.
    """
    p = tuple(p)
    cls = _case5_class(p, a, _lex_runs(p))
    if not cls:
        raise ValueError("pair is not residual: outside the slope set, "
                         "slope admissible or in the swap image")
    return cls


def residual_census(n: int, a: int) -> dict[int, list[Word]]:
    """
    All permutations of [n] falling in each residual class for the anchor
    a in 1..n (relative to inserting n+1), in lexicographic order.

    Every residual class needs a < k < (the letter after k) with k the
    letter after a in p, so the runs of p are read only when that holds.
    """
    if not 1 <= a <= n:
        raise ValueError(f"anchor must lie in 1..{n}")
    out: dict[int, list[Word]] = {1: [], 2: [], 3: [], 4: [], 5: []}
    for p in enumerate_sn(n):
        i = p.index(a)
        if i + 2 < n and a < p[i + 1] < p[i + 2]:
            cls = _case5_class(p, a, _lex_runs(p))
            if cls:
                out[cls].append(p)
    return out


def flip_tails(a: int, p: Sequence[int]) -> Word:
    """
    Exchange two segments of p: the part of a's run above k together with
    the chain of runs after it starting above e_m, and the part of the
    straddling run above k together with the chain of runs after it
    starting above l.  An involution on the residual classes; composing
    with ``insert_after`` adds the new maximum to the sorted peak set.
    """
    p = tuple(p)
    rr = _lex_runs(p)
    if not _case5_class(p, a, rr):
        raise ValueError(f"{a} is not a residual anchor for {p}")
    return _flip_tails(a, p, rr)


def _flip_tails(a: int, p: Word, rr: LexRuns) -> Word:
    """``flip_tails`` on the caller's ``rr = _lex_runs(p)``, for a residual
    anchor a."""
    ends = {s: e for _, s, e in rr}
    i = p.index(a)
    k = p[i + 1]
    a_run = next((w, s, e) for w, s, e in rr if s <= i < e)
    straddle = [
        (w, s, e)
        for w, s, e in rr
        if w[0] < k < w[-1] and (s, e) != (a_run[1], a_run[2])
    ]
    gw, gs, ge = max(straddle, key=lambda t: t[0][0])
    em = gw[-1]
    top = a_run[0][-1]
    if top <= k:
        raise AssertionError("residual pair must have letters above k in a's run")

    def chain_end(stop: int, threshold: int) -> int:
        """Last position of the maximal chain of runs after the run ending
        at stop whose first letters all exceed threshold."""
        while stop in ends and p[stop] > threshold:
            stop = ends[stop]
        return stop

    s1_start, s1_stop = i + 2, chain_end(a_run[2], em)
    cut = gs
    while p[cut] < k:
        cut += 1
    s2_start, s2_stop = cut, chain_end(ge, top)
    if not (s1_stop <= s2_start or s2_stop <= s1_start):
        raise AssertionError("flip segments overlap")
    seg1 = list(p[s1_start:s1_stop])
    seg2 = list(p[s2_start:s2_stop])
    out = list(p)
    if s1_start < s2_start:
        out = out[:s1_start] + seg2 + out[s1_stop:s2_start] + seg1 + out[s2_stop:]
    else:
        out = out[:s2_start] + seg1 + out[s2_stop:s1_start] + seg2 + out[s1_stop:]
    return tuple(out)


def lex_peak_insert(a: Anchor, p: Sequence[int]) -> tuple[Word, int]:
    """
    The sorted-peak analogue of ``peak_insert``: returns the image in
    S_{len(p)+1} together with its case label 1..5.
    """
    p = tuple(p)
    rr = _lex_runs(p)
    return _lex_insert(a, p, rr, _sorted_view(p, rr))


def _lex_insert(a: Anchor, p: Word, rr: LexRuns, view: CaseView) -> tuple[Word, int]:
    """``lex_peak_insert`` on the caller's ``rr = _lex_runs(p)`` and
    ``view = _sorted_view(p, rr)``."""
    case, k = _insert_case(a, view)
    if case == 4 and not _peak_admissible(k, rr):
        p = _swap_tail(p, k, rr)
    elif case == 5:
        cls = _case5_class(p, a, rr)
        if cls is None:
            p = _swap_tail_inverse(a, p, rr)
        elif cls:
            p = _flip_tails(a, p, rr)
    return insert_after(a, p), case


def lex_peak_insert_inverse(q: Sequence[int]) -> tuple[Anchor, Word]:
    """
    Invert ``lex_peak_insert``.  For each anchor its repair of p is an
    involution: ``swap_tail`` and ``_swap_tail_inverse`` exchange the
    non-admissible case-4 pairs with the swap image, ``flip_tails`` is an
    involution on the residual classes, and every other p stays fixed.  So
    the preimage is the forward repair of q's peel, under one round trip.

    >>> lex_peak_insert_inverse((5, 2, 6, 9, 7, 4, 3, 1, 8))
    (6, (5, 2, 6, 7, 4, 3, 1, 8))
    """
    q = tuple(q)
    if not is_permutation(q):
        raise ValueError(f"not a permutation: {q}")
    a, p = peak_insert_inverse(q)
    if isinstance(a, _Front):
        return a, p
    p = peak_insert_inverse(lex_peak_insert(a, p)[0])[1]
    if lex_peak_insert(a, p)[0] != q:
        raise AssertionError(f"round trip failed for {q}")
    return a, p


def run_start_case(kind: str, a: Anchor, p: Sequence[int]) -> tuple[int, set[int]]:
    """
    Case label and predicted run-start set of the image, for
    kind = "peaks" (plain insertion) or "sorted" (lex insertion).  The
    letter k in the rule is always the successor of a inside p itself:

    1 -> add n; 2, 3 -> unchanged; 4 -> add k; 5 -> add k iff a < k.
    """
    p = tuple(p)
    rs = run_starts(p)
    case, k = _insert_case(a, _case_view(kind, p))
    if case == 1:
        return case, rs | {len(p) + 1}
    if case >= 4 and k is not None:
        return case, rs | {k}
    return case, rs


# ---------------------------------------------------------------------------
# The peak-transport bijection
# ---------------------------------------------------------------------------

TRANSPORT_CAP = 9


def _anchor_matching(sig: Word, img: Word, img_view: CaseView) -> dict[Anchor, Anchor]:
    """
    Match the insertion labels of sig (plain insertion) with those of its
    image img (lex insertion, read on ``img_view``, its sorted view):
    bucket both by the case rule's own output, (case, letter), and pair
    them inside each bucket by increasing anchor, which makes the matching
    deterministic.  Cases 1 and 2 are singletons; cases 3 and 4 agree on
    the peak value traded; case 5 splits on the new run start, as in
    ``run_start_case``.  Buckets of unequal size would mean the invariants
    are broken, and raise immediately.
    """
    left: dict[tuple, list[Anchor]] = {}
    right: dict[tuple, list[Anchor]] = {}
    sig_view = _case_view("peaks", sig)
    for a in anchor_labels(len(sig) + 1):
        left.setdefault(_insert_case(a, sig_view), []).append(a)
        right.setdefault(_insert_case(a, img_view), []).append(a)
    if {key: len(v) for key, v in left.items()} != {key: len(v) for key, v in right.items()}:
        raise AssertionError(
            f"internal invariant violation: anchor buckets differ "
            f"for {sig} -> {img}: {left} vs {right}"
        )
    return {a: a2 for key, lhs in left.items() for a, a2 in zip(lhs, right[key])}


def _transport_step(
    parent: Word, image: Word, anchors: Sequence[Anchor]
) -> Iterator[tuple[Word, Word]]:
    """
    One step of the insertion recursion: the children
    ``insert_after(a, parent)`` for a in ``anchors``, each with its image
    under the transport, given ``image``, the image of ``parent``.  The
    image's runs are sorted, and the anchors matched, once for all of them.
    """
    rr = _lex_runs(image)
    view = _sorted_view(image, rr)
    matching = _anchor_matching(parent, image, view)
    for a in anchors:
        yield insert_after(a, parent), _lex_insert(matching[a], image, rr, view)[0]


def eta(sigma: Sequence[int]) -> Word:
    """
    The peak transport of one permutation: a bijection of S_n sending the
    peak-value set of sigma to the sorted peak-value set of its image while
    preserving the run-start set.

    sigma is peeled by ``peak_insert_inverse`` down to (1); the walk back
    up inserts each anchor into the image by ``lex_peak_insert``, after
    matching it inside its bucket against the image's anchors.

    >>> eta((6, 4, 1, 3, 2, 5, 7))
    (6, 7, 4, 5, 1, 3, 2)
    """
    parent = tuple(sigma)
    if not is_permutation(parent):
        raise ValueError(f"not a permutation: {parent}")
    anchors: list[Anchor] = []
    while len(parent) > 1:
        a, parent = peak_insert_inverse(parent)
        anchors.append(a)
    image = parent
    for a in reversed(anchors):
        [(parent, image)] = _transport_step(parent, image, [a])
    return image


def build_peak_transport(n: int) -> dict[Word, Word]:
    """
    The table {sigma: eta(sigma)} over S_n, in ``enumerate_sn`` order,
    built level by level: the table of S_m holds the children of each
    entry of the table of S_{m-1}.  The table holds n! entries, so it
    stops at n = TRANSPORT_CAP whatever the general cap.
    """
    if n > TRANSPORT_CAP:
        raise CapExceeded(f"refusing to enumerate S_{n}: cap is {TRANSPORT_CAP} "
                          "(this route holds n! objects in memory)")
    check_cap(n)
    table = {(1,): (1,)}
    for m in range(2, n + 1):
        table = {child: img for parent, image in table.items()
                 for child, img in _transport_step(parent, image, anchor_labels(m))}
    return {sig: table[sig] for sig in enumerate_sn(n)}


def transport_to_csv(table: dict[Word, Word], path: str) -> None:
    """Write the table as two comma-separated one-line words per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "image"])
        for sig in sorted(table):
            writer.writerow([
                " ".join(map(str, sig)),
                " ".join(map(str, table[sig])),
            ])
