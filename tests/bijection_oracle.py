"""
Checked routes around the lex insertion that the library does not need:
the preimage under ``swap_tail`` confirmed by a round trip, the residual
class of a pair, and the run-start set the case rule predicts.  The tests
check the library's one case-5 classifier and the transport's anchor
matching against them.  The file name keeps pytest from collecting it.
"""
from typing import Sequence

from rslab import bijections as bj
from rslab.perms import Word, run_starts


def swap_tail_inverse(a: int, p: Sequence[int]) -> Word | None:
    """
    Recover the unique preimage under ``swap_tail`` with the same anchor,
    or None when p is not in the swap image for a.
    """
    p = tuple(p)
    i = p.index(a)
    if i + 1 >= len(p) or p[i + 1] < a:
        return None
    sigma = bj._swap_tail_inverse(a, p, bj._lex_runs(p))
    if sigma is None:
        return None
    try:
        # swap_tail raises unless k is a sorted peak of sigma and the pair
        # is not peak admissible
        if sigma[sigma.index(a) + 1] == p[i + 1] and bj.swap_tail(a, sigma) == p:
            return sigma
    except (IndexError, ValueError):
        return None
    return None


def residual_class(p: Sequence[int], a: int) -> int:
    """
    Classify a case-5 pair that is neither slope admissible nor in the
    swap image into one of five residual classes (1..5), read off from
    the run straddling k with the largest start.  The classes are pairwise
    disjoint and ``flip_tails`` fixes class 1 setwise while exchanging
    2 <-> 3 and 4 <-> 5.  Any other pair raises ValueError.
    """
    p = tuple(p)
    cls = bj._case5_class(p, a, bj._lex_runs(p))
    if not cls:
        raise ValueError("pair is not residual: outside the slope set, "
                         "slope admissible or in the swap image")
    return cls


def run_start_case(kind: str, a: bj.Anchor, p: Sequence[int]) -> tuple[int, set[int]]:
    """
    Case label and predicted run-start set of the image, for
    kind = "peaks" (plain insertion) or "sorted" (lex insertion).  The
    letter k in the rule is always the successor of a inside p itself:

    1 -> add n; 2, 3 -> unchanged; 4 -> add k; 5 -> add k iff a < k.
    """
    p = tuple(p)
    if kind == "peaks":
        view = bj._peaks_view(p)
    elif kind == "sorted":
        view = bj._sorted_view(p, bj._lex_runs(p))
    else:
        raise ValueError("kind must be 'peaks' or 'sorted'")
    rs = run_starts(p)
    case, k = bj._insert_case(a, view)
    if case == 1:
        return case, rs | {len(p) + 1}
    if case >= 4 and k is not None:
        return case, rs | {k}
    return case, rs
