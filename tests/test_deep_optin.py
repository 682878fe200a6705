"""
Opt-in deeper exhaustive tier: set RSLAB_DEEP=1 to run (minutes, not
seconds).  The default tier stops at n = 8; these push the headline
identities to n in {9, 10}.
"""
import math
import os
from collections import Counter

import pytest

from rslab import bijections as bj
from rslab import perms

deep = pytest.mark.skipif(
    os.environ.get("RSLAB_DEEP") != "1",
    reason="deep tier: set RSLAB_DEEP=1 to enable",
)


@deep
def test_peak_count_corollary_n10():
    lhs = Counter(perms.peaks(p) for p in perms.enumerate_sn(10))
    rhs = Counter(perms.des(perms.runsort(p)) for p in perms.enumerate_sn(10))
    assert lhs == rhs


@deep
def test_lex_insert_bijective_n9():
    import itertools

    n = 9
    seen = set()
    for p in itertools.permutations(range(1, n)):
        for a in bj.anchor_labels(n):
            q, case = bj.lex_peak_insert(a, p)
            assert q not in seen
            seen.add(q)
            assert bj.lex_peak_insert_inverse(q) == (a, p)
            if case == 5:
                assert perms.spv(q) == perms.spv(p) | {n}
    assert len(seen) == math.factorial(n)


@deep
def test_descent_at_two_enumeration_n10():
    from rslab import stats as st

    assert st.descent_at_two_by_enumeration(10) == st.descent_at_two_closed(10)
