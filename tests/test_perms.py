"""Core word/permutation statistics."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab import perms

P = lambda s: tuple(int(c) for c in s)


def test_runs_examples():
    assert perms.runs(P("1526734")) == [(1, 5), (2, 6, 7), (3, 4)]
    assert perms.runs(tuple(range(1, 9))) == [tuple(range(1, 9))]
    assert perms.runs((1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)) == [
        (1,),
        (0, 1, 1),
        (0, 1, 1, 1),
        (0, 0, 0, 1, 1),
    ]


def test_runs_rejects_empty():
    with pytest.raises(ValueError):
        perms.runs(())


def test_runsort_examples():
    assert perms.runsort(P("297368514")) == P("142936857")
    assert perms.runsort((1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)) == tuple(
        int(c) for c in "0001101101111"
    )
    for p in perms.enumerate_runsorted(5):
        assert perms.runsort(p) == p


def test_descents():
    assert perms.descent_set(P("1526734")) == {2, 5}
    assert perms.descent_set(tuple(range(1, 7))) == set()
    # recompute, never trust a transcribed value: direct scan
    assert perms.descent_set(P("136924857")) == {4, 7}
    assert perms.des(P("1526734")) == 2


def test_peaks():
    assert perms.peak_values(P("1374625")) == {7, 6}
    assert perms.peak_positions(P("1374625")) == {3, 5}
    assert perms.peak_values(tuple(range(1, 9))) == set()
    assert perms.spv(P("52674318")) == {7, 8}
    assert perms.spv(P("38256714")) == {4, 7}
    # derived with the oracle (runsort then scan): runsort(641325) = 132546
    assert perms.runsort(P("641325")) == P("132546")
    assert perms.spv(P("641325")) == {3, 5}
    assert perms.spv(tuple(range(1, 8))) == set()


def test_run_starts():
    assert perms.run_starts(P("641325")) == {1, 2, 4, 6}
    assert perms.run_starts(tuple(range(1, 6))) == {1}
    assert perms.run_starts(P("2561734")) == {1, 2, 3}


def test_slope_set_examples():
    assert perms.slope_set(P("2561734")) == {2, 3}
    assert perms.slope_set(P("4312657")) == {1, 3, 4, 5}
    # single-run word: only the final letter is excluded
    assert perms.slope_set(tuple(range(1, 7))) == set(range(1, 6))


def _slope_set_from_runs(perm):
    """The run-by-run reading of the slope set, kept as the oracle."""
    rr = perms.runs(perms.runsort(perm))
    out = set()
    for idx, r in enumerate(rr):
        last_run = idx == len(rr) - 1
        for pos, v in enumerate(r):
            if pos == len(r) - 1:
                continue
            if not last_run and pos == len(r) - 2:
                continue
            out.add(v)
    return out


def test_slope_set_equals_run_reading():
    for m in range(1, 9):
        for p in itertools.permutations(range(1, m + 1)):
            assert perms.slope_set(p) == _slope_set_from_runs(p), p


def test_standardize():
    assert perms.standardize((3, 8, 5)) == (1, 3, 2)
    assert perms.standardize((9, 1, 4)) == (3, 1, 2)
    assert perms.standardize((2, 9, 8, 3, 4, 7)) == (1, 6, 5, 2, 3, 4)
    with pytest.raises(ValueError):
        perms.standardize((1, 1))


def test_maj_inv():
    ident = tuple(range(1, 5))
    assert perms.maj(ident) == perms.inversions(ident) == 0
    assert perms.maj((4, 3, 2, 1)) == perms.inversions((4, 3, 2, 1)) == 6
    assert perms.maj(P("1374625")) == 8
    assert perms.inversions(P("1374625")) == sum(
        1 for i in range(7) for j in range(i + 1, 7) if P("1374625")[i] > P("1374625")[j]
    )


def test_enumeration():
    assert len(list(perms.enumerate_sn(3))) == 6
    assert set(perms.enumerate_runsorted(3)) == {(1, 2, 3), (1, 3, 2)}
    assert list(perms.enumerate_runsorted(1)) == [(1,)]
    assert len(list(perms.enumerate_runsorted(5))) == 15
    with pytest.raises(perms.CapExceeded):
        list(perms.enumerate_sn(12))
    with pytest.raises(ValueError):
        list(perms.enumerate_sn(0))


def test_runsorted_equals_filter_of_sn():
    for n in range(1, 10):
        want = sorted(p for p in perms.enumerate_sn(n) if perms.is_runsorted(p))
        assert list(perms.enumerate_runsorted(n)) == want


def test_cap_env(monkeypatch):
    monkeypatch.setenv("RSLAB_MAX_N", "3")
    with pytest.raises(perms.CapExceeded):
        list(perms.enumerate_sn(4))
    monkeypatch.delenv("RSLAB_MAX_N")
    assert len(list(perms.enumerate_sn(4))) == 24


def test_one_cap_for_every_exhaustive_route(monkeypatch):
    from rslab import bijections, binwords, polynomials

    monkeypatch.setenv("RSLAB_MAX_N", "5")
    binwords.maj_pair_table.cache_clear()
    routes = [
        lambda: list(perms.enumerate_sn(6)),
        lambda: perms.enumerate_runsorted(6),
        lambda: bijections.residual_census(6, 1),
        lambda: bijections.build_peak_transport(6),
        lambda: binwords.maj_pair_table(6),
        lambda: polynomials.eulerian_multivar(6),
    ]
    for route in routes:
        with pytest.raises(perms.CapExceeded) as exc:
            route()
        assert str(exc.value) == "refusing n=6: cap is 5 (raise RSLAB_MAX_N to override)"


def test_serialisation():
    assert perms.parse_perm("2,9,7,3,6,8,5,1,4") == P("297368514")
    assert perms.parse_perm("297368514") == P("297368514")
    assert perms.format_perm(P("297368514")) == "2,9,7,3,6,8,5,1,4"
    assert perms.format_int_set({6, 1, 2}) == "{1,2,6}"
    assert perms.format_int_set(set()) == "{}"
    with pytest.raises(ValueError):
        perms.parse_perm("1,2,2")


def test_standardize_preserves_structure():
    base = (2, 9, 8, 3, 4, 7)
    std = perms.standardize(base)
    assert perms.descent_set(base) == perms.descent_set(std)
    assert perms.peak_positions(base) == perms.peak_positions(std)
    assert [len(r) for r in perms.runs(base)] == [len(r) for r in perms.runs(std)]


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
def test_runsort_idempotent_random_words(letters):
    w = tuple(letters)
    assert perms.runsort(perms.runsort(w)) == perms.runsort(w)


@given(st.permutations(list(range(1, 8))))
def test_runsort_idempotent_permutations(p):
    w = perms.runsort(tuple(p))
    assert perms.runsort(w) == w
    assert perms.is_runsorted(w)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=24))
def test_runs_reassemble(letters):
    w = tuple(letters)
    rr = perms.runs(w)
    assert tuple(x for r in rr for x in r) == w
    assert all(all(r[i] <= r[i + 1] for i in range(len(r) - 1)) for r in rr)
    assert len(rr) == perms.des(w) + 1


def test_fixed_points_criterion_small():
    # runsort-fixed <=> equal to own runsort, exhaustive n <= 6
    for n in range(1, 7):
        fixed = {p for p in perms.enumerate_sn(n) if perms.runsort(p) == p}
        assert fixed == set(perms.enumerate_runsorted(n))


def test_runsort_idempotent_exhaustive_small_alphabets():
    import itertools

    for alphabet, top in ((2, 8), (3, 5)):
        for n in range(1, top + 1):
            for w in itertools.product(range(alphabet), repeat=n):
                assert perms.runsort(perms.runsort(w)) == perms.runsort(w)


def test_descents_are_peaks_for_runsorted():
    # positions of descents coincide with peak positions on run-sorted words
    for n in range(2, 10):
        for p in perms.enumerate_runsorted(n):
            assert perms.descent_set(p) == perms.peak_positions(p)


def test_sorted_descents_equal_sorted_peaks():
    for n in range(2, 9):
        for p in perms.enumerate_sn(n):
            w = perms.runsort(p)
            assert perms.des(w) == perms.peaks(w)


def test_peak_count_bound_and_nonadjacency():
    for n in range(1, 8):
        for p in perms.enumerate_sn(n):
            pv = perms.peak_values(p)
            assert len(pv) <= (n - 1) // 2
            pos = sorted(perms.peak_positions(p))
            assert all(b - a >= 2 for a, b in zip(pos, pos[1:]))
