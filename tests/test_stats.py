"""Expectations, the descent-at-two sequence, golden data, scatter data."""
from fractions import Fraction

import pytest

from rslab import stats as st
from rslab.prng import SplitMix64, fisher_yates


def test_expected_descents():
    assert st.expected_descents(1) == 0
    assert st.expected_descents(2) == Fraction(1, 2)
    assert st.expected_descents(8) == Fraction(7, 2)
    for n in range(1, 8):
        assert st.expected_descents_by_enumeration(n) == st.expected_descents(n)


def test_expected_peaks_three_ways():
    assert st.expected_peaks(2) == 0
    assert st.expected_peaks(3) == Fraction(1, 3)
    for n in range(2, 8):
        ways = st.expected_peaks_three_ways(n)
        assert len(set(ways.values())) == 1, (n, ways)
        assert ways["formula"] == Fraction(n - 2, 3)


def test_descent_at_two():
    assert st.descent_at_two_sequence(9) == [2, 10, 54, 336, 2400, 19440, 176400]
    for n in range(3, 41):
        assert st.descent_at_two_sequence(n)[-1] == st.descent_at_two_closed(n)
    for n in range(3, 10):
        assert st.descent_at_two_by_enumeration(n) == st.descent_at_two_closed(n)
    assert st.descent_at_two_closed(5) == 54


def test_golden_all():
    for sid in sorted(st.GOLDEN):
        rep = st.golden_check(sid)
        assert rep["ok"], rep
    with pytest.raises(ValueError):
        st.golden_check("A000000")


def test_golden_diagonal_cross_check_is_reported(monkeypatch):
    # a product table that disagrees with the maj-pair counts fails the
    # check as a verdict, not as an assertion that ``python -O`` skips
    def skewed(a_max, b_max):
        return [[1] * (b_max + 1) for _ in range(a_max + 1)]

    monkeypatch.setattr(st, "product_count_table", skewed)
    rep = st.golden_check("A090806")
    assert rep["ok"] is False
    assert rep["computed"] == rep["expected"]


def test_golden_shapes():
    assert st.GOLDEN["A202365"]["values"][0] == 2
    assert st.GOLDEN["A000125"]["values"][3] == 8
    assert st.GOLDEN["A008303"]["rows"][5] == [32, 416, 272]


def test_splitmix_reference_values():
    # documented generator: first outputs from seed 0 stay frozen
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("parts", [(-1,), (2**64,), (3, -1, 0)])
def test_seed_parts_outside_64_bits_refused(parts):
    with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
        SplitMix64.seed_from(*parts)


def test_seed_parts_at_the_64_bit_ends():
    assert SplitMix64.seed_from(0, 2**64 - 1).next_u64() != SplitMix64.seed_from(0).next_u64()


def test_fisher_yates_uniform_small():
    from collections import Counter

    counts = Counter(fisher_yates(3, SplitMix64.seed_from(7, i)) for i in range(6000))
    assert len(counts) == 6
    assert all(800 < c < 1200 for c in counts.values())


def test_figure_data():
    data = st.figure_data(1, 0)
    assert data == [(1, 1)]
    data = st.figure_data(5, 0)
    assert sorted(v for _, v in data) == [1, 2, 3, 4, 5]
    big = st.figure_data(20000, 1)
    assert sorted(v for _, v in big) == list(range(1, 20001))


def test_figure_csv_reproducible():
    a = st.figure_csv(500, 9)
    b = st.figure_csv(500, 9)
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "# rng=splitmix64 seed=9 n=500"
    assert lines[1].split(",")[0] == "1"
    assert len(lines) == 501
