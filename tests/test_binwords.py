"""Run-sorted binary words, biwords, symmetry, counting identities."""
import itertools
from fractions import Fraction

import pytest

from rslab import binwords as bw
from rslab import perms
from rslab.binwords import enumerate_runsorted_words, rc_runsort
from rslab.polynomials import Poly


def brute_words(a: int, b: int) -> set[str]:
    return {
        "".join(bits)
        for bits in itertools.product("01", repeat=a + b)
        if bits.count("0") == a and bw.is_runsorted_word("".join(bits))
    }


class TestWords:
    def test_runs_and_runsort(self):
        assert bw.bw_runs("1011011100011") == ["1", "011", "0111", "00011"]
        assert bw.bw_runsort("1011011100011") == "0001101101111"
        assert bw.bw_runs("") == []
        assert bw.bw_runsort("0001101101111") == "0001101101111"

    def test_enumerate_small(self):
        assert list(bw.enumerate_runsorted_words(1, 1)) == ["01"]
        assert list(bw.enumerate_runsorted_words(0, 4)) == ["1111"]
        assert list(bw.enumerate_runsorted_words(3, 0)) == ["000"]
        assert list(bw.enumerate_runsorted_words(0, 0)) == [""]

    def test_enumerate_matches_brute_force(self):
        for tot in range(0, 11):
            for a in range(tot + 1):
                got = set(bw.enumerate_runsorted_words(a, tot - a))
                assert got == brute_words(a, tot - a), (a, tot - a)

    def test_membership_example(self):
        assert "00011011011101111" in set(bw.enumerate_runsorted_words(6, 11))


class TestBiwords:
    def test_example_matrix(self):
        w = "00011011011101111"
        assert bw.word_to_biword(w).to_json() == [[1, 1, 1, 3], [4, 3, 2, 2]]
        assert bw.biword_to_word(bw.word_to_biword(w)) == w

    def test_degenerate_columns(self):
        assert bw.word_to_biword("0000").to_json() == [[4], [0]]
        assert bw.word_to_biword("11").to_json() == [[0], [2]]
        assert bw.word_to_biword("").to_json() == [[], []]

    def test_validation(self):
        with pytest.raises(ValueError):
            bw.Biword(((0, 0),))
        with pytest.raises(ValueError):
            bw.Biword(((2, 1), (1, 1)))  # top row decreasing
        with pytest.raises(ValueError):
            bw.Biword(((1, 1), (1, 2)))  # tie must sort by falling bottom
        with pytest.raises(ValueError):
            bw.Biword(((0, 1), (1, 1)))  # zero entry in a multi-column biword
        with pytest.raises(ValueError):
            bw.word_to_biword("10")

    def test_roundtrip_exhaustive(self):
        for tot in range(0, 13):
            for a in range(tot + 1):
                words = list(bw.enumerate_runsorted_words(a, tot - a))
                images = set()
                for w in words:
                    biw = bw.word_to_biword(w)
                    assert biw.row_sums() == (a, tot - a)
                    assert bw.biword_to_word(biw) == w
                    images.add(biw.columns)
                assert len(images) == len(words)


class TestReverseComplement:
    def test_examples(self):
        w = "00011011011101111"
        assert bw.rc_runsort(w) == "00001000100100111"
        assert bw.word_to_biword(bw.rc_runsort(w)).to_json() == [[2, 2, 3, 4], [3, 1, 1, 1]]
        assert bw.rc_runsort("0" * 5) == "1" * 5

    def test_bijection_and_involution(self):
        for tot in range(0, 13):
            for a in range(tot + 1):
                b = tot - a
                words = list(bw.enumerate_runsorted_words(a, b))
                images = {bw.rc_runsort(w) for w in words}
                assert len(images) == len(words)  # injective
                assert images == set(bw.enumerate_runsorted_words(b, a))
                for w in words:
                    assert bw.rc_runsort(bw.rc_runsort(w)) == w

    def test_biword_row_swap_description(self):
        for w in bw.enumerate_runsorted_words(4, 3):
            cols = bw.word_to_biword(w).columns
            swapped = sorted(((v, u) for u, v in cols), key=lambda c: (c[0], -c[1]))
            assert bw.word_to_biword(bw.rc_runsort(w)).columns == tuple(swapped)


def gamma_fixed_words(n: int) -> list[str]:
    """
    Run-sorted words with n zeros and n ones fixed by rc_runsort.

    Beware: this set is strictly larger than the partition-shaped one from
    n = 3 on ("001101" is the first extra member: its biword columns
    {(1,1),(2,2)} form a swap-invariant multiset without being a
    palindrome).  The partition bijection lives on symmetric_fixed_words.
    """
    return [w for w in enumerate_runsorted_words(n, n) if rc_runsort(w) == w]


class TestPartitionFixedPoints:
    def test_counts(self):
        for n in range(0, 13):
            assert len(bw.symmetric_fixed_words(n)) == bw.partition_count(n), n
        assert bw.partition_count(12) == 77

    def test_symmetric_equals_filter_of_runsorted_words(self):
        for n in range(0, 12):
            want = [
                w for w in bw.enumerate_runsorted_words(n, n)
                if bw.reverse_complement(w) == w
            ]
            assert bw.symmetric_fixed_words(n) == want, n
        with pytest.raises(ValueError):
            bw.symmetric_fixed_words(-1)

    def test_gamma_fixed_is_strictly_larger(self):
        # the composite map also fixes words whose biword columns form a
        # swap-invariant multiset without being a palindrome
        assert bw.rc_runsort("001101") == "001101"
        assert "001101" not in bw.symmetric_fixed_words(3)
        assert len(gamma_fixed_words(3)) == 4
        for n in range(0, 9):
            sym, gam = bw.symmetric_fixed_words(n), gamma_fixed_words(n)
            assert set(sym) <= set(gam)
            if n >= 3:
                assert len(gam) > len(sym)

    def test_partition_correspondence(self):
        assert bw.fixed_word_to_partition("0010101011") == (2, 1, 1, 1)
        assert bw.partition_to_fixed_word((2, 1, 1, 1)) == "0010101011"
        w12 = "001010101011"
        assert bw.rc_runsort(w12) == w12 and bw.reverse_complement(w12) == w12
        assert bw.fixed_word_to_partition(w12) == (2, 1, 1, 1, 1)
        assert bw.partition_to_fixed_word((1,)) == "01"
        for n in range(0, 10):
            for w in bw.symmetric_fixed_words(n):
                lam = bw.fixed_word_to_partition(w)
                assert sum(lam) == n
                assert bw.partition_to_fixed_word(lam) == w

    def test_partition_count_both_routes(self):
        for n in range(0, 14):
            assert bw.partition_count(n) == sum(1 for _ in bw.partitions(n))


class TestCountIdentities:
    def test_product_table_vs_enumeration(self):
        table = bw.product_count_table(10, 10)
        assert table[0][0] == 1 and table[1][1] == 1
        for tot in range(0, 11):
            for a in range(tot + 1):
                b = tot - a
                cnt = bw.count_runsorted_words(a, b)
                if (a >= 1 and b >= 1) or tot == 0:
                    assert table[a][b] == cnt, (a, b)
                else:
                    # the pure words 0^a and 1^b are run-sorted but carry a
                    # zero column, outside the positive-pair product
                    assert table[a][b] == 0 and cnt == 1

    def test_maj_pair_counts(self):
        assert bw.maj_pair_count(0, 0) == 1
        assert bw.maj_pair_count(1, 1) == 1
        table = bw.product_count_table(9, 9)
        for tot in range(0, 10):
            for a in range(tot + 1):
                b = tot - a
                want = table[a][b] if ((a >= 1 and b >= 1) or tot == 0) else 0
                assert bw.maj_pair_count(a, b) == want, (a, b)

    def test_maj_pair_symmetry(self):
        for tot in range(0, 10):
            for a in range(tot + 1):
                assert bw.maj_pair_count(a, tot - a) == bw.maj_pair_count(tot - a, a)

    def test_maj_pair_cap(self):
        with pytest.raises(perms.CapExceeded):
            bw.maj_pair_count(20, 20)

    def test_negative_counts_refused(self):
        # a negative index would read the table from its end
        for a, b in [(-4, 9), (-6, 13), (3, -1)]:
            with pytest.raises(ValueError):
                bw.maj_pair_count(a, b)
        with pytest.raises(ValueError):
            bw.product_count_table(-3, -3)

    def test_maj_pair_table_against_direct_definition(self):
        # independent brute force straight from the definitions
        for n in range(0, 9):
            direct: dict = {}
            for p in itertools.permutations(range(1, n + 1)):
                key = (perms.maj(p), perms.maj(perms.inverse(p)))
                direct[key] = direct.get(key, 0) + 1
            table = bw.maj_pair_table(n)
            for a in range(len(table)):
                for b in range(len(table)):
                    assert table[a][b] == direct.get((a, b), 0), (n, a, b)
            assert sum(direct.values()) == sum(map(sum, table))

    def test_maj_inv_equidistribution(self):
        # (maj, maj of inverse) matches (maj, inversions) jointly
        for n in range(1, 7):
            lhs: dict = {}
            rhs: dict = {}
            for p in itertools.permutations(range(1, n + 1)):
                k1 = (perms.maj(p), perms.maj(perms.inverse(p)))
                k2 = (perms.maj(p), perms.inversions(p))
                lhs[k1] = lhs.get(k1, 0) + 1
                rhs[k2] = rhs.get(k2, 0) + 1
            assert lhs == rhs


class TestRoselle:
    def test_orders_466(self):
        rep = bw.roselle_identity_check(4, 6, 6)
        assert rep["ok"], rep

    def test_trivial_layer(self):
        rep = bw.roselle_identity_check(0, 3, 3)
        assert rep["ok"]

    def test_first_diff_in_z_q_t_order(self, monkeypatch):
        table = bw.z_pair_product_table

        def perturbed(*orders):
            rhs = table(*orders)
            rhs[3][0][0] += 1
            rhs[2][5][4] += 2
            return rhs

        monkeypatch.setattr(bw, "z_pair_product_table", perturbed)
        rep = bw.roselle_identity_check(4, 6, 6)
        lhs = table(4, 6, 6)[2][5][4]  # the identity holds without the change
        assert rep == {"orders": [4, 6, 6], "ok": False, "first_diff": {
            "z": 2, "q": 5, "t": 4, "lhs": lhs, "rhs": lhs + 2,
        }}


def descents_after_runsort(w: str) -> int:
    """
    Number of descents of runsort(w), read off without sorting: each
    maximal 0-block/1-block alternation "01" marks one mixed run, and the
    sorted word descends exactly between consecutive mixed runs.
    """
    c01 = sum(1 for i in range(len(w) - 1) if w[i] == "0" and w[i + 1] == "1")
    return max(0, c01 - 1)


class TestDescentClassifier:
    def test_examples(self):
        assert descents_after_runsort("1" * 4 + "0" * 3) == 0
        assert descents_after_runsort("101") == 0
        assert descents_after_runsort("0101") == 1
        assert descents_after_runsort("") == 0

    def test_matches_direct_computation(self):
        for n in range(0, 15):
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                direct = (
                    perms.des(tuple(int(c) for c in bw.bw_runsort(w))) if w else 0
                )
                assert descents_after_runsort(w) == direct


class TestDescentPolynomial:
    def test_small_values(self):
        assert bw.binary_descent_poly(3) == Poly([8])
        assert bw.binary_descent_poly(0) == Poly([1])

    def test_total_count(self):
        for n in range(0, 17):
            assert bw.binary_descent_poly(n)(1) == 2**n

    def test_brute_force_match(self):
        # the classifier is itself validated against runsort up to length
        # 14, so summing it over all 2^n words is an independent route
        for n in range(0, 17):
            counts: dict[int, int] = {}
            for bits in itertools.product("01", repeat=n):
                k = descents_after_runsort("".join(bits))
                counts[k] = counts.get(k, 0) + 1
            top = max(counts) + 1
            assert Poly([counts.get(i, 0) for i in range(top)]) == bw.binary_descent_poly(n)

    def test_cake_constant(self):
        from math import comb

        for n in range(0, 17):
            assert bw.binary_descent_poly(n)[0] == comb(n + 1, 3) + n + 1


class TestExpectedDescents:
    def test_values(self):
        assert bw.expected_binary_descents(3) == 0
        assert bw.expected_binary_descents(5) == Fraction(3, 16)

    def test_equals_derivative_route(self):
        for n in range(1, 17):
            c = bw.binary_descent_poly(n)
            assert bw.expected_binary_descents(n) == Fraction(c.derivative()(1), 2**n)

    def test_bound(self):
        for n in range(6, 40):
            assert bw.expected_binary_descents(n) < Fraction(n, 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            bw.expected_binary_descents(0)


def test_z_pair_product_layers():
    table = bw.z_pair_product_table(2, 4, 4)
    assert table[0][0][0] == 1
    assert all(v == 0 for row in table[0][1:] for v in row)
    # one column of type (i, j): exactly one way for every cell
    for i in range(5):
        for j in range(5):
            assert table[1][i][j] == 1
    # two columns: multisets of two pairs summing to (i, j)
    assert table[2][1][1] == 2  # {(0,0),(1,1)} and {(0,1),(1,0)}
