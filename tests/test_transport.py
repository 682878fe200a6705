"""The peak-transport bijection and the refined counting identity."""
import hashlib
import math
from collections import Counter

import pytest

from rslab import bijections as bj
from rslab import perms
from rslab.perms import peak_values, run_starts, spv
from rslab.prng import SplitMix64, fisher_yates

P = lambda s: tuple(int(c) for c in s)

TABLE_N3 = {
    "123": "123", "132": "132", "213": "231",
    "231": "213", "312": "312", "321": "321",
}

TABLE_N4 = {
    "1234": "1234", "1243": "1243", "1324": "1324", "1342": "1342",
    "1423": "1423", "1432": "1432", "2134": "2341", "2143": "2431",
    "2314": "2413", "2341": "2134", "2413": "2314", "2431": "2143",
    "3124": "3412", "3142": "3142", "3214": "3421", "3241": "3214",
    "3412": "3124", "3421": "3241", "4123": "4123", "4132": "4132",
    "4213": "4231", "4231": "4213", "4312": "4312", "4321": "4321",
}


def test_small_tables_match_published_values():
    t2 = bj.build_peak_transport(2)
    assert t2 == {(1, 2): (1, 2), (2, 1): (2, 1)}
    t3 = bj.build_peak_transport(3)
    assert t3 == {P(k): P(v) for k, v in TABLE_N3.items()}
    t4 = bj.build_peak_transport(4)
    assert t4 == {P(k): P(v) for k, v in TABLE_N4.items()}


def test_level7_worked_rows():
    t7 = bj.build_peak_transport(7)
    assert t7[P("7641325")] == P("7645132")
    assert t7[P("6413257")] == P("6745132")
    assert t7[P("6413725")] == P("6451372")
    assert t7[P("6417325")] == P("6451732")
    assert t7[P("6413275")] == P("6475132")
    assert t7[P("6471325")] == P("6451327")
    assert t7[P("6741325")] == P("6457132")


def test_invariants_up_to_7():
    for n in range(1, 8):
        table = bj.build_peak_transport(n)
        assert len(table) == math.factorial(n)
        assert len(set(table.values())) == math.factorial(n)
        for sig, img in table.items():
            assert peak_values(sig) == spv(img)
            assert run_starts(sig) == run_starts(img)


def test_eta_matches_table_up_to_7():
    # eta replays one branch of the step the table applies to every entry
    for n in range(1, 8):
        table = bj.build_peak_transport(n)
        assert all(bj.eta(sig) == img for sig, img in table.items())
    table = bj.build_peak_transport(8)
    rng = SplitMix64.seed_from(2021, 8)
    for _ in range(2000):
        sig = fisher_yates(8, rng)
        assert bj.eta(sig) == table[sig], sig


def test_table_n8_pinned():
    # recorded from the level-by-level construction that eta replaced
    table = sorted(bj.build_peak_transport(8).items())
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        "bf02dacc7feaa2c3a57f77f57a0c536ff52338de3bdfa285b19d855fde7826cc"
    )


@pytest.mark.parametrize("n", [40, 80])
def test_eta_beyond_the_table(n):
    sig = fisher_yates(n, SplitMix64.seed_from(2021, n))
    img = bj.eta(sig)
    assert sorted(img) == list(range(1, n + 1))
    assert peak_values(sig) == spv(img)
    assert run_starts(sig) == run_starts(img)


# recorded from the eta whose anchor keys scanned the word for the letter
# after each anchor
ETA_PINS = {
    300: "02ff41e8336b96dc8b812fb46ac772845305c2f3ecec4104628f17e1daa30800",
    1000: "f7ed594585e03c6752455fc504c1879aaf29a13ea67f92cdf9656758581d372e",
}


@pytest.mark.parametrize("n", sorted(ETA_PINS))
def test_eta_pinned_beyond_the_table(n):
    img = bj.eta(fisher_yates(n, SplitMix64.seed_from(23, n)))
    assert hashlib.sha256(repr(img).encode()).hexdigest() == ETA_PINS[n]


def test_eta_domain():
    assert bj.eta((1,)) == (1,)
    for bad in [(), (1, 1), (2, 3), (0, 1)]:
        with pytest.raises(ValueError):
            bj.eta(bad)


def test_refined_identity_multisets():
    # the joint (run starts, peak values) distribution equals the joint
    # (run starts, sorted peak values) distribution
    for n in range(1, 8):
        lhs = Counter(
            (frozenset(run_starts(p)), frozenset(peak_values(p)))
            for p in perms.enumerate_sn(n)
        )
        rhs = Counter(
            (frozenset(run_starts(p)), frozenset(spv(p)))
            for p in perms.enumerate_sn(n)
        )
        assert lhs == rhs


def test_peak_count_corollary():
    for n in range(1, 10):
        lhs = Counter(perms.peaks(p) for p in perms.enumerate_sn(n))
        rhs = Counter(perms.des(perms.runsort(p)) for p in perms.enumerate_sn(n))
        assert lhs == rhs


@pytest.mark.parametrize("n", [5, 6, 7])
def test_transport_sorts_each_parent_image_once(monkeypatch, n):
    # the runs of each image in S_1 .. S_{n-1} are sorted once, for all
    # its children; no repair sorts a preimage again
    sorted_words = []
    lex_runs = bj._lex_runs
    monkeypatch.setattr(bj, "_lex_runs", lambda p: sorted_words.append(p) or lex_runs(p))
    bj.build_peak_transport(n)
    assert len(sorted_words) == len(set(sorted_words)) == sum(math.factorial(k) for k in range(1, n))


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(bj, name)
    monkeypatch.setattr(bj, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_transport_built_level_by_level(monkeypatch, n):
    # one anchor matching per entry of the tables of S_1 .. S_{n-1}, and
    # no permutation is peeled
    matchings = _counting(monkeypatch, "_anchor_matching")
    peels = _counting(monkeypatch, "peak_insert_inverse")
    bj.build_peak_transport(n)
    assert len(matchings) == sum(math.factorial(k) for k in range(1, n))
    assert peels == []


@pytest.mark.parametrize("n", [1, 2, 8, 40])
def test_eta_matches_one_parent_per_level(monkeypatch, n):
    matchings = _counting(monkeypatch, "_anchor_matching")
    bj.eta(fisher_yates(n, SplitMix64.seed_from(2021, n)))
    assert [len(sig) for sig, _, _ in matchings] == list(range(1, n))


def test_cap():
    with pytest.raises(perms.CapExceeded) as exc:
        bj.build_peak_transport(10)
    assert str(exc.value) == (
        "refusing to enumerate S_10: cap is 9 (this route holds n! objects in memory)"
    )


def test_csv_export(tmp_path):
    table = bj.build_peak_transport(3)
    path = tmp_path / "transport.csv"
    bj.transport_to_csv(table, str(path))
    # the csv module's default dialect ends each row in \r\n
    assert path.read_bytes() == (
        b"sigma,image\r\n1 2 3,1 2 3\r\n1 3 2,1 3 2\r\n2 1 3,2 3 1\r\n"
        b"2 3 1,2 1 3\r\n3 1 2,3 1 2\r\n3 2 1,3 2 1\r\n"
    )
