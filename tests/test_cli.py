"""Command-line interface: outputs, formats, exit codes."""
import json
import shlex
from pathlib import Path

import pytest

from rslab import perms
from rslab import realroot as rr
from rslab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat_runsort(capsys):
    code, out, _ = run(capsys, "stat", "--perm", "2,9,7,3,6,8,5,1,4", "--which", "runsort")
    assert code == 0 and out.strip() == "1,4,2,9,3,6,8,5,7"


def test_stat_des_identity(capsys):
    code, out, _ = run(capsys, "stat", "--perm", "1,2,3,4,5", "--which", "des")
    assert code == 0 and out.strip() == "{}"


def test_stat_word_runs(capsys):
    code, out, _ = run(capsys, "stat", "--word", "00011011011101111", "--which", "runs")
    assert code == 0
    assert out.strip() == "00011|011|0111|01111"
    assert len(out.strip().split("|")) == 4


def test_stat_more_kinds(capsys):
    code, out, _ = run(capsys, "stat", "--perm", "1,3,7,4,6,2,5", "--which", "pkv")
    assert code == 0 and out.strip() == "{6,7}"
    code, out, _ = run(capsys, "stat", "--perm", "1,3,7,4,6,2,5", "--which", "maj")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "stat", "--perm", "6,4,1,3,2,5", "--which", "rs")
    assert code == 0 and out.strip() == "{1,2,4,6}"


def test_stat_json(capsys):
    # runsort(213) = 132, whose single peak value is 3
    code, out, _ = run(capsys, "stat", "--perm", "2,1,3", "--which", "spv", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["schema"] == 1 and data["value"] == "{3}"


def test_stat_parse_error(capsys):
    code, _, err = run(capsys, "stat", "--perm", "1,2,2", "--which", "des")
    assert code == 2 and "error" in err


def test_stat_word_which_mismatch(capsys):
    code, _, err = run(capsys, "stat", "--word", "0101", "--which", "pkv")
    assert code == 2


def test_tables_a(capsys):
    code, out, _ = run(capsys, "tables", "--which", "A", "--max-n", "9")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "9  105t^4+1750t^3+2037t^2+247t+1"
    assert lines[0] == "1  1"


def test_tables_peaks_json(capsys):
    code, out, _ = run(capsys, "tables", "--which", "peaks", "--max-n", "6", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["rows"]["6"]["human"] == "272t^2+416t+32"
    assert data["rows"]["1"]["human"] == "1"


def test_verify_golden(capsys):
    code, out, _ = run(capsys, "verify", "golden")
    assert code == 0 and "pass" in out


def test_verify_golden_single_id(capsys):
    code, out, _ = run(capsys, "verify", "golden", "--id", "A202365", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["verdict"] is True
    assert data["reports"][0]["expected"][:3] == [2, 10, 54]


def test_verify_golden_refuses_empty_id(capsys):
    # '' is an id to look up, not "no --id given"
    code, out, err = run(capsys, "verify", "golden", "--id", "")
    assert code == 2 and out == "" and "unknown golden id ''" in err


@pytest.mark.parametrize("argv", [
    ("eta", "--max-n", "9"),
    ("golden", "--family", "Z"),
    ("egf", "--max-n", "4"),
    ("interlacing", "--parallel", "2"),
    ("admissibility", "--samples", "5"),
    ("binary", "--order", "3"),
])
def test_verify_refuses_flags_the_suite_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_unknown_flag_shows_the_suite_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "eta", "--max-n", "9"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: rslab verify eta")
    assert err.endswith("rslab verify eta: error: unrecognized arguments: --max-n 9\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    ("verify", "same-phase", "--max-n", "3", "--samples", "2"),
    ("figure", "--n", "5"),
])
def test_seeds_outside_64_bits_refused(capsys, argv, seed):
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: seed part {seed} lies outside [0, 2^64)\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("extra", [
    ("--samples", "0"),
    ("--samples", "0", "--parallel", "2"),
    ("--samples", "4", "--parallel", "2"),
])
def test_same_phase_refuses_a_bad_seed_before_scanning(capsys, monkeypatch, extra, seed):
    scans = []
    monkeypatch.setattr(rr, "conjecture_scan", lambda *a: scans.append(a))
    code, out, err = run(capsys, "verify", "same-phase", "--max-n", "3", *extra, "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: seed part {seed} lies outside [0, 2^64)\n"
    assert scans == []


def test_readme_command_lines_parse():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("rslab ")]
    assert len(commands) >= 12
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_verify_eta_small(capsys):
    code, out, _ = run(capsys, "verify", "eta", "--n", "5")
    assert code == 0 and "pass" in out


def test_verify_interlacing(capsys):
    code, out, _ = run(
        capsys, "verify", "interlacing", "--family", "R", "--max-n", "10", "--format", "json"
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] is True


def test_verify_egf(capsys):
    code, out, _ = run(capsys, "verify", "egf", "--order", "8")
    assert code == 0


def test_verify_egf_reports_a_wrong_mean(capsys, monkeypatch):
    from rslab import series as sr

    monkeypatch.setattr(sr, "expected_peaks_series", lambda order: [0] * (order + 1))
    code, out, _ = run(capsys, "verify", "egf", "--order", "8", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["verdict"] is False and data["n_failures"] == 1
    assert set(data["reports"]) == {"runsorted", "peaks", "binary", "sheffer"}


def test_verify_eta_reports_failure_rows(capsys, monkeypatch):
    from rslab import bijections as bj

    # the identity fails on 213 and 231, the two words of S_3 eta moves
    monkeypatch.setattr(bj, "build_peak_transport",
                        lambda n: {p: p for p in perms.enumerate_sn(n)})
    code, out, _ = run(capsys, "verify", "eta", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["verdict"] is False and data["n_failures"] == 2
    assert data["failures"] == [[[2, 1, 3], [2, 1, 3]], [[2, 3, 1], [2, 3, 1]]]


def test_verify_binary_reports_problem_rows(capsys, monkeypatch):
    from rslab import binwords as bw

    count = bw.count_runsorted_words
    monkeypatch.setattr(bw, "count_runsorted_words",
                        lambda a, b: count(a, b) + ((a, b) == (1, 1)))
    monkeypatch.setattr(bw, "symmetric_fixed_words", lambda n: [])
    monkeypatch.setattr(bw, "roselle_identity_check", lambda *orders: {"ok": False})
    code, out, _ = run(capsys, "verify", "binary", "--max-n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["verdict"] is False
    cell = {"a": 1, "b": 1, "rsw": count(1, 1) + 1, "gf": count(1, 1), "mip": count(1, 1)}
    fixed = [{"fixed_points_n": n} for n in range(13)]
    assert data["failures"] == [cell, *fixed, {"roselle": {"ok": False}}]
    assert data["n_failures"] == 15


def test_verify_mip_reports_mismatch(capsys, monkeypatch):
    from rslab import binwords as bw

    monkeypatch.setattr(bw, "maj_pair_count", lambda a, b: -1)
    code, out, _ = run(capsys, "verify", "mip", "--a", "2", "--b", "1", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["verdict"] is False and data["cell"] == [2, 1]
    assert data["failures"] == [{"a": 2, "b": 1, "got": -1, "want": 1}]
    assert data["n_failures"] == 1


def test_verify_admissibility_reports_slope_mismatch(capsys, monkeypatch):
    from rslab import bijections as bj

    monkeypatch.setattr(bj, "slope_admissible_by_definition", lambda p, a: None)
    code, out, _ = run(capsys, "verify", "admissibility", "--max-n", "4", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["n_failures"] > 0
    for row in data["failures"]:
        assert row["kind"] == "slope" and set(row) == {"kind", "p", "a"}
        assert row["a"] in perms.slope_set(tuple(row["p"]))


def test_verify_mip(capsys):
    code, out, _ = run(capsys, "verify", "mip", "--max-n", "7")
    assert code == 0


def test_verify_mip_single_cell_names_its_cell(capsys):
    code, out, _ = run(capsys, "verify", "mip", "--a", "4", "--b", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["cell"] == [4, 3] and data["max_n"] == 7
    code, out, _ = run(capsys, "verify", "mip", "--max-n", "7", "--format", "json")
    assert code == 0 and "cell" not in json.loads(out)


def test_verify_mip_refuses_negative_counts(capsys):
    for a, b in [("-4", "9"), ("-4", "1"), ("-1", "1")]:
        code, out, err = run(capsys, "verify", "mip", "--a", a, "--b", b)
        assert code == 2 and out == "" and "non-negative" in err


def test_verify_zero_flags_are_values(capsys):
    # 0 is a value, not "flag not given"
    code, out, err = run(capsys, "verify", "eta", "--n", "0")
    assert code == 2 and "n must be at least 1" in err
    code, out, _ = run(capsys, "verify", "interlacing", "--max-n", "0", "--format", "json")
    assert code == 0 and json.loads(out)["max_n"] == 0
    code, out, _ = run(capsys, "verify", "egf", "--order", "0", "--format", "json")
    assert code == 0 and json.loads(out)["reports"]["runsorted"]["order"] == 0


def test_verify_egf_refuses_negative_order(capsys):
    code, out, err = run(capsys, "verify", "egf", "--order", "-1")
    assert code == 2 and out == "" and "order must be non-negative" in err


def test_verify_admissibility_refuses_above_cap_before_scanning(capsys, monkeypatch):
    from rslab import bijections as bj

    calls = []
    monkeypatch.setenv("RSLAB_MAX_N", "4")
    monkeypatch.setattr(bj, "is_peak_admissible", lambda p, a: calls.append((p, a)))
    code, out, err = run(capsys, "verify", "admissibility", "--max-n", "6")
    assert code == 2 and out == ""
    assert "refusing n=5: cap is 4 (raise RSLAB_MAX_N to override)" in err
    assert calls == []


def test_verify_mip_refuses_a_without_b(capsys):
    for flags in (("--a", "4"), ("--b", "3")):
        code, out, err = run(capsys, "verify", "mip", *flags)
        assert code == 2 and out == "" and "--a and --b" in err


def test_verify_same_phase_refuses_negative_samples(capsys):
    code, out, err = run(capsys, "verify", "same-phase", "--samples", "-1", "--max-n", "4")
    assert code == 2 and out == "" and "samples must be non-negative" in err


def test_tables_refuses_negative_max_n(capsys):
    for which in ("A", "peaks"):
        code, out, err = run(capsys, "tables", "--which", which, "--max-n", "-1")
        assert code == 2 and out == "" and "max-n must be non-negative" in err


def test_verify_refuses_negative_max_n(capsys):
    for suite in ("interlacing", "same-phase", "admissibility", "binary", "mip"):
        code, out, err = run(capsys, "verify", suite, "--max-n", "-3")
        assert code == 2 and out == "" and "max-n must be non-negative" in err, suite


def test_verify_same_phase_refuses_parallel_below_one(capsys):
    for k in ("0", "-4"):
        code, out, err = run(capsys, "verify", "same-phase", "--max-n", "3", "--parallel", k)
        assert code == 2 and out == "" and "parallel must be at least 1" in err


def test_verify_empty_family_refused(capsys):
    for suite in ("interlacing", "same-phase"):
        code, out, err = run(capsys, "verify", suite, "--family", "")
        assert code == 2 and out == "" and "unknown family ''" in err


def test_verify_binary(capsys):
    code, out, _ = run(capsys, "verify", "binary", "--max-n", "7")
    assert code == 0


def test_verify_admissibility(capsys):
    code, out, _ = run(capsys, "verify", "admissibility", "--max-n", "6")
    assert code == 0


def test_verify_same_phase_small(capsys):
    code, out, _ = run(
        capsys, "verify", "same-phase", "--family", "Q", "--max-n", "4",
        "--samples", "6", "--seed", "5", "--format", "json",
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] is True and data["seed"] == 5


def test_verify_same_phase_parallel_matches_serial(capsys):
    argv = ("verify", "same-phase", "--family", "Q", "--max-n", "4",
            "--samples", "6", "--seed", "5", "--format", "json")
    code1, serial, _ = run(capsys, *argv, "--parallel", "1")
    code2, parallel, _ = run(capsys, *argv, "--parallel", "2")
    assert code1 == code2 == 0
    assert serial == parallel
    assert json.loads(serial)["first_sample"] == 0


def test_verify_same_phase_parallel_clamped_to_cpus(capsys, monkeypatch):
    # a recorder stands in for the pool, so no process is started
    import itertools
    import multiprocessing
    import os

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return list(itertools.starmap(fn, jobs))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    argv = ("verify", "same-phase", "--family", "Q", "--max-n", "4",
            "--samples", "6", "--seed", "5", "--format", "json")
    code1, serial, _ = run(capsys, *argv)
    code2, clamped, _ = run(capsys, *argv, "--parallel", "5000")
    assert sizes == [3]
    assert code1 == code2 == 0 and serial == clamped


def test_verify_failure_counts_untruncated(capsys, monkeypatch):
    from rslab import bijections as bj

    monkeypatch.setattr(bj, "peak_admissible_by_definition", lambda p, a: None)
    code, out, _ = run(capsys, "verify", "admissibility", "--max-n", "5", "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["n_failures"] > 10 and len(data["failures"]) == 10
    code, out, _ = run(capsys, "verify", "admissibility", "--max-n", "5", "--format", "csv")
    header, row = out.strip().splitlines()
    assert header == "suite,verdict,failures"
    assert row == f"admissibility,False,{data['n_failures']}"


def test_figure_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert main(["figure", "--n", "50", "--seed", "3", "--out", str(p1)]) == 0
    assert main(["figure", "--n", "50", "--seed", "3", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("# rng=splitmix64 seed=3 n=50\n")
    assert len(p1.read_text().splitlines()) == 51


def test_figure_refuses_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--n", "5", "--format", "json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: rslab figure")
    assert err.endswith("rslab figure: error: unrecognized arguments: --format json\n")


@pytest.mark.parametrize("argv", [
    ("figure", "--n", "5"),
    ("verify", "eta", "--n", "3"),
])
def test_unwritable_out_is_an_error_not_a_failure(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["stat", "--which", "des"])  # neither --perm nor --word
    assert exc.value.code == 2


def test_csv_formats(capsys):
    code, out, _ = run(capsys, "tables", "--which", "A", "--max-n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,polynomial,coeffs" and lines[3].startswith("3,t+1")
    code, out, _ = run(capsys, "stat", "--perm", "2,1,3", "--which", "runsort", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == '"2,1,3",runsort,"1,3,2"'
    code, out, _ = run(capsys, "verify", "golden", "--format", "csv")
    assert code == 0 and out.strip().splitlines()[1] == "golden,True,0"
