"""
Command-line front end: statistics on single inputs, table reproduction,
verification suites, and scatter-data generation.  Each verify suite is
declared once, in ``_SUITES``, with the defaults of exactly the flags it
reads; they follow the suite name, and any other flag is a usage error.

Exit codes: 0 all checks pass, 1 an assertion failed, 2 usage or parse
error or an output file that cannot be written, 3 a sampled stability
scan found a counterexample (a finding, not a failure: the full witness
is in the output).

Every command is deterministic given its flags; JSON output carries a
schema version and canonical ordering so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial

from . import bijections as bj
from . import binwords as bw
from . import perms
from . import realroot as rr
from . import series as sr
from . import stats as st
from .polynomials import FAMILIES
from .prng import SplitMix64

SCHEMA = 1


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_report(
    report: dict,
    fmt: str,
    out: str | None,
    human: str,
    csv_data: tuple[list[str], list[list]] | None = None,
) -> None:
    if fmt == "json":
        _emit(json.dumps(report, sort_keys=True), out)
    elif fmt == "csv" and csv_data is not None:
        _emit(_csv_text(*csv_data), out)
    else:
        _emit(human, out)


# ---------------------------------------------------------------------------
# stat
# ---------------------------------------------------------------------------

_PERM_STATS = ("runs", "runsort", "des", "pkv", "spv", "rs", "maj", "inv")
_WORD_STATS = ("runs", "runsort", "des", "maj", "inv")


def cmd_stat(args: argparse.Namespace) -> int:
    which = args.which
    try:
        if args.perm is not None:
            p = perms.parse_perm(args.perm)
            values: dict[str, object] = {
                "runs": "|".join(",".join(map(str, r)) for r in perms.runs(p)),
                "runsort": perms.format_perm(perms.runsort(p)),
                "des": perms.format_int_set(perms.descent_set(p)),
                "pkv": perms.format_int_set(perms.peak_values(p)),
                "spv": perms.format_int_set(perms.spv(p)),
                "rs": perms.format_int_set(perms.run_starts(p)),
                "maj": str(perms.maj(p)),
                "inv": str(perms.inversions(p)),
            }
            source = args.perm
        else:
            w = args.word.strip()
            if w and set(w) - {"0", "1"}:
                raise ValueError(f"not a binary word: {w!r}")
            letters = tuple(int(c) for c in w)
            values = {
                "runs": "|".join(bw.bw_runs(w)),
                "runsort": bw.bw_runsort(w),
                "des": perms.format_int_set(perms.descent_set(letters)),
                "maj": str(perms.maj(letters)),
                "inv": str(perms.inversions(letters)),
            }
            source = w
        if which not in values:
            raise ValueError(f"--which {which} not available for this input")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"schema": SCHEMA, "input": source, "which": which, "value": values[which]}
    _emit_report(
        report,
        args.format,
        args.out,
        str(values[which]),
        csv_data=(["input", "which", "value"], [[source, which, values[which]]]),
    )
    return 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _check_max_n(args: argparse.Namespace) -> None:
    """Refuse a negative ``--max-n``, which would check nothing."""
    if args.max_n < 0:
        raise ValueError("max-n must be non-negative")


def cmd_tables(args: argparse.Namespace) -> int:
    _check_max_n(args)
    make = FAMILIES["A" if args.which == "A" else "B"]
    rows = {n: make(n) for n in range(1, args.max_n + 1)}
    report = {
        "schema": SCHEMA,
        "which": args.which,
        "rows": {str(n): {"human": p.human(), "coeffs": p.to_json()} for n, p in rows.items()},
    }
    human = "\n".join(f"{n}  {p.human()}" for n, p in rows.items())
    csv_rows = [[n, p.human(), json.dumps(p.to_json())] for n, p in rows.items()]
    _emit_report(
        report, args.format, args.out, human,
        csv_data=(["n", "polynomial", "coeffs"], csv_rows),
    )
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def cmd_figure(args: argparse.Namespace) -> int:
    _emit(st.figure_csv(args.n, args.seed), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_eta(args) -> dict:
    n = args.n
    table = bj.build_peak_transport(n)
    bad = []
    for sig, img in table.items():
        if perms.peak_values(sig) != perms.spv(img) or perms.run_starts(sig) != perms.run_starts(img):
            bad.append([list(sig), list(img)])
    ok = not bad and len(table) == factorial(n) and len(set(table.values())) == factorial(n)
    return {"n": n, "verdict": ok, "n_failures": len(bad), "failures": bad[:10]}


def _suite_interlacing(args) -> dict:
    rep = rr.verify_interlacing_family(args.family, args.max_n)
    rep["n_failures"] = len(rep["failures"])
    return rep


def _suite_same_phase(args) -> dict:
    if args.parallel < 1:
        raise ValueError("parallel must be at least 1")
    samples = args.samples
    if samples < 0:
        raise ValueError("samples must be non-negative")
    # the scan draws from the seed only per sample; refuse a bad one here,
    # before any shard starts, even when no sample is drawn
    SplitMix64.seed_from(args.seed)
    # one shard per worker over consecutive sample ranges; at least one
    # shard, so that a scan of zero samples still reports, and no more
    # workers than usable CPUs
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = max(1, min(args.parallel, cpus))
    chunk = max(1, (samples + workers - 1) // workers)
    jobs = [
        (args.family, args.max_n, min(chunk, samples - start), args.seed, start)
        for start in range(0, max(samples, 1), chunk)
    ]
    if len(jobs) > 1:
        from multiprocessing import Pool

        with Pool(len(jobs)) as pool:
            parts = pool.starmap(rr.conjecture_scan, jobs)
    else:
        parts = [rr.conjecture_scan(*jobs[0])]
    rep = rr.merge_scans(parts)
    rep["n_failures"] = len(rep["failures"])
    return rep


def _suite_egf(args) -> dict:
    order = args.order
    if order < 0:
        raise ValueError("order must be non-negative")
    reports = {
        "runsorted": sr.egf_runsorted_report(order),
        "peaks": sr.egf_peaks_report(min(order, 10)),
        "binary": sr.egf_binary_report(max(order, 12)),
        "sheffer": sr.sheffer_product_check(min(order, 10)),
    }
    means = sr.expected_peaks_series(10)
    checks = [reports["runsorted"]["ok"], reports["peaks"]["ok"], reports["binary"]["ok"],
              reports["sheffer"]["identity_holds"],
              means == [st.expected_peaks(n) for n in range(11)]]
    return {"verdict": all(checks), "n_failures": checks.count(False), "reports": reports}


def _suite_binary(args) -> dict:
    top = args.max_n
    problems = []
    table = bw.product_count_table(top, top)
    for tot in range(0, top + 1):
        for a in range(tot + 1):
            b = tot - a
            cnt = bw.count_runsorted_words(a, b)
            mip = bw.maj_pair_count(a, b)
            want = table[a][b]
            if (a >= 1 and b >= 1) or tot == 0:
                if not (cnt == want == mip):
                    problems.append({"a": a, "b": b, "rsw": cnt, "gf": want, "mip": mip})
            elif not (cnt == 1 and want == 0 and mip == 0):
                problems.append({"a": a, "b": b, "rsw": cnt, "gf": want, "mip": mip})
    for n in range(0, 13):
        if len(bw.symmetric_fixed_words(n)) != bw.partition_count(n):
            problems.append({"fixed_points_n": n})
    roselle = bw.roselle_identity_check(4, 6, 6)
    if not roselle["ok"]:
        problems.append({"roselle": roselle})
    return {
        "max_n": top,
        "verdict": not problems,
        "n_failures": len(problems),
        "failures": problems,
        "note": "pure words 0^a and 1^b are run-sorted but lie outside the "
        "positive-pair product formula; both sides are asserted as such",
    }


def _suite_mip(args) -> dict:
    bad = []
    if (args.a is None) != (args.b is None):
        raise ValueError("--a and --b go together: give both for one cell, or neither")
    if args.a is not None:
        pairs = [(args.a, args.b)]
        top = args.a + args.b
    else:
        top = args.max_n
        pairs = [(a, tot - a) for tot in range(top + 1) for a in range(tot + 1)]
    table = bw.product_count_table(top, top)
    for a, b in pairs:
        got = bw.maj_pair_count(a, b)
        want = table[a][b] if ((a >= 1 and b >= 1) or a + b == 0) else 0
        if got != want:
            bad.append({"a": a, "b": b, "got": got, "want": want})
    cell = {} if args.a is None else {"cell": [args.a, args.b]}
    return {"max_n": top, "verdict": not bad, "n_failures": len(bad), "failures": bad, **cell}


def _suite_golden(args) -> dict:
    ids = sorted(st.GOLDEN) if args.id is None else [args.id]
    reports = [st.golden_check(i) for i in ids]
    return {"verdict": all(r["ok"] for r in reports),
            "n_failures": sum(1 for r in reports if not r["ok"]), "reports": reports}


def _suite_admissibility(args) -> dict:
    top = args.max_n - 1
    perms.check_cap(max(top, 1))
    bad = []
    for m in range(2, top + 1):
        for p in perms.enumerate_sn(m):
            sorted_peaks, slopes = perms.spv(p), perms.slope_set(p)
            for a in range(1, m + 1):
                i = p.index(a)
                if i + 1 < m and p[i + 1] in sorted_peaks:
                    if bj.is_peak_admissible(p, a) != bj.peak_admissible_by_definition(p, a):
                        bad.append({"kind": "peak", "p": list(p), "a": a})
                if a in slopes:
                    if bj.is_slope_admissible(p, a) != bj.slope_admissible_by_definition(p, a):
                        bad.append({"kind": "slope", "p": list(p), "a": a})
    return {"max_n": top + 1, "verdict": not bad, "n_failures": len(bad), "failures": bad[:10]}


# each suite: its body, and {flag: default} for exactly the flags it
# reads (``--family`` and ``--id`` take a name, the rest an integer)
_SUITES = {
    "eta": (_suite_eta, {"n": 7}),
    "interlacing": (_suite_interlacing, {"family": "R", "max_n": 25}),
    "same-phase": (_suite_same_phase,
                   {"family": "Q", "max_n": 8, "samples": 100, "seed": 0, "parallel": 1}),
    "egf": (_suite_egf, {"order": 11}),
    "binary": (_suite_binary, {"max_n": 10}),
    "mip": (_suite_mip, {"max_n": 10, "a": None, "b": None}),
    "golden": (_suite_golden, {"id": None}),
    "admissibility": (_suite_admissibility, {"max_n": 7}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    run, flags = _SUITES[args.suite]
    if "max_n" in flags:
        _check_max_n(args)
    report = {"schema": SCHEMA, "suite": args.suite, **run(args)}
    ok = report["verdict"]
    human = f"{args.suite}: {'pass' if ok else 'FAIL'}"
    if not ok:
        human += "\n" + json.dumps(report.get("failures", report), sort_keys=True, default=str)
    _emit_report(
        report, args.format, args.out, human,
        csv_data=(["suite", "verdict", "failures"], [[args.suite, ok, report["n_failures"]]]),
    )
    if ok:
        return 0
    return 3 if args.suite == "same-phase" else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rslab",
        description="Exact run-sorting toolkit: statistics, tables, verification suites.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(parser=p)

    p_stat = sub.add_parser("stat", help="one statistic of one permutation or binary word")
    src = p_stat.add_mutually_exclusive_group(required=True)
    src.add_argument("--perm", help="comma-separated one-line permutation")
    src.add_argument("--word", help="binary word over 0/1")
    p_stat.add_argument("--which", required=True, choices=sorted(set(_PERM_STATS) | set(_WORD_STATS)))
    common(p_stat)
    p_stat.set_defaults(func=cmd_stat)

    p_tab = sub.add_parser("tables", help="descent/peak polynomial tables")
    p_tab.add_argument("--which", required=True, choices=("A", "peaks"))
    p_tab.add_argument("--max-n", type=int, default=9)
    common(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    suites = p_ver.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in sorted(_SUITES.items()):
        p_suite = suites.add_parser(name)
        for flag, default in flags.items():
            p_suite.add_argument("--" + flag.replace("_", "-"), default=default,
                                 type=str if flag in ("family", "id") else int)
        common(p_suite)
        p_suite.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="scatter CSV of a run-sorted random permutation")
    p_fig.add_argument("--n", type=int, required=True)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--out", metavar="PATH", default=None)
    p_fig.set_defaults(parser=p_fig, func=cmd_figure)

    return top


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # argparse hands a subcommand's unknown arguments up to the top
        # parser; report them under the subcommand's own usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError, perms.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
