"""
One pass of one workload, in a fresh interpreter, against ``src/rslab``
of the checkout this file sits in.  run.py starts it; it prints one JSON
line and exits.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace

``setup`` stops once the interpreter has started, imported rslab and
built the op list (inputs included) and reports that moment;
``run`` then times every op; ``trace`` does the same with the tracer
installed, reports per-layer metrics and writes its spans to
``out/spans-<workload>.bin.gz``.  Each op's result is
checked after its timer stops: the verdict always, and the digest when
one was recorded for that op and seed.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"


def import_rslab():
    sys.path.insert(0, str(ROOT / "src"))
    import rslab

    if Path(rslab.__file__).resolve().parent != (ROOT / "src" / "rslab").resolve():
        raise SystemExit(f"rslab was imported from {rslab.__file__}, not from this checkout")
    return rslab


def gate(key, out, check, recorded):
    """Status of one op: ok, unrecorded (verdict only), verdict, digest or
    error; and the digest of its exact result."""
    from workloads import digest

    if isinstance(out, Exception):
        return "error", None
    try:
        ok, exact = check(out)
        d = digest(exact)
    except Exception:
        return "error", None
    if not ok:
        return "verdict", d
    want = recorded.get(key)
    if want is None:
        return "unrecorded", d
    return ("ok" if d == want else "digest"), d


def run_pass(ops, recorded, tracer=None):
    """Time each op, then gate it; return [key, seconds, status, digest] rows."""
    rows = []
    for i, (key, run, check) in enumerate(ops):
        root = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:
            out = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(root)
        rows.append([key, dt, *gate(key, out, check, recorded)])
    return rows


def layer_metrics(tr) -> dict:
    from tracer import LAYERS, MPOLY_BUILDS

    own = tr.self_times()
    c = tr.counters
    sturm = tr.count("realroot.sturm_chain")
    scanned = c["runsorted_scanned"]
    m = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "realroot.sturm_chain.calls": sturm,
        "realroot.sturm_chain.distinct_ratio": len(tr.sturm_inputs) / sturm if sturm else 0.0,
        "realroot.count_real_roots.calls": tr.count("realroot.count_real_roots"),
        "realroot.interlaces.calls": tr.count("realroot.interlaces"),
        "polynomials.divmod.calls": tr.count("polynomials.Poly.divmod"),
        "polynomials.divmod.max_coeff_bits": c["divmod_max_bits"],
        "polynomials.eval.calls": tr.count("polynomials.Poly.__call__"),
        "polynomials.mpoly_build_s": sum(tr.inclusive(n) for n in MPOLY_BUILDS),
        "perms.words_enumerated": c["words_enumerated"],
        "perms.runsorted.yield_ratio": tr.yielded() / scanned if scanned else 0.0,
        "bijections.insert.calls": tr.count("bijections.peak_insert")
        + tr.count("bijections.lex_peak_insert"),
        "bijections.transport.entries": c["transport_entries"],
        "binwords.maj_pair.perms_scanned": c["maj_pair_scanned"],
        "series.mul.calls": tr.count("series.Series.__mul__"),
        "bench.uncovered_s": own.get("bench", 0.0),
        "trace.hook_s": own.get("trace", 0.0),
        "sturm_distinct": len(tr.sturm_inputs),
        "spans": len(tr.s_start),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    rslab = import_rslab()
    from workloads import OP_LISTS

    tracer = None
    if args.mode == "trace":
        # before the op list exists, since ops hold the functions they call
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(rslab)
    ops = OP_LISTS[args.workload](rslab, args.seed)
    t_ready = time.monotonic()
    out: dict = {"t_ready": t_ready}
    if args.mode == "setup":
        out["python"] = platform.python_version()
        out["numpy"] = getattr(sys.modules.get("numpy"), "__version__", None)
        print(json.dumps(out))
        return 0

    recorded = json.loads(DIGESTS.read_text())[args.workload]
    rows = run_pass(ops, recorded, tracer)
    out["ops"] = rows
    out["wall_s"] = sum(r[1] for r in rows)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        out["layers"] = layer_metrics(tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.bin.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
