"""
The rslab benchmark: one workload, one seed, one mode per call.

    python3 perfbench/run.py --workload interlace|enumerate \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it times that checkout's
``src/rslab``.  The load is a closed loop with one client: a pass runs
the workload's op list once, one op after another, in a fresh
interpreter, so every pass pays to fill rslab's ``lru_cache``s.

``--trace 0`` first starts SETUP_SAMPLES interpreters that only import
rslab and build the inputs, then runs passes while another pass still
fits in ``--seconds``, and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` runs one plain pass and one traced pass
and reports the per-layer metrics.  Each op's result is checked outside
its timer (see worker.py).  The last line of standard output is the
result object; the line before it carries the run's metadata.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170
FAILED = ("verdict", "digest", "error")


def spawn(args, mode: str, deadline: float) -> dict:
    """Start one worker, wait for it, and return its report with
    ``setup_s`` (start to inputs ready) and ``process_s`` added."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    # Bytecode is cached under OUT whatever the caller's environment says,
    # so that setup_s times imports from cached bytecode on every host and
    # never reads a stale __pycache__ left beside the sources.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_ready"] - t0
    rep["process_s"] = time.monotonic() - t0
    return rep


def tree_sha256(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def metadata(args, setup_rep: dict) -> dict:
    return {
        "git_revision": git_revision(),
        "src_sha256": tree_sha256((ROOT / "src" / "rslab").rglob("*.py")),
        "bench_sha256": tree_sha256([*HERE.glob("*.py"), HERE / "digests.json",
                                     ROOT / "BENCHMARK.json"]),
        "python": setup_rep["python"],
        "numpy": setup_rep["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def gate_summary(passes: list[dict], seed: int) -> tuple[int, int, str]:
    rows = [r for p in passes for r in p["ops"]]
    failed = [r for r in rows if r[2] in FAILED]
    for key, _, status, _ in failed[:10]:
        print(f"failed op {key}: {status}", file=sys.stderr)
    unrecorded = sum(r[2] == "unrecorded" for r in passes[0]["ops"])
    note = "every op checked against its recorded digest and verdict"
    if unrecorded:
        note = (f"seed {seed}: {unrecorded} of {len(passes[0]['ops'])} ops per pass have "
                "no recorded digest; for them the gate checks verdicts only")
    return len(rows), len(failed), note


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setup_reps = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    t0 = time.monotonic()
    while True:
        passes.append(spawn(args, "run", deadline))
        longest = max(p["process_s"] for p in passes)
        if time.monotonic() - t0 + longest > args.seconds:
            break
    # each op at its median over the passes, which filters out bursts of
    # load from other processes on the machine
    lat = [statistics.median(t) for t in zip(*([r[1] for r in p["ops"]] for p in passes))]
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in setup_reps + passes]),
        "wall_s": sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "op_count": len(passes[0]["ops"]),
        "passes": len(passes),
    }
    return values, passes, setup_reps[0]


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setup_rep = spawn(args, "setup", deadline)
    plain = spawn(args, "run", deadline)
    traced = spawn(args, "trace", deadline)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return values, [plain, traced], setup_rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rslab" / "__init__.py").is_file():
        print(f"error: no src/rslab under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            values, passes, setup_rep = per_layer(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, passes, setup_rep = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, note = gate_summary(passes, args.seed)
    meta = metadata(args, setup_rep)
    meta["gate"] = note
    meta["values"] = values
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
