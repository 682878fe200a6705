"""
Check the tracer against known counts.

    python3 perfbench/selftest.py

``verify_interlacing_family("R", 25)`` at the commit that introduced the
benchmark builds 2443 Sturm chains on 47 distinct polynomials.  The test
traces that call twice in one process and checks that both runs read
those counts exactly, and that the self times of all layers, the
benchmark and the tracer's hooks add up to the traced wall time.  Exits
with 1 when a check fails.
"""
from __future__ import annotations

import sys

from tracer import Tracer
from worker import import_rslab

EXPECTED_CALLS = 2443
EXPECTED_DISTINCT = 47


def traced_run(rslab) -> tuple[bool, int, int, float, float]:
    tr = Tracer()
    tr.install(rslab)
    root = tr.begin_op(0)
    rep = rslab.realroot.verify_interlacing_family("R", 25)
    tr.end_op(root)
    wall = tr.s_end[root] - tr.s_start[root]
    return (rep["verdict"], tr.count("realroot.sturm_chain"), len(tr.sturm_inputs),
            sum(tr.self_times().values()), wall)


def main() -> int:
    rslab = import_rslab()
    ok = True
    for i in range(2):
        verdict, calls, distinct, self_sum, wall = traced_run(rslab)
        print(f"run {i}: {calls} sturm_chain calls on {distinct} distinct inputs; "
              f"self times sum to {self_sum:.6f} s of {wall:.6f} s traced")
        ok &= verdict and calls == EXPECTED_CALLS and distinct == EXPECTED_DISTINCT
        ok &= abs(self_sum - wall) <= 1e-6 * wall
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
