"""
Record the digest of every op's exact result, for seed 0, into
perfbench/digests.json.

    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted: the digests become the
reference the gate compares against.  An op whose verdict check fails is
not recorded, and the script exits with 1.
"""
from __future__ import annotations

import json
import sys

from worker import DIGESTS, import_rslab, run_pass
from workloads import OP_LISTS, WORKLOADS

SEED = 0


def main() -> int:
    rslab = import_rslab()
    out: dict[str, dict[str, str]] = {}
    bad = []
    for workload in WORKLOADS:
        rec = out.setdefault(workload, {})
        for key, _, status, d in run_pass(OP_LISTS[workload](rslab, SEED), {}):
            if status == "unrecorded":
                rec[key] = d
            else:
                bad.append((workload, key, status))
    DIGESTS.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    for item in bad:
        print("not recorded:", *item, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
