"""Every demo script runs to completion and prints exactly its pinned text."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic, and a new
# demo needs its digest here
STDOUT_SHA256 = {
    "01_run_sorting_basics.py":
        "3ee9c9df730ea11da277891b5ce3f718c39d74b514b63dea8aebc9ecadc04f37",
    "02_set_partition_bijection.py":
        "885cb42692a22ab7ff3f08ae15836dea54f2d52b295930b68f7df7f59d3864a2",
    "03_insertion_bijections.py":
        "9bc3e6da10d4b4e5b660d444b18b32e150d772d05be3fc0a113ac327e8493eaf",
    "04_peak_transport.py":
        "17a37d13c036d46969ea2939d905ee76a6caac9f43456300412e466ab9a0d491",
    "05_descent_polynomials_and_egfs.py":
        "d4f8b648dc6f66c83ff1a4228fc4a4928b67ea7945aef6b35ebb4abfb8b9b39d",
    "06_real_rootedness_interlacing.py":
        "763385abc4770d80709679b2bc5b72656bfc3fe8f2c62e0435b88993d47f5078",
    "07_binary_words.py":
        "4aac05b8931683db367ab486247d68c281ed6522705ec7450889b358a55f2721",
    "08_expectations_and_figure.py":
        "7f319caa49795a063f7d6bf667bdef5bfc15007bbd26a80f21f2cf3895cbfeea",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], \
        proc.stdout.decode()
