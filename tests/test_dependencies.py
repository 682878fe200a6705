"""The package needs nothing beyond the standard library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

IMPORT_ALL = """
import importlib, pkgutil, sys
import rslab
names = [m.name for m in pkgutil.iter_modules(rslab.__path__) if m.name != "__main__"]
assert "cli" in names, names
for name in names:
    importlib.import_module("rslab." + name)
print("numpy" in sys.modules)
"""


def test_no_numpy_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
