"""The package is pure Python: importing every module pulls in no numpy."""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules)
"""


def test_every_module_imports_without_numpy():
    # a fresh interpreter: this one may have numpy loaded by test tooling
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    count, numpy_loaded = out.stdout.split()
    assert int(count) > 50
    assert numpy_loaded == "False"
