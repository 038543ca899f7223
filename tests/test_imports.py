"""The import contract, each check in a fresh interpreter.

The package is pure Python: importing every module pulls in no numpy.
A package ``__init__`` names its exports and loads each one's defining
submodule on first read (``repro._lazy``), so a run imports only the
layers it uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

_PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules)
"""

#: what a cell that touches no cluster must not load
_CLUSTER_FREE = (
    "repro.cluster",
    "repro.hdfs",
    "repro.mapreduce.jobtracker",
    "repro.sweep.runner",
    "repro.obs.live",
    "repro.obs.prof",
    "concurrent.futures",
    "multiprocessing",
)

_LOADED = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(" ".join(sorted(sys.modules)))
"""

_CLI = """
import sys
from repro.cli import main
try:
    main(sys.argv[1:])
except SystemExit:  # --help
    pass
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""

_EXPORTS = """
import importlib, pkgutil, sys
import repro
packages = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
]
problems = []
for name in packages:
    package = importlib.import_module(name)
    bound = set(vars(package))
    stray = set(dir(package)) - bound - set(package.__all__)
    if stray:
        problems.append(f"{name}: lazy names outside __all__: {sorted(stray)}")
    for export in package.__all__:
        try:
            value = getattr(package, export)
        except Exception as exc:
            problems.append(f"{name}.{export}: {type(exc).__name__}: {exc}")
            continue
        if export in bound:
            continue  # bound by the __init__ itself
        holders = [
            module for module_name, module in list(sys.modules.items())
            if module_name.startswith(name + ".")
            and vars(module).get(export) is value
        ]
        if not holders:
            problems.append(f"{name}.{export}: no submodule holds {value!r}")
print(len(packages))
print("\\n".join(problems))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )


def test_every_module_imports_without_numpy():
    # a fresh interpreter: this one may have numpy loaded by test tooling
    count, numpy_loaded = _python("-c", _PROBE).stdout.split()
    assert int(count) > 50
    assert numpy_loaded == "False"


def test_fabric_cell_imports_no_cluster_layer():
    loaded = set(
        _python(
            "-c", _LOADED, "repro.sweep.cells", "repro.experiments.fabric_micro"
        ).stdout.split()
    )
    assert "repro.sim.network" in loaded
    assert sorted(loaded.intersection(_CLUSTER_FREE)) == []


def _cli(*argv):
    """Run ``repro argv`` in a fresh interpreter: (stdout, modules loaded).

    Reads ``sys.modules`` after the command, because ``-X importtime``
    does not log the submodules the lazy exports load through
    ``importlib.import_module``.
    """
    out = _python("-c", _CLI, *argv)
    return out.stdout, set(out.stderr.split())


def test_cli_help_imports_no_cluster_layer():
    stdout, loaded = _cli("--help")
    assert "sweep" in stdout
    assert "repro.cli" in loaded
    unwanted = {"repro.cluster", "repro.mapreduce.jobtracker", "concurrent.futures"}
    assert sorted(loaded & unwanted) == []


def test_cli_list_imports_only_what_it_prints():
    stdout, loaded = _cli("list")
    assert "workloads: mixed shuffle" in stdout
    assert "repro.zoo.study" in loaded
    unwanted = {"repro.mapreduce.jobtracker", "repro.obs.critpath"}
    assert sorted(loaded & unwanted) == []


def test_every_export_resolves_to_its_defining_submodule():
    count, *problems = _python("-c", _EXPORTS).stdout.splitlines()
    assert int(count) >= 15
    assert [p for p in problems if p] == []
