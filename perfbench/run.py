"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-hybrid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet-10k --seed 1 --seconds 30 --trace 1

``--trace 0`` is the timed pass.  It repeats the workload (at least
``MIN_REPS`` times, until ``--seconds`` have passed) and reports the
end-to-end metrics: ``wall_s`` (median timed section), ``setup_s``
(median import time in fresh interpreters plus median per-repetition
set-up) and ``peak_rss_mb``.

``--trace 1`` is the traced pass.  It times untraced repetitions for
half of ``--seconds``, then one repetition under
:class:`perfbench.layers.LayerTracer`, and reports the per-layer metrics
plus the tracing overhead against the untraced repetitions.

Every repetition's output is checked: the workload's invariants must
hold and its digest must equal the digest recorded for the cell seed
(``digests.json``) -- which also proves tracing does not perturb
results.  A repetition that raises or fails a check is a failed
operation.  The last line of standard output is the result object; the
line before it records the environment and each repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: fewest timed repetitions per run, however short ``--seconds`` is
MIN_REPS = 3
#: fresh-interpreter import timings per run (``setup_s``)
IMPORT_SAMPLES = 3


def _import_seconds(modules) -> float:
    """Time importing ``modules`` in a fresh interpreter."""
    code = (
        "import importlib, sys, time\n"
        "t = time.perf_counter()\n"
        "for m in sys.argv[1:]: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, *modules],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _environment() -> dict:
    """What besides the code can move the numbers by tens of percent."""
    from repro.sim.engine import Simulator

    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "REPRO_QUEUE": os.environ.get("REPRO_QUEUE"),
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON"),
        "queue_backend": Simulator(seed=0).queue_stats()["backend"],
        "nproc": os.cpu_count(),
    }


class Runner:
    """Repetitions of one workload at one cell seed, with output checks."""

    def __init__(self, workload, seed: int, recorded: Optional[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.recorded = recorded
        self.reps: List[dict] = []

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps if rep["problems"])

    def _judge(self, rep: dict, result: dict) -> None:
        from perfbench.workloads import digest

        rep["digest"] = digest(result)
        rep["problems"] = list(self.workload.check(result))
        expected = self.recorded or self.reps[0].get("digest") or rep["digest"]
        if rep["digest"] != expected:
            rep["problems"].append(f"digest {rep['digest']} != {expected}")

    def _attempt(self, body) -> dict:
        rep: dict = {"problems": []}
        self.reps.append(rep)
        gc.collect()
        try:
            result = body(rep)
        except Exception as exc:  # a failed operation, reported, not fatal
            traceback.print_exc(file=sys.stderr)
            rep["problems"].append(f"raised {type(exc).__name__}: {exc}")
        else:
            self._judge(rep, result)
        return rep

    def timed(self) -> dict:
        def body(rep: dict) -> dict:
            start = perf_counter()
            execute = self.workload.prepare(self.seed)
            ready = perf_counter()
            result = execute()
            rep["setup_s"] = ready - start
            rep["wall_s"] = perf_counter() - ready
            return result

        return self._attempt(body)

    def traced(self, tracer) -> dict:
        def body(rep: dict) -> dict:
            with tracer.traced():
                result = self.workload.prepare(self.seed)()
            rep["traced_s"] = tracer.wall_s
            return result

        return self._attempt(body)

    def repeat(self, seconds: float, min_reps: int) -> None:
        """Time repetitions until another one would end past ``seconds``
        (judged by the median repetition so far), but at least ``min_reps``."""
        start = perf_counter()
        durations: List[float] = []
        while len(durations) < min_reps or (
            perf_counter() - start + statistics.median(durations) <= seconds
        ):
            began = perf_counter()
            self.timed()
            durations.append(perf_counter() - began)

    def median(self, key: str) -> float:
        """Median over the passing repetitions (all, if none passed)."""
        values = [r[key] for r in self.reps if key in r and not r["problems"]]
        return statistics.median(values or [r[key] for r in self.reps if key in r])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the simulator is imported from the checkout's source tree; without
    # it the imports below fail and no result is printed
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, cell_seed

    workload = WORKLOADS[args.workload]
    seed = cell_seed(args.seed)
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    runner = Runner(workload, seed, recorded)
    info: Dict[str, object] = {"workload": workload.name, "seed": args.seed, "cell_seed": seed}

    if args.trace:
        from perfbench.layers import PER_LAYER_METRICS, LayerTracer

        runner.repeat(args.seconds / 2, 1)
        tracer = LayerTracer()
        runner.traced(tracer)
        untraced = statistics.median(
            r["setup_s"] + r["wall_s"] for r in runner.reps if "wall_s" in r
        )
        values = tracer.metrics()
        values["trace.wall_s"] = tracer.wall_s
        values["trace.overhead_pct"] = 100.0 * (tracer.wall_s - untraced) / untraced
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS
        }
        info["unattributed_detail_s"] = tracer.other_self_s()
    else:
        import_s = [_import_seconds(workload.imports) for _ in range(IMPORT_SAMPLES)]
        runner.repeat(args.seconds, MIN_REPS)
        metrics = {
            "wall_s": {"value": runner.median("wall_s"), "unit": "s"},
            "setup_s": {
                "value": statistics.median(import_s) + runner.median("setup_s"),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        info["import_s"] = import_s

    info["env"] = _environment()
    info["recorded_digest"] = recorded
    info["reps"] = runner.reps
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.reps),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
