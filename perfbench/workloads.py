"""The benchmark's workloads: set-up, timed execution and output check.

Each workload is a pure function of its cell seed.  ``prepare(seed)``
does the set-up (for ``fleet-10k``: the 10k-host cluster, fabric, HDFS
and JobTracker) and returns the zero-argument function the benchmark
times; that function returns a JSON-able result, which ``check`` tests
for the workload's invariants and :func:`digest` hashes.

Why these three (README.md has the long form):

- ``paper-hybrid`` runs the paper's three designs, so work is spread over
  every layer: event queue, pools, fabric, JobTracker, DRM, IPS, VMs.
- ``fleet-10k`` is a 10k-tracker fleet with a bounded wave: nearly all
  time is control-plane scans (``JobTracker`` assignment, ``NameNode``
  target choice), the engine and fabric do almost nothing.
- ``shuffle-fabric`` is all-to-all shuffle on a bare fabric, big enough
  for the vectorized max-min fill to run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.common import BENCH_NAMES, resolve_scale
from repro.experiments.fig09_cross_platform import DESIGNS
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.sweep import cells
from repro.workloads.specs import make_job

#: the benchmark seed selects one of the cell seeds ``1..CELL_SEEDS``;
#: every one of them was run to completion and has a recorded digest
CELL_SEEDS = 16


def cell_seed(seed: int) -> int:
    return 1 + seed % CELL_SEEDS


def digest(result: dict) -> str:
    """sha256 of the canonical JSON form of a workload result."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    #: modules a fresh interpreter imports to run the workload (timed
    #: as part of ``setup_s``)
    imports: Tuple[str, ...]
    #: cell seed -> the function to time; work done before it returns
    #: is set-up
    prepare: Callable[[int], Callable[[], dict]]
    #: result -> invariant violations (empty when the output is right)
    check: Callable[[dict], List[str]]


def paper_hybrid(scale: str = "small") -> Workload:
    """Native, virtual and HybridMR designs running the paper's benchmarks.

    This is the simulation behind the ``headline`` cell (``fig9b_9c``);
    the ``fig09`` cell runs it and returns per-design, per-benchmark
    JCTs, which the completion check needs.
    """
    expected = sorted(b.lower() for b in BENCH_NAMES)

    def prepare(seed: int) -> Callable[[], dict]:
        return functools.partial(cells.load("fig09"), resolve_scale(scale), seed)

    def check(result: dict) -> List[str]:
        problems = []
        for design in DESIGNS:
            jcts = result["jct_seconds"].get(design, {})
            missing = [
                name for name in expected
                if not (math.isfinite(jcts.get(name, math.nan)) and jcts[name] > 0)
            ]
            if missing:
                problems.append(f"{design}: no completions for {missing}")
        return problems

    return Workload(
        "paper-hybrid",
        ("repro.sweep.cells", "repro.experiments.fig09_cross_platform"),
        prepare,
        check,
    )


def fleet(
    scale: str = "large",
    num_maps: int = 256,
    num_reducers: int = 8,
    event_budget: int = 20_000,
) -> Workload:
    """One bounded MapReduce wave over a whole virtual fleet.

    The ``scale-smoke`` cell's scenario with the build moved into set-up,
    so the timed part is job submission (HDFS preload included) and the
    run.  ``large`` is 5,000 PMs x 2 VMs = 10,000 trackers.
    """
    fleet_scale = resolve_scale(scale)
    hosts = fleet_scale.pms * fleet_scale.vms_per_pm

    def prepare(seed: int) -> Callable[[], dict]:
        sim = Simulator(seed=seed)
        cluster = Cluster.virtual(sim, fleet_scale.pms, fleet_scale.vms_per_pm)
        mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
        # one block per map, as in scale-smoke: preload cost follows the
        # bounded wave, not the fleet
        spec = make_job(
            "Wcount", input_gb=num_maps * mr.fs.block_size_mb / 1024.0,
            num_maps=num_maps, num_reducers=num_reducers, name="fleet",
        )

        def execute() -> dict:
            finished = []

            def done(job) -> None:
                finished.append(job)
                sim.stop()

            job = mr.jt.submit(spec, on_complete=done)
            sim.run(max_events=event_budget)
            return {
                "trackers": len(mr.jt.trackers),
                "maps": len(job.map_tasks),
                "reducers": len(job.reduce_tasks),
                "finished": bool(finished),
                "makespan_s": job.jct if finished else None,
                "events": sim.events_processed,
            }

        return execute

    def check(result: dict) -> List[str]:
        problems = []
        if result["trackers"] != hosts:
            problems.append(f"{result['trackers']} trackers, expected {hosts}")
        if not result["finished"]:
            problems.append("job did not finish within the event budget")
        if result["maps"] != num_maps or result["reducers"] != num_reducers:
            problems.append(f"job shape {result['maps']}x{result['reducers']}")
        return problems

    return Workload(
        "fleet-10k",
        (
            "repro.cluster.cluster", "repro.mapreduce.cluster",
            "repro.workloads.specs",
        ),
        prepare,
        check,
    )


def shuffle_fabric(
    scale: str = "medium", waves: int = 5, fanout: int = 5, doomed_per_wave: int = 4
) -> Workload:
    """The ``fabric`` cell: all-to-all shuffle waves with cancels, a NIC
    flap and a partition on a bare fabric."""
    fabric_scale = resolve_scale(scale)
    hosts = fabric_scale.pms * fabric_scale.vms_per_pm

    def prepare(seed: int) -> Callable[[], dict]:
        return functools.partial(
            cells.load("fabric"), fabric_scale, seed,
            waves=waves, fanout=fanout, doomed_per_wave=doomed_per_wave,
        )

    def check(result: dict) -> List[str]:
        # the wave plan: every host fetches ``fanout`` pieces from every
        # other host per wave, and each wave's doomed batch is cancelled
        plan = {
            "hosts": hosts,
            "flows_started": waves * hosts * (hosts - 1) * fanout,
            "flows_cancelled": waves * doomed_per_wave,
        }
        problems = [
            f"{key}={result[key]}, planned {value}"
            for key, value in plan.items() if result[key] != value
        ]
        if len(result["wave_finish_s"]) != waves:
            problems.append(f"{len(result['wave_finish_s'])} of {waves} waves finished")
        return problems

    return Workload(
        "shuffle-fabric",
        ("repro.sweep.cells", "repro.experiments.fabric_micro"),
        prepare,
        check,
    )


#: the benchmark's workloads, by name
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (paper_hybrid(), fleet(), shuffle_fabric())
}

#: small variants of each workload, same code paths, for the tests
TINY: Dict[str, Workload] = {
    w.name: w
    for w in (
        paper_hybrid("tiny"),
        fleet("small", num_maps=16, num_reducers=2),
        shuffle_fabric("tiny", waves=2, fanout=2, doomed_per_wave=2),
    )
}
