"""Event-core scale smoke: a datacenter-sized cluster, bounded work.

Not a paper figure.  This cell builds the *full* virtual deployment at
the requested scale (``large`` = 5,000 PMs x 2 VMs = 10,000 hosts;
``huge`` = 100,000) and pushes one bounded MapReduce wave through it
under a hard event budget.  What it proves is breadth, not depth: every
tracker registers with the JobTracker, and task dispatch and HDFS
placement keep choosing from their indexes instead of rescanning the
fleet per decision, while the cluster grows two (``large``) to three
(``huge``) orders of magnitude past the paper's 24-PM testbed.

The wave is capped (``num_maps``/``num_reducers`` parameters) so the
cell fits a CI smoke budget: scale here multiplies *hosts*, not input
bytes, and ``event_budget`` turns a scaling regression into a loud
``RuntimeError`` instead of a hung CI job.  The result is a pure
function of scale, seed and parameters; host timings belong to the
benchmark (``perfbench/``), not to the cell.
"""

from __future__ import annotations

from repro.experiments.common import build_virtual, make_sim, resolve_scale
from repro.mapreduce.cluster import MapReduceCluster
from repro.workloads.specs import make_job


def run(
    scale,
    seed: int,
    num_maps: int = 1024,
    num_reducers: int = 16,
    event_budget: int = 20_000_000,
) -> dict:
    scale = resolve_scale(scale)
    num_maps = int(num_maps)
    num_reducers = int(num_reducers)
    sim = make_sim(seed)
    cluster, contexts = build_virtual(sim, scale.pms, scale.vms_per_pm)
    mr = MapReduceCluster(sim, cluster.fabric, contexts)

    # input sized so the block count equals the map cap -- HDFS setup
    # cost stays proportional to the bounded wave, not the fleet
    input_gb = num_maps * mr.fs.block_size_mb / 1024.0
    spec = make_job(
        "Wcount", input_gb=input_gb, num_maps=num_maps,
        num_reducers=num_reducers, name="scale-smoke",
    )

    done = {"job": None}

    def finished(job) -> None:
        done["job"] = job
        sim.stop()

    job = mr.submit(spec, on_complete=finished)
    sim.run(max_events=event_budget)
    if done["job"] is None:  # pragma: no cover - scaling regression
        raise RuntimeError("scale smoke drained the queue without finishing")

    return {
        "hosts": len(contexts),
        "pms": scale.pms,
        "trackers": len(mr.jt.trackers),
        "maps": num_maps,
        "reducers": num_reducers,
        "makespan_s": round(job.jct, 3),
        "events": sim.events_processed,
    }
