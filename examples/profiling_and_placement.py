#!/usr/bin/env python
"""Phase I end to end: train the profiler, estimate, place jobs.

Reproduces the paper's workflow: MapReduce jobs are first run on a small
training cluster (both native and virtual instances), the profile
database learns JCT as a function of data size and cluster size
(Algorithm 1), and incoming jobs are steered to the physical or virtual
cluster by comparing estimates with their desired completion times
(Algorithm 2).

Run:  python examples/profiling_and_placement.py
"""

from repro.core import JobProfiler, PhaseOneScheduler
from repro.workloads import make_job

TRAIN_SIZES_GB = [0.5, 1.0, 2.0]
TRAIN_CLUSTER = 4  # nodes in the training cluster
TARGET_CLUSTER = 12  # nodes in the production clusters


def main() -> None:
    profiler = JobProfiler(repeats=3)

    print("training (each row is 3 averaged simulation runs):")
    for bench in ("Sort", "PiEst", "Wcount"):
        for gb in TRAIN_SIZES_GB:
            native = profiler.profile(bench, gb, TRAIN_CLUSTER, virtual=False)
            virtual = profiler.profile(bench, gb, TRAIN_CLUSTER, virtual=True)
            overhead = 100 * (virtual.jct_s - native.jct_s) / native.jct_s
            print(
                f"  {bench:7s} {gb:4.1f}GB on {TRAIN_CLUSTER} nodes: "
                f"native {native.jct_s:6.1f}s, virtual {virtual.jct_s:6.1f}s "
                f"({overhead:+5.1f}%)"
            )

    print("\nestimates for unseen configurations (Algorithm 1):")
    for bench, gb in (("Sort", 1.5), ("Sort", 3.0), ("PiEst", 1.0)):
        est = profiler.db.estimate(bench, True, TRAIN_CLUSTER, gb)
        print(
            f"  {bench:7s} {gb:4.1f}GB virtual: {est.jct_s:6.1f}s "
            f"(map {est.map_time_s:.1f}s + reduce {est.reduce_time_s:.1f}s, "
            f"via {est.method})"
        )

    print("\nplacement decisions (Algorithm 2):")
    phase1 = PhaseOneScheduler(
        profiler.db,
        physical_cluster_size=TRAIN_CLUSTER,
        virtual_cluster_size=TRAIN_CLUSTER,
    )
    submissions = [
        make_job("Sort", input_gb=1.5, name="nightly-etl", desired_jct_s=60.0),
        make_job("Sort", input_gb=1.5, name="adhoc-sort", desired_jct_s=600.0),
        make_job("PiEst", name="monte-carlo"),  # no deadline: overhead test
        make_job("Wcount", input_gb=1.0, name="log-counts", desired_jct_s=45.0),
    ]
    for spec in submissions:
        placement, inputs = phase1.place_batch(spec)
        deadline = f"{spec.desired_jct_s:.0f}s" if spec.desired_jct_s else "none"
        estimates = ", ".join(
            f"{side} {inputs[key]:.0f}s"
            for side, key in (("virtual", "jct_virtual_s"), ("native", "jct_native_s"))
            if key in inputs
        )
        print(
            f"  {spec.name:12s} (deadline {deadline:>5s}) -> "
            f"{placement.value:8s}  [{inputs['reason']}; est. {estimates}]"
        )


if __name__ == "__main__":
    main()
