#!/usr/bin/env python
"""Quickstart: run MapReduce jobs on a simulated hybrid data center.

Builds the paper's hybrid shape (native Hadoop nodes plus batch VMs
collocated with an interactive service), submits a few jobs through the
HybridMR scheduler and prints what happened, reading each job's side
and the IPS's interventions from the decision log (``sim.obs.decisions``).

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster
from repro.core import HybridMRConfig, HybridMRScheduler
from repro.interactive import ConstantLoad, InteractiveService, RUBIS
from repro.sim import Simulator
from repro.workloads import make_job


def main() -> None:
    sim = Simulator(seed=42)

    # 4 native Hadoop machines + 4 virtualized hosts with 3 guests each:
    # one guest per host runs the RUBiS web tier, the rest take batch work
    cluster = Cluster.hybrid(sim, n_native_pms=4, n_virt_pms=4, vms_per_pm=3)
    service_vms = [vm for i, vm in enumerate(cluster.vms) if i % 3 == 0]
    batch_vms = [vm for vm in cluster.vms if vm not in service_vms]

    rubis = InteractiveService(
        sim, "rubis", RUBIS, service_vms, ConstantLoad(900), sla_ms=2000.0
    )

    scheduler = HybridMRScheduler(
        sim,
        cluster.fabric,
        cluster.native_contexts(),
        batch_vms,
        cluster.pms,
        services=[rubis],
        config=HybridMRConfig(phase1_enabled=False),  # no profile DB yet
    )
    scheduler.start()
    meter = cluster.start_metering()

    jobs = scheduler.run_batch(
        [
            make_job("Sort", input_gb=2.0, num_reducers=8, name="sort-demo"),
            make_job("Wcount", input_gb=2.0, num_reducers=8, name="wcount-demo"),
            make_job("Kmeans", input_gb=1.0, num_reducers=8, name="kmeans-demo"),
        ]
    )
    meter.stop()

    print(f"simulated {sim.now:.0f} s on {cluster.powered_servers()} servers\n")
    sides = {d.target: d.action for d in sim.obs.decisions if d.loop == "phase1"}
    for job in jobs:
        placement = sides[job.spec.name]
        print(
            f"  {job.spec.name:12s} -> {placement:8s} "
            f"JCT={job.jct:7.1f}s  (map {job.map_phase_time:.1f}s, "
            f"reduce {job.reduce_phase_time:.1f}s, "
            f"{len(job.map_tasks)} maps / {len(job.reduce_tasks)} reduces)"
        )
    print(
        f"\n  RUBiS mean latency: {rubis.mean_latency_ms():.0f} ms "
        f"(SLA {rubis.sla_ms:.0f} ms, violations "
        f"{100 * rubis.violation_fraction():.1f}% of epochs)"
    )
    print(f"  cluster energy: {meter.energy_kwh:.3f} kWh")
    drm = [d for d in sim.obs.decisions if d.loop == "drm"]
    print(f"  DRM actuations: {len(drm)}")
    ips = [d for d in sim.obs.decisions if d.loop == "ips"]
    if ips:
        print(f"  IPS interventions: {len(ips)}")
        for decision in ips[:5]:
            print(f"    t={decision.time:6.0f}s {decision.action:8s} {decision.target}")
    scheduler.stop()


if __name__ == "__main__":
    main()
