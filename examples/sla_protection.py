#!/usr/bin/env python
"""SLA protection in action: the paper's Figure 9(a) story.

RUBiS and TPC-W run happily on a virtualized cluster.  Ten minutes in,
a batch of MapReduce jobs lands on collocated VMs and latency blows
through the 2-second SLA.  The Interference Prevention System detects
it, throttles / pauses / migrates the offending guests, and latency
returns below the SLA while the batch still completes.

Run:  python examples/sla_protection.py
"""

from repro.cluster import Cluster
from repro.core import HybridMRConfig, HybridMRScheduler
from repro.interactive import ConstantLoad, InteractiveService, RUBIS, TPCW
from repro.sim import Simulator
from repro.workloads import make_job

BATCH_ARRIVAL_S = 600.0
HORIZON_S = 2100.0


def main() -> None:
    sim = Simulator(seed=11)
    cluster = Cluster.virtual(sim, 8, 3)
    vms = cluster.vms
    rubis_vms = [vms[i] for i in range(0, len(vms), 6)]
    tpcw_vms = [vms[i] for i in range(3, len(vms), 6)]
    batch_vms = [vm for vm in vms if vm not in rubis_vms and vm not in tpcw_vms]

    rubis = InteractiveService(sim, "RUBiS", RUBIS, rubis_vms, ConstantLoad(1200))
    tpcw = InteractiveService(sim, "TPC-W", TPCW, tpcw_vms, ConstantLoad(700))

    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], batch_vms, cluster.pms,
        services=[rubis, tpcw],
        config=HybridMRConfig(phase1_enabled=False),
    )
    scheduler.start()

    def land_batch() -> None:
        print(f"t={sim.now:6.0f}s  batch jobs arrive on the collocated VMs")
        for bench in ("Sort", "Wcount", "Twitter"):
            scheduler.submit(make_job(bench, input_gb=2.0, num_reducers=len(batch_vms)))

    sim.schedule(BATCH_ARRIVAL_S, land_batch)
    sim.run(until=HORIZON_S)

    print(f"\n{'window':>14s}  {'RUBiS ms':>9s}  {'TPC-W ms':>9s}   (peak per window; SLA 2000 ms)")
    for t in range(0, int(HORIZON_S), 120):
        r = rubis.latency_trace.window(t, t + 120).max()
        w = tpcw.latency_trace.window(t, t + 120).max()
        bar = "  <-- SLA violated" if max(r, w) > rubis.sla_ms else ""
        print(f"{t:6d}-{t + 120:<6d}s  {r:9.0f}  {w:9.0f}{bar}")

    print("\nIPS interventions (the decision log's \"ips\" loop):")
    for decision in sim.obs.decisions:
        if decision.loop != "ips":
            continue
        inputs = dict(decision.inputs)
        service = inputs.pop("service")
        detail = " ".join(
            f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in inputs.items()
        )
        print(
            f"  t={decision.time:7.0f}s [{service}] "
            f"{decision.action:8s} {decision.target}  {detail}"
        )
    if scheduler.ips.migrations:
        print("\nlive migrations:")
        for record in scheduler.ips.migrations:
            print(
                f"  {record.vm_name}: {record.src} -> {record.dst} in "
                f"{record.migration_time_s:.1f}s "
                f"(downtime {record.downtime_ms:.0f} ms)"
            )
    final_r = rubis.current_latency_ms
    final_w = tpcw.current_latency_ms
    print(
        f"\nfinal latencies: RUBiS {final_r:.0f} ms, TPC-W {final_w:.0f} ms "
        f"-> {'SLA met' if max(final_r, final_w) < rubis.sla_ms else 'SLA violated'}"
    )
    scheduler.stop()


if __name__ == "__main__":
    main()
