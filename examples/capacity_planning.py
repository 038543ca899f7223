#!/usr/bin/env python
"""Capacity planning with the Figure 11 trade-off sweep.

A cluster operator has a fixed server budget and a recurring workload
mix.  How should the fleet be split between native Hadoop machines and
virtualized hosts?  This example sweeps hybrid configurations, measures
mean JCT, energy and utilization for each, and recommends the
configuration with the best Performance/Energy -- exactly the analysis
the paper suggests an administrator run (Section IV, Figure 11).

Run:  python examples/capacity_planning.py
"""

from repro.experiments.common import Scale
from repro.experiments.fig11_tradeoff import best_and_worst, fig11

BUDGET_PMS = 8


def main(budget_pms: int = BUDGET_PMS) -> None:
    scale = Scale("planning", pms=budget_pms, vms_per_pm=2, input_fraction=0.12)
    print(f"sweeping hybrid splits of a {budget_pms}-server budget...\n")
    results = fig11(scale, total_pms=budget_pms, horizon_s=700.0)

    header = (
        f"{'config':>7s} {'native':>7s} {'VMs':>4s} {'servers':>8s} "
        f"{'meanJCT':>9s} {'energy_kWh':>11s} {'util':>6s} {'perf/energy':>12s}"
    )
    print(header)
    print("-" * len(header))
    for r in sorted(results, key=lambda r: -r.perf_per_energy):
        print(
            f"{r.label:>7s} {r.n_native_pms:7d} {r.n_vms:4d} {r.servers:8d} "
            f"{r.mean_jct_s:8.1f}s {r.energy_joules / 3.6e6:11.3f} "
            f"{r.utilization:6.2f} {r.perf_per_energy:12.3f}"
        )

    best, worst = best_and_worst(results)
    print(
        f"\nrecommendation: {best.label} "
        f"({best.n_native_pms} native machines + {best.n_vms} VMs) -- "
        f"{best.perf_per_energy / worst.perf_per_energy:.1f}x the "
        f"Performance/Energy of the worst split ({worst.label})."
    )
    print(
        "The paper found the same: a mixed configuration (C7, 12 PMs + "
        "12 VMs) beat both the all-native and all-virtual extremes."
    )


if __name__ == "__main__":
    main()
