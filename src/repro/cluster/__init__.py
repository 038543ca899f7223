"""Physical cluster substrate: machines, resources, power, topology.

The paper's testbed is 24 dual-core AMD Opteron servers (4 GB RAM,
Ultra320 SCSI, 1 GbE).  :class:`~repro.cluster.machine.PhysicalMachine`
models one such server as a bundle of fair-share pools (CPU, disk) plus
a NIC registered with the cluster-wide :class:`~repro.sim.NetworkFabric`
and a linear power model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Resources",
    "DEFAULT_PM_SPEC",
    "PowerModel",
    "EnergyMeter",
    "PhysicalMachine",
    "ExecutionContext",
    "NativeContext",
    "Cluster",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.resources": ("Resources", "DEFAULT_PM_SPEC"),
    "repro.cluster.power": ("PowerModel", "EnergyMeter"),
    "repro.cluster.machine": ("PhysicalMachine", "ExecutionContext", "NativeContext"),
    "repro.cluster.cluster": ("Cluster",),
})
