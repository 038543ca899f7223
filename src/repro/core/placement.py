"""Phase I placement (Algorithm 2).

Transactional jobs always land on the virtual cluster (they are the
tenants whose over-provisioned headroom HybridMR harvests).  A batch
MapReduce job is profiled first; if its *estimated* JCT on the virtual
cluster misses its desired completion time, it goes to the physical
cluster, otherwise it joins the virtual cluster.  Jobs without a
deadline fall back to the virtualization-overhead test: jobs whose
estimated virtual/native slowdown exceeds ``overhead_threshold`` are
deemed virtualization-hostile and kept native.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.core.profiling import ProfileDatabase
from repro.mapreduce.job import JobSpec


class Placement(enum.Enum):
    PHYSICAL = "physical"
    VIRTUAL = "virtual"


class PhaseOneScheduler:
    """Steers initial placement between P_CLUSTER and V_CLUSTER."""

    def __init__(
        self,
        db: ProfileDatabase,
        physical_cluster_size: int,
        virtual_cluster_size: int,
        overhead_threshold: float = 0.15,
    ) -> None:
        if overhead_threshold < 0:
            raise ValueError("overhead_threshold must be non-negative")
        self.db = db
        self.physical_cluster_size = physical_cluster_size
        self.virtual_cluster_size = virtual_cluster_size
        self.overhead_threshold = overhead_threshold

    def place_batch(self, spec: JobSpec) -> Tuple[Placement, Dict[str, object]]:
        """Algorithm 2, lines 4-11, for one batch job.

        Returns the placement and the decision's inputs: its ``reason``
        plus the JCT estimates it consulted (``jct_virtual_s``,
        ``jct_native_s``).
        """
        benchmark = spec.profile.name
        try:
            est_virtual = self.db.estimate(
                benchmark, True, self.virtual_cluster_size, spec.input_gb
            )
        except KeyError:
            # no profile at all: the paper would train first; be
            # conservative and use the physical cluster
            return Placement.PHYSICAL, {"reason": "unprofiled"}
        jct_virtual = est_virtual.jct_s

        if spec.desired_jct_s is not None:
            if jct_virtual >= spec.desired_jct_s:
                placement, reason = Placement.PHYSICAL, "deadline-miss-on-virtual"
            else:
                placement, reason = Placement.VIRTUAL, "deadline-met-on-virtual"
            return placement, {"reason": reason, "jct_virtual_s": jct_virtual}

        # no deadline: classify by expected virtualization overhead
        try:
            est_native = self.db.estimate(
                benchmark, False, self.physical_cluster_size, spec.input_gb
            )
        except KeyError:
            return Placement.VIRTUAL, {
                "reason": "no-native-profile", "jct_virtual_s": jct_virtual,
            }
        jct_native = est_native.jct_s
        overhead = (
            (jct_virtual - jct_native) / jct_native if jct_native > 0 else 0.0
        )
        if overhead > self.overhead_threshold:
            placement, reason = (
                Placement.PHYSICAL,
                f"virt-overhead {overhead:.0%} > {self.overhead_threshold:.0%}",
            )
        else:
            placement, reason = (
                Placement.VIRTUAL,
                f"virt-overhead {overhead:.0%} acceptable",
            )
        return placement, {
            "reason": reason,
            "jct_virtual_s": jct_virtual,
            "jct_native_s": jct_native,
        }

    def place_transactional(self, name: str) -> Placement:
        """Algorithm 2, line 2-3: interactive work is always virtual."""
        return Placement.VIRTUAL
