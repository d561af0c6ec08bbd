"""Workload generators.

Each generator derives from
:class:`repro.workloads.generators.base.WorkloadGenerator` and produces a
deterministic (seeded) :class:`repro.sim.batch.BatchedTrace`, generated
straight into its columns.
``GENERATORS`` maps short names to generator classes so traces can be
described declaratively by :mod:`repro.workloads.suites`.
"""

from repro.workloads.generators.base import WorkloadGenerator
from repro.workloads.generators.streaming import StreamingWorkload, StridedWorkload
from repro.workloads.generators.spatial import SpatialRecurrenceWorkload
from repro.workloads.generators.graph import GraphWorkload
from repro.workloads.generators.irregular import CloudWorkload, PointerChaseWorkload
from repro.workloads.generators.mixed import MixedPhaseWorkload
from repro.workloads.generators.temporal import (
    HashProbeWorkload,
    RingBufferWorkload,
    TemporalPointerChaseWorkload,
)

GENERATORS = {
    "streaming": StreamingWorkload,
    "strided": StridedWorkload,
    "spatial": SpatialRecurrenceWorkload,
    "graph": GraphWorkload,
    "pointer-chase": PointerChaseWorkload,
    "cloud": CloudWorkload,
    "mixed": MixedPhaseWorkload,
    "temporal-pointer": TemporalPointerChaseWorkload,
    "ring": RingBufferWorkload,
    "hash-probe": HashProbeWorkload,
}

__all__ = [
    "GENERATORS",
    "CloudWorkload",
    "GraphWorkload",
    "HashProbeWorkload",
    "MixedPhaseWorkload",
    "PointerChaseWorkload",
    "RingBufferWorkload",
    "SpatialRecurrenceWorkload",
    "StreamingWorkload",
    "StridedWorkload",
    "TemporalPointerChaseWorkload",
    "WorkloadGenerator",
]
