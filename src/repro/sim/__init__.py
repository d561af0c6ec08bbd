"""Trace-driven, cycle-approximate memory-hierarchy simulator.

This package is the substrate the paper relies on (ChampSim in the original
work).  It provides:

* :mod:`repro.sim.config` -- system configuration dataclasses mirroring the
  paper's Table II (core width, ROB size, cache geometry, DRAM channels).
* :mod:`repro.sim.cache` -- set-associative caches with LRU replacement,
  MSHRs and per-block prefetch bookkeeping.
* :mod:`repro.sim.dram` -- a channel/row-buffer/bandwidth DRAM model.
* :mod:`repro.sim.hierarchy` -- a three-level hierarchy (L1D, L2C, shared
  LLC) that routes demand and prefetch requests and computes latencies.
* :mod:`repro.sim.cpu` -- an analytic out-of-order core timing model
  (ROB-windowed, in-order retire) converting access latencies into cycles.
* :mod:`repro.sim.simulator` / :mod:`repro.sim.multicore` -- drivers that
  run a trace (or a multi-core mix) against a configured hierarchy plus a
  prefetcher and return a :class:`repro.sim.stats.SimulationStats`.
"""

from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    SystemConfig,
    default_system_config,
)
from repro.sim.types import (
    AccessType,
    BLOCK_SIZE,
    MemoryAccess,
    PrefetchHint,
    block_number,
    block_offset_in_region,
    region_base_address,
    region_number,
)
from repro.sim.cache import Cache, CacheBlock
from repro.sim.dram import DRAMModel
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.cpu import CoreTimingModel
from repro.sim.stats import MultiCoreStats, PrefetchStats, SimulationStats
from repro.sim.simulator import SingleCoreSimulator, simulate_trace
from repro.sim.multicore import MultiCoreSimulator, simulate_mix

__all__ = [
    "AccessType",
    "BLOCK_SIZE",
    "Cache",
    "CacheBlock",
    "CacheConfig",
    "CacheHierarchy",
    "CoreConfig",
    "CoreTimingModel",
    "DRAMConfig",
    "DRAMModel",
    "MemoryAccess",
    "MultiCoreSimulator",
    "MultiCoreStats",
    "PrefetchHint",
    "PrefetchStats",
    "SimulationStats",
    "SingleCoreSimulator",
    "SystemConfig",
    "block_number",
    "block_offset_in_region",
    "default_system_config",
    "region_base_address",
    "region_number",
    "simulate_mix",
    "simulate_trace",
]
