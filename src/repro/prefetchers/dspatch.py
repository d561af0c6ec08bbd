"""Dual Spatial Pattern Prefetcher (DSPatch), Bera et al., MICRO 2019.

DSPatch characterises spatial patterns per trigger *PC* and keeps two
patterns per PC:

* **CovP** -- the bitwise OR of recently observed footprints (coverage
  biased), and
* **AccP** -- the bitwise AND (accuracy biased).

At prediction time the prefetcher selects between the two based on how much
memory bandwidth headroom is available: plenty of headroom favours CovP,
scarce bandwidth favours AccP.  The bandwidth signal is approximated here by
an exponential moving average of observed demand-miss latency (a saturated
DRAM channel inflates demand latency in our DRAM model, so the signal tracks
the same physical quantity the hardware design measures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import (
    RegionTracker,
    pattern_to_requests,
    rotate_footprint,
)
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, PrefetchHint


@dataclass(slots=True)
class _SignatureEntry:
    """Per-PC dual pattern state."""

    coverage_pattern: int = 0
    accuracy_pattern: int = 0
    trained: int = 0


class DSPatchPrefetcher(Prefetcher):
    """PC-indexed dual-pattern (OR / AND) spatial prefetcher."""

    name = "dspatch"

    def __init__(
        self,
        region_size: int = 2048,
        page_buffer_entries: int = 64,
        signature_entries: int = 256,
        latency_threshold: float = 120.0,
    ) -> None:
        self.region_size = region_size
        self.blocks = region_size // 64
        self.tracker = RegionTracker(
            region_size=region_size,
            filter_entries=page_buffer_entries,
            accumulation_entries=page_buffer_entries,
        )
        self.signatures: LRUTable[int, _SignatureEntry] = LRUTable(signature_entries)
        self.latency_threshold = latency_threshold
        self._latency_ema = 0.0

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        if result is not None:
            self._latency_ema = 0.95 * self._latency_ema + 0.05 * result.latency

        trigger, _activation, deactivations, _entry = self.tracker.observe(pc, address)

        for event in deactivations:
            self._learn(event.trigger_pc, event.trigger_offset, event.footprint)

        if trigger is None:
            return []

        entry = self.signatures.get(pc & 0xFFF)
        if entry is None or entry.trained == 0:
            return []

        bandwidth_constrained = self._latency_ema > self.latency_threshold
        anchored = (
            entry.accuracy_pattern if bandwidth_constrained else entry.coverage_pattern
        )
        if anchored == 0:
            anchored = entry.coverage_pattern
        if anchored == 0:
            return []

        footprint = rotate_footprint(anchored, trigger.offset, self.blocks)
        return pattern_to_requests(
            region=trigger.region,
            footprint=footprint,
            region_size=self.region_size,
            hint=PrefetchHint.L1,
            exclude_offsets=(trigger.offset,),
        )

    def on_cache_eviction(self, block: int) -> None:
        event = self.tracker.on_block_eviction(block)
        if event is not None:
            self._learn(event.trigger_pc, event.trigger_offset, event.footprint)

    def _learn(self, trigger_pc: int, trigger_offset: int, footprint: int) -> None:
        anchored = rotate_footprint(footprint, -trigger_offset, self.blocks)
        key = trigger_pc & 0xFFF
        entry = self.signatures.get(key)
        if entry is None:
            entry = _SignatureEntry(
                coverage_pattern=anchored, accuracy_pattern=anchored, trained=1
            )
            self.signatures.put(key, entry)
            return
        entry.coverage_pattern |= anchored
        entry.accuracy_pattern &= anchored
        entry.trained += 1
        # Periodically decay the coverage pattern so it does not saturate.
        if entry.trained % 32 == 0:
            entry.coverage_pattern = anchored | entry.accuracy_pattern

    def storage_bits(self) -> int:
        page_buffer = 64 * (36 + 3 + 12 + 5 + self.blocks)
        spt = self.signatures.capacity * (2 * self.blocks + 12 + 4)
        pb = 32 * (36 + 3 + 2 * self.blocks)
        return page_buffer + spt + pb

    def reset(self) -> None:
        self.tracker.reset()
        self.signatures.clear()
        self._latency_ema = 0.0
