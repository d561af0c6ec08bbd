"""Spatial Memory Streaming (SMS), Somogyi et al., ISCA 2006.

SMS learns the spatial footprint of each region and indexes its pattern
history table with the fine-grained event ``PC + trigger offset``.  Learned
footprints are stored *rotated* so that the trigger offset sits at position
zero; on a prediction the pattern is rotated back to the new trigger offset.
Prefetching is awakened by the trigger (first) access to a region.

The evaluated configuration follows Table IV of the paper: 2 KB regions,
64-entry FT/AT, a 16k-entry PHT and a 32-entry prefetch buffer; the huge PHT
is what pushes SMS past 100 KB of storage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import (
    RegionTracker,
    pattern_to_requests,
    rotate_footprint,
)
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, PrefetchHint


class SMSPrefetcher(Prefetcher):
    """PC+Offset indexed spatial footprint prefetcher."""

    name = "sms"

    def __init__(
        self,
        region_size: int = 2048,
        filter_entries: int = 64,
        accumulation_entries: int = 64,
        pht_entries: int = 16384,
    ) -> None:
        self.region_size = region_size
        self.blocks = region_size // 64
        self.tracker = RegionTracker(
            region_size=region_size,
            filter_entries=filter_entries,
            accumulation_entries=accumulation_entries,
        )
        self.pht: LRUTable[tuple, int] = LRUTable(pht_entries)

    # ------------------------------------------------------------------ #
    def _event(self, pc: int, offset: int) -> tuple:
        return (pc & 0xFFFF, offset)

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        trigger, _activation, deactivations, _entry = self.tracker.observe(pc, address)

        for event in deactivations:
            self._learn(event.trigger_pc, event.trigger_offset, event.footprint)

        if trigger is None:
            return []

        anchored = self.pht.get(self._event(trigger.pc, trigger.offset))
        if anchored is None:
            return []
        footprint = rotate_footprint(anchored, trigger.offset, self.blocks)
        return pattern_to_requests(
            region=trigger.region,
            footprint=footprint,
            region_size=self.region_size,
            hint=PrefetchHint.L1,
            exclude_offsets=(trigger.offset,),
        )

    def _learn(self, trigger_pc: int, trigger_offset: int, footprint: int) -> None:
        anchored = rotate_footprint(footprint, -trigger_offset, self.blocks)
        self.pht.put(self._event(trigger_pc, trigger_offset), anchored)

    def on_cache_eviction(self, block: int) -> None:
        event = self.tracker.on_block_eviction(block)
        if event is not None:
            self._learn(event.trigger_pc, event.trigger_offset, event.footprint)

    def storage_bits(self) -> int:
        # FT: 64 x (tag 36 + lru 3 + pc 16 + off 5); AT adds the bit vector;
        # PHT: entries x (tag ~16 + lru + pattern bits); PB: 32 x pattern.
        ft = 64 * (36 + 3 + 16 + 5)
        at = 64 * (36 + 3 + 16 + 5 + self.blocks)
        pht = self.pht.capacity * (16 + 2 + self.blocks)
        pb = 32 * (36 + 3 + 2 * self.blocks)
        return ft + at + pht + pb

    def reset(self) -> None:
        self.tracker.reset()
        self.pht.clear()
