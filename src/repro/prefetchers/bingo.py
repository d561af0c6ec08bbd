"""Bingo spatial data prefetcher, Bakhshalipour et al., HPCA 2019.

Bingo observes that the short event (``PC + trigger offset``) is carried
inside the long event (``PC + trigger address``), so a single history table
can be associated with both: a lookup first tries to find an *exact* match
on the long event and, failing that, falls back to the most recent pattern
associated with the short event.  Exact matches sustain accuracy, short
matches recover coverage -- the TAGE-like co-association the paper's Fig. 1
labels "Dual Pattern Co-associating".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import (
    RegionTracker,
    pattern_to_requests,
    rotate_footprint,
)
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, PrefetchHint


class BingoPrefetcher(Prefetcher):
    """PC+Address / PC+Offset co-associated spatial footprint prefetcher."""

    name = "bingo"

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
        # Long-event table: (pc, region, offset) -> anchored footprint.
        self.pht_long: LRUTable[Tuple[int, int, int], int] = LRUTable(pht_entries)
        # Short-event index: (pc, offset) -> most recent anchored footprint.
        self.pht_short: LRUTable[Tuple[int, int], int] = LRUTable(pht_entries)
        self.long_hits = 0
        self.short_hits = 0

    # ------------------------------------------------------------------ #
    def _long_event(self, pc: int, region: int, offset: int) -> Tuple[int, int, int]:
        return (pc & 0xFFFF, region, offset)

    def _short_event(self, pc: int, offset: int) -> Tuple[int, int]:
        return (pc & 0xFFFF, offset)

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        trigger, _activation, deactivations, _entry = self.tracker.observe(pc, address)

        for event in deactivations:
            self._learn(event)

        if trigger is None:
            return []

        anchored = self.pht_long.get(
            self._long_event(trigger.pc, trigger.region, trigger.offset)
        )
        if anchored is not None:
            self.long_hits += 1
        else:
            anchored = self.pht_short.get(self._short_event(trigger.pc, trigger.offset))
            if anchored is not None:
                self.short_hits += 1
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

    def _learn(self, event) -> None:
        anchored = rotate_footprint(
            event.footprint, -event.trigger_offset, self.blocks
        )
        self.pht_long.put(
            self._long_event(event.trigger_pc, event.region, event.trigger_offset),
            anchored,
        )
        self.pht_short.put(
            self._short_event(event.trigger_pc, event.trigger_offset), anchored
        )

    def on_cache_eviction(self, block: int) -> None:
        event = self.tracker.on_block_eviction(block)
        if event is not None:
            self._learn(event)

    def storage_bits(self) -> int:
        ft = 64 * (36 + 3 + 16 + 5)
        at = 64 * (36 + 3 + 16 + 5 + self.blocks)
        # The hardware design stores one table; the long/short association is
        # realised through dual tag comparison, so count the long table only,
        # with wider tags than SMS.
        pht = self.pht_long.capacity * (30 + 2 + self.blocks)
        pb = 32 * (36 + 3 + 2 * self.blocks)
        return ft + at + pht + pb

    def reset(self) -> None:
        self.tracker.reset()
        self.pht_long.clear()
        self.pht_short.clear()
        self.long_hits = 0
        self.short_hits = 0
