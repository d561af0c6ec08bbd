"""Pattern Merging Prefetcher (PMP), Jiang et al., MICRO 2022.

PMP pushes context coarsening to the extreme: spatial patterns are
characterised by the trigger *offset* alone, which guarantees that a match
is almost always found after a short warm-up.  To compensate for the loss of
precision, each offset entry *merges* the 32 most recent footprints into a
vector of per-block counters; prediction thresholds then extract the common
core of those patterns: blocks whose counter exceeds 50% of the maximum
confidence are prefetched into the L1D, blocks above 15% into the L2C.
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import RegionTracker
from repro.sim.types import AccessResult


class PMPPrefetcher(Prefetcher):
    """Offset-indexed, counter-merged spatial footprint prefetcher."""

    name = "pmp"

    def __init__(
        self,
        region_size: int = 4096,
        filter_entries: int = 64,
        accumulation_entries: int = 64,
        max_confidence: int = 32,
        l1_threshold: float = 0.50,
        l2_threshold: float = 0.15,
        anchor_patterns: bool = True,
    ) -> None:
        self.region_size = region_size
        self.blocks = region_size // 64
        self.tracker = RegionTracker(
            region_size=region_size,
            filter_entries=filter_entries,
            accumulation_entries=accumulation_entries,
        )
        self.max_confidence = max_confidence
        self.l1_threshold = l1_threshold
        self.l2_threshold = l2_threshold
        self.anchor_patterns = anchor_patterns
        # One counter vector per trigger offset (the OPT in the paper).
        self.offset_pattern_table: List[List[int]] = [
            [0] * self.blocks for _ in range(self.blocks)
        ]
        self.merge_counts: List[int] = [0] * self.blocks
        self._block_mask = (1 << self.blocks) - 1
        self._observe = self.tracker.observe
        # Integer confidence thresholds: ``_l1_min[s]``/``_l2_min[s]`` is the
        # smallest counter value whose confidence ``count / s`` clears the
        # corresponding float threshold (computed here with the exact float
        # comparison the prediction loop used to perform per block, so the
        # all-integer hot loop below reproduces it bit-for-bit; counters
        # never exceed the merge count, so scanning 0..max_confidence is
        # exhaustive).
        unreachable = 1 << 60
        self._l1_min = [unreachable] * (max_confidence + 1)
        self._l2_min = [unreachable] * (max_confidence + 1)
        for scale in range(1, max_confidence + 1):
            for count in range(max_confidence + 1):
                confidence = count / scale
                if (
                    self._l2_min[scale] == unreachable
                    and confidence >= l2_threshold
                ):
                    self._l2_min[scale] = count
                if (
                    self._l1_min[scale] == unreachable
                    and confidence >= l1_threshold
                ):
                    self._l1_min[scale] = count

    # ------------------------------------------------------------------ #
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        trigger, _activation, deactivations, _entry = self._observe(pc, address)

        for event in deactivations:
            self._merge(event.trigger_offset, event.footprint)

        if trigger is None:
            return []
        return self._predict(trigger.region, trigger.offset)

    def on_cache_eviction(self, block: int) -> None:
        event = self.tracker.on_block_eviction(block)
        if event is not None:
            self._merge(event.trigger_offset, event.footprint)

    def _merge(self, trigger_offset: int, footprint: int) -> None:
        blocks = self.blocks
        max_confidence = self.max_confidence
        block_mask = self._block_mask
        # Inlined rotate_footprint(footprint, -trigger_offset): patterns are
        # stored relative to their trigger.
        pattern = footprint & block_mask
        if self.anchor_patterns and trigger_offset:
            pattern = (
                (pattern << (blocks - trigger_offset))
                | (pattern >> trigger_offset)
            ) & block_mask
        counters = self.offset_pattern_table[trigger_offset]
        merged = self.merge_counts[trigger_offset] + 1
        if merged > max_confidence:
            merged = max_confidence
        self.merge_counts[trigger_offset] = merged
        # Present blocks gain confidence — walk the set bits.
        value = pattern
        while value:
            low = value & -value
            block = low.bit_length() - 1
            count = counters[block] + 1
            counters[block] = count if count < max_confidence else max_confidence
            value ^= low
        if merged >= max_confidence:
            # Saturated: absent blocks decay — walk the clear bits.
            value = ~pattern & block_mask
            while value:
                low = value & -value
                block = low.bit_length() - 1
                if counters[block] > 0:
                    counters[block] -= 1
                value ^= low

    def _predict(self, region: int, trigger_offset: int) -> List[int]:
        counters = self.offset_pattern_table[trigger_offset]
        observed = self.merge_counts[trigger_offset]
        if observed == 0:
            return []
        max_confidence = self.max_confidence
        scale = observed if observed < max_confidence else max_confidence
        l1_min = self._l1_min[scale]
        l2_min = self._l2_min[scale]
        requests: List[int] = []
        blocks = self.blocks
        anchor = self.anchor_patterns
        region_base = region * self.region_size
        append = requests.append
        for block, count in enumerate(counters):
            if count < l2_min:
                continue
            target_offset = (block + trigger_offset) % blocks if anchor else block
            if target_offset == trigger_offset:
                continue
            append(
                (region_base + (target_offset << 6)) >> 6 << 1 | (count >= l1_min)
            )
        return requests

    def storage_bits(self) -> int:
        ft = 64 * (36 + 3 + 12 + 6)
        at = 64 * (36 + 3 + 12 + 6 + self.blocks)
        # OPT: one 5-bit counter per block per offset entry (320b per line in
        # the paper's accounting) plus a coarse counter vector table (PPT).
        opt = self.blocks * (self.blocks * 5)
        ppt = 32 * (self.blocks * 5 // 2)
        pb = 32 * (36 + 3 + 2 * self.blocks)
        return ft + at + opt + ppt + pb

    def reset(self) -> None:
        self.tracker.reset()
        self.offset_pattern_table = [[0] * self.blocks for _ in range(self.blocks)]
        self.merge_counts = [0] * self.blocks
