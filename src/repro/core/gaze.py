"""The Gaze spatial prefetcher (paper §III, Fig. 3).

Gaze is trained on L1D demand loads.  The access flow follows Fig. 3b:

1. A load to a region already tracked by the Accumulation Table (AT) simply
   updates the footprint -- plus, if the region carries the ``stride_flag``,
   the region-local stride logic may *promote* upcoming blocks into the L1D
   (stage 2 of the streaming enhancement, which doubles as the backup
   prefetcher for regions whose strict PHT match failed).
2. A load to a region held by the Filter Table (FT) is the region's second
   access: the region moves to the AT and the Pattern History Module is
   consulted with the (trigger offset, second offset, trigger PC) triple:

   * *streaming case* (trigger = 0, second = 1): the Dense PC Table and the
     Dense Counter decide the stage-1 aggressiveness -- head of the region
     to the L1D and the rest to the L2C when confidence is high, head to
     the L2C only when moderate, nothing otherwise;
   * *normal case*: the PHT is searched with the trigger offset as index and
     the second offset as tag (strict matching); a hit prefetches the whole
     learned footprint into the L1D, a miss sets the stride flag so the
     backup prefetcher can still capture easy-to-follow patterns.
3. A load to an unknown region allocates an FT entry.
4. When an AT entry is evicted, the accumulated footprint is learned: dense
   streaming-candidate regions train the DPCT/DC, everything else trains
   the PHT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.accumulation_table import GazeAccumulationTable, GazeRegionEntry
from repro.core.dense_tracker import StreamingConfidence, StreamingModule
from repro.core.filter_table import GazeFilterTable
from repro.core.pattern_history import GazePatternHistoryTable
from repro.core.prefetch_buffer import GazePrefetchBuffer
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import footprint_to_offsets
from repro.sim.types import AccessResult, RegionGeometry


@dataclass(frozen=True)
class GazeConfig:
    """Tunable parameters of Gaze (defaults match the paper's Table I)."""

    region_size: int = 4096
    filter_entries: int = 64
    accumulation_entries: int = 64
    pht_entries: int = 256
    pht_ways: int = 4
    prefetch_buffer_entries: int = 32
    dpct_entries: int = 8
    dense_counter_bits: int = 3
    #: Number of head blocks given the more aggressive treatment in stage 1
    #: (one quarter of a 4 KB region).
    streaming_head_blocks: int = 16
    #: Stage-2 promotion: number of blocks promoted ahead of the access.
    promotion_degree: int = 4
    #: Stage-2 promotion: blocks skipped immediately ahead of the access.
    promotion_skip: int = 2
    #: Maximum prefetch requests the PB releases per triggering access
    #: (smooths whole-region patterns over several accesses).
    pb_issue_per_access: int = 16
    #: Enable the dedicated streaming module (DPCT/DC two-stage control).
    enable_streaming_module: bool = True
    #: Enable the region-local stride backup for PHT misses.
    enable_stride_backup: bool = True
    #: Enable the normal-case PHT path (disabled by the streaming-only
    #: ablations of Fig. 10).
    enable_pht: bool = True

    @property
    def blocks_per_region(self) -> int:
        """Number of 64-byte blocks per region."""
        return self.region_size // 64


class GazePrefetcher(Prefetcher):
    """Gaze: footprint-internal temporal correlation based spatial prefetcher."""

    name = "gaze"

    def __init__(self, config: Optional[GazeConfig] = None) -> None:
        self.config = config if config is not None else GazeConfig()
        blocks = self.config.blocks_per_region
        self.filter_table = GazeFilterTable(entries=self.config.filter_entries)
        self.accumulation_table = GazeAccumulationTable(
            entries=self.config.accumulation_entries, blocks_per_region=blocks
        )
        self.pht = GazePatternHistoryTable(
            entries=self.config.pht_entries,
            ways=self.config.pht_ways,
            blocks_per_region=blocks,
        )
        self.streaming = StreamingModule(
            dpct_entries=self.config.dpct_entries,
            dc_bits=self.config.dense_counter_bits,
        )
        self.prefetch_buffer = GazePrefetchBuffer(
            entries=self.config.prefetch_buffer_entries, blocks_per_region=blocks
        )
        # Precomputed shift/mask address decomposition for the hot path.
        self._geometry = RegionGeometry(self.config.region_size)
        # Hot-path bindings: train() runs once per demand load and its
        # common cases (tracked region / known-region second access / new
        # region) are one ordered-dict operation each — going through the
        # LRUTable wrappers costs three call layers per access.  The
        # underlying OrderedDicts are stable objects (``clear`` empties
        # them in place), so binding them once is safe.
        self._split = self._geometry.split
        self._at_entries = self.accumulation_table._table._entries
        self._ft_entries = self.filter_table._table._entries
        self._pb_entries = self.prefetch_buffer._table._entries
        self._stride_backup = self.config.enable_stride_backup
        # Stage-1 offset lists are the same for every activation; build the
        # head/tail split once.
        head = min(self.config.streaming_head_blocks, blocks)
        self._stage1_head = tuple(range(head))
        self._stage1_tail = tuple(range(head, blocks))
        # Introspection counters used by the analysis figures/tests.
        self.pht_predictions = 0
        self.streaming_predictions = 0
        self.backup_activations = 0
        self.promotions = 0

    # ------------------------------------------------------------------ #
    # Main training entry point
    # ------------------------------------------------------------------ #
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        region, offset = self._split(address)

        # Tracked region: inlined AT lookup (dict get + LRU re-order), then
        # the PB's nothing-pending fast path inlined the same way — the
        # overwhelmingly common outcome is "no requests".
        at_entries = self._at_entries
        at_entry = at_entries.get(region)
        if at_entry is not None:
            at_entries.move_to_end(region)
            if at_entry.stride_flag and self._stride_backup:
                self._handle_tracked_access(at_entry, offset)
            # Inlined GazeRegionEntry.record (runs on every tracked access).
            at_entry.footprint |= 1 << offset
            if offset != at_entry.last_offset:
                at_entry.penultimate_offset = at_entry.last_offset
                at_entry.last_offset = offset
            at_entry.access_count += 1
            pb_entries = self._pb_entries
            pb_entry = pb_entries.get(region)
            if pb_entry is None:
                return []
            pb_entries.move_to_end(region)
            if pb_entry.pending == 0:
                return []
            return self.prefetch_buffer.pop_requests(
                region,
                self.config.region_size,
                limit=self.config.pb_issue_per_access,
            )

        ft_entries = self._ft_entries
        ft_entry = ft_entries.get(region)
        if ft_entry is not None:
            ft_entries.move_to_end(region)
            if ft_entry.trigger_offset == offset:
                return []
            del ft_entries[region]
            return self._activate_region(region, ft_entry, offset, pc)

        self.filter_table.insert(region, trigger_pc=pc, trigger_offset=offset)
        return []

    # ------------------------------------------------------------------ #
    # Region activation (second access): PHM consultation
    # ------------------------------------------------------------------ #
    def _activate_region(
        self, region: int, ft_entry, second_offset: int, second_pc: int
    ) -> List[int]:
        trigger_offset = ft_entry.trigger_offset
        trigger_pc = ft_entry.trigger_pc
        stride_flag = False
        blocks = self.config.blocks_per_region

        if self._is_streaming_candidate(trigger_offset, second_offset):
            if self.config.enable_streaming_module:
                stride_flag = True
                confidence = self.streaming.confidence(trigger_pc)
                self._apply_stage1(region, confidence, trigger_offset, second_offset)
                if confidence is not StreamingConfidence.NONE:
                    self.streaming_predictions += 1
            elif self.config.enable_pht:
                stride_flag = not self._predict_with_pht(
                    region, trigger_offset, second_offset
                )
            else:
                stride_flag = True
        elif self.config.enable_pht:
            matched = self._predict_with_pht(region, trigger_offset, second_offset)
            stride_flag = not matched and self.config.enable_stride_backup
        else:
            stride_flag = self.config.enable_stride_backup

        _entry, evicted = self.accumulation_table.insert(
            region,
            trigger_pc=trigger_pc,
            trigger_offset=trigger_offset,
            second_offset=second_offset,
            stride_flag=stride_flag,
        )
        if evicted is not None:
            self._learn(evicted)

        return self.prefetch_buffer.pop_requests(
            region,
            self.config.region_size,
            limit=self.config.pb_issue_per_access,
        )

    def _is_streaming_candidate(self, trigger_offset: int, second_offset: int) -> bool:
        return trigger_offset == 0 and second_offset == 1

    def _predict_with_pht(
        self, region: int, trigger_offset: int, second_offset: int
    ) -> bool:
        footprint = self.pht.predict(trigger_offset, second_offset)
        if footprint is None:
            return False
        self.pht_predictions += 1
        offsets = footprint_to_offsets(footprint, self.config.blocks_per_region)
        self.prefetch_buffer.add_pattern(
            region,
            offsets_to_l1=offsets,
            exclude_offsets=(trigger_offset, second_offset),
        )
        return True

    def _apply_stage1(
        self,
        region: int,
        confidence: StreamingConfidence,
        trigger_offset: int,
        second_offset: int,
    ) -> None:
        if confidence is StreamingConfidence.HIGH:
            self.prefetch_buffer.add_pattern(
                region,
                offsets_to_l1=self._stage1_head,
                offsets_to_l2=self._stage1_tail,
                exclude_offsets=(trigger_offset, second_offset),
            )
        elif confidence is StreamingConfidence.MODERATE:
            self.prefetch_buffer.add_pattern(
                region,
                offsets_to_l1=(),
                offsets_to_l2=self._stage1_head,
                exclude_offsets=(trigger_offset, second_offset),
            )
        # StreamingConfidence.NONE: no stage-1 prefetch; the stride flag set
        # by the caller lets stage 2 catch up if streaming materialises.

    # ------------------------------------------------------------------ #
    # Tracked-region accesses: stage-2 promotion / stride backup
    # ------------------------------------------------------------------ #
    def _handle_tracked_access(self, entry: GazeRegionEntry, offset: int) -> None:
        if not entry.stride_flag or not self.config.enable_stride_backup:
            return
        strides = entry.strides_with(offset)
        if strides is None:
            return
        first, second = strides
        if first != second or first == 0:
            return
        stride = first
        blocks = self.config.blocks_per_region
        skip = self.config.promotion_skip
        degree = self.config.promotion_degree
        offsets = []
        for step in range(skip + 1, skip + degree + 1):
            target = offset + stride * step
            if 0 <= target < blocks:
                offsets.append(target)
        if not offsets:
            return
        issued = self.prefetch_buffer.promote(entry.region, offsets)
        if issued:
            self.promotions += 1
            if not entry.is_fully_dense(blocks):
                self.backup_activations += 1

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def _learn(self, entry: GazeRegionEntry) -> None:
        blocks = self.config.blocks_per_region
        streaming_candidate = self._is_streaming_candidate(
            entry.trigger_offset, entry.second_offset
        )
        if streaming_candidate and self.config.enable_streaming_module:
            self.streaming.learn(
                entry.trigger_pc, fully_dense=entry.is_fully_dense(blocks)
            )
            return
        if self.config.enable_pht:
            self.pht.learn(entry.trigger_offset, entry.second_offset, entry.footprint)

    def on_cache_eviction(self, block: int) -> None:
        """Deactivate the block's region when one of its lines leaves the L1D.

        This is the second deactivation trigger the paper describes (besides
        LRU eviction from the AT) and is what keeps learning timely when only
        a handful of regions are active concurrently (e.g. pure streaming).
        """
        region = self._geometry.region_of_block(block)
        entry = self.accumulation_table.remove(region)
        if entry is not None:
            self._learn(entry)

    def drain(self) -> None:
        """Deactivate all tracked regions (learns their footprints)."""
        for entry in self.accumulation_table.drain():
            self._learn(entry)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def storage_bits(self) -> int:
        """Total metadata storage (Table I: ~4.46 KB for the default config)."""
        return (
            self.filter_table.storage_bits()
            + self.accumulation_table.storage_bits()
            + self.pht.storage_bits()
            + self.streaming.storage_bits()
            + self.prefetch_buffer.storage_bits()
        )

    def reset(self) -> None:
        """Clear all internal state."""
        self.filter_table.reset()
        self.accumulation_table.reset()
        self.pht.reset()
        self.streaming.reset()
        self.prefetch_buffer.reset()
        self.pht_predictions = 0
        self.streaming_predictions = 0
        self.backup_activations = 0
        self.promotions = 0
