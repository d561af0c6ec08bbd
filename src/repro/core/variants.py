"""Gaze ablations and the context-characterization strawmen of the paper.

These variants power the analysis figures:

* **Fig. 1 / Fig. 9** -- :class:`ContextCharacterizationPrefetcher` realises
  the plain context-based characterization schemes (``Offset``, ``PC``,
  ``PC+Address``); their "-opt" counterparts are PMP, DSPatch and Bingo from
  :mod:`repro.prefetchers`.  :class:`GazePHTOnly` is the "Gaze-PHT" curve
  (two-access characterization without the streaming module).
* **Fig. 4** -- :class:`NInitialAccessGaze` generalises the characterization
  event to the first *N* aligned accesses (N = 1..4).
* **Fig. 10** -- :class:`StreamingOnlyGaze` restricts prefetching to
  streaming-candidate regions and chooses between the PHT (``PHT4SS``) and
  the dedicated streaming module (``SM4SS``).
* **Fig. 18** -- :class:`VirtualGaze` runs Gaze at larger (virtual) region
  sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.gaze import GazeConfig, GazePrefetcher
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.spatial_common import (
    RegionTracker,
    footprint_to_offsets,
    pattern_to_requests,
)
from repro.prefetchers.tables import LRUTable
from repro.sim.types import (
    AccessResult,
    PrefetchHint,
    address_from_region_offset,
    block_offset_in_region,
    region_number,
)


# --------------------------------------------------------------------------- #
# Plain context-based characterization schemes (Fig. 1)
# --------------------------------------------------------------------------- #
class ContextCharacterizationPrefetcher(Prefetcher):
    """Spatial-pattern prefetcher characterised by an environmental context.

    ``scheme`` selects the characterization event extracted from the trigger
    access:

    * ``"offset"``   -- the trigger offset alone (64 possible events);
    * ``"pc"``       -- the (hashed) trigger PC;
    * ``"pc+offset"`` -- trigger PC and trigger offset;
    * ``"pc+addr"``  -- trigger PC and trigger address (region + offset).

    Prefetching is awakened by the trigger access, exactly like the
    conventional designs the paper contrasts Gaze with.
    """

    SCHEMES = ("offset", "pc", "pc+offset", "pc+addr")

    def __init__(
        self,
        scheme: str = "offset",
        region_size: int = 4096,
        table_entries: Optional[int] = None,
    ) -> None:
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown characterization scheme: {scheme!r}")
        self.scheme = scheme
        self.name = f"ctx-{scheme}"
        self.region_size = region_size
        self.blocks = region_size // 64
        if table_entries is None:
            table_entries = self.blocks if scheme == "offset" else 4096
        self.tracker = RegionTracker(
            region_size=region_size, filter_entries=64, accumulation_entries=64
        )
        self.pht: LRUTable[Tuple, int] = LRUTable(table_entries)

    def _event(self, pc: int, region: int, offset: int) -> Tuple:
        if self.scheme == "offset":
            return (offset,)
        if self.scheme == "pc":
            return (pc & 0xFFFF,)
        if self.scheme == "pc+offset":
            return (pc & 0xFFFF, offset)
        return (pc & 0xFFFF, region, offset)

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        trigger, _activation, deactivations, _entry = self.tracker.observe(pc, address)

        for event in deactivations:
            key = self._event(event.trigger_pc, event.region, event.trigger_offset)
            self.pht.put(key, event.footprint)

        if trigger is None:
            return []
        footprint = self.pht.get(
            self._event(trigger.pc, trigger.region, trigger.offset)
        )
        if footprint is None:
            return []
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
            key = self._event(event.trigger_pc, event.region, event.trigger_offset)
            self.pht.put(key, event.footprint)

    def storage_bits(self) -> int:
        tag_bits = {"offset": 6, "pc": 12, "pc+offset": 18, "pc+addr": 48}[self.scheme]
        pht = self.pht.capacity * (tag_bits + 2 + self.blocks)
        tracker = 128 * (36 + 3 + 12 + 6 + self.blocks)
        return pht + tracker

    def reset(self) -> None:
        self.tracker.reset()
        self.pht.clear()


class OffsetOnlyPrefetcher(ContextCharacterizationPrefetcher):
    """Trigger-offset-only characterization (the "Offset" curve)."""

    def __init__(self, region_size: int = 4096) -> None:
        super().__init__(scheme="offset", region_size=region_size)
        self.name = "offset"


class PCOnlyPrefetcher(ContextCharacterizationPrefetcher):
    """Trigger-PC-only characterization (the "PC" curve)."""

    def __init__(self, region_size: int = 4096) -> None:
        super().__init__(scheme="pc", region_size=region_size, table_entries=256)
        self.name = "pc"


class PCAddressPrefetcher(ContextCharacterizationPrefetcher):
    """PC+Address characterization (the "PC+Addr" curve, SMS-like cost)."""

    def __init__(self, region_size: int = 4096) -> None:
        super().__init__(scheme="pc+addr", region_size=region_size, table_entries=16384)
        self.name = "pc+addr"


# --------------------------------------------------------------------------- #
# Gaze ablations
# --------------------------------------------------------------------------- #
class GazePHTOnly(GazePrefetcher):
    """Gaze's two-access characterization without the streaming module.

    This is the "Gaze-PHT" configuration of Fig. 9: streaming-candidate
    regions are treated like any other region (their dense footprints go
    through the PHT), and neither the two-stage aggressiveness control nor
    the stride backup is active.
    """

    name = "gaze-pht"

    def __init__(self, region_size: int = 4096, pht_entries: int = 256) -> None:
        super().__init__(
            GazeConfig(
                region_size=region_size,
                pht_entries=pht_entries,
                enable_streaming_module=False,
                enable_stride_backup=False,
            )
        )


class VirtualGaze(GazePrefetcher):
    """vGaze: Gaze operating on virtual addresses with a larger region size.

    Because virtual addresses are visible at the L1D, Gaze can track regions
    larger than a physical page without architectural support (Fig. 18).
    """

    def __init__(self, region_size: int = 4096, pht_entries: int = 256) -> None:
        super().__init__(
            GazeConfig(region_size=region_size, pht_entries=pht_entries)
        )
        self.name = f"vgaze-{region_size // 1024}kb"


class StreamingOnlyGaze(GazePrefetcher):
    """Fig. 10 ablations: prefetch only in streaming-candidate regions.

    ``use_streaming_module=False`` is **PHT4SS** (the dense pattern is learned
    and replayed through the PHT); ``True`` is **SM4SS** (the dedicated
    DPCT/DC module handles it).  Non-streaming regions are tracked for
    learning but never trigger prefetches.
    """

    def __init__(self, use_streaming_module: bool, region_size: int = 4096) -> None:
        super().__init__(
            GazeConfig(
                region_size=region_size,
                enable_streaming_module=use_streaming_module,
                enable_pht=True,
                enable_stride_backup=use_streaming_module,
            )
        )
        self.use_streaming_module = use_streaming_module
        self.name = "sm4ss" if use_streaming_module else "pht4ss"

    def _activate_region(self, region, ft_entry, second_offset, second_pc):
        if not self._is_streaming_candidate(ft_entry.trigger_offset, second_offset):
            # Track (and learn) the region but never awaken prefetching.
            _entry, evicted = self.accumulation_table.insert(
                region,
                trigger_pc=ft_entry.trigger_pc,
                trigger_offset=ft_entry.trigger_offset,
                second_offset=second_offset,
                stride_flag=False,
            )
            if evicted is not None:
                self._learn(evicted)
            return []
        if self.use_streaming_module:
            return super()._activate_region(region, ft_entry, second_offset, second_pc)
        # PHT4SS: use the PHT even for the streaming case.
        trigger_offset = ft_entry.trigger_offset
        matched = self._predict_with_pht(region, trigger_offset, second_offset)
        _entry, evicted = self.accumulation_table.insert(
            region,
            trigger_pc=ft_entry.trigger_pc,
            trigger_offset=trigger_offset,
            second_offset=second_offset,
            stride_flag=False,
        )
        if evicted is not None:
            self._learn(evicted)
        return self.prefetch_buffer.pop_requests(region, self.config.region_size)

    def _learn(self, entry) -> None:
        streaming_candidate = self._is_streaming_candidate(
            entry.trigger_offset, entry.second_offset
        )
        if not streaming_candidate:
            # Still learn normal patterns into the PHT so PHT4SS has material
            # to work with (matches the paper's description: both settings
            # only *operate* in streaming regions).
            self.pht.learn(entry.trigger_offset, entry.second_offset, entry.footprint)
            return
        if self.use_streaming_module:
            self.streaming.learn(
                entry.trigger_pc,
                fully_dense=entry.is_fully_dense(self.config.blocks_per_region),
            )
        else:
            self.pht.learn(entry.trigger_offset, entry.second_offset, entry.footprint)


# --------------------------------------------------------------------------- #
# Fig. 4: number of aligned initial accesses
# --------------------------------------------------------------------------- #
@dataclass
class _PendingRegion:
    """A region waiting to accumulate ``n`` distinct initial offsets."""

    trigger_pc: int
    initial_offsets: List[int] = field(default_factory=list)
    footprint: int = 0

    def record(self, offset: int, n: int) -> bool:
        """Record an access; True once ``n`` distinct offsets are collected."""
        self.footprint |= 1 << offset
        if offset not in self.initial_offsets and len(self.initial_offsets) < n:
            self.initial_offsets.append(offset)
        return len(self.initial_offsets) >= n


class NInitialAccessGaze(Prefetcher):
    """Characterize patterns with the first ``n`` aligned accesses (Fig. 4).

    ``n = 1`` degenerates to the Offset scheme, ``n = 2`` to Gaze-PHT; larger
    ``n`` trades coverage and timeliness for accuracy exactly as the paper's
    exploration shows.  The index event is the ordered concatenation of the
    first ``n`` distinct offsets; the history table is fully associative with
    256 entries (as in the paper's exploration methodology).
    """

    def __init__(
        self,
        n: int = 2,
        region_size: int = 4096,
        table_entries: int = 256,
        tracked_regions: int = 64,
    ) -> None:
        if not 1 <= n <= 8:
            raise ValueError("n must be between 1 and 8")
        self.n = n
        self.name = f"gaze-n{n}"
        self.region_size = region_size
        self.blocks = region_size // 64
        self.pht: LRUTable[Tuple[int, ...], int] = LRUTable(table_entries)
        self.pending: LRUTable[int, _PendingRegion] = LRUTable(tracked_regions)

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        region = region_number(address, self.region_size)
        offset = block_offset_in_region(address, self.region_size)

        entry = self.pending.get(region)
        if entry is None:
            entry = _PendingRegion(trigger_pc=pc)
            evicted = self.pending.put(region, entry)
            if evicted is not None:
                self._learn(evicted[1])
        already_ready = len(entry.initial_offsets) >= self.n
        ready = entry.record(offset, self.n)

        if ready and not already_ready:
            key = tuple(entry.initial_offsets)
            footprint = self.pht.get(key)
            if footprint is None:
                return []
            return pattern_to_requests(
                region=region,
                footprint=footprint,
                region_size=self.region_size,
                hint=PrefetchHint.L1,
                exclude_offsets=entry.initial_offsets,
            )
        return []

    def _learn(self, entry: _PendingRegion) -> None:
        if len(entry.initial_offsets) < self.n:
            return
        self.pht.put(tuple(entry.initial_offsets), entry.footprint)

    def on_cache_eviction(self, block: int) -> None:
        region = (block * 64) // self.region_size
        entry = self.pending.pop(region)
        if entry is not None:
            self._learn(entry)

    def drain(self) -> None:
        """Learn every pending region (end-of-run)."""
        for _region, entry in list(self.pending.items()):
            self._learn(entry)
        self.pending.clear()

    def storage_bits(self) -> int:
        event_bits = 6 * self.n
        pht = self.pht.capacity * (event_bits + 2 + self.blocks)
        tracker = self.pending.capacity * (36 + 3 + 12 + event_bits + self.blocks)
        return pht + tracker

    def reset(self) -> None:
        self.pht.clear()
        self.pending.clear()
