"""Structures shared by all spatial-pattern-based prefetchers.

Spatial prefetchers (SMS, Bingo, DSPatch, PMP and Gaze) share a common
front end:

* a **Filter Table (FT)** holds regions that have been touched exactly once,
  so that one-bit footprints never pollute the pattern history;
* an **Accumulation Table (AT)** tracks currently active regions and
  accumulates their footprint bit vectors;
* when a region is *deactivated* (its AT entry is evicted by LRU), the
  accumulated footprint is handed to the prefetcher for learning.

:class:`RegionTracker` implements that front end once, parameterised by the
region size and the FT/AT capacities, and reports three kinds of events to
the owning prefetcher:

* ``TriggerEvent`` -- first access to an untracked region;
* ``ActivationEvent`` -- second (different-block) access, i.e. the moment a
  region moves from the FT to the AT.  This carries the trigger offset, the
  second offset and the trigger PC -- everything Gaze's pattern
  characterization needs;
* ``DeactivationEvent`` -- the accumulated footprint of a region whose
  tracking ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.prefetchers.tables import LRUTable
from repro.sim.types import (
    BLOCK_SHIFT,
    BLOCK_SIZE,
    PrefetchHint,
    RegionGeometry,
    blocks_per_region,
)


@dataclass(slots=True)
class TriggerEvent:
    """First access to a region not currently tracked."""

    region: int
    pc: int
    offset: int
    address: int


@dataclass(slots=True)
class ActivationEvent:
    """Second access to a region: it is now tracked by the AT."""

    region: int
    trigger_pc: int
    trigger_offset: int
    second_pc: int
    second_offset: int


@dataclass(slots=True)
class DeactivationEvent:
    """A region's tracking ended; its footprint is ready for learning."""

    region: int
    footprint: int
    trigger_pc: int
    trigger_offset: int
    second_offset: int
    access_count: int


@dataclass(slots=True)
class FilterTableEntry:
    """FT entry: a region seen exactly once so far."""

    region: int
    trigger_pc: int
    trigger_offset: int


@dataclass(slots=True)
class AccumulationEntry:
    """AT entry: an actively tracked region and its accumulated footprint."""

    region: int
    trigger_pc: int
    trigger_offset: int
    second_offset: int
    footprint: int = 0
    access_count: int = 0
    last_offset: int = -1
    penultimate_offset: int = -1
    stride_flag: bool = False

    def record(self, offset: int) -> None:
        """Accumulate one access at ``offset`` into the footprint.

        Repeated accesses to the same block do not disturb the last/penultimate
        offsets (the stride logic works on distinct-block accesses).
        """
        self.footprint |= 1 << offset
        if offset != self.last_offset:
            self.penultimate_offset = self.last_offset
            self.last_offset = offset
        self.access_count += 1


class RegionTracker:
    """FT + AT front end shared by spatial prefetchers."""

    __slots__ = (
        "region_size",
        "blocks_per_region",
        "geometry",
        "filter_table",
        "accumulation_table",
        "_at_entries",
        "_ft_entries",
    )

    def __init__(
        self,
        region_size: int = 4096,
        filter_entries: int = 64,
        accumulation_entries: int = 64,
    ) -> None:
        self.region_size = region_size
        self.blocks_per_region = blocks_per_region(region_size)
        self.geometry = RegionGeometry(region_size)
        self.filter_table: LRUTable[int, FilterTableEntry] = LRUTable(filter_entries)
        self.accumulation_table: LRUTable[int, AccumulationEntry] = LRUTable(
            accumulation_entries
        )
        # Hot-path bindings (observe() runs once per demand load of every
        # spatial prefetcher); the dicts are stable objects — ``clear``
        # empties them in place.
        self._at_entries = self.accumulation_table._entries
        self._ft_entries = self.filter_table._entries

    # ------------------------------------------------------------------ #
    def observe(
        self, pc: int, address: int
    ) -> Tuple[
        Optional[TriggerEvent],
        Optional[ActivationEvent],
        List[DeactivationEvent],
        Optional[AccumulationEntry],
    ]:
        """Feed one demand load into the tracker.

        Returns ``(trigger, activation, deactivations, at_entry)`` where any
        element may be ``None``/empty.  ``at_entry`` is the AT entry of the
        accessed region *after* the access has been recorded (present for
        every access to a tracked region, including the activating one).

        ``deactivations`` is an empty tuple on the paths that cannot
        deactivate anything (no per-access list allocation — this runs on
        every demand load of every spatial prefetcher).
        """
        region, offset = divmod(address, self.region_size)
        offset >>= BLOCK_SHIFT

        at_entries = self._at_entries
        at_entry = at_entries.get(region)
        if at_entry is not None:
            at_entries.move_to_end(region)
            # Inlined AccumulationEntry.record (runs on every tracked access).
            at_entry.footprint |= 1 << offset
            if offset != at_entry.last_offset:
                at_entry.penultimate_offset = at_entry.last_offset
                at_entry.last_offset = offset
            at_entry.access_count += 1
            return None, None, (), at_entry

        ft_entries = self._ft_entries
        ft_entry = ft_entries.get(region)
        if ft_entry is not None:
            ft_entries.move_to_end(region)
            if ft_entry.trigger_offset == offset:
                # Same block touched again: still a one-bit footprint.
                return None, None, (), None
            deactivations: List[DeactivationEvent] = []
            del ft_entries[region]
            new_entry = AccumulationEntry(
                region=region,
                trigger_pc=ft_entry.trigger_pc,
                trigger_offset=ft_entry.trigger_offset,
                second_offset=offset,
            )
            new_entry.record(ft_entry.trigger_offset)
            new_entry.record(offset)
            evicted = self.accumulation_table.put(region, new_entry)
            if evicted is not None:
                deactivations.append(self._deactivate(evicted[1]))
            activation = ActivationEvent(
                region=region,
                trigger_pc=ft_entry.trigger_pc,
                trigger_offset=ft_entry.trigger_offset,
                second_pc=pc,
                second_offset=offset,
            )
            return None, activation, deactivations, new_entry

        # Brand-new region: record it in the FT.
        trigger = TriggerEvent(region=region, pc=pc, offset=offset, address=address)
        self.filter_table.put(
            region,
            FilterTableEntry(region=region, trigger_pc=pc, trigger_offset=offset),
        )
        return trigger, None, (), None

    def _deactivate(self, entry: AccumulationEntry) -> DeactivationEvent:
        return DeactivationEvent(
            region=entry.region,
            footprint=entry.footprint,
            trigger_pc=entry.trigger_pc,
            trigger_offset=entry.trigger_offset,
            second_offset=entry.second_offset,
            access_count=entry.access_count,
        )

    def on_block_eviction(self, block: int) -> Optional[DeactivationEvent]:
        """Deactivate the region containing ``block`` if it is being tracked.

        Called when a cache block is evicted from the L1D: the paper ends a
        region's tracking as soon as one of its cached blocks leaves the
        cache, which keeps pattern learning timely even when few regions are
        active concurrently.
        """
        entry = self._at_entries.pop(self.geometry.region_of_block(block), None)
        return None if entry is None else self._deactivate(entry)

    def drain(self) -> List[DeactivationEvent]:
        """Deactivate every tracked region (used at end of simulation/tests)."""
        events = [self._deactivate(entry) for entry in self.accumulation_table.values()]
        self.accumulation_table.clear()
        self.filter_table.clear()
        return events

    def reset(self) -> None:
        """Clear all tracking state."""
        self.filter_table.clear()
        self.accumulation_table.clear()


# ---------------------------------------------------------------------- #
# Footprint helpers
# ---------------------------------------------------------------------- #
def footprint_to_offsets(footprint: int, blocks: int = 64) -> List[int]:
    """Return the list of set block offsets in a footprint bit vector.

    Walks only the set bits (ascending), not every offset position.
    """
    value = footprint & ((1 << blocks) - 1)
    offsets: List[int] = []
    append = offsets.append
    while value:
        low = value & -value
        append(low.bit_length() - 1)
        value ^= low
    return offsets

def offsets_to_footprint(offsets) -> int:
    """Build a footprint bit vector from an iterable of block offsets."""
    footprint = 0
    for offset in offsets:
        footprint |= 1 << offset
    return footprint


def footprint_density(footprint: int, blocks: int = 64) -> float:
    """Fraction of blocks in the region covered by the footprint."""
    if blocks <= 0:
        return 0.0
    return bin(footprint & ((1 << blocks) - 1)).count("1") / blocks


def footprint_population(footprint: int) -> int:
    """Number of blocks set in the footprint."""
    return bin(footprint).count("1")


def rotate_footprint(footprint: int, shift: int, blocks: int = 64) -> int:
    """Rotate a footprint by ``shift`` block positions (anchored patterns).

    SMS-style prefetchers store footprints relative to the trigger offset;
    rotating lets a pattern learned at one trigger offset be replayed at
    another.
    """
    mask = (1 << blocks) - 1
    shift %= blocks
    value = footprint & mask
    return ((value << shift) | (value >> (blocks - shift))) & mask if shift else value


def pattern_to_requests(
    region: int,
    footprint: int,
    region_size: int,
    hint: PrefetchHint = PrefetchHint.L1,
    exclude_offsets=(),
    limit: Optional[int] = None,
) -> List[int]:
    """Convert a footprint bit vector into packed prefetch requests.

    Walks the set in-region bits in ascending offset order; each request is
    the region's packed base (``pack_prefetch``) plus ``offset << 1``.
    """
    blocks = region_size // BLOCK_SIZE
    value = footprint & ((1 << blocks) - 1)
    for offset in exclude_offsets:
        if 0 <= offset < blocks:
            value &= ~(1 << offset)
    base = (region * region_size >> BLOCK_SHIFT) << 1 | (hint is PrefetchHint.L1)
    requests: List[int] = []
    append = requests.append
    while value:
        low = value & -value
        append(base + ((low.bit_length() - 1) << 1))
        value ^= low
        if limit is not None and len(requests) >= limit:
            break
    return requests
