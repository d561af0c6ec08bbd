"""Gaze's Prefetch Buffer (PB).

A single predicted footprint expands into many prefetch requests that share
the same region number, so Gaze stores *prefetch patterns* per region in a
small buffer: 32 entries, each holding a region tag and a 2-bit state per
block offset (No-Prefetch, Prefetch-to-L1, Prefetch-to-L2; the LLC state is
unused).  Besides compressing storage, the PB is where the stage-2
aggressiveness *promotion* merges into the original pattern: promoting a
block upgrades its state from L2 (or none) to L1, and blocks that were
already issued are not issued again.

Hardware budget (Table I): 8-way, 32 entries, each storing the region tag
(36 b), LRU (3 b) and the 64 x 2 b pattern -- 668 B total.

Hot-path note: :meth:`GazePrefetchBuffer.pop_requests` runs on *every*
access to a tracked region, but almost always finds nothing left to issue.
Each entry therefore carries a ``pending`` count so the empty case returns
immediately after the LRU touch, without walking (or sorting) the states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.prefetchers.tables import LRUTable
from repro.sim.types import PrefetchHint, address_from_region_offset, pack_prefetch


class BlockPrefetchState(enum.IntEnum):
    """2-bit per-offset prefetch state stored in the PB."""

    NONE = 0
    TO_L2 = 1
    TO_L1 = 2
    ISSUED = 3


@dataclass(slots=True)
class PrefetchBufferEntry:
    """Prefetch pattern of one region."""

    region: int
    states: Dict[int, BlockPrefetchState] = field(default_factory=dict)
    issued: Dict[int, PrefetchHint] = field(default_factory=dict)
    #: Number of offsets currently in the TO_L1 / TO_L2 states — i.e. how
    #: many requests :meth:`GazePrefetchBuffer.pop_requests` could emit.
    pending: int = 0


class GazePrefetchBuffer:
    """32-entry buffer of per-region prefetch patterns."""

    REGION_TAG_BITS = 36
    LRU_BITS = 3
    STATE_BITS_PER_BLOCK = 2

    def __init__(self, entries: int = 32, blocks_per_region: int = 64) -> None:
        self.entries = entries
        self.blocks_per_region = blocks_per_region
        self._table: LRUTable[int, PrefetchBufferEntry] = LRUTable(entries)

    # ------------------------------------------------------------------ #
    def _entry_for(self, region: int) -> PrefetchBufferEntry:
        entry = self._table.get(region)
        if entry is None:
            entry = PrefetchBufferEntry(region=region)
            self._table.put(region, entry)
        return entry

    def lookup(self, region: int) -> Optional[PrefetchBufferEntry]:
        """Return the PB entry for ``region`` without creating one."""
        return self._table.get(region, touch=False)

    def add_pattern(
        self,
        region: int,
        offsets_to_l1,
        offsets_to_l2=(),
        exclude_offsets=(),
    ) -> None:
        """Merge a prefetch pattern for ``region`` into the buffer.

        Offsets already marked for a more aggressive level keep that level;
        offsets in ``exclude_offsets`` (typically the trigger and second
        offsets, already demanded) are never added.
        """
        entry = self._entry_for(region)
        excluded = frozenset(exclude_offsets)
        states = entry.states
        blocks = self.blocks_per_region
        none_state = BlockPrefetchState.NONE
        pending = entry.pending
        for offset in offsets_to_l2:
            if offset in excluded or not 0 <= offset < blocks:
                continue
            if states.get(offset, none_state) == none_state:
                states[offset] = BlockPrefetchState.TO_L2
                pending += 1
        issued_state = BlockPrefetchState.ISSUED
        to_l1 = BlockPrefetchState.TO_L1
        for offset in offsets_to_l1:
            if offset in excluded or not 0 <= offset < blocks:
                continue
            current = states.get(offset, none_state)
            if current != issued_state:
                states[offset] = to_l1
                if current == none_state:
                    pending += 1
        entry.pending = pending

    def promote(self, region: int, offsets) -> List[int]:
        """Stage-2 promotion: upgrade ``offsets`` to L1.

        Returns the offsets that actually need a (re-)issue: blocks already
        issued to the L1 are skipped, blocks issued only to the L2 are
        re-requested at L1.
        """
        entry = self._entry_for(region)
        states = entry.states
        issued = entry.issued
        blocks = self.blocks_per_region
        needs_issue: List[int] = []
        pending = entry.pending
        for offset in offsets:
            if not 0 <= offset < blocks:
                continue
            if issued.get(offset) is PrefetchHint.L1:
                continue
            previous = states.get(offset, BlockPrefetchState.NONE)
            if previous in (BlockPrefetchState.NONE, BlockPrefetchState.ISSUED):
                pending += 1
            states[offset] = BlockPrefetchState.TO_L1
            needs_issue.append(offset)
        entry.pending = pending
        return needs_issue

    def pop_requests(
        self,
        region: int,
        region_size: int,
        limit: Optional[int] = None,
    ) -> List[int]:
        """Convert the pending pattern of ``region`` into packed requests.

        Requests are emitted in ascending block-offset order (the order the
        demand stream will want them) and at most ``limit`` per call, which
        is how the PB smooths the issuance of a whole-region pattern over
        several accesses instead of flooding the prefetch queue.  Pending
        offsets transition to the ISSUED state and are remembered so
        subsequent pattern merges / promotions do not duplicate them.
        """
        entry = self._table.get(region)
        if entry is None or entry.pending == 0:
            return []
        states = entry.states
        requests: List[int] = []
        issued_state = BlockPrefetchState.ISSUED
        to_l1 = BlockPrefetchState.TO_L1
        l1_hint = PrefetchHint.L1
        l2_hint = PrefetchHint.L2
        none_state = BlockPrefetchState.NONE
        for offset in sorted(states):
            state = states[offset]
            if state is none_state or state is issued_state:
                continue
            hint = l1_hint if state is to_l1 else l2_hint
            requests.append(
                pack_prefetch(
                    address_from_region_offset(region, offset, region_size), hint
                )
            )
            states[offset] = issued_state
            entry.issued[offset] = hint
            entry.pending -= 1
            if limit is not None and len(requests) >= limit:
                break
        return requests

    def __len__(self) -> int:
        return len(self._table)

    def storage_bits(self) -> int:
        """Total storage of the PB in bits (Table I: 668 B)."""
        per_entry = (
            self.REGION_TAG_BITS
            + self.LRU_BITS
            + self.blocks_per_region * self.STATE_BITS_PER_BLOCK
        )
        return self.entries * per_entry

    def reset(self) -> None:
        """Clear all buffered patterns."""
        self._table.clear()
