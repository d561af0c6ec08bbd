"""Set-associative cache model with LRU replacement and prefetch bookkeeping.

The cache tracks, for every resident block, whether it was brought in by a
prefetch and whether it has been demanded since.  This is what lets the
statistics layer classify prefetches as *useful* (demanded before eviction)
or *useless* (evicted untouched), which the paper's accuracy metric is built
on.

Hot-path notes (this module sits under every simulated access):

* Each set is a plain ``dict`` whose *insertion order* is the recency order
  (least-recently-used first).  A touch re-inserts the block at the end, so
  choosing a victim is ``next(iter(set))`` — O(1) instead of the historical
  ``min()`` scan over per-block timestamps, with an identical victim (the
  timestamps were unique and monotone, so "smallest timestamp" and "first
  in recency order" name the same block).
* Set indexing uses a precomputed bitmask when the set count is a power of
  two (every configuration of the paper) and falls back to modulo otherwise
  (odd core counts scale the LLC to non-power-of-two set counts).
* :class:`CacheBlock` is slotted: one is allocated per fill, and the
  hierarchy reads/writes its flags on every access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.config import CacheConfig


@dataclass(slots=True)
class CacheBlock:
    """Metadata of one resident cache block."""

    block: int
    prefetched: bool = False
    prefetch_useful: bool = False
    from_dram: bool = False
    dirty: bool = False
    #: Whether this block's prefetch has already been counted as useful by
    #: the hierarchy's statistics (at most once per fill).
    useful_counted: bool = False


class Cache:
    """A set-associative cache with true-LRU replacement.

    The cache operates on *block numbers* (byte address >> 6), not byte
    addresses; callers are expected to convert first.  Timing is handled by
    the hierarchy -- this class only answers presence questions and manages
    replacement state.

    Slotted: every simulated access reads several of these attributes, and
    slot descriptors are measurably cheaper than instance-dict lookups.
    """

    __slots__ = (
        "config",
        "name",
        "_set_count",
        "_set_mask",
        "_ways",
        "_sets",
        "eviction_listeners",
        "hits",
        "misses",
        "evictions",
        "useless_prefetch_evictions",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        sets = config.sets
        self._set_count = sets
        #: Bitmask for set indexing, or ``None`` when sets is not 2^k.
        self._set_mask: Optional[int] = sets - 1 if sets & (sets - 1) == 0 else None
        self._ways = config.ways
        self._sets: List[Dict[int, CacheBlock]] = [{} for _ in range(sets)]
        self.eviction_listeners: List[Callable[[CacheBlock], None]] = []
        # Aggregate counters (per-cache, the hierarchy also keeps per-request
        # statistics).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.useless_prefetch_evictions = 0

    # ------------------------------------------------------------------ #
    # Basic geometry helpers
    # ------------------------------------------------------------------ #
    def set_index(self, block: int) -> int:
        """Return the set index a block maps to."""
        mask = self._set_mask
        if mask is not None:
            return block & mask
        return block % self._set_count

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over all block numbers currently resident."""
        for cache_set in self._sets:
            yield from cache_set.keys()

    # ------------------------------------------------------------------ #
    # Lookup / fill / evict
    # ------------------------------------------------------------------ #
    def lookup(self, block: int, update_lru: bool = True) -> Optional[CacheBlock]:
        """Return the resident :class:`CacheBlock` for ``block`` or ``None``.

        ``update_lru`` controls whether the access refreshes the LRU state
        (demand accesses do; probe-only checks from prefetchers do not).
        """
        mask = self._set_mask
        cache_set = self._sets[
            block & mask if mask is not None else block % self._set_count
        ]
        entry = cache_set.get(block)
        if entry is not None and update_lru:
            # Move to most-recently-used position (end of the dict).
            del cache_set[block]
            cache_set[block] = entry
        return entry

    def contains(self, block: int) -> bool:
        """Presence check that does not disturb LRU state."""
        mask = self._set_mask
        return block in self._sets[
            block & mask if mask is not None else block % self._set_count
        ]

    def probe(self, block: int) -> Optional[CacheBlock]:
        """Demand access returning the entry on a hit, ``None`` on a miss.

        Identical bookkeeping to :meth:`access` (hit/miss counters, LRU
        refresh, useful-prefetch marking) without building a result tuple —
        the shape the hierarchy's hot path wants.
        """
        mask = self._set_mask
        cache_set = self._sets[
            block & mask if mask is not None else block % self._set_count
        ]
        entry = cache_set.get(block)
        if entry is None:
            self.misses += 1
            return None
        del cache_set[block]
        cache_set[block] = entry
        self.hits += 1
        if entry.prefetched and not entry.prefetch_useful:
            entry.prefetch_useful = True
        return entry

    def access(self, block: int) -> Tuple[bool, Optional[CacheBlock]]:
        """Perform a demand access for ``block``.

        Returns ``(hit, entry)``.  On a hit the entry's LRU position is
        refreshed and, if the block was prefetched and not yet used, it is
        marked as a useful prefetch.
        """
        entry = self.probe(block)
        return (entry is not None), entry

    def fill(
        self,
        block: int,
        prefetched: bool = False,
        from_dram: bool = False,
        dirty: bool = False,
    ) -> Optional[CacheBlock]:
        """Insert ``block``; return the evicted :class:`CacheBlock` if any.

        Filling a block that is already resident refreshes its LRU position
        and merges the ``dirty`` flag without changing its prefetch
        provenance.
        """
        mask = self._set_mask
        cache_set = self._sets[
            block & mask if mask is not None else block % self._set_count
        ]
        existing = cache_set.get(block)
        if existing is not None:
            del cache_set[block]
            cache_set[block] = existing
            if dirty:
                existing.dirty = True
            return None

        victim: Optional[CacheBlock] = None
        if len(cache_set) >= self._ways:
            victim_block = next(iter(cache_set))
            victim = cache_set.pop(victim_block)
            self.evictions += 1
            if victim.prefetched and not victim.prefetch_useful:
                self.useless_prefetch_evictions += 1
            for listener in self.eviction_listeners:
                listener(victim)

        cache_set[block] = CacheBlock(block, prefetched, False, from_dram, dirty)
        return victim

    def fill_absent(
        self,
        block: int,
        prefetched: bool = False,
        from_dram: bool = False,
        dirty: bool = False,
    ) -> None:
        """Fill for a block the caller has just proven non-resident.

        Identical state transitions and listener behaviour to :meth:`fill`
        minus the already-resident check, plus one extra liberty: the victim
        object is *recycled* into the new entry after the listeners return
        (listeners only read the victim synchronously, and — unlike
        :meth:`fill` — nothing is returned), so the hot fill paths of the
        hierarchy allocate no :class:`CacheBlock` once their sets are warm.
        """
        mask = self._set_mask
        cache_set = self._sets[
            block & mask if mask is not None else block % self._set_count
        ]
        if len(cache_set) >= self._ways:
            victim = cache_set.pop(next(iter(cache_set)))
            self.evictions += 1
            if victim.prefetched and not victim.prefetch_useful:
                self.useless_prefetch_evictions += 1
            listeners = self.eviction_listeners
            if listeners:
                for listener in listeners:
                    listener(victim)
            victim.block = block
            victim.prefetched = prefetched
            victim.prefetch_useful = False
            victim.from_dram = from_dram
            victim.dirty = dirty
            victim.useful_counted = False
            cache_set[block] = victim
        else:
            cache_set[block] = CacheBlock(block, prefetched, False, from_dram, dirty)

    def invalidate(self, block: int) -> Optional[CacheBlock]:
        """Remove ``block`` from the cache (no listeners fired)."""
        return self._sets[self.set_index(block)].pop(block, None)

    def reset_statistics(self) -> None:
        """Zero the aggregate hit/miss/eviction counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.useless_prefetch_evictions = 0


class MSHRFile:
    """Tracks outstanding fills (misses / in-flight prefetches) for one cache.

    Each entry maps a block number to the cycle its data arrives plus
    whether the fill was initiated by a prefetch.  The structure enforces a
    capacity limit; callers must check :meth:`has_free_entry` before
    allocating a prefetch entry (demand misses are modelled as always
    schedulable to keep the timing model simple).
    """

    __slots__ = ("capacity", "_entries", "_min_ready")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, "MSHREntry"] = {}
        # Earliest ready_cycle among outstanding entries; kept conservative
        # (never later than the true minimum) so expire() can skip its scan
        # when no entry can possibly be ready yet.
        self._min_ready = float("inf")

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def has_free_entry(self, cycle: int) -> bool:
        """True if a new entry can be allocated at ``cycle``."""
        self.expire(cycle)
        return len(self._entries) < self.capacity

    def allocate(
        self, block: int, ready_cycle: int, is_prefetch: bool, hint_level: int = 1
    ) -> "MSHREntry":
        """Allocate (or merge into) an entry for ``block``."""
        entry = self._entries.get(block)
        if entry is not None:
            if ready_cycle < entry.ready_cycle:
                entry.ready_cycle = ready_cycle
            if ready_cycle < self._min_ready:
                self._min_ready = ready_cycle
            return entry
        entry = MSHREntry(block, ready_cycle, is_prefetch, hint_level)
        self._entries[block] = entry
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        return entry

    def lookup(self, block: int) -> Optional["MSHREntry"]:
        """Return the outstanding entry for ``block`` if any."""
        return self._entries.get(block)

    def remove(self, block: int) -> Optional["MSHREntry"]:
        """Remove and return the entry for ``block``."""
        return self._entries.pop(block, None)

    def expire(self, cycle: int) -> List["MSHREntry"]:
        """Remove and return all entries whose data has arrived by ``cycle``.

        The nothing-ready fast path returns a shared empty tuple: this runs
        once per demand access while any fill is outstanding, and callers
        only iterate the result.
        """
        entries = self._entries
        if not entries or cycle < self._min_ready:
            return _NO_ENTRIES
        done = [e for e in entries.values() if e.ready_cycle <= cycle]
        for entry in done:
            del entries[entry.block]
        if entries:
            self._min_ready = min(e.ready_cycle for e in entries.values())
        else:
            self._min_ready = float("inf")
        return done

    def outstanding(self) -> List["MSHREntry"]:
        """Return a snapshot of all outstanding entries."""
        return list(self._entries.values())


#: Shared empty result of :meth:`MSHRFile.expire`'s fast path.
_NO_ENTRIES = ()


@dataclass(slots=True)
class MSHREntry:
    """One outstanding fill tracked by an :class:`MSHRFile`."""

    block: int
    ready_cycle: int
    is_prefetch: bool
    hint_level: int = 1
    from_dram: bool = False
