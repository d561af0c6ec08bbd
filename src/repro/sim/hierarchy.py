"""Three-level cache hierarchy with prefetch routing.

The hierarchy owns an L1D, a private L2C and an LLC (which may be shared in
multi-core simulations), plus a DRAM model, an L1 MSHR file used to track
in-flight prefetches, and a prefetch queue.  It is deliberately
non-inclusive and write-allocate; stores are treated like loads for timing
purposes (the paper trains prefetchers on loads only, which the simulator
driver enforces).

Responsibilities:

* compute the load-to-use latency of every demand access (including partial
  savings from late prefetches),
* fill/evict blocks with prefetch provenance so usefulness can be measured,
* issue queued prefetch requests, accounting for redundant requests, MSHR
  pressure and DRAM bandwidth.

``demand_access`` is the single hottest function of the simulator: level
latencies are pre-summed at construction time, the caches and stats object
are bound to locals, and the common cases (empty MSHR file, empty prefetch
queue) exit before doing any work.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.cache import Cache, MSHRFile
from repro.sim.config import SystemConfig
from repro.sim.dram import DRAMModel
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.stats import SimulationStats
from repro.sim.types import AccessResult, BLOCK_SHIFT


class CacheHierarchy:
    """L1D + L2C + LLC + DRAM with prefetch support for one core.

    Slotted: ``demand_access`` and ``_issue_prefetch`` read these attributes
    on every simulated access.  ``stats`` stays assignable (warm-up and
    budget-exhaustion stat swaps) — slots only pin the attribute *set*, not
    mutability.
    """

    __slots__ = (
        "config",
        "stats",
        "l1d",
        "l2c",
        "llc",
        "dram",
        "l1_mshr",
        "prefetch_queue",
        "_lat_l1",
        "_lat_l2",
        "_lat_llc",
        "_lat_l2_source",
        "_lat_llc_source",
    )

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[SimulationStats] = None,
        shared_llc: Optional[Cache] = None,
        shared_dram: Optional[DRAMModel] = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else SimulationStats()
        self.l1d = Cache(config.l1d)
        self.l2c = Cache(config.l2c)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = shared_dram if shared_dram is not None else DRAMModel(config.dram)
        self.l1_mshr = MSHRFile(config.l1d.mshrs)
        self.prefetch_queue = PrefetchQueue(
            capacity=config.l1d.prefetch_queue_size,
            drain_per_access=config.l1d.max_prefetch_issue_per_access,
        )
        # Pre-summed load-to-use latencies per serving level.
        self._lat_l1 = config.l1d.latency
        self._lat_l2 = self._lat_l1 + config.l2c.latency
        self._lat_llc = self._lat_l2 + config.llc.latency
        self._lat_l2_source = config.l2c.latency
        self._lat_llc_source = config.l2c.latency + config.llc.latency
        self._register_eviction_listeners()

    # ------------------------------------------------------------------ #
    # Setup helpers
    # ------------------------------------------------------------------ #
    def _count_useless_eviction(self, victim) -> None:
        """Eviction listener: a prefetched block left L1/L2 untouched."""
        if victim.prefetched and not victim.prefetch_useful:
            self.stats.prefetch.useless += 1

    def _register_eviction_listeners(self) -> None:
        # One bound method instead of per-instance closures; it reads
        # ``self.stats`` dynamically so warm-up stat swaps keep working.
        self.l1d.eviction_listeners.append(self._count_useless_eviction)
        self.l2c.eviction_listeners.append(self._count_useless_eviction)

    def unlink_listeners(self) -> None:
        """Drop the eviction listeners of a hierarchy that will not run again.

        They are bound methods of their owners (this hierarchy, and the
        simulator or mix core forwarding L1D evictions), so they keep the
        whole simulator in reference cycles until a full collection.
        """
        for cache in (self.l1d, self.l2c, self.llc):
            cache.eviction_listeners.clear()

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #
    def demand_access(self, address: int, cycle: int, is_store: bool = False) -> AccessResult:
        """Route one demand access through the hierarchy.

        Returns an :class:`AccessResult` with the total latency and the level
        that served the request.  Prefetch bookkeeping (useful / late /
        covered) is updated as a side effect.
        """
        l1_mshr = self.l1_mshr
        if l1_mshr:
            self._complete_ready_prefetches(cycle)

        block = address >> BLOCK_SHIFT
        stats = self.stats
        stats.demand_accesses += 1
        l1_latency = self._lat_l1

        # 1. In-flight prefetch (late prefetch) -------------------------- #
        inflight = l1_mshr.lookup(block) if l1_mshr else None
        if inflight is not None:
            remaining = inflight.ready_cycle - cycle
            latency = remaining if remaining > l1_latency else l1_latency
            l1_mshr.remove(block)
            # In-flight blocks are never L1-resident (the MSHR entry would
            # have been consumed by the demand that filled them).
            self.l1d.fill_absent(
                block, inflight.is_prefetch, inflight.from_dram, is_store
            )
            entry = self.l1d.lookup(block, update_lru=True)
            is_prefetch = inflight.is_prefetch
            result = AccessResult(latency, "L1D", is_prefetch, is_prefetch)
            stats.l1_hits += 1
            if is_prefetch:
                entry.prefetch_useful = True
                prefetch_stats = stats.prefetch
                prefetch_stats.useful_l1 += 1
                prefetch_stats.late += 1
                if inflight.from_dram:
                    prefetch_stats.covered_llc_misses += 1
            stats.total_demand_latency += latency
            return result

        # 2. L1D ---------------------------------------------------------- #
        # The probe is inlined (set-dict get + LRU re-insertion + counters,
        # exactly Cache.probe): the L1D/L2C are always this hierarchy's
        # private plain caches, so going through the method adds nothing
        # but call overhead to the hottest branch of the simulator.
        l1d = self.l1d
        mask = l1d._set_mask
        l1_set = l1d._sets[
            block & mask if mask is not None else block % l1d._set_count
        ]
        entry = l1_set.get(block)
        if entry is not None:
            del l1_set[block]
            l1_set[block] = entry
            l1d.hits += 1
            served_by_prefetch = False
            if entry.prefetched:
                if not entry.prefetch_useful:
                    entry.prefetch_useful = True
                if not entry.useful_counted:
                    entry.useful_counted = True
                    served_by_prefetch = True
                    stats.prefetch.useful_l1 += 1
                    if entry.from_dram:
                        stats.prefetch.covered_llc_misses += 1
            if is_store:
                entry.dirty = True
            stats.l1_hits += 1
            stats.total_demand_latency += l1_latency
            return AccessResult(l1_latency, "L1D", served_by_prefetch)

        l1d.misses += 1
        stats.l1_misses += 1

        # 3. L2C ---------------------------------------------------------- #
        l2c = self.l2c
        mask = l2c._set_mask
        l2_set = l2c._sets[
            block & mask if mask is not None else block % l2c._set_count
        ]
        entry = l2_set.get(block)
        if entry is not None:
            del l2_set[block]
            l2_set[block] = entry
            l2c.hits += 1
            latency = self._lat_l2
            served_by_prefetch = False
            if entry.prefetched:
                if not entry.prefetch_useful:
                    entry.prefetch_useful = True
                if not entry.useful_counted:
                    entry.useful_counted = True
                    served_by_prefetch = True
                    stats.prefetch.useful_l2 += 1
                    if entry.from_dram:
                        stats.prefetch.covered_llc_misses += 1
            l1d.fill_absent(block, False, False, is_store)
            stats.l2_hits += 1
            stats.total_demand_latency += latency
            return AccessResult(latency, "L2C", served_by_prefetch)

        l2c.misses += 1
        stats.l2_misses += 1

        # 4. LLC ---------------------------------------------------------- #
        if self.llc.probe(block) is not None:
            latency = self._lat_llc
            l2c.fill_absent(block, False, False)
            l1d.fill_absent(block, False, False, is_store)
            stats.llc_hits += 1
            stats.total_demand_latency += latency
            return AccessResult(latency, "LLC")

        stats.llc_misses += 1

        # 5. DRAM --------------------------------------------------------- #
        dram_latency = self.dram.access(block, cycle, is_prefetch=False)
        latency = self._lat_llc + dram_latency
        stats.dram_reads += 1
        self.llc.fill_absent(block, False, True)
        l2c.fill_absent(block, False, True)
        l1d.fill_absent(block, False, True, is_store)
        stats.total_demand_latency += latency
        return AccessResult(latency, "DRAM")

    # ------------------------------------------------------------------ #
    # Prefetch path
    # ------------------------------------------------------------------ #
    def enqueue_prefetches(self, requests) -> int:
        """Add packed prefetch requests to the PQ; returns the number accepted.

        The generated/dropped statistics are batched: one counter merge per
        call instead of one per request.
        """
        accepted = 0
        total = 0
        queue_push = self.prefetch_queue.push
        for request in requests:
            total += 1
            if queue_push(request):
                accepted += 1
        prefetch_stats = self.stats.prefetch
        prefetch_stats.generated += total
        if accepted != total:
            prefetch_stats.dropped_queue_full += total - accepted
        return accepted

    def issue_queued_prefetches(self, cycle: int, limit: Optional[int] = None) -> int:
        """Drain the PQ and issue requests into the hierarchy.

        Pops straight off the queue's deque instead of materializing a
        drained list — same FIFO order and drain limit.
        """
        queue = self.prefetch_queue
        pending = queue._queue
        if not pending:
            return 0
        if limit is None:
            limit = queue.drain_per_access
        issued = 0
        issue = self._issue_prefetch
        popleft = pending.popleft
        while pending and issued < limit:
            issue(popleft(), cycle)
            issued += 1
        return issued

    def _issue_prefetch(self, packed: int, cycle: int) -> None:
        # Hot for aggressive designs (PMP issues more prefetches than it
        # sees demand accesses), so the L1D/L2C membership checks and the
        # L2C LRU touch are inlined set-dict operations — same rationale as
        # in :meth:`demand_access`.  The LLC and DRAM stay behind their
        # methods: they are reached only on an L2C miss.
        block = packed >> 1
        stats = self.stats.prefetch
        l1d = self.l1d
        mask = l1d._set_mask
        l1_set = l1d._sets[
            block & mask if mask is not None else block % l1d._set_count
        ]
        l1_mshr = self.l1_mshr
        to_l1 = packed & 1

        # Redundant: already in the L1D (or being filled).
        if block in l1_set or block in l1_mshr._entries:
            stats.redundant += 1
            return
        l2c = self.l2c
        mask = l2c._set_mask
        l2_set = l2c._sets[
            block & mask if mask is not None else block % l2c._set_count
        ]
        l2_entry = l2_set.get(block)
        if not to_l1 and l2_entry is not None:
            stats.redundant += 1
            return

        stats.issued += 1

        # Find where the data currently lives and how long it takes to get it.
        from_dram = False
        if l2_entry is not None:
            source_latency = self._lat_l2_source
            del l2_set[block]
            l2_set[block] = l2_entry
        elif self.llc.lookup(block, update_lru=True) is not None:
            source_latency = self._lat_llc_source
        else:
            dram_latency = self.dram.access(block, cycle, is_prefetch=True)
            source_latency = self._lat_llc_source + dram_latency
            from_dram = True
            self.llc.fill_absent(block, False, True)

        if to_l1:
            if not l1_mshr.has_free_entry(cycle):
                stats.dropped_mshr_full += 1
                # Fall back to an L2 fill so the work done is not wasted.
                if block not in l2_set:
                    l2c.fill_absent(block, True, from_dram)
                    stats.filled_l2 += 1
                return
            entry = l1_mshr.allocate(
                block,
                ready_cycle=cycle + source_latency,
                is_prefetch=True,
                hint_level=1,
            )
            entry.from_dram = from_dram
            stats.filled_l1 += 1
        else:
            if block not in l2_set:
                l2c.fill_absent(block, True, from_dram)
                stats.filled_l2 += 1
            else:
                stats.redundant += 1

    def _complete_ready_prefetches(self, cycle: int) -> None:
        """Move finished in-flight prefetches from the MSHRs into the L1D.

        In-flight blocks are never L1-resident (see the in-flight branch of
        :meth:`demand_access`), so the fills skip the residency check.
        """
        fill_absent = self.l1d.fill_absent
        for entry in self.l1_mshr.expire(cycle):
            fill_absent(entry.block, entry.is_prefetch, entry.from_dram)

    def flush_prefetches(self, cycle: int) -> None:
        """Issue everything still queued and complete all in-flight fills."""
        for packed in self.prefetch_queue.drain_all():
            self._issue_prefetch(packed, cycle)
        self._complete_ready_prefetches(cycle + 10**9)
