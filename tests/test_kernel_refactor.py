"""Tests pinned to the flattened simulation kernel.

Covers the behaviour-preserving guarantees of the hot-path refactor:
dict-order LRU equivalence, precomputed region geometry, MSHR fast paths,
prefetch-queue edge cases (overflow accounting, drain limits, flush
ordering), replayer memoization and the bound-method eviction listener.
"""

import pytest

from repro.prefetchers.registry import create_prefetcher
from repro.sim.cache import Cache, MSHRFile
from repro.sim.config import CacheConfig, default_system_config
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.multicore import simulate_mix
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.simulator import SingleCoreSimulator, _TraceReplayer, simulate_trace
from repro.sim.types import (
    AccessType,
    MemoryAccess,
    PrefetchHint,
    RegionGeometry,
    block_offset_in_region,
    pack_prefetch,
    region_number,
)
from repro.workloads.trace import TraceSpec


def tiny_cache(ways: int = 2, sets: int = 4) -> Cache:
    return Cache(
        CacheConfig(
            name="T", size_bytes=sets * ways * 64, ways=ways, latency=1, mshrs=4
        )
    )


# --------------------------------------------------------------------------- #
# Region geometry
# --------------------------------------------------------------------------- #
class TestRegionGeometry:
    @pytest.mark.parametrize("region_size", [512, 1024, 4096, 16384])
    def test_matches_module_helpers_power_of_two(self, region_size):
        geometry = RegionGeometry(region_size)
        assert geometry.region_shift is not None
        for address in (0, 63, 64, 4095, 4096, 123_456_789, 2**40 + 12345):
            assert geometry.region_of(address) == region_number(address, region_size)
            assert geometry.offset_of(address) == block_offset_in_region(
                address, region_size
            )
            assert geometry.split(address) == (
                region_number(address, region_size),
                block_offset_in_region(address, region_size),
            )

    def test_matches_module_helpers_non_power_of_two(self):
        geometry = RegionGeometry(3 * 4096)
        assert geometry.region_shift is None
        for address in (0, 64, 4096, 999_999):
            assert geometry.region_of(address) == region_number(address, 3 * 4096)
            assert geometry.offset_of(address) == block_offset_in_region(
                address, 3 * 4096
            )

    def test_address_round_trip(self):
        geometry = RegionGeometry(4096)
        address = geometry.address_of(7, 13)
        assert geometry.split(address) == (7, 13)

    def test_region_of_block(self):
        geometry = RegionGeometry(4096)
        # 64 blocks per 4 KB region.
        assert geometry.region_of_block(0) == 0
        assert geometry.region_of_block(63) == 0
        assert geometry.region_of_block(64) == 1

    def test_rejects_sub_block_region(self):
        with pytest.raises(ValueError):
            RegionGeometry(32)


# --------------------------------------------------------------------------- #
# Cache: dict-order LRU and probe()
# --------------------------------------------------------------------------- #
class TestCacheLRUEquivalence:
    def test_probe_equivalent_to_access(self):
        a, b = tiny_cache(), tiny_cache()
        for block in (1, 2, 1, 5, 9):
            a.fill(block)
            b.fill(block)
        for block in (1, 5, 7):
            hit, entry = a.access(block)
            probed = b.probe(block)
            assert hit == (probed is not None)
            if hit:
                assert entry.block == probed.block
        assert (a.hits, a.misses) == (b.hits, b.misses)

    def test_victim_order_interleaved_touches(self):
        # ways=3, single set: exercise fill-refresh, lookup-refresh and
        # untouched residents; the victim must always be the least recently
        # *touched* block.
        cache = tiny_cache(ways=3, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.fill(3)
        cache.lookup(1, update_lru=True)  # order now 2, 3, 1
        cache.fill(2)                     # refresh: order now 3, 1, 2
        victim = cache.fill(4)
        assert victim.block == 3

    def test_contains_and_probe_miss_do_not_touch(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.contains(1)
        cache.probe(99)  # miss: counts, never touches LRU order
        victim = cache.fill(5)
        assert victim.block == 1
        assert cache.misses == 1


# --------------------------------------------------------------------------- #
# MSHR min-ready fast path
# --------------------------------------------------------------------------- #
class TestMSHRMinReady:
    def test_expire_skips_before_min_ready(self):
        mshr = MSHRFile(capacity=4)
        mshr.allocate(1, ready_cycle=100, is_prefetch=True)
        mshr.allocate(2, ready_cycle=50, is_prefetch=True)
        # The nothing-ready fast path returns a shared empty sequence
        # (an allocation-free tuple); callers only iterate it.
        assert list(mshr.expire(cycle=49)) == []
        done = mshr.expire(cycle=60)
        assert [e.block for e in done] == [2]
        # min_ready recomputed: entry 1 still pending until cycle 100.
        assert list(mshr.expire(cycle=99)) == []
        assert [e.block for e in mshr.expire(cycle=100)] == [1]

    def test_merge_lowers_min_ready(self):
        mshr = MSHRFile(capacity=4)
        mshr.allocate(1, ready_cycle=100, is_prefetch=True)
        mshr.allocate(1, ready_cycle=30, is_prefetch=False)
        assert [e.block for e in mshr.expire(cycle=30)] == [1]

    def test_remove_keeps_conservative_min(self):
        mshr = MSHRFile(capacity=4)
        mshr.allocate(1, ready_cycle=10, is_prefetch=True)
        mshr.allocate(2, ready_cycle=200, is_prefetch=True)
        mshr.remove(1)
        # Stale-low min only costs an extra scan; correctness holds.
        assert mshr.expire(cycle=50) == []
        assert [e.block for e in mshr.expire(cycle=200)] == [2]


# --------------------------------------------------------------------------- #
# Prefetch queue edge cases (satellite)
# --------------------------------------------------------------------------- #
class TestPrefetchQueueEdgeCases:
    def test_overflow_drop_accounting(self):
        queue = PrefetchQueue(capacity=3)
        accepted = sum(queue.push(pack_prefetch(i * 64)) for i in range(8))
        assert accepted == 3
        assert queue.dropped_full == 5
        assert queue.enqueued == 3
        assert len(queue) == 3
        # Draining frees capacity; drops do not retroactively enter.
        queue.drain(limit=2)
        assert queue.push(pack_prefetch(999 * 64))
        assert queue.enqueued == 4
        assert queue.dropped_full == 5

    def test_truthiness_tracks_occupancy(self):
        queue = PrefetchQueue(capacity=2)
        assert not queue
        queue.push(pack_prefetch(0))
        assert queue
        queue.drain_all()
        assert not queue

    def test_drain_per_access_limit_in_hierarchy(self):
        config = default_system_config(1)
        hierarchy = CacheHierarchy(config)
        limit = config.l1d.max_prefetch_issue_per_access
        requests = [
            pack_prefetch((1000 + i) * 64, PrefetchHint.L2)
            for i in range(limit + 3)
        ]
        assert hierarchy.enqueue_prefetches(requests) == len(requests)
        issued = hierarchy.issue_queued_prefetches(cycle=10)
        assert issued == limit
        assert len(hierarchy.prefetch_queue) == 3
        assert hierarchy.issue_queued_prefetches(cycle=11) == 3
        assert not hierarchy.prefetch_queue

    def test_flush_ordering_is_fifo(self):
        config = default_system_config(1)
        hierarchy = CacheHierarchy(config)
        addresses = [(2000 + i) * 64 for i in range(6)]
        hierarchy.enqueue_prefetches(
            [pack_prefetch(a, PrefetchHint.L2) for a in addresses]
        )
        hierarchy.flush_prefetches(cycle=100)
        assert not hierarchy.prefetch_queue
        # All six filled the L2 in request order (same set walk as issue).
        for address in addresses:
            assert hierarchy.l2c.contains(address >> 6)
        assert hierarchy.stats.prefetch.filled_l2 == 6

    def test_enqueue_batched_counters(self):
        config = default_system_config(1)
        hierarchy = CacheHierarchy(config)
        capacity = config.l1d.prefetch_queue_size
        requests = [pack_prefetch(i * 64) for i in range(capacity + 10)]
        accepted = hierarchy.enqueue_prefetches(requests)
        assert accepted == capacity
        assert hierarchy.stats.prefetch.generated == capacity + 10
        assert hierarchy.stats.prefetch.dropped_queue_full == 10


# --------------------------------------------------------------------------- #
# Replayer memoization (satellite)
# --------------------------------------------------------------------------- #
class TestReplayerMemoization:
    def test_known_total_computed_once(self):
        trace = [MemoryAccess(pc=1, address=i * 64, instr_gap=3) for i in range(10)]
        replayer = _TraceReplayer(trace)
        assert replayer.pass_instructions() == 40
        # The list is decoded once, at construction: mutating the source
        # afterwards changes nothing the cursor reads.
        trace.append(MemoryAccess(pc=1, address=0, instr_gap=99))
        assert replayer.pass_instructions() == 40

    def test_count_pass_instructions_memoized_and_matches(self):
        accesses = [MemoryAccess(pc=1, address=i * 64, instr_gap=2) for i in range(5)]

        class Reopenable:
            def __init__(self):
                self.opens = 0

            def __iter__(self):
                self.opens += 1
                return iter(accesses)

        source = Reopenable()
        replayer = _TraceReplayer(source)
        opens_before = source.opens
        total = replayer.pass_instructions()
        assert total == sum(a.instr_gap + 1 for a in accesses)
        assert source.opens == opens_before + 1
        assert replayer.pass_instructions() == total
        assert source.opens == opens_before + 1  # memoized: no second pass
        # A one-shot stream cannot count a pass without consuming it.
        assert _TraceReplayer(iter(accesses)).pass_instructions() is None


# --------------------------------------------------------------------------- #
# Eviction-listener registration (satellite)
# --------------------------------------------------------------------------- #
class TestEvictionListenerRegistration:
    def test_listener_is_bound_method(self):
        prefetcher = create_prefetcher("gaze")
        simulator = SingleCoreSimulator(prefetcher=prefetcher)
        listeners = simulator.hierarchy.l1d.eviction_listeners
        assert simulator._notify_prefetcher_eviction in listeners

    def test_no_duplicate_registration(self):
        prefetcher = create_prefetcher("gaze")
        simulator = SingleCoreSimulator(prefetcher=prefetcher)
        listeners = simulator.hierarchy.l1d.eviction_listeners
        count = listeners.count(simulator._notify_prefetcher_eviction)
        assert count == 1
        # Re-wiring the same simulator/prefetcher pair must not stack.
        if simulator._notify_prefetcher_eviction not in listeners:
            listeners.append(simulator._notify_prefetcher_eviction)
        assert listeners.count(simulator._notify_prefetcher_eviction) == 1

    def test_prefetcher_reuse_across_simulators(self):
        # A prefetcher reused across simulators gets exactly one listener
        # per hierarchy, and both deliver evictions to the same prefetcher.
        prefetcher = create_prefetcher("gaze")
        first = SingleCoreSimulator(prefetcher=prefetcher)
        second = SingleCoreSimulator(prefetcher=prefetcher)
        for simulator in (first, second):
            listeners = simulator.hierarchy.l1d.eviction_listeners
            assert listeners.count(simulator._notify_prefetcher_eviction) == 1

    def test_stats_identical_to_fresh_prefetcher_run(self):
        trace = TraceSpec(
            name="t", suite="test", generator="spatial", seed=4, length=1_500
        ).build()
        fresh = simulate_trace(trace, prefetcher=create_prefetcher("gaze"))
        reused_prefetcher = create_prefetcher("gaze")
        simulate_trace(trace, prefetcher=reused_prefetcher)
        reused_prefetcher.reset()
        again = simulate_trace(trace, prefetcher=reused_prefetcher)
        assert again.to_dict() == fresh.to_dict()


# --------------------------------------------------------------------------- #
# Streaming vs. materialized equality on the multi-core driver (satellite)
# --------------------------------------------------------------------------- #
class TestMultiCoreStreamingEquality:
    def test_mix_with_prefetcher_streamed_equals_materialized(self, tmp_path):
        from repro.workloads import formats as trace_formats

        specs = [
            TraceSpec(name="a", suite="t", generator="spatial", seed=1, length=1_200),
            TraceSpec(name="b", suite="t", generator="streaming", seed=2, length=1_200),
        ]
        materialized_traces = [spec.build() for spec in specs]
        handles = []
        for index, trace in enumerate(materialized_traces):
            path = tmp_path / f"core{index}.gzt"
            trace_formats.save_trace_file(iter(trace), str(path))
            handles.append(trace_formats.TraceFile(str(path)))

        factory = lambda: create_prefetcher("gaze")  # noqa: E731
        materialized = simulate_mix(
            materialized_traces,
            prefetcher_factory=factory,
            max_instructions_per_core=3_000,
        )
        streamed = simulate_mix(
            handles, prefetcher_factory=factory, max_instructions_per_core=3_000
        )
        assert streamed.num_cores == materialized.num_cores
        for core in materialized.per_core:
            assert (
                streamed.per_core[core].to_dict()
                == materialized.per_core[core].to_dict()
            )
