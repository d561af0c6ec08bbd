"""Unit tests for the cache hierarchy and prefetch routing."""

import pytest

from repro.sim.config import default_system_config
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.types import PrefetchHint, pack_prefetch


@pytest.fixture()
def hierarchy():
    return CacheHierarchy(default_system_config(1))


ADDRESS = 0x40_0000


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self, hierarchy):
        result = hierarchy.demand_access(ADDRESS, cycle=0)
        assert result.hit_level == "DRAM"
        assert result.latency >= 35  # at least the three cache latencies

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.demand_access(ADDRESS, cycle=0)
        result = hierarchy.demand_access(ADDRESS, cycle=100)
        assert result.hit_level == "L1D"
        assert result.latency == hierarchy.config.l1d.latency

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hierarchy.demand_access(ADDRESS, cycle=0)
        # Evict the block from the L1 by filling its set with conflicting blocks.
        sets = hierarchy.config.l1d.sets
        for way in range(hierarchy.config.l1d.ways + 1):
            conflicting = ADDRESS + (way + 1) * sets * 64
            hierarchy.demand_access(conflicting, cycle=10 + way)
        result = hierarchy.demand_access(ADDRESS, cycle=1000)
        assert result.hit_level in ("L2C", "LLC")
        assert result.latency > hierarchy.config.l1d.latency

    def test_hit_latencies_ordered(self, hierarchy):
        dram = hierarchy.demand_access(ADDRESS, cycle=0).latency
        l1 = hierarchy.demand_access(ADDRESS, cycle=10).latency
        assert l1 < dram

    def test_stats_counters(self, hierarchy):
        hierarchy.demand_access(ADDRESS, cycle=0)
        hierarchy.demand_access(ADDRESS, cycle=10)
        stats = hierarchy.stats
        assert stats.demand_accesses == 2
        assert stats.l1_misses == 1
        assert stats.l1_hits == 1
        assert stats.llc_misses == 1
        assert stats.dram_reads == 1


class TestPrefetchPath:
    def test_prefetch_fill_then_demand_hit(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L1)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=0)
        # Let the fill complete, then demand it.
        result = hierarchy.demand_access(ADDRESS, cycle=10_000)
        assert result.hit_level == "L1D"
        assert result.served_by_prefetch
        assert hierarchy.stats.prefetch.useful_l1 == 1
        assert hierarchy.stats.prefetch.covered_llc_misses == 1

    def test_late_prefetch_partial_saving(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L1)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=0)
        # Demand arrives before the fill completes.
        result = hierarchy.demand_access(ADDRESS, cycle=5)
        assert result.late_prefetch
        assert hierarchy.stats.prefetch.late == 1
        # The latency must be lower than a fresh DRAM access would have been
        # but at least the L1 hit latency.
        assert result.latency >= hierarchy.config.l1d.latency

    def test_l2_hint_fills_l2_only(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L2)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=0)
        block = ADDRESS >> 6
        assert hierarchy.l2c.contains(block)
        assert not hierarchy.l1d.contains(block)
        assert hierarchy.stats.prefetch.filled_l2 == 1

    def test_l2_prefetch_useful_counted_on_demand(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L2)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=0)
        result = hierarchy.demand_access(ADDRESS, cycle=100)
        assert result.hit_level == "L2C"
        assert hierarchy.stats.prefetch.useful_l2 == 1

    def test_redundant_prefetch_dropped(self, hierarchy):
        hierarchy.demand_access(ADDRESS, cycle=0)
        request = pack_prefetch(ADDRESS, PrefetchHint.L1)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=10)
        assert hierarchy.stats.prefetch.redundant == 1
        assert hierarchy.stats.prefetch.issued == 0

    def test_queue_overflow_drops(self, hierarchy):
        capacity = hierarchy.prefetch_queue.capacity
        requests = [
            pack_prefetch(ADDRESS + i * 64) for i in range(capacity + 10)
        ]
        hierarchy.enqueue_prefetches(requests)
        assert hierarchy.stats.prefetch.dropped_queue_full == 10

    def test_drain_respects_limit(self, hierarchy):
        requests = [pack_prefetch(ADDRESS + i * 64) for i in range(10)]
        hierarchy.enqueue_prefetches(requests)
        issued = hierarchy.issue_queued_prefetches(cycle=0)
        assert issued == hierarchy.config.l1d.max_prefetch_issue_per_access

    def test_useless_prefetch_counted_on_eviction(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L2)
        hierarchy.enqueue_prefetches([request])
        hierarchy.issue_queued_prefetches(cycle=0)
        # Evict it from the L2 without ever demanding it.
        sets = hierarchy.config.l2c.sets
        for way in range(hierarchy.config.l2c.ways + 2):
            victim_addr = ADDRESS + (way + 1) * sets * 64
            hierarchy.l2c.fill(victim_addr >> 6)
        assert hierarchy.stats.prefetch.useless >= 1

    def test_flush_completes_inflight(self, hierarchy):
        request = pack_prefetch(ADDRESS, PrefetchHint.L1)
        hierarchy.enqueue_prefetches([request])
        hierarchy.flush_prefetches(cycle=0)
        assert hierarchy.l1d.contains(ADDRESS >> 6)

    def test_accuracy_computation(self, hierarchy):
        useful = pack_prefetch(ADDRESS, PrefetchHint.L2)
        useless = pack_prefetch(ADDRESS + 64, PrefetchHint.L2)
        hierarchy.enqueue_prefetches([useful, useless])
        hierarchy.issue_queued_prefetches(cycle=0)
        hierarchy.demand_access(ADDRESS, cycle=50)
        stats = hierarchy.stats.prefetch
        assert stats.filled == 2
        assert stats.useful == 1
        assert stats.accuracy == pytest.approx(0.5)


class TestSharedLLC:
    def test_two_hierarchies_share_llc(self):
        config = default_system_config(2)
        from repro.sim.cache import Cache
        from repro.sim.dram import DRAMModel

        shared_llc = Cache(config.llc)
        shared_dram = DRAMModel(config.dram)
        first = CacheHierarchy(config, shared_llc=shared_llc, shared_dram=shared_dram)
        second = CacheHierarchy(config, shared_llc=shared_llc, shared_dram=shared_dram)
        first.demand_access(ADDRESS, cycle=0)
        result = second.demand_access(ADDRESS, cycle=100)
        # The second core finds the block in the shared LLC.
        assert result.hit_level == "LLC"
