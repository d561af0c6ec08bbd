"""Unit tests for the prefetch queue and the statistics containers."""

import pytest

from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.stats import MultiCoreStats, PrefetchStats, SimulationStats, geometric_mean
from repro.sim.types import pack_prefetch, unpack_prefetch


class TestPrefetchQueue:
    def test_fifo_order(self):
        queue = PrefetchQueue(capacity=8)
        for i in range(4):
            queue.push(pack_prefetch(i * 64))
        drained = queue.drain(limit=4)
        assert [unpack_prefetch(p)[0] for p in drained] == [0, 1, 2, 3]

    def test_capacity_drop(self):
        queue = PrefetchQueue(capacity=2)
        assert queue.push(pack_prefetch(0))
        assert queue.push(pack_prefetch(64))
        assert not queue.push(pack_prefetch(128))
        assert queue.dropped_full == 1

    def test_drain_limit_default(self):
        queue = PrefetchQueue(capacity=16, drain_per_access=3)
        for i in range(10):
            queue.push(pack_prefetch(i * 64))
        assert len(queue.drain()) == 3
        assert len(queue) == 7

    def test_drain_all(self):
        queue = PrefetchQueue(capacity=16)
        for i in range(5):
            queue.push(pack_prefetch(i * 64))
        assert len(queue.drain_all()) == 5
        assert len(queue) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PrefetchQueue(capacity=0)
        with pytest.raises(ValueError):
            PrefetchQueue(capacity=4, drain_per_access=0)

    def test_is_full(self):
        queue = PrefetchQueue(capacity=1)
        assert not queue.is_full
        queue.push(pack_prefetch(0))
        assert queue.is_full

    def test_clear(self):
        queue = PrefetchQueue(capacity=4)
        queue.push(pack_prefetch(0))
        queue.clear()
        assert len(queue) == 0


class TestPrefetchStats:
    def test_accuracy_no_fills(self):
        stats = PrefetchStats()
        assert stats.accuracy == 0.0

    def test_accuracy_combines_levels(self):
        stats = PrefetchStats(filled_l1=4, filled_l2=4, useful_l1=3, useful_l2=1)
        assert stats.accuracy == pytest.approx(0.5)
        assert stats.useful == 4
        assert stats.filled == 8

    def test_accuracy_clamped_to_one(self):
        stats = PrefetchStats(filled_l1=1, useful_l1=2)
        assert stats.accuracy == 1.0

    def test_late_fraction(self):
        stats = PrefetchStats(filled_l1=10, useful_l1=5, late=1)
        assert stats.late_fraction == pytest.approx(0.2)
        assert PrefetchStats().late_fraction == 0.0


class TestSimulationStats:
    def test_ipc(self):
        stats = SimulationStats(instructions=1000, cycles=500)
        assert stats.ipc == 2.0
        assert SimulationStats().ipc == 0.0

    def test_mpki(self):
        stats = SimulationStats(instructions=10_000, llc_misses=50)
        assert stats.llc_mpki == pytest.approx(5.0)

    def test_speedup(self):
        base = SimulationStats(instructions=1000, cycles=1000)
        fast = SimulationStats(instructions=1000, cycles=500)
        assert fast.speedup(base) == pytest.approx(2.0)

    def test_coverage_with_baseline(self):
        base = SimulationStats(llc_misses=100)
        run = SimulationStats(llc_misses=40)
        assert run.coverage(base) == pytest.approx(0.6)

    def test_coverage_clamped(self):
        base = SimulationStats(llc_misses=10)
        worse = SimulationStats(llc_misses=20)
        assert worse.coverage(base) == 0.0

    def test_coverage_online_counter(self):
        run = SimulationStats(llc_misses=50)
        run.prefetch.covered_llc_misses = 50
        assert run.coverage() == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = SimulationStats(instructions=10, cycles=10).summary()
        assert {"ipc", "accuracy", "coverage", "late_fraction"} <= set(summary)

    def test_average_demand_latency(self):
        stats = SimulationStats(demand_accesses=4, total_demand_latency=100)
        assert stats.average_demand_latency == 25.0


class TestMultiCoreStats:
    def test_geomean_speedup(self):
        base = MultiCoreStats(per_core={
            0: SimulationStats(instructions=100, cycles=100),
            1: SimulationStats(instructions=100, cycles=100),
        })
        run = MultiCoreStats(per_core={
            0: SimulationStats(instructions=100, cycles=50),
            1: SimulationStats(instructions=100, cycles=200),
        })
        assert run.geomean_speedup(base) == pytest.approx(1.0)

    def test_num_cores(self):
        stats = MultiCoreStats(per_core={0: SimulationStats(), 1: SimulationStats()})
        assert stats.num_cores == 2

    def test_geometric_mean_helper(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)
