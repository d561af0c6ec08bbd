"""Tests for the table primitives and the spatial-common front end."""

import pytest

from repro.prefetchers.spatial_common import (
    RegionTracker,
    footprint_density,
    footprint_population,
    footprint_to_offsets,
    offsets_to_footprint,
    pattern_to_requests,
    rotate_footprint,
)
from repro.prefetchers.tables import LRUTable, SaturatingCounter, SetAssociativeTable
from repro.sim.types import PrefetchHint, unpack_prefetch


class TestLRUTable:
    def test_put_get(self):
        table = LRUTable(capacity=2)
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("missing") is None

    def test_lru_eviction_order(self):
        table = LRUTable(capacity=2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        evicted = table.put("c", 3)
        assert evicted == ("b", 2)
        assert table.evictions == 1

    def test_get_without_touch(self):
        table = LRUTable(capacity=2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a", touch=False)
        evicted = table.put("c", 3)
        assert evicted[0] == "a"

    def test_update_existing_key_no_eviction(self):
        table = LRUTable(capacity=1)
        table.put("a", 1)
        assert table.put("a", 2) is None
        assert table.get("a") == 2

    def test_pop_and_lru_key(self):
        table = LRUTable(capacity=3)
        table.put("a", 1)
        table.put("b", 2)
        assert table.lru_key() == "a"
        assert table.pop("a") == 1
        assert table.pop("a") is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUTable(capacity=0)

    def test_iteration_order_lru_to_mru(self):
        table = LRUTable(capacity=3)
        for key in "abc":
            table.put(key, key)
        table.get("a")
        assert list(table.keys()) == ["b", "c", "a"]


class TestSetAssociativeTable:
    def test_capacity(self):
        table = SetAssociativeTable(sets=4, ways=2)
        assert table.capacity == 8

    def test_per_set_lru(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.put(0, 1, "a")
        table.put(0, 2, "b")
        table.get(0, 1)
        evicted = table.put(0, 3, "c")
        assert evicted == (2, "b")
        # The other set is unaffected.
        table.put(1, 9, "z")
        assert table.get(1, 9) == "z"

    def test_set_wraparound(self):
        table = SetAssociativeTable(sets=4, ways=1)
        table.put(5, 1, "x")  # maps to set 1
        assert table.get(1, 1) == "x"

    def test_entries_in_set(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.put(0, 1, "a")
        table.put(0, 2, "b")
        assert [tag for tag, _ in table.entries_in_set(0)] == [1, 2]

    def test_items_iteration(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.put(0, 1, "a")
        table.put(1, 2, "b")
        assert len(list(table.items())) == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(sets=0, ways=1)


class TestSaturatingCounter:
    def test_saturation(self):
        counter = SaturatingCounter(bits=2)
        for _ in range(10):
            counter.increment()
        assert counter.value == 3
        assert counter.is_saturated

    def test_floor(self):
        counter = SaturatingCounter(bits=2, initial=1)
        counter.decrement(5)
        assert counter.value == 0

    def test_halve(self):
        counter = SaturatingCounter(bits=3, initial=7)
        counter.halve()
        assert counter.value == 3


class TestFootprintHelpers:
    def test_round_trip(self):
        offsets = [0, 5, 17, 63]
        footprint = offsets_to_footprint(offsets)
        assert footprint_to_offsets(footprint) == offsets
        assert footprint_population(footprint) == 4

    def test_density(self):
        assert footprint_density(offsets_to_footprint(range(32))) == pytest.approx(0.5)
        assert footprint_density(0) == 0.0

    def test_rotate_round_trip(self):
        footprint = offsets_to_footprint([0, 3, 10])
        rotated = rotate_footprint(footprint, 5)
        assert rotate_footprint(rotated, -5) == footprint

    def test_rotate_moves_anchor(self):
        footprint = offsets_to_footprint([7, 9])
        anchored = rotate_footprint(footprint, -7)
        assert footprint_to_offsets(anchored) == [0, 2]

    def test_rotate_wraps(self):
        footprint = offsets_to_footprint([63])
        assert footprint_to_offsets(rotate_footprint(footprint, 1)) == [0]

    def test_pattern_to_requests(self):
        footprint = offsets_to_footprint([1, 2, 3])
        requests = pattern_to_requests(
            region=10, footprint=footprint, region_size=4096,
            hint=PrefetchHint.L2, exclude_offsets=(2,),
        )
        decoded = [unpack_prefetch(p) for p in requests]
        assert decoded == [
            (10 * 64 + 1, PrefetchHint.L2),
            (10 * 64 + 3, PrefetchHint.L2),
        ]

    def test_pattern_to_requests_limit(self):
        footprint = offsets_to_footprint(range(20))
        requests = pattern_to_requests(10, footprint, 4096, limit=5)
        assert len(requests) == 5


class TestRegionTracker:
    def test_trigger_then_activation(self):
        tracker = RegionTracker()
        trigger, activation, _, _ = tracker.observe(pc=1, address=4096 * 9 + 64 * 5)
        assert trigger is not None and activation is None
        trigger, activation, _, entry = tracker.observe(pc=2, address=4096 * 9 + 64 * 8)
        assert trigger is None and activation is not None
        assert activation.trigger_offset == 5
        assert activation.second_offset == 8
        assert activation.trigger_pc == 1
        assert entry.footprint == (1 << 5) | (1 << 8)

    def test_one_bit_regions_filtered(self):
        tracker = RegionTracker()
        tracker.observe(1, 4096 * 9)
        trigger, activation, _, _ = tracker.observe(1, 4096 * 9 + 8)  # same block
        assert trigger is None and activation is None

    def test_lru_deactivation_event(self):
        tracker = RegionTracker(accumulation_entries=1)
        tracker.observe(1, 0)
        tracker.observe(1, 64)
        tracker.observe(1, 4096)
        _, _, deactivations, _ = tracker.observe(1, 4096 + 64)
        assert len(deactivations) == 1
        assert deactivations[0].region == 0

    def test_block_eviction_deactivates(self):
        tracker = RegionTracker()
        tracker.observe(1, 0)
        tracker.observe(1, 64)
        event = tracker.on_block_eviction(block=0)
        assert event is not None
        assert event.footprint == 0b11
        assert tracker.on_block_eviction(block=0) is None

    def test_drain_returns_all(self):
        tracker = RegionTracker()
        tracker.observe(1, 0)
        tracker.observe(1, 64)
        tracker.observe(1, 8192)
        tracker.observe(1, 8192 + 64)
        assert len(tracker.drain()) == 2
        assert len(tracker.accumulation_table) == 0

    def test_custom_region_size(self):
        tracker = RegionTracker(region_size=2048)
        assert tracker.blocks_per_region == 32
        _, activation, _, _ = (None, None, None, None)
        tracker.observe(1, 2048 * 3 + 64 * 2)
        _, activation, _, _ = tracker.observe(1, 2048 * 3 + 64 * 9)
        assert activation.trigger_offset == 2
        assert activation.second_offset == 9
