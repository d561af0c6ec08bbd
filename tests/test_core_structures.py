"""Unit tests for Gaze's hardware structures (FT, AT, PHT, DPCT/DC, PB)."""

import pytest

from repro.core.accumulation_table import GazeAccumulationTable, GazeRegionEntry
from repro.core.dense_tracker import (
    DenseCounter,
    DensePCTable,
    StreamingConfidence,
    StreamingModule,
    hash_pc,
)
from repro.core.filter_table import GazeFilterTable
from repro.core.pattern_history import GazePatternHistoryTable
from repro.core.prefetch_buffer import BlockPrefetchState, GazePrefetchBuffer
from repro.sim.types import PrefetchHint, unpack_prefetch


class TestFilterTable:
    def test_insert_lookup_remove(self):
        ft = GazeFilterTable(entries=4)
        ft.insert(region=10, trigger_pc=0x400, trigger_offset=7)
        entry = ft.lookup(10)
        assert entry.trigger_pc == 0x400
        assert entry.trigger_offset == 7
        assert ft.remove(10).region == 10
        assert ft.lookup(10) is None

    def test_capacity_lru(self):
        ft = GazeFilterTable(entries=2)
        ft.insert(1, 0, 0)
        ft.insert(2, 0, 0)
        ft.lookup(1)
        ft.insert(3, 0, 0)
        assert 1 in ft
        assert 2 not in ft

    def test_storage_matches_table1(self):
        ft = GazeFilterTable()
        assert ft.storage_bits() / 8 == 456

    def test_reset(self):
        ft = GazeFilterTable()
        ft.insert(1, 2, 3)
        ft.reset()
        assert len(ft) == 0


class TestAccumulationTable:
    def test_insert_records_first_two_offsets(self):
        at = GazeAccumulationTable(entries=4)
        entry, evicted = at.insert(5, trigger_pc=1, trigger_offset=3, second_offset=9)
        assert evicted is None
        assert entry.footprint == (1 << 3) | (1 << 9)
        assert entry.access_count == 2
        assert entry.last_offset == 9
        assert entry.penultimate_offset == 3

    def test_eviction_returns_victim(self):
        at = GazeAccumulationTable(entries=1)
        at.insert(1, 0, 0, 1)
        _, evicted = at.insert(2, 0, 0, 1)
        assert evicted is not None
        assert evicted.region == 1

    def test_record_duplicate_offset_keeps_stride_state(self):
        entry = GazeRegionEntry(region=0, trigger_pc=0, trigger_offset=0, second_offset=1)
        entry.record(0)
        entry.record(1)
        entry.record(1)  # repeated block
        assert entry.last_offset == 1
        assert entry.penultimate_offset == 0

    def test_strides_with(self):
        entry = GazeRegionEntry(region=0, trigger_pc=0, trigger_offset=0, second_offset=1)
        entry.record(0)
        entry.record(1)
        assert entry.strides_with(2) == (1, 1)
        assert entry.strides_with(5) == (1, 4)
        assert entry.strides_with(1) is None  # repeated block

    def test_strides_need_two_prior_offsets(self):
        entry = GazeRegionEntry(region=0, trigger_pc=0, trigger_offset=0, second_offset=1)
        entry.record(0)
        assert entry.strides_with(3) is None

    def test_fully_dense(self):
        entry = GazeRegionEntry(region=0, trigger_pc=0, trigger_offset=0, second_offset=1)
        for offset in range(64):
            entry.record(offset)
        assert entry.is_fully_dense(64)
        assert not entry.is_fully_dense(128)

    def test_storage_matches_table1(self):
        at = GazeAccumulationTable()
        assert at.storage_bits() / 8 == 1128

    def test_drain(self):
        at = GazeAccumulationTable(entries=4)
        at.insert(1, 0, 0, 1)
        at.insert(2, 0, 2, 3)
        drained = at.drain()
        assert len(drained) == 2
        assert len(at) == 0


class TestPatternHistoryTable:
    def test_strict_match_required(self):
        pht = GazePatternHistoryTable()
        pht.learn(trigger_offset=4, second_offset=9, footprint=0b1011)
        assert pht.predict(4, 9) == 0b1011
        assert pht.predict(4, 10) is None     # same index, wrong tag
        assert pht.predict(9, 4) is None      # swapped order must not match
        assert pht.predict(5, 9) is None      # wrong index

    def test_learn_overwrites(self):
        pht = GazePatternHistoryTable()
        pht.learn(1, 2, 0b1)
        pht.learn(1, 2, 0b1000)
        assert pht.predict(1, 2) == 0b1000

    def test_associativity_eviction(self):
        pht = GazePatternHistoryTable(entries=256, ways=4)
        # Five different tags mapping to the same set (index = trigger % 64).
        for tag in range(5):
            pht.learn(trigger_offset=0, second_offset=tag, footprint=1 << tag)
        # The least recently used tag (0) must have been evicted.
        assert pht.predict(0, 0) is None
        assert pht.predict(0, 4) == 1 << 4

    def test_hit_rate_tracking(self):
        pht = GazePatternHistoryTable()
        pht.learn(0, 1, 0b11)
        pht.predict(0, 1)
        pht.predict(0, 2)
        assert pht.hit_rate == pytest.approx(0.5)

    def test_storage_matches_table1(self):
        pht = GazePatternHistoryTable()
        assert pht.storage_bits() / 8 == 2304

    def test_entries_must_divide_ways(self):
        with pytest.raises(ValueError):
            GazePatternHistoryTable(entries=255, ways=4)

    def test_reset(self):
        pht = GazePatternHistoryTable()
        pht.learn(0, 1, 1)
        pht.reset()
        assert pht.predict(0, 1) is None
        assert pht.lookups == 1  # the post-reset lookup


class TestDenseTracker:
    def test_hash_pc_within_bits(self):
        for pc in (0, 0x400000, 0xFFFFFFFF, 123456789):
            assert 0 <= hash_pc(pc) < (1 << 12)

    def test_dpct_records_and_matches(self):
        dpct = DensePCTable(entries=8)
        dpct.record(0x400100)
        assert dpct.contains(0x400100)
        assert not dpct.contains(0x400104)

    def test_dpct_lru_capacity(self):
        dpct = DensePCTable(entries=2)
        dpct.record(1)
        dpct.record(2)
        dpct.record(3)
        assert len(dpct) == 2

    def test_dpct_storage(self):
        assert DensePCTable().storage_bits() / 8 == 15

    def test_dense_counter_saturates(self):
        dc = DenseCounter(bits=3)
        for _ in range(20):
            dc.increment()
        assert dc.value == 7
        assert dc.is_saturated

    def test_dense_counter_fast_decay(self):
        dc = DenseCounter(bits=3)
        for _ in range(7):
            dc.increment()
        dc.decay()
        assert dc.value == 3  # halved (7 // 2)

    def test_dense_counter_slow_decay(self):
        dc = DenseCounter(bits=3)
        dc.increment()
        dc.increment()
        dc.decay()
        assert dc.value == 1  # -1 below the half threshold

    def test_dense_counter_floor_zero(self):
        dc = DenseCounter()
        dc.decay()
        assert dc.value == 0

    def test_streaming_module_confidence_levels(self):
        module = StreamingModule()
        assert module.confidence(0x1) is StreamingConfidence.NONE
        # Learning dense regions raises confidence.
        for _ in range(3):
            module.learn(0x1, fully_dense=True)
        assert module.confidence(0x1) is StreamingConfidence.HIGH  # dense PC hit
        assert module.confidence(0x999) is StreamingConfidence.MODERATE  # DC = 3 > 2
        for _ in range(5):
            module.learn(0x2, fully_dense=True)
        assert module.confidence(0x999) is StreamingConfidence.HIGH  # DC saturated

    def test_streaming_module_non_dense_decays(self):
        module = StreamingModule()
        for _ in range(7):
            module.learn(0x1, fully_dense=True)
        for _ in range(6):
            module.learn(0x2, fully_dense=False)
        assert module.dc.value == 0


class TestPrefetchBuffer:
    def test_add_and_pop_ordered(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=5, offsets_to_l1=[9, 3], offsets_to_l2=[20])
        requests = pb.pop_requests(region=5, region_size=4096)
        decoded = [unpack_prefetch(p) for p in requests]
        assert [block % 64 for block, _ in decoded] == [3, 9, 20]
        hints = [hint for _, hint in decoded]
        assert hints == [PrefetchHint.L1, PrefetchHint.L1, PrefetchHint.L2]

    def test_exclude_offsets(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=[0, 1, 2], exclude_offsets=(0, 1))
        requests = pb.pop_requests(1, 4096)
        assert len(requests) == 1

    def test_no_duplicate_issue(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=[4])
        assert len(pb.pop_requests(1, 4096)) == 1
        assert len(pb.pop_requests(1, 4096)) == 0
        pb.add_pattern(region=1, offsets_to_l1=[4])
        assert len(pb.pop_requests(1, 4096)) == 0

    def test_l1_priority_preserved_on_merge(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=[4], offsets_to_l2=[4])
        requests = pb.pop_requests(1, 4096)
        assert unpack_prefetch(requests[0])[1] is PrefetchHint.L1

    def test_promotion_reissues_l2_blocks(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=[], offsets_to_l2=[10, 11])
        pb.pop_requests(1, 4096)
        needs = pb.promote(1, [10, 11, 12])
        assert set(needs) == {10, 11, 12}
        requests = pb.pop_requests(1, 4096)
        assert all(unpack_prefetch(p)[1] is PrefetchHint.L1 for p in requests)

    def test_promotion_skips_l1_issued(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=[10])
        pb.pop_requests(1, 4096)
        assert pb.promote(1, [10]) == []

    def test_pop_limit(self):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=1, offsets_to_l1=list(range(20)))
        first = pb.pop_requests(1, 4096, limit=8)
        second = pb.pop_requests(1, 4096, limit=8)
        third = pb.pop_requests(1, 4096, limit=8)
        assert [len(first), len(second), len(third)] == [8, 8, 4]

    def test_out_of_range_offsets_ignored(self):
        pb = GazePrefetchBuffer(blocks_per_region=64)
        pb.add_pattern(region=1, offsets_to_l1=[70, -1, 5])
        assert len(pb.pop_requests(1, 4096)) == 1

    def test_capacity_lru(self):
        pb = GazePrefetchBuffer(entries=2)
        pb.add_pattern(1, [1])
        pb.add_pattern(2, [1])
        pb.add_pattern(3, [1])
        assert pb.lookup(1) is None
        assert pb.lookup(3) is not None

    def test_storage_matches_table1(self):
        assert GazePrefetchBuffer().storage_bits() / 8 == 668
