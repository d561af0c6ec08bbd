"""Behavioural unit tests for the Gaze prefetcher itself."""

import pytest

from repro.core.gaze import GazeConfig, GazePrefetcher
from repro.sim.types import PrefetchHint, address_from_region_offset, unpack_prefetch


def feed_region(prefetcher, region, offsets, pc=0x400100, start_cycle=0):
    """Feed a sequence of offsets of one region to the prefetcher."""
    requests = []
    for index, offset in enumerate(offsets):
        address = address_from_region_offset(region, offset,
                                             prefetcher.config.region_size)
        requests.extend(prefetcher.train(pc, address, start_cycle + index * 10))
    return requests


def offsets_of(requests, region_size=4096):
    return sorted({unpack_prefetch(p)[0] % (region_size // 64) for p in requests})


def hint_of(packed):
    return unpack_prefetch(packed)[1]


class TestBasicFlow:
    def test_first_access_produces_nothing(self):
        gaze = GazePrefetcher()
        assert feed_region(gaze, 10, [5]) == []
        assert 10 in gaze.filter_table

    def test_second_access_activates_region(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 10, [5, 9])
        assert 10 in gaze.accumulation_table
        assert 10 not in gaze.filter_table

    def test_repeated_trigger_block_stays_in_filter(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 10, [5, 5, 5])
        assert 10 in gaze.filter_table
        assert 10 not in gaze.accumulation_table

    def test_cold_activation_no_prediction(self):
        gaze = GazePrefetcher()
        requests = feed_region(gaze, 10, [5, 9, 12])
        assert requests == []
        assert gaze.pht_predictions == 0


class TestPatternLearningAndPrediction:
    def test_learned_footprint_is_replayed(self):
        gaze = GazePrefetcher()
        pattern = [5, 9, 12, 20, 33]
        # Train: complete a region then force its deactivation via eviction.
        feed_region(gaze, 100, pattern)
        gaze.on_cache_eviction(100 * 64)  # any block of region 100
        # A new region with the same first two accesses must be predicted.
        requests = feed_region(gaze, 200, pattern[:2])
        assert gaze.pht_predictions == 1
        assert offsets_of(requests) == sorted(set(pattern) - {5, 9})
        assert all(hint_of(r) is PrefetchHint.L1 for r in requests)

    def test_strict_matching_rejects_swapped_order(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 100, [5, 9, 12, 20])
        gaze.on_cache_eviction(100 * 64)
        requests = feed_region(gaze, 200, [9, 5])  # swapped first two accesses
        assert gaze.pht_predictions == 0
        assert requests == []

    def test_strict_matching_rejects_different_second(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 100, [5, 9, 12])
        gaze.on_cache_eviction(100 * 64)
        requests = feed_region(gaze, 200, [5, 10])
        assert gaze.pht_predictions == 0
        assert requests == []

    def test_two_classes_sharing_trigger_are_distinguished(self):
        gaze = GazePrefetcher()
        class_a = [5, 9, 12, 20]
        class_b = [5, 30, 40, 50]
        feed_region(gaze, 100, class_a)
        gaze.on_cache_eviction(100 * 64)
        feed_region(gaze, 101, class_b)
        gaze.on_cache_eviction(101 * 64)
        req_a = feed_region(gaze, 200, class_a[:2])
        req_b = feed_region(gaze, 201, class_b[:2])
        assert offsets_of(req_a) == [12, 20]
        assert offsets_of(req_b) == [40, 50]

    def test_at_lru_eviction_learns(self):
        gaze = GazePrefetcher(GazeConfig(accumulation_entries=2))
        feed_region(gaze, 100, [5, 9, 12])
        feed_region(gaze, 101, [6, 7])
        feed_region(gaze, 102, [8, 9])  # evicts region 100 -> learn
        requests = feed_region(gaze, 200, [5, 9])
        assert gaze.pht_predictions == 1
        assert offsets_of(requests) == [12]

    def test_drain_learns_all(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 100, [5, 9, 12])
        gaze.drain()
        assert len(gaze.accumulation_table) == 0
        requests = feed_region(gaze, 200, [5, 9])
        assert gaze.pht_predictions == 1


class TestStreamingModule:
    def _train_dense_regions(self, gaze, count, pc=0x500000, start_region=1000):
        for i in range(count):
            region = start_region + i
            feed_region(gaze, region, list(range(64)), pc=pc)
            gaze.on_cache_eviction(region * 64)

    def test_cold_streaming_region_not_prefetched(self):
        gaze = GazePrefetcher()
        requests = feed_region(gaze, 10, [0, 1])
        assert requests == []
        assert gaze.accumulation_table.lookup(10).stride_flag

    def test_dense_training_enables_high_confidence(self):
        gaze = GazePrefetcher()
        self._train_dense_regions(gaze, count=3, pc=0x500000)
        requests = feed_region(gaze, 2000, [0, 1], pc=0x500000)
        assert gaze.streaming_predictions >= 1
        l1_offsets = offsets_of([r for r in requests if hint_of(r) is PrefetchHint.L1])
        l2_offsets = offsets_of([r for r in requests if hint_of(r) is PrefetchHint.L2])
        # Head of the region to the L1D, the rest (or at least some) to the L2C.
        assert l1_offsets and max(l1_offsets) < 16
        assert all(o >= 16 for o in l2_offsets)

    def test_unknown_pc_with_saturated_dc_still_high(self):
        gaze = GazePrefetcher()
        self._train_dense_regions(gaze, count=8, pc=0x500000)
        assert gaze.streaming.dc.is_saturated
        requests = feed_region(gaze, 3000, [0, 1], pc=0x999999)
        assert len(requests) > 0

    def test_half_confident_dc_only_l2(self):
        gaze = GazePrefetcher()
        self._train_dense_regions(gaze, count=3, pc=0x500000)
        assert 2 < gaze.streaming.dc.value < 7
        requests = feed_region(gaze, 3000, [0, 1], pc=0x777777)
        assert requests  # moderate confidence -> L2-only head
        assert all(hint_of(r) is PrefetchHint.L2 for r in requests)

    def test_non_dense_streaming_candidates_decay_dc(self):
        gaze = GazePrefetcher()
        self._train_dense_regions(gaze, count=7, pc=0x500000)
        saturated = gaze.streaming.dc.value
        for i in range(6):
            region = 5000 + i
            feed_region(gaze, region, [0, 1, 2], pc=0x600000)
            gaze.on_cache_eviction(region * 64)
        assert gaze.streaming.dc.value < saturated

    def test_streaming_not_learned_into_pht(self):
        gaze = GazePrefetcher()
        self._train_dense_regions(gaze, count=2)
        assert gaze.pht.predict(0, 1) is None

    def test_disabled_streaming_module_uses_pht(self):
        gaze = GazePrefetcher(GazeConfig(enable_streaming_module=False,
                                         enable_stride_backup=False))
        feed_region(gaze, 100, list(range(64)))
        gaze.on_cache_eviction(100 * 64)
        # The PB smooths issuance: the first batch is capped per access, and
        # subsequent accesses release the rest of the 62-block pattern.
        requests = feed_region(gaze, 200, [0, 1])
        assert gaze.pht_predictions == 1
        assert len(requests) == gaze.config.pb_issue_per_access
        requests += feed_region(gaze, 200, [2, 3, 4, 5])
        assert len(offsets_of(requests)) >= 60


class TestStrideBackupAndPromotion:
    def test_stride_backup_promotes_ahead(self):
        gaze = GazePrefetcher()
        # Unmatched region (no PHT entry): stride flag set, then a constant
        # stride of +2 appears -> promote 4 blocks, skipping 2.
        requests = feed_region(gaze, 300, [4, 6, 8])
        promoted = offsets_of(requests)
        # After access at offset 8 with stride 2: skip 2 steps (10, 12),
        # prefetch the next 4 strided blocks 14, 16, 18, 20.
        assert promoted == [14, 16, 18, 20]
        assert gaze.promotions == 1

    def test_no_promotion_without_matching_strides(self):
        gaze = GazePrefetcher()
        requests = feed_region(gaze, 300, [4, 6, 7])
        assert requests == []

    def test_promotion_respects_region_bounds(self):
        gaze = GazePrefetcher()
        requests = feed_region(gaze, 300, [59, 60, 61])
        assert all(off < 64 for off in offsets_of(requests))

    def test_promotion_disabled_by_config(self):
        gaze = GazePrefetcher(GazeConfig(enable_stride_backup=False))
        requests = feed_region(gaze, 300, [4, 6, 8, 10])
        assert requests == []

    def test_promotion_not_repeated_for_same_blocks(self):
        gaze = GazePrefetcher()
        first = feed_region(gaze, 300, [4, 6, 8])
        again = feed_region(gaze, 300, [10])
        overlap = set(offsets_of(first)) & set(offsets_of(again))
        assert not overlap


class TestStorageAndReset:
    def test_total_storage_matches_table1(self):
        assert GazePrefetcher().storage_kib() == pytest.approx(4.46, abs=0.01)

    def test_reset_clears_everything(self):
        gaze = GazePrefetcher()
        feed_region(gaze, 100, [5, 9, 12])
        gaze.reset()
        assert len(gaze.filter_table) == 0
        assert len(gaze.accumulation_table) == 0
        assert gaze.pht_predictions == 0

    def test_larger_region_configuration(self):
        gaze = GazePrefetcher(GazeConfig(region_size=8192))
        assert gaze.config.blocks_per_region == 128
        feed_region(gaze, 100, [5, 9, 100])
        gaze.on_cache_eviction((100 * 8192) // 64)
        requests = feed_region(gaze, 200, [5, 9])
        assert offsets_of(requests, region_size=8192) == [100]

    def test_storage_grows_with_region_size(self):
        small = GazePrefetcher(GazeConfig(region_size=4096)).storage_bits()
        large = GazePrefetcher(GazeConfig(region_size=65536)).storage_bits()
        assert large > small
