"""Tests for the Gaze ablation variants and characterization strawmen."""

import pytest

from repro.core.variants import (
    ContextCharacterizationPrefetcher,
    GazePHTOnly,
    NInitialAccessGaze,
    OffsetOnlyPrefetcher,
    PCAddressPrefetcher,
    PCOnlyPrefetcher,
    StreamingOnlyGaze,
    VirtualGaze,
)
from repro.sim.types import address_from_region_offset, unpack_prefetch


def feed(prefetcher, region, offsets, pc=0x400100, region_size=4096):
    requests = []
    for index, offset in enumerate(offsets):
        address = address_from_region_offset(region, offset, region_size)
        requests.extend(prefetcher.train(pc, address, index * 10))
    return requests


def req_offsets(requests, region_size=4096):
    return sorted({unpack_prefetch(p)[0] % (region_size // 64) for p in requests})


class TestContextCharacterization:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ContextCharacterizationPrefetcher(scheme="magic")

    def test_offset_scheme_predicts_at_trigger(self):
        prefetcher = OffsetOnlyPrefetcher()
        feed(prefetcher, 100, [5, 9, 12])
        prefetcher.on_cache_eviction(100 * 64)
        requests = feed(prefetcher, 200, [5])
        assert req_offsets(requests) == [9, 12]

    def test_offset_scheme_confuses_shared_triggers(self):
        """Two different footprints with the same trigger offset collide."""
        prefetcher = OffsetOnlyPrefetcher()
        feed(prefetcher, 100, [5, 9, 12])
        prefetcher.on_cache_eviction(100 * 64)
        feed(prefetcher, 101, [5, 30, 40])
        prefetcher.on_cache_eviction(101 * 64)
        requests = feed(prefetcher, 200, [5])
        # Only the most recent pattern survives; the older is overwritten.
        assert req_offsets(requests) == [30, 40]

    def test_pc_scheme_keyed_by_pc(self):
        prefetcher = PCOnlyPrefetcher()
        feed(prefetcher, 100, [5, 9], pc=0xAAA)
        prefetcher.on_cache_eviction(100 * 64)
        assert feed(prefetcher, 200, [7], pc=0xBBB) == []
        requests = feed(prefetcher, 201, [7], pc=0xAAA)
        assert req_offsets(requests) == [5, 9]

    def test_pc_addr_requires_same_region(self):
        prefetcher = PCAddressPrefetcher()
        feed(prefetcher, 100, [5, 9], pc=0xAAA)
        prefetcher.on_cache_eviction(100 * 64)
        # Same PC and offset but a different region: the long event misses.
        assert feed(prefetcher, 200, [5], pc=0xAAA) == []
        # Revisiting the same region hits.
        requests = feed(prefetcher, 100, [5], pc=0xAAA)
        assert req_offsets(requests) == [9]

    def test_storage_ordering(self):
        assert (OffsetOnlyPrefetcher().storage_bits()
                < PCAddressPrefetcher().storage_bits())


class TestGazePHTOnly:
    def test_name_and_config(self):
        variant = GazePHTOnly()
        assert variant.name == "gaze-pht"
        assert not variant.config.enable_streaming_module
        assert not variant.config.enable_stride_backup

    def test_no_stride_backup_requests(self):
        variant = GazePHTOnly()
        assert feed(variant, 300, [4, 6, 8, 10]) == []


class TestVirtualGaze:
    def test_region_size_in_name(self):
        assert VirtualGaze(region_size=32 * 1024).name == "vgaze-32kb"

    def test_large_region_pattern(self):
        vgaze = VirtualGaze(region_size=8192)
        feed(vgaze, 50, [2, 3, 90], region_size=8192)
        vgaze.on_cache_eviction((50 * 8192) // 64)
        requests = feed(vgaze, 60, [2, 3], region_size=8192)
        assert req_offsets(requests, region_size=8192) == [90]


class TestStreamingOnlyVariants:
    def _train_dense(self, prefetcher, count, pc=0x500000, start=1000):
        for i in range(count):
            region = start + i
            feed(prefetcher, region, list(range(64)), pc=pc)
            prefetcher.on_cache_eviction(region * 64)

    def test_names(self):
        assert StreamingOnlyGaze(use_streaming_module=True).name == "sm4ss"
        assert StreamingOnlyGaze(use_streaming_module=False).name == "pht4ss"

    def test_non_streaming_regions_never_prefetched(self):
        for use_module in (True, False):
            variant = StreamingOnlyGaze(use_streaming_module=use_module)
            feed(variant, 100, [5, 9, 12])
            variant.on_cache_eviction(100 * 64)
            assert feed(variant, 200, [5, 9]) == []

    def test_pht4ss_replays_dense_pattern_blindly(self):
        variant = StreamingOnlyGaze(use_streaming_module=False)
        self._train_dense(variant, count=1, pc=0x500000)
        # A region triggered by a *different* PC with the same (0, 1) start
        # still receives the dense pattern: no PC double check.
        requests = feed(variant, 3000, [0, 1], pc=0x999999)
        assert len(requests) > 0

    def test_sm4ss_uses_dense_pc_double_check(self):
        variant = StreamingOnlyGaze(use_streaming_module=True)
        self._train_dense(variant, count=2, pc=0x500000)
        known = feed(variant, 3000, [0, 1], pc=0x500000)
        unknown = feed(variant, 3001, [0, 1], pc=0x999999)
        assert len(known) > 0
        # The unknown PC only gets the moderate (L2-only) treatment at most.
        from repro.sim.types import PrefetchHint
        assert all(unpack_prefetch(p)[1] is PrefetchHint.L2 for p in unknown)


class TestNInitialAccessVariants:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            NInitialAccessGaze(n=0)

    def test_n1_behaves_like_offset(self):
        variant = NInitialAccessGaze(n=1)
        feed(variant, 100, [5, 9, 12])
        variant.on_cache_eviction(100 * 64)
        requests = feed(variant, 200, [5])
        assert req_offsets(requests) == [9, 12]

    def test_n2_requires_two_aligned_accesses(self):
        variant = NInitialAccessGaze(n=2)
        feed(variant, 100, [5, 9, 12])
        variant.on_cache_eviction(100 * 64)
        assert feed(variant, 200, [5]) == []
        requests = feed(variant, 201, [5, 9])
        assert req_offsets(requests) == [12]

    def test_n3_needs_three_and_excludes_them(self):
        variant = NInitialAccessGaze(n=3)
        feed(variant, 100, [5, 9, 12, 20])
        variant.on_cache_eviction(100 * 64)
        assert feed(variant, 200, [5, 9]) == []
        requests = feed(variant, 201, [5, 9, 12])
        assert req_offsets(requests) == [20]

    def test_wrong_order_does_not_match(self):
        variant = NInitialAccessGaze(n=2)
        feed(variant, 100, [5, 9, 12])
        variant.on_cache_eviction(100 * 64)
        assert feed(variant, 200, [9, 5]) == []

    def test_more_initial_accesses_cost_more_storage(self):
        assert (NInitialAccessGaze(n=4).storage_bits()
                > NInitialAccessGaze(n=1).storage_bits())

    def test_duplicate_accesses_do_not_advance_event(self):
        variant = NInitialAccessGaze(n=2)
        feed(variant, 100, [5, 5, 9, 12])
        variant.on_cache_eviction(100 * 64)
        requests = feed(variant, 200, [5, 9])
        assert req_offsets(requests) == [12]
