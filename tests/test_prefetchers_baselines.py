"""Unit tests for the baseline prefetchers (IP-stride, BOP, SMS, Bingo,
DSPatch, PMP, IPCP, SPP-PPF, Berti) and the registry/multi-level wrapper."""

import pytest

from repro.prefetchers import (
    BertiPrefetcher,
    BestOffsetPrefetcher,
    BingoPrefetcher,
    DSPatchPrefetcher,
    IPCPPrefetcher,
    IPStridePrefetcher,
    MultiLevelPrefetcher,
    NextLinePrefetcher,
    NoPrefetcher,
    PMPPrefetcher,
    SMSPrefetcher,
    SPPPrefetcher,
    available_prefetchers,
    create_prefetcher,
    register_prefetcher,
)
from repro.sim.types import (
    AccessResult,
    PrefetchHint,
    address_from_region_offset,
    unpack_prefetch,
)


def blocks_of(requests):
    return sorted({unpack_prefetch(p)[0] for p in requests})


def offsets_of(requests, region_size):
    return sorted({block % (region_size // 64) for block in blocks_of(requests)})


def hints_of(requests):
    return {unpack_prefetch(p)[1] for p in requests}


def feed_region(prefetcher, region, offsets, pc=0x400100, region_size=4096):
    requests = []
    for index, offset in enumerate(offsets):
        address = address_from_region_offset(region, offset, region_size)
        requests.extend(prefetcher.train(pc, address, index * 20))
    return requests


class TestNoAndNextLine:
    def test_no_prefetcher_returns_nothing(self):
        assert NoPrefetcher().train(1, 2, 3) == []

    def test_next_line_degree(self):
        prefetcher = NextLinePrefetcher(degree=3)
        requests = prefetcher.train(pc=1, address=0, cycle=0)
        assert blocks_of(requests) == [1, 2, 3]

    def test_next_line_invalid_degree(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


class TestIPStride:
    def test_learns_constant_stride(self):
        prefetcher = IPStridePrefetcher(degree=2)
        requests = []
        for i in range(6):
            requests = prefetcher.train(pc=0x10, address=i * 3 * 64, cycle=i)
        assert blocks_of(requests) == [18, 21]

    def test_different_pcs_tracked_separately(self):
        prefetcher = IPStridePrefetcher()
        for i in range(6):
            prefetcher.train(pc=0x10, address=i * 64, cycle=i)
            prefetcher.train(pc=0x20, address=i * 5 * 64, cycle=i)
        up = prefetcher.train(pc=0x10, address=6 * 64, cycle=10)
        assert 7 in blocks_of(up)

    def test_no_prefetch_before_confidence(self):
        prefetcher = IPStridePrefetcher(confidence_threshold=2)
        assert prefetcher.train(0x10, 0, 0) == []
        assert prefetcher.train(0x10, 64, 1) == []

    def test_reset(self):
        prefetcher = IPStridePrefetcher()
        for i in range(6):
            prefetcher.train(0x10, i * 64, i)
        prefetcher.reset()
        assert prefetcher.train(0x10, 640, 10) == []

    def test_storage_positive(self):
        assert IPStridePrefetcher().storage_bits() > 0


class TestBOP:
    def test_learns_best_offset(self):
        prefetcher = BestOffsetPrefetcher(candidates=(1, 4), score_max=4, round_max=10)
        for i in range(200):
            prefetcher.train(pc=1, address=i * 4 * 64, cycle=i)
        assert prefetcher.best_offset == 4

    def test_prefetches_with_learned_offset(self):
        prefetcher = BestOffsetPrefetcher()
        requests = prefetcher.train(pc=1, address=0, cycle=0)
        assert blocks_of(requests) == [prefetcher.best_offset]

    def test_reset_restores_defaults(self):
        prefetcher = BestOffsetPrefetcher()
        for i in range(100):
            prefetcher.train(1, i * 2 * 64, i)
        prefetcher.reset()
        assert prefetcher.best_offset == 1


class TestSMS:
    def test_learns_and_replays_per_pc_offset(self):
        sms = SMSPrefetcher(region_size=2048)
        feed_region(sms, 100, [3, 7, 12], pc=0xAA, region_size=2048)
        sms.on_cache_eviction((100 * 2048) // 64)
        requests = feed_region(sms, 200, [3], pc=0xAA, region_size=2048)
        offsets = offsets_of(requests, 2048)
        assert offsets == [7, 12]

    def test_different_trigger_offset_is_different_event(self):
        sms = SMSPrefetcher(region_size=2048)
        feed_region(sms, 100, [3, 7], pc=0xAA, region_size=2048)
        sms.on_cache_eviction((100 * 2048) // 64)
        # SMS's event is PC+Offset: the same PC triggering at a different
        # offset is a different event and must not match.
        assert feed_region(sms, 200, [10], pc=0xAA, region_size=2048) == []

    def test_different_pc_no_match(self):
        sms = SMSPrefetcher(region_size=2048)
        feed_region(sms, 100, [3, 7], pc=0xAA, region_size=2048)
        sms.on_cache_eviction((100 * 2048) // 64)
        assert feed_region(sms, 200, [3], pc=0xBB, region_size=2048) == []

    def test_storage_is_large(self):
        assert SMSPrefetcher().storage_kib() > 50


class TestBingo:
    def test_long_event_exact_match(self):
        bingo = BingoPrefetcher(region_size=2048)
        feed_region(bingo, 100, [3, 7], pc=0xAA, region_size=2048)
        bingo.on_cache_eviction((100 * 2048) // 64)
        feed_region(bingo, 100, [3], pc=0xAA, region_size=2048)
        assert bingo.long_hits == 1

    def test_short_event_fallback(self):
        bingo = BingoPrefetcher(region_size=2048)
        feed_region(bingo, 100, [3, 7], pc=0xAA, region_size=2048)
        bingo.on_cache_eviction((100 * 2048) // 64)
        requests = feed_region(bingo, 500, [3], pc=0xAA, region_size=2048)
        assert bingo.short_hits == 1
        assert requests

    def test_no_match_for_unknown_pc(self):
        bingo = BingoPrefetcher(region_size=2048)
        feed_region(bingo, 100, [3, 7], pc=0xAA, region_size=2048)
        bingo.on_cache_eviction((100 * 2048) // 64)
        assert feed_region(bingo, 500, [3], pc=0xCC, region_size=2048) == []


class TestDSPatch:
    def test_coverage_pattern_is_union(self):
        dspatch = DSPatchPrefetcher(region_size=2048)
        feed_region(dspatch, 100, [0, 2], pc=0xAA, region_size=2048)
        dspatch.on_cache_eviction((100 * 2048) // 64)
        feed_region(dspatch, 101, [0, 4], pc=0xAA, region_size=2048)
        dspatch.on_cache_eviction((101 * 2048) // 64)
        requests = feed_region(dspatch, 200, [0], pc=0xAA, region_size=2048)
        offsets = offsets_of(requests, 2048)
        assert offsets == [2, 4]  # OR of both footprints (bandwidth ample)

    def test_accuracy_pattern_under_pressure(self):
        dspatch = DSPatchPrefetcher(region_size=2048, latency_threshold=0.0)
        dspatch._latency_ema = 1000.0  # force the bandwidth-constrained path
        feed_region(dspatch, 100, [0, 2], pc=0xAA, region_size=2048)
        dspatch.on_cache_eviction((100 * 2048) // 64)
        feed_region(dspatch, 101, [0, 2, 4], pc=0xAA, region_size=2048)
        dspatch.on_cache_eviction((101 * 2048) // 64)
        dspatch._latency_ema = 1000.0
        requests = feed_region(dspatch, 200, [0], pc=0xAA, region_size=2048)
        offsets = offsets_of(requests, 2048)
        assert offsets == [2]  # AND of the footprints


class TestPMP:
    def test_merged_counters_above_threshold_prefetched(self):
        pmp = PMPPrefetcher()
        for region in range(100, 104):
            feed_region(pmp, region, [5, 9, 12])
            pmp.on_cache_eviction(region * 64)
        requests = feed_region(pmp, 500, [5])
        offsets = offsets_of(requests, 4096)
        assert offsets == [9, 12]

    def test_low_confidence_goes_to_l2(self):
        pmp = PMPPrefetcher(l1_threshold=0.9, l2_threshold=0.2)
        # Two conflicting patterns sharing the trigger offset: each block has
        # 50% confidence, below the L1 threshold but above the L2 threshold.
        feed_region(pmp, 100, [5, 9])
        pmp.on_cache_eviction(100 * 64)
        feed_region(pmp, 101, [5, 20])
        pmp.on_cache_eviction(101 * 64)
        requests = feed_region(pmp, 500, [5])
        assert requests
        assert hints_of(requests) == {PrefetchHint.L2}

    def test_trigger_offset_collision_mixes_patterns(self):
        pmp = PMPPrefetcher(l2_threshold=0.1)
        feed_region(pmp, 100, [5, 9, 12])
        pmp.on_cache_eviction(100 * 64)
        feed_region(pmp, 101, [5, 30, 40])
        pmp.on_cache_eviction(101 * 64)
        requests = feed_region(pmp, 500, [5])
        offsets = offsets_of(requests, 4096)
        # Both patterns leak through: the characterization cannot separate them.
        assert set(offsets) >= {9, 30}

    def test_storage_about_5kb(self):
        assert PMPPrefetcher().storage_kib() == pytest.approx(5.0, abs=0.6)


class TestIPCP:
    def test_constant_stride_class(self):
        ipcp = IPCPPrefetcher(cs_degree=2)
        requests = []
        for i in range(6):
            requests = ipcp.train(pc=0x30, address=i * 2 * 64, cycle=i)
        assert blocks_of(requests) == [12, 14]

    def test_global_stream_class(self):
        # cs_degree != gs_degree: on this dense ascending stream only the
        # global-stream class issues the next gs_degree blocks.
        ipcp = IPCPPrefetcher(cs_degree=2, gs_degree=4)
        base = 0x100000 >> 6
        requests = []
        for offset in range(8):
            requests = ipcp.train(pc=0x30, address=(base + offset) * 64, cycle=offset)
        assert blocks_of(requests) == [base + 8, base + 9, base + 10, base + 11]
        stream = ipcp.region_streams.get(0x100000 // 4096, touch=False)
        assert stream.touched >= 4 and stream.ascending >= 3

    def test_reset(self):
        ipcp = IPCPPrefetcher()
        for i in range(6):
            ipcp.train(0x30, i * 64, i)
        ipcp.reset()
        assert ipcp.train(0x30, 64 * 10, 20) == []


class TestSPP:
    def test_learns_recurring_delta_path(self):
        spp = SPPPrefetcher(use_perceptron=False)
        requests = []
        page = 77
        for i in range(40):
            offset = (i * 3) % 64
            address = page * 4096 + offset * 64
            requests = spp.train(pc=1, address=address, cycle=i)
            if offset + 3 >= 64:
                page += 1
        assert requests  # steady-state lookahead produces candidates

    def test_lookahead_stays_in_page(self):
        spp = SPPPrefetcher(use_perceptron=False)
        for i in range(30):
            spp.train(pc=1, address=i * 5 * 64, cycle=i)
        requests = spp.train(pc=1, address=60 * 64, cycle=100)
        for block in blocks_of(requests):
            assert block // 64 == 60 // 64

    @pytest.mark.parametrize("region_size", [0, 32, 96])
    def test_rejects_region_size_not_a_block_multiple(self, region_size):
        # 96 bytes would map prefetches outside the trained page; 0 would
        # fail only at the first train.
        with pytest.raises(ValueError, match="multiple of 64"):
            SPPPrefetcher(region_size=region_size)

    def test_lookahead_stays_in_small_page(self):
        # A +1 stream through a 32-block page: the walk from offset 29
        # must stop at the page's last block.
        spp = SPPPrefetcher(use_perceptron=False, region_size=2048)
        for offset in range(30):
            requests = spp.train(pc=1, address=1000 * 2048 + offset * 64, cycle=offset)
        assert blocks_of(requests) == [1000 * 32 + 30, 1000 * 32 + 31]

    def test_perceptron_filter_learns_negative(self):
        from repro.prefetchers.spp import _PerceptronFilter

        ppf = _PerceptronFilter(table_size=64)
        # Issue and never see demand -> trained negative on eviction pressure.
        for block in range(300):
            ppf.record_issue(block, signature=1, delta=2, offset=3)
        assert ppf.score(1, 2, 3) < 0

    def test_perceptron_filter_learns_positive(self):
        from repro.prefetchers.spp import _PerceptronFilter

        ppf = _PerceptronFilter(table_size=64)
        for block in range(50):
            ppf.record_issue(block, signature=1, delta=2, offset=3)
            ppf.record_demand(block)
        assert ppf.score(1, 2, 3) > 0


class TestBerti:
    def test_learns_recurring_delta(self):
        berti = BertiPrefetcher()
        requests = []
        for i in range(30):
            requests = berti.train(pc=0x40, address=i * 2 * 64, cycle=i * 300)
        assert requests
        assert unpack_prefetch(requests[0])[0] - 29 * 2 == 2

    def test_timely_deltas_go_to_l1(self):
        berti = BertiPrefetcher()
        result = AccessResult(latency=100, hit_level="DRAM")
        requests = []
        for i in range(30):
            requests = berti.train(pc=0x40, address=i * 64, cycle=i * 1000, result=result)
        assert PrefetchHint.L1 in hints_of(requests)

    def test_untimely_deltas_demoted_to_l2(self):
        berti = BertiPrefetcher()
        result = AccessResult(latency=10_000, hit_level="DRAM")
        requests = []
        for i in range(30):
            requests = berti.train(pc=0x40, address=i * 64, cycle=i * 10, result=result)
        assert requests
        assert hints_of(requests) == {PrefetchHint.L2}

    def test_window_limits_delta_range(self):
        berti = BertiPrefetcher(page_window=1)
        for i in range(20):
            berti.train(pc=0x40, address=i * 200 * 64, cycle=i * 100)
        # Deltas of 200 blocks exceed a 1-page window (64 blocks): no requests.
        assert berti.train(pc=0x40, address=21 * 200 * 64, cycle=5000) == []


class TestRegistryAndMultilevel:
    def test_all_registered_names_instantiate(self):
        for name in available_prefetchers():
            prefetcher = create_prefetcher(name)
            assert prefetcher.train(0x1, 0x1000, 0) is not None

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            create_prefetcher("definitely-not-a-prefetcher")

    def test_composite_name_builds_multilevel(self):
        combo = create_prefetcher("gaze+bingo")
        assert isinstance(combo, MultiLevelPrefetcher)
        assert combo.name == "gaze+bingo"

    def test_register_custom(self):
        register_prefetcher("custom-test", NoPrefetcher)
        assert isinstance(create_prefetcher("custom-test"), NoPrefetcher)

    def test_multilevel_l2_requests_demoted(self):
        combo = MultiLevelPrefetcher(NoPrefetcher(), NextLinePrefetcher(degree=2))
        miss = AccessResult(latency=200, hit_level="DRAM")
        requests = combo.train(0x1, 0, 0, miss)
        assert requests
        assert hints_of(requests) == {PrefetchHint.L2}

    def test_multilevel_l2_not_trained_on_l1_hits(self):
        combo = MultiLevelPrefetcher(NoPrefetcher(), NextLinePrefetcher(degree=2))
        hit = AccessResult(latency=5, hit_level="L1D")
        assert combo.train(0x1, 0, 0, hit) == []

    def test_multilevel_storage_sums(self):
        a, b = create_prefetcher("gaze"), create_prefetcher("pmp")
        combo = MultiLevelPrefetcher(a, b)
        assert combo.storage_bits() == a.storage_bits() + b.storage_bits()

    def test_storage_ordering_matches_table4(self):
        """Fine-grained schemes cost orders of magnitude more than Gaze."""
        gaze = create_prefetcher("gaze").storage_kib()
        assert create_prefetcher("bingo").storage_kib() > 20 * gaze
        assert create_prefetcher("sms").storage_kib() > 20 * gaze
        assert create_prefetcher("pmp").storage_kib() == pytest.approx(gaze, rel=0.4)
