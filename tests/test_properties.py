"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulation_table import GazeRegionEntry
from repro.core.gaze import GazePrefetcher
from repro.core.pattern_history import GazePatternHistoryTable
from repro.core.prefetch_buffer import GazePrefetchBuffer
from repro.prefetchers.spatial_common import (
    RegionTracker,
    footprint_population,
    footprint_to_offsets,
    offsets_to_footprint,
    pattern_to_requests,
    rotate_footprint,
)
from repro.prefetchers.spp import _PatternEntry
from repro.prefetchers.tables import LRUTable, SetAssociativeTable
from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, DRAMConfig
from repro.sim.dram import DRAMModel
from repro.sim.types import (
    BLOCK_SIZE,
    PrefetchHint,
    address_from_region_offset,
    block_offset_in_region,
    pack_prefetch,
    region_number,
    unpack_prefetch,
)

offsets_strategy = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=64
)


class TestFootprintProperties:
    @given(offsets=offsets_strategy)
    def test_offsets_footprint_round_trip(self, offsets):
        footprint = offsets_to_footprint(offsets)
        assert set(footprint_to_offsets(footprint)) == set(offsets)
        assert footprint_population(footprint) == len(set(offsets))

    @given(offsets=offsets_strategy, shift=st.integers(min_value=-256, max_value=256))
    def test_rotation_preserves_population(self, offsets, shift):
        footprint = offsets_to_footprint(offsets)
        rotated = rotate_footprint(footprint, shift)
        assert footprint_population(rotated) == footprint_population(footprint)

    @given(offsets=offsets_strategy, shift=st.integers(min_value=-128, max_value=128))
    def test_rotation_is_invertible(self, offsets, shift):
        footprint = offsets_to_footprint(offsets)
        assert rotate_footprint(rotate_footprint(footprint, shift), -shift) == footprint

    @given(
        region=st.integers(min_value=0, max_value=1 << 30),
        offset=st.integers(min_value=0, max_value=63),
    )
    def test_region_offset_address_round_trip(self, region, offset):
        address = address_from_region_offset(region, offset)
        assert region_number(address) == region
        assert block_offset_in_region(address) == offset


def _reference_pattern_to_requests(
    region, footprint, region_size, hint, exclude_offsets, limit
):
    """The offset-by-offset loop the set-bit walk must reproduce."""
    excluded = set(exclude_offsets)
    requests = []
    for offset in range(region_size // BLOCK_SIZE):
        if not footprint & (1 << offset) or offset in excluded:
            continue
        requests.append(
            pack_prefetch(address_from_region_offset(region, offset, region_size), hint)
        )
        if limit is not None and len(requests) >= limit:
            break
    return requests


class TestPatternToRequestsProperties:
    @given(
        region=st.integers(min_value=0, max_value=1 << 40),
        # Up to 160 bits: bits at or above a region's block count must be
        # ignored for every region size below.
        footprint=st.integers(min_value=0, max_value=(1 << 160) - 1),
        region_size=st.sampled_from([2048, 4096, 8192]),
        hint=st.sampled_from([PrefetchHint.L1, PrefetchHint.L2]),
        exclude_offsets=st.lists(st.integers(min_value=-4, max_value=140), max_size=6),
        limit=st.one_of(st.none(), st.just(1), st.integers(min_value=1, max_value=140)),
    )
    @settings(max_examples=300)
    def test_set_bit_walk_matches_offset_loop(
        self, region, footprint, region_size, hint, exclude_offsets, limit
    ):
        args = (region, footprint, region_size, hint, exclude_offsets, limit)
        assert pattern_to_requests(*args) == _reference_pattern_to_requests(*args)


class TestSPPPatternMemoProperties:
    @given(
        # A three-delta alphabet makes count ties common; 64+ updates cross
        # the periodic halving at least once.
        steps=st.lists(
            st.tuples(st.sampled_from([-2, 1, 3]), st.booleans()),
            min_size=64, max_size=300,
        )
    )
    @settings(max_examples=100)
    def test_memoized_best_matches_max(self, steps):
        entry = _PatternEntry()
        assert entry.best() is None
        for index, (delta, query) in enumerate(steps):
            entry.update(delta)
            if query or index == len(steps) - 1:
                delta_max, count = max(entry.deltas.items(), key=lambda item: item[1])
                assert entry.best() == (delta_max, count / entry.total)
                assert entry.best() is entry.best()  # served from the memo


class TestTableProperties:
    @given(keys=st.lists(st.integers(min_value=0, max_value=100), max_size=200),
           capacity=st.integers(min_value=1, max_value=16))
    def test_lru_table_never_exceeds_capacity(self, keys, capacity):
        table = LRUTable(capacity=capacity)
        for key in keys:
            table.put(key, key * 2)
            assert len(table) <= capacity
        # Every resident value is consistent with its key.
        for key, value in table.items():
            assert value == key * 2

    @given(keys=st.lists(
        st.tuples(st.integers(min_value=0, max_value=31),
                  st.integers(min_value=0, max_value=63)),
        max_size=200,
    ))
    def test_set_associative_bounds(self, keys):
        table = SetAssociativeTable(sets=8, ways=4)
        for set_index, tag in keys:
            table.put(set_index, tag, tag)
        assert len(table) <= table.capacity
        for set_index in range(8):
            assert len(table.entries_in_set(set_index)) <= 4

    @given(
        entries=st.lists(
            st.tuples(st.integers(min_value=0, max_value=63),
                      st.integers(min_value=0, max_value=63),
                      st.integers(min_value=0, max_value=(1 << 64) - 1)),
            max_size=100,
        )
    )
    def test_pht_prediction_only_after_learning(self, entries):
        pht = GazePatternHistoryTable()
        learned = {}
        for trigger, second, footprint in entries:
            pht.learn(trigger, second, footprint)
            learned[(trigger, second)] = footprint
        for (trigger, second), footprint in learned.items():
            prediction = pht.predict(trigger, second)
            # Either evicted (None) or exactly what was last learned.
            assert prediction is None or prediction == footprint


class TestCacheProperties:
    @given(blocks=st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                           max_size=300))
    @settings(max_examples=50)
    def test_cache_capacity_and_hit_consistency(self, blocks):
        cache = Cache(CacheConfig(name="P", size_bytes=16 * 64 * 2, ways=2,
                                  latency=1, mshrs=4))
        for block in blocks:
            hit, _ = cache.access(block)
            if not hit:
                cache.fill(block)
            assert len(cache) <= cache.config.total_blocks
            # A block just accessed/filled must be resident.
            assert cache.contains(block)

    @given(blocks=st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                           max_size=200),
           cycles=st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                           max_size=200))
    @settings(max_examples=30)
    def test_dram_latency_never_negative_and_busy_monotone(self, blocks, cycles):
        dram = DRAMModel(DRAMConfig())
        now = 0
        for block, gap in zip(blocks, cycles):
            now += gap
            latency = dram.access(block, now)
            assert latency >= 0
        assert dram.stats.requests == min(len(blocks), len(cycles))
        assert dram.stats.row_hits + dram.stats.row_misses == dram.stats.requests


class TestRegionTrackerProperties:
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=63)),
        min_size=1, max_size=300,
    ))
    @settings(max_examples=50)
    def test_footprint_always_contains_initial_offsets(self, accesses):
        tracker = RegionTracker(accumulation_entries=4)
        collected = []
        for region, offset in accesses:
            _, _, deactivations, _ = tracker.observe(
                pc=1, address=region * 4096 + offset * 64
            )
            collected.extend(deactivations)
        collected.extend(tracker.drain())
        for event in collected:
            assert event.footprint & (1 << event.trigger_offset)
            assert event.footprint & (1 << event.second_offset)
            assert event.trigger_offset != event.second_offset
            assert footprint_population(event.footprint) >= 2


class TestGazeProperties:
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=63)),
        min_size=1, max_size=300,
    ))
    @settings(max_examples=30, deadline=None)
    def test_gaze_never_prefetches_demanded_initial_blocks(self, accesses):
        """Requests (packed block numbers, so block-aligned by construction)
        stay inside the region and never target the trigger/second blocks
        the region was activated with."""
        gaze = GazePrefetcher()
        activations = {}
        for index, (region, offset) in enumerate(accesses):
            address = region * 4096 + offset * 64
            at_before = gaze.accumulation_table.lookup(region) is None
            requests = gaze.train(0x400, address, index * 10)
            entry = gaze.accumulation_table.lookup(region)
            if at_before and entry is not None:
                activations[region] = (entry.trigger_offset, entry.second_offset)
            for packed in requests:
                req_region, req_offset = divmod(unpack_prefetch(packed)[0], 64)
                if req_region in activations:
                    trigger, second = activations[req_region]
                    assert req_offset not in (trigger, second)

    @given(offsets=st.lists(st.integers(min_value=0, max_value=63), min_size=2,
                            max_size=80))
    @settings(max_examples=50)
    def test_region_entry_footprint_superset_of_accesses(self, offsets):
        entry = GazeRegionEntry(region=0, trigger_pc=0,
                                trigger_offset=offsets[0], second_offset=offsets[1])
        for offset in offsets:
            entry.record(offset)
        footprint_offsets = set(footprint_to_offsets(entry.footprint))
        assert footprint_offsets == set(offsets)


class TestPrefetchBufferProperties:
    @given(
        l1=st.lists(st.integers(min_value=0, max_value=63), max_size=64),
        l2=st.lists(st.integers(min_value=0, max_value=63), max_size=64),
    )
    @settings(max_examples=60)
    def test_no_offset_issued_twice(self, l1, l2):
        pb = GazePrefetchBuffer()
        pb.add_pattern(region=3, offsets_to_l1=l1, offsets_to_l2=l2)
        issued = []
        while True:
            batch = pb.pop_requests(3, 4096, limit=7)
            if not batch:
                break
            issued.extend(unpack_prefetch(p)[0] % 64 for p in batch)
        assert len(issued) == len(set(issued))
        assert set(issued) == set(l1) | set(l2)
