"""Unit tests for repro.sim.types: address arithmetic and value types."""

import pytest

from repro.sim.types import (
    AccessType,
    BLOCK_SIZE,
    MemoryAccess,
    PrefetchHint,
    address_from_region_offset,
    block_address,
    block_number,
    block_offset_in_region,
    blocks_per_region,
    pack_prefetch,
    region_base_address,
    region_number,
    unpack_prefetch,
)


class TestBlockArithmetic:
    def test_block_size_is_64(self):
        assert BLOCK_SIZE == 64

    def test_block_number_of_zero(self):
        assert block_number(0) == 0

    def test_block_number_within_block(self):
        assert block_number(63) == 0
        assert block_number(64) == 1
        assert block_number(127) == 1

    def test_block_address_round_trip(self):
        for block in (0, 1, 77, 123456):
            assert block_number(block_address(block)) == block

    def test_block_number_large_address(self):
        assert block_number(1 << 40) == (1 << 40) >> 6


class TestRegionArithmetic:
    def test_default_region_has_64_blocks(self):
        assert blocks_per_region() == 64
        assert blocks_per_region(4096) == 64

    def test_blocks_per_region_other_sizes(self):
        assert blocks_per_region(2048) == 32
        assert blocks_per_region(8192) == 128
        assert blocks_per_region(65536) == 1024

    def test_region_number(self):
        assert region_number(0) == 0
        assert region_number(4095) == 0
        assert region_number(4096) == 1

    def test_region_number_custom_size(self):
        assert region_number(4096, region_size=2048) == 2
        assert region_number(2047, region_size=2048) == 0

    def test_region_base_address(self):
        assert region_base_address(0) == 0
        assert region_base_address(3) == 3 * 4096
        assert region_base_address(5, region_size=2048) == 10240

    def test_offset_in_region(self):
        assert block_offset_in_region(0) == 0
        assert block_offset_in_region(64) == 1
        assert block_offset_in_region(4095) == 63
        assert block_offset_in_region(4096) == 0

    def test_offset_in_region_custom_size(self):
        assert block_offset_in_region(2048 + 128, region_size=2048) == 2

    def test_address_from_region_offset_round_trip(self):
        for region in (0, 7, 1000):
            for offset in (0, 1, 33, 63):
                address = address_from_region_offset(region, offset)
                assert region_number(address) == region
                assert block_offset_in_region(address) == offset

    def test_region_offset_composition_block_aligned(self):
        address = address_from_region_offset(12, 5)
        assert address % 64 == 0


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(pc=0x400, address=0x1000)
        assert access.access_type is AccessType.LOAD
        assert access.instr_gap == 0

    def test_block_property(self):
        access = MemoryAccess(pc=0x400, address=0x1040)
        assert access.block == 0x41

    def test_frozen(self):
        access = MemoryAccess(pc=1, address=2)
        with pytest.raises(AttributeError):
            access.address = 3


class TestPrefetchRequest:
    """A prefetch request is one packed int: ``block << 1 | to_l1``."""

    def test_defaults(self):
        packed = pack_prefetch(128)
        assert packed == 2 << 1 | 1
        assert unpack_prefetch(packed) == (2, PrefetchHint.L1)

    def test_hint_levels_are_ordered(self):
        assert PrefetchHint.L1.value < PrefetchHint.L2.value < PrefetchHint.LLC.value

    def test_request_is_frozen(self):
        # A packed request is a plain (immutable) int that round-trips;
        # any address inside the block packs to the block, and every
        # non-L1 hint decodes as an L2 fill.
        for hint in (PrefetchHint.L1, PrefetchHint.L2):
            packed = pack_prefetch(130, hint)
            assert type(packed) is int
            assert unpack_prefetch(packed) == (2, hint)
        assert unpack_prefetch(pack_prefetch(128, PrefetchHint.LLC)) == (
            2,
            PrefetchHint.L2,
        )
