"""Core value types shared by the simulator, prefetchers and workloads.

Addresses are plain integers (byte addresses).  The helpers here convert
between byte addresses, 64-byte cache-block numbers, and spatial regions
(4 KB pages by default, matching the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

#: Cache block (line) size in bytes.  The paper uses 64-byte lines throughout.
BLOCK_SIZE = 64

#: log2 of the block size, used for address arithmetic.
BLOCK_SHIFT = 6

#: Default spatial region size in bytes (a 4 KB physical page).
DEFAULT_REGION_SIZE = 4096

#: Number of 64-byte blocks in a default region.
DEFAULT_BLOCKS_PER_REGION = DEFAULT_REGION_SIZE // BLOCK_SIZE


class AccessType(enum.Enum):
    """Kind of memory operation carried by a trace record."""

    LOAD = "load"
    STORE = "store"
    PREFETCH = "prefetch"


class PrefetchHint(enum.Enum):
    """Target fill level requested for a prefetch.

    The paper's prefetchers issue prefetches either into the L1D (high
    confidence) or only into the L2C (moderate confidence).  None of the
    evaluated designs fill the LLC directly, but the level exists for
    completeness.
    """

    L1 = 1
    L2 = 2
    LLC = 3


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """One demand access observed by the prefetcher / hierarchy.

    Slotted: traces hold millions of these and the simulation kernel reads
    their fields once per access, so the instances carry no ``__dict__``.

    Attributes:
        pc: program counter of the triggering instruction.
        address: byte address accessed.
        access_type: load or store.
        instr_gap: number of non-memory instructions preceding this access
            in program order (used by the core timing model).
    """

    pc: int
    address: int
    access_type: AccessType = AccessType.LOAD
    instr_gap: int = 0

    @property
    def block(self) -> int:
        """Cache-block number of this access."""
        return self.address >> BLOCK_SHIFT


def pack_prefetch(address: int, hint: PrefetchHint = PrefetchHint.L1) -> int:
    """Pack a prefetch for the block holding ``address`` into one int.

    This is the one form a prefetch request takes, from a prefetcher's
    ``train`` to the prefetch queue in both drivers:
    ``block << 1 | to_l1``.  Bit 0 selects the fill level — set for an
    L1D fill, clear for an L2C-only fill (every non-L1 hint, since no
    evaluated design fills the LLC directly) — and the remaining bits are
    the cache-block number.
    """
    return (address >> BLOCK_SHIFT) << 1 | (hint is PrefetchHint.L1)


def unpack_prefetch(packed: int) -> "tuple[int, PrefetchHint]":
    """Decode a :func:`pack_prefetch` int into ``(block, hint)``."""
    return packed >> 1, PrefetchHint.L1 if packed & 1 else PrefetchHint.L2


@dataclass(slots=True)
class AccessResult:
    """Outcome of routing one demand access through the hierarchy.

    Attributes:
        latency: total load-to-use latency in cycles.
        hit_level: name of the level that served the access
            (``"L1D"``, ``"L2C"``, ``"LLC"``, ``"DRAM"``).
        served_by_prefetch: True when the block was present (or in flight)
            because of a prefetch and had not yet been demanded.
        late_prefetch: True when the block was still in flight from a
            prefetch when the demand arrived (partial latency savings).
    """

    latency: int
    hit_level: str
    served_by_prefetch: bool = False
    late_prefetch: bool = False


def block_number(address: int) -> int:
    """Return the cache-block number containing ``address``."""
    return address >> BLOCK_SHIFT


def block_address(block: int) -> int:
    """Return the base byte address of cache block ``block``."""
    return block << BLOCK_SHIFT


def region_number(address: int, region_size: int = DEFAULT_REGION_SIZE) -> int:
    """Return the spatial-region number containing ``address``."""
    return address // region_size


def region_base_address(region: int, region_size: int = DEFAULT_REGION_SIZE) -> int:
    """Return the base byte address of region ``region``."""
    return region * region_size


def block_offset_in_region(
    address: int, region_size: int = DEFAULT_REGION_SIZE
) -> int:
    """Return the block offset (0..blocks_per_region-1) of ``address``.

    This is the quantity the paper calls the *offset*: the distance of the
    block from the beginning of its region, measured in blocks.
    """
    return (address % region_size) >> BLOCK_SHIFT


def blocks_per_region(region_size: int = DEFAULT_REGION_SIZE) -> int:
    """Number of cache blocks per spatial region of ``region_size`` bytes."""
    return region_size // BLOCK_SIZE


def address_from_region_offset(
    region: int, offset: int, region_size: int = DEFAULT_REGION_SIZE
) -> int:
    """Compose a block-aligned byte address from a region number and offset."""
    return region * region_size + (offset << BLOCK_SHIFT)


class RegionGeometry:
    """Precomputed shift/mask arithmetic for one spatial-region size.

    The per-access hot path of every spatial prefetcher decomposes each byte
    address into ``(region, offset)``.  Doing that with the module-level
    helpers costs a function call plus a division per access; this object
    precomputes the log2 shift and the offset mask once so the hot path is a
    pair of shifts.  Region sizes that are not a power of two (none of the
    paper's configurations, but allowed) fall back to division with
    identical results.

    Attributes:
        region_size: region size in bytes.
        blocks_per_region: number of 64-byte blocks per region.
        region_shift: ``log2(region_size)`` when it is a power of two,
            otherwise ``None``.
        offset_mask: ``blocks_per_region - 1`` when usable as a mask.
    """

    __slots__ = ("region_size", "blocks_per_region", "region_shift", "offset_mask")

    def __init__(self, region_size: int = DEFAULT_REGION_SIZE) -> None:
        if region_size < BLOCK_SIZE:
            raise ValueError("region size must be at least one cache block")
        self.region_size = region_size
        self.blocks_per_region = region_size // BLOCK_SIZE
        if region_size & (region_size - 1) == 0:
            self.region_shift: Optional[int] = region_size.bit_length() - 1
            self.offset_mask: Optional[int] = self.blocks_per_region - 1
        else:
            self.region_shift = None
            self.offset_mask = None

    def region_of(self, address: int) -> int:
        """Region number containing ``address`` (= :func:`region_number`)."""
        shift = self.region_shift
        if shift is not None:
            return address >> shift
        return address // self.region_size

    def offset_of(self, address: int) -> int:
        """Block offset of ``address`` (= :func:`block_offset_in_region`)."""
        mask = self.offset_mask
        if mask is not None:
            return (address >> BLOCK_SHIFT) & mask
        return (address % self.region_size) >> BLOCK_SHIFT

    def split(self, address: int) -> "tuple[int, int]":
        """Return ``(region, offset)`` of ``address`` in one call."""
        shift = self.region_shift
        if shift is not None:
            return address >> shift, (address >> BLOCK_SHIFT) & self.offset_mask
        return (
            address // self.region_size,
            (address % self.region_size) >> BLOCK_SHIFT,
        )

    def address_of(self, region: int, offset: int) -> int:
        """Block-aligned byte address of ``(region, offset)``."""
        shift = self.region_shift
        if shift is not None:
            return (region << shift) | (offset << BLOCK_SHIFT)
        return region * self.region_size + (offset << BLOCK_SHIFT)

    def region_of_block(self, block: int) -> int:
        """Region number containing cache block ``block``."""
        shift = self.region_shift
        if shift is not None:
            return block >> (shift - BLOCK_SHIFT)
        return (block << BLOCK_SHIFT) // self.region_size
