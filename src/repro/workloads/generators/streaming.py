"""Streaming and strided workload generators.

These model the SPEC fp style workloads the paper repeatedly singles out
(``bwaves``, ``lbm``, ``leslie3d``, ``roms``): long, dense, spatially-strided
sweeps over large arrays.  Their region footprints are extremely dense --
typically every block of every region -- which is exactly the behaviour
Gaze's streaming module (DPCT/DC + two-stage aggressiveness) targets.
"""

from __future__ import annotations

from typing import Iterable

from repro.workloads.generators.base import Access, WorkloadGenerator


class StreamingWorkload(WorkloadGenerator):
    """Dense sequential sweeps over one or more large arrays.

    Parameters:
        num_arrays: number of independent arrays streamed in a round-robin
            interleaving (models multiple simultaneous stream buffers).
        accesses_per_block: how many element loads touch each 64-byte block
            (8-byte elements would give 8; the default of 2 keeps traces
            short while preserving dense footprints).
        revisit_fraction: fraction of regions that are streamed a second
            time shortly after the first pass (creates the redundant
            re-traversals that penalise delta prefetchers without a
            region-activation check).
    """

    kind = "streaming"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_arrays: int = 2,
        accesses_per_block: int = 3,
        revisit_fraction: float = 0.15,
        mean_instr_gap: float = 8.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if num_arrays < 1:
            raise ValueError("num_arrays must be >= 1")
        if accesses_per_block < 1:
            raise ValueError("accesses_per_block must be >= 1")
        self.num_arrays = num_arrays
        self.accesses_per_block = accesses_per_block
        self.revisit_fraction = revisit_fraction
        # Arrays live in disjoint, far-apart address ranges.
        self._array_base_regions = [
            0x1000 + i * 0x40000 + (seed % 97) * 0x1000 for i in range(num_arrays)
        ]
        self._array_pcs = [self.new_pc() for _ in range(num_arrays)]

    def _region_accesses(
        self, array_index: int, region_index: int
    ) -> Iterable[Access]:
        """Yield a fully dense, in-order sweep of one region."""
        region = self._array_base_regions[array_index] + region_index
        base = self.region_base(region)
        pc = self._array_pcs[array_index]
        for offset in range(self.blocks_per_region):
            for element in range(self.accesses_per_block):
                yield self.access(pc, base + offset * 64 + element * 8)

    def _generate(self) -> Iterable[Access]:
        region_index = 0
        while True:
            for array_index in range(self.num_arrays):
                yield from self._region_accesses(array_index, region_index)
                if self.rng.random() < self.revisit_fraction:
                    # Re-traverse the region just streamed (data reuse).
                    yield from self._region_accesses(array_index, region_index)
            region_index += 1


class StridedWorkload(WorkloadGenerator):
    """Constant-stride sweeps (non-unit strides give partial footprints).

    A stride of ``s`` blocks touches every ``s``-th block of each region,
    producing regular-but-not-dense footprints; this is the territory where
    classic IP-stride and delta prefetchers do well and where spatial
    prefetchers must learn the strided footprint.
    """

    kind = "strided"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        stride_blocks: int = 3,
        num_streams: int = 2,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if stride_blocks < 1:
            raise ValueError("stride_blocks must be >= 1")
        if num_streams < 1:
            raise ValueError("num_streams must be >= 1")
        self.stride_blocks = stride_blocks
        self.num_streams = num_streams
        self._stream_base_regions = [
            0x2000 + i * 0x80000 + (seed % 89) * 0x800 for i in range(num_streams)
        ]
        self._stream_pcs = [self.new_pc() for _ in range(num_streams)]
        self._stream_phase = [
            self.rng.randrange(stride_blocks) for _ in range(num_streams)
        ]

    def _generate(self) -> Iterable[Access]:
        positions = [0] * self.num_streams
        while True:
            for stream in range(self.num_streams):
                region_index = positions[stream] // self.blocks_per_region
                offset = positions[stream] % self.blocks_per_region
                region = self._stream_base_regions[stream] + region_index
                address = self.region_base(region) + offset * 64
                yield self.access(self._stream_pcs[stream], address)
                positions[stream] += self.stride_blocks
