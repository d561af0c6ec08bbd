"""Mixed-phase workload generator.

Models the interleaving the paper identifies as the unresolved challenge of
spatial streaming (§III-C and Fig. 5): truly dense streaming regions are
interleaved with regions whose accesses *start* like a stream (blocks 0, 1,
2 ...) but stop after a short prefix -- e.g. a graph frontier that only
occupies the head of its page.  Prefetchers that replay dense footprints
based on the (trigger = 0, second = 1) event alone over-prefetch those
partial regions; Gaze's Dense-PC double check distinguishes the streaming
PC from the frontier PC.

Also used as the PARSEC-like multi-phase workload (facesim/streamcluster):
alternating streaming and irregular program phases.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.workloads.generators.base import Access, WorkloadGenerator


class MixedPhaseWorkload(WorkloadGenerator):
    """Interleaved dense-streaming and partial-prefix/irregular behaviour.

    Parameters:
        dense_fraction: fraction of region visits that are truly dense
            streams (the rest are partial-prefix or irregular regions).
        prefix_blocks: how many head blocks a partial-prefix region touches.
        irregular_fraction: fraction of *accesses* that are scattered
            irregular loads layered on top of the region visits.
        phase_length: number of region visits per phase before the
            dense/sparse balance flips (models program phases).
    """

    kind = "mixed"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        dense_fraction: float = 0.5,
        prefix_blocks: int = 6,
        irregular_fraction: float = 0.15,
        phase_length: int = 40,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        self.dense_fraction = dense_fraction
        self.prefix_blocks = max(2, prefix_blocks)
        self.irregular_fraction = irregular_fraction
        self.phase_length = max(1, phase_length)
        self._stream_pc = self.new_pc()
        self._frontier_pc = self.new_pc()
        self._irregular_pc = self.new_pc()
        self._sparse_pc = self.new_pc()
        self._next_stream_region = 0x300000 + (seed % 61) * 0x1000
        self._next_frontier_region = 0x500000 + (seed % 53) * 0x1000

    # ------------------------------------------------------------------ #
    def _dense_region(self) -> List[Access]:
        """A fully dense streaming region (trigger 0, second 1, all blocks)."""
        self._next_stream_region += 1
        base = self.region_base(self._next_stream_region)
        return [
            self.access(self._stream_pc, base + offset * 64)
            for offset in range(self.blocks_per_region)
        ]

    def _prefix_region(self) -> List[Access]:
        """A region that starts like a stream but stops after a short prefix."""
        self._next_frontier_region += 1
        base = self.region_base(self._next_frontier_region)
        return [
            self.access(self._frontier_pc, base + offset * 64)
            for offset in range(self.prefix_blocks)
        ]

    def _sparse_region(self) -> List[Access]:
        """A region with a small scattered footprint (irregular neighbour data)."""
        self._next_frontier_region += 1
        base = self.region_base(self._next_frontier_region)
        count = self.rng.randint(2, 6)
        offsets = sorted(self.rng.sample(range(self.blocks_per_region), k=count))
        return [self.access(self._sparse_pc, base + offset * 64) for offset in offsets]

    def _irregular_access(self) -> Access:
        block = 0x700000 + self.rng.randrange(0x200000)
        return self.access(self._irregular_pc, block * 64)

    def _generate(self) -> Iterable[Access]:
        visits = 0
        dense_bias = self.dense_fraction
        while True:
            if visits and visits % self.phase_length == 0:
                # Flip the phase balance: streaming-heavy <-> sparse-heavy.
                dense_bias = 1.0 - dense_bias
            roll = self.rng.random()
            if roll < dense_bias:
                region_accesses = self._dense_region()
            elif roll < dense_bias + (1.0 - dense_bias) * 0.6:
                region_accesses = self._prefix_region()
            else:
                region_accesses = self._sparse_region()
            visits += 1
            for access in region_accesses:
                yield access
                if self.rng.random() < self.irregular_fraction:
                    yield self._irregular_access()
