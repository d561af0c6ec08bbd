"""Base class for synthetic workload generators.

Generators emit plain ``(pc, address, gap, kind)`` records and
:meth:`WorkloadGenerator.generate` collects them straight into the columns
of a :class:`~repro.sim.batch.BatchedTrace`, the one trace form the
simulator reads.  No per-access object is built; code that wants
:class:`~repro.sim.types.MemoryAccess` items gets them on demand from the
trace's sequence view.
"""

from __future__ import annotations

import abc
import random
from itertools import islice
from typing import Iterable, List, Tuple

from repro.sim.batch import KIND_LOAD, BatchedTrace
from repro.sim.types import BLOCK_SHIFT

#: One generated access: ``(pc, address, gap, kind)``, with ``kind`` encoded
#: like :attr:`BatchedTrace.kinds <repro.sim.batch.BatchedTrace>`.
Access = Tuple[int, int, int, int]


class WorkloadGenerator(abc.ABC):
    """A deterministic, seeded producer of memory-access traces.

    Subclasses implement :meth:`_generate`, yielding :data:`Access` records
    built by :meth:`access`.  The base class provides the seeded RNG,
    common address-layout helpers and the public :meth:`generate` entry
    point that enforces the requested length.
    """

    #: Short name used in trace specifications and reports.
    kind: str = "base"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        if length <= 0:
            raise ValueError("trace length must be positive")
        if mean_instr_gap < 0:
            raise ValueError("mean_instr_gap must be non-negative")
        self.seed = seed
        self.length = length
        self.mean_instr_gap = mean_instr_gap
        self.region_size = region_size
        self.blocks_per_region = region_size // 64
        self.rng = random.Random(seed)
        self._pc_counter = 0x400000 + (seed & 0xFFFF) * 0x100
        # Non-memory instruction gaps are drawn uniformly from
        # [0.5 * mean, 1.5 * mean + 1]; ``randrange(low, stop)`` is exactly
        # ``randint(low, stop - 1)``.  A zero mean draws nothing (stop 0).
        self._gap_low = max(0, int(mean_instr_gap * 0.5))
        self._gap_stop = int(mean_instr_gap * 1.5) + 2 if mean_instr_gap else 0

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def new_pc(self) -> int:
        """Allocate a fresh, stable program-counter value."""
        self._pc_counter += 4
        return self._pc_counter

    def access(self, pc: int, address: int, kind: int = KIND_LOAD) -> Access:
        """One access record, with its instruction gap drawn now."""
        stop = self._gap_stop
        if stop:
            return (pc, address, self.rng.randrange(self._gap_low, stop), kind)
        return (pc, address, 0, kind)

    def region_base(self, region: int) -> int:
        """Byte address of the start of ``region``."""
        return region * self.region_size

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> BatchedTrace:
        """Produce exactly ``self.length`` accesses as decoded columns.

        A finite :meth:`_generate` is replayed from a fresh pass until the
        length is reached; a pass that yields nothing raises
        :class:`ValueError` instead of spinning.
        """
        addresses: List[int] = []
        pcs: List[int] = []
        gaps: List[int] = []
        kinds = bytearray()
        add_address = addresses.append
        add_pc = pcs.append
        add_gap = gaps.append
        add_kind = kinds.append
        while len(addresses) < self.length:
            before = len(addresses)
            for pc, address, gap, kind in islice(
                self._generate(), self.length - before
            ):
                add_pc(pc)
                add_address(address)
                add_gap(gap)
                add_kind(kind)
            if len(addresses) == before:
                raise ValueError(f"{type(self).__name__} generated an empty pass")
        blocks = [address >> BLOCK_SHIFT for address in addresses]
        return BatchedTrace(
            addresses, pcs, gaps, kinds, blocks, sum(gaps) + len(gaps)
        )

    @abc.abstractmethod
    def _generate(self) -> Iterable[Access]:
        """Yield access records (may be finite or infinite)."""
