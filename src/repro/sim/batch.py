"""Array-decoded traces: the one form a trace takes.

Every simulator loop — the scalar reference loop, the batched Python loop,
the C driver and the multi-core step — reads a :class:`BatchedTrace`: a
trace held as parallel arrays (addresses, PCs, instruction gaps, access
kinds, plus cache-block numbers precomputed with the existing mask-based
geometry), so the hot loops read plain integers by index without touching
a single access object.  Synthetic generators
(:mod:`repro.workloads.generators`) write these columns directly, file
traces and access lists are decoded once by
:meth:`BatchedTrace.from_accesses`, and streamed sources arrive as a
:class:`ChunkedTraceStream` of bounded-size :class:`BatchedTrace` chunks.

Layout notes:

* ``addresses``/``pcs``/``gaps``/``blocks`` are plain lists of ints, not
  ``array('q')``: list indexing hands back an existing reference (one
  ``INCREF``) where ``array('q')`` would box a fresh ``int`` per read, and
  the decoded ints are shared with nothing else so the memory difference is
  one pointer per field per access.  ``kinds`` is a ``bytearray`` (0 = load,
  1 = store, 2 = other), the cheapest indexable byte sequence.
* ``blocks[i] == addresses[i] >> BLOCK_SHIFT`` is precomputed because the
  inlined demand chain of the batched loop and of the C driver keys its
  set lookups on block numbers.
* ``instruction_total`` (memory plus non-memory instructions) is computed
  when the columns are built, so a run never pays a counting pass.

A :class:`BatchedTrace` is also a read-only ``Sequence[MemoryAccess]``
(items are reconstructed on demand, and it compares equal to any sequence
of the same accesses) for code outside the simulator — trace statistics,
format writers, ``trace export``, tests.  No simulator loop uses that view.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.sim.types import AccessType, MemoryAccess, BLOCK_SHIFT

#: ``kinds`` encoding: index of the access type in the batched arrays.
KIND_LOAD = 0
KIND_STORE = 1
KIND_OTHER = 2

# Init-once decode lookup table, never mutated.  # repro-lint: waive R3
_KIND_TO_TYPE = {
    KIND_LOAD: AccessType.LOAD,
    KIND_STORE: AccessType.STORE,
    KIND_OTHER: AccessType.PREFETCH,
}


class BatchedTrace(Sequence):
    """One trace decoded into parallel arrays (see module docstring)."""

    __slots__ = ("addresses", "pcs", "gaps", "kinds", "blocks", "instruction_total")

    def __init__(
        self,
        addresses: List[int],
        pcs: List[int],
        gaps: List[int],
        kinds: bytearray,
        blocks: List[int],
        instruction_total: int,
    ) -> None:
        self.addresses = addresses
        self.pcs = pcs
        self.gaps = gaps
        self.kinds = kinds
        self.blocks = blocks
        self.instruction_total = instruction_total

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "BatchedTrace":
        """Decode any access iterable (materialized or streamed) in one pass."""
        addresses: List[int] = []
        pcs: List[int] = []
        gaps: List[int] = []
        kinds = bytearray()
        blocks: List[int] = []
        total = 0
        load = AccessType.LOAD
        store = AccessType.STORE
        for access in accesses:
            address = access.address
            gap = access.instr_gap
            access_type = access.access_type
            addresses.append(address)
            pcs.append(access.pc)
            gaps.append(gap)
            kinds.append(
                KIND_LOAD
                if access_type is load
                else (KIND_STORE if access_type is store else KIND_OTHER)
            )
            blocks.append(address >> BLOCK_SHIFT)
            total += gap + 1
        return cls(addresses, pcs, gaps, kinds, blocks, total)

    # ------------------------------------------------------------------ #
    # Sequence protocol (scalar consumers reconstruct accesses on demand)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index: int) -> MemoryAccess:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.addresses)))]
        return MemoryAccess(
            pc=self.pcs[index],
            address=self.addresses[index],
            access_type=_KIND_TO_TYPE[self.kinds[index]],
            instr_gap=self.gaps[index],
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        kind_to_type = _KIND_TO_TYPE
        for pc, address, kind, gap in zip(
            self.pcs, self.addresses, self.kinds, self.gaps
        ):
            yield MemoryAccess(
                pc=pc, address=address, access_type=kind_to_type[kind],
                instr_gap=gap,
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchedTrace):
            columns = ("addresses", "pcs", "gaps", "kinds")
            return all(getattr(self, c) == getattr(other, c) for c in columns)
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"BatchedTrace({len(self.addresses)} accesses, "
            f"{self.instruction_total} instructions)"
        )


#: Default accesses per chunk of :class:`ChunkedTraceStream`.  Each decoded
#: access costs five ints plus a byte, so the default bounds the decode
#: working set to well under a megabyte regardless of trace length.
DEFAULT_CHUNK_ACCESSES = 8192


class ChunkedTraceStream:
    """Access source decoded into bounded-size batched chunks.

    Bridges streamed traces (e.g. :class:`repro.workloads.formats.TraceFile`,
    or a one-shot iterator) and the simulator: instead of materializing the
    whole trace, the simulator pulls successive :class:`BatchedTrace`
    chunks of at most ``chunk_accesses`` accesses — the array loops'
    throughput at O(chunk) memory.

    One pass = one iteration of ``source``; :meth:`next_chunk` returns
    ``None`` at the end of a pass and re-opens the source on the following
    call.  A one-shot iterator cannot re-open (:attr:`reopenable` is false),
    so it has exactly one pass.

    Chunks feed every loop unchanged: the scalar and batched Python loops,
    or — under ``kernel="compiled"`` — the C ``DriverKernel``
    (:mod:`repro.sim.driver`), which consumes one chunk per call.
    """

    __slots__ = ("source", "chunk_accesses", "_iterator", "_pass_total")

    def __init__(self, source, chunk_accesses: int = DEFAULT_CHUNK_ACCESSES) -> None:
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        self.source = source
        self.chunk_accesses = chunk_accesses
        self._iterator: Optional[Iterator[MemoryAccess]] = None
        self._pass_total: Optional[int] = None

    @property
    def reopenable(self) -> bool:
        """Whether ``source`` can be iterated again from the start."""
        return not hasattr(self.source, "__next__")

    def next_chunk(self) -> Optional[BatchedTrace]:
        """Decode and return the next chunk of the current pass.

        Returns ``None`` exactly once at the end of each pass (also for an
        empty source); the next call starts a fresh pass.
        """
        if self._iterator is None:
            self._iterator = iter(self.source)
        chunk = BatchedTrace.from_accesses(
            islice(self._iterator, self.chunk_accesses)
        )
        if not chunk.addresses:
            self._iterator = None
            return None
        return chunk

    def pass_instructions(self) -> Optional[int]:
        """One pass's instruction total, or ``None`` for a one-shot source.

        Counted on a fresh iterator, so the current pass is not disturbed,
        and memoized: the source is deterministic, so one counting pass
        serves every caller.
        """
        if self._pass_total is None and self.reopenable:
            self._pass_total = sum(access.instr_gap + 1 for access in self.source)
        return self._pass_total
