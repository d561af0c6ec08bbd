"""Array-decoded traces for the batched simulation kernel.

The scalar kernel walks a trace as a sequence of
:class:`~repro.sim.types.MemoryAccess` objects; every access costs four or
five slotted-attribute reads before any simulation happens.  The batched
kernel instead consumes a :class:`BatchedTrace`: the same trace *decoded
once* into parallel arrays (addresses, PCs, instruction gaps, access kinds,
plus cache-block numbers precomputed with the existing mask-based geometry),
so the hot loop reads plain integers by index and the chunked L1-hit fast
path (:meth:`repro.sim.cache.Cache.demand_hit_run`) can scan whole runs of
consecutive accesses without touching a single access object.

Layout notes:

* ``addresses``/``pcs``/``gaps``/``blocks`` are plain lists of ints, not
  ``array('q')``: list indexing hands back an existing reference (one
  ``INCREF``) where ``array('q')`` would box a fresh ``int`` per read, and
  the decoded ints are shared with nothing else so the memory difference is
  one pointer per field per access.  ``kinds`` is a ``bytearray`` (0 = load,
  1 = store, 2 = other), the cheapest indexable byte sequence.
* ``blocks[i] == addresses[i] >> BLOCK_SHIFT`` is precomputed because both
  the run-length residency probe and the inlined L1-hit path key their set
  lookups on block numbers.
* ``instruction_total`` is the exact value
  :func:`repro.sim.simulator._count_instructions` would compute, cached at
  decode time so an unbudgeted run never pays a counting pass.

A :class:`BatchedTrace` is also a read-only ``Sequence[MemoryAccess]``
(items are reconstructed on demand), so every scalar consumer — the scalar
kernel under ``batch="off"``, trace statistics, format writers — accepts one
transparently.
"""

from __future__ import annotations

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
    """Re-openable access source decoded into bounded-size batched chunks.

    Bridges streamed traces (e.g. :class:`repro.workloads.formats.TraceFile`)
    and the batched kernel: instead of materializing the whole trace or
    falling back to the scalar kernel, the simulator pulls successive
    :class:`BatchedTrace` chunks of at most ``chunk_accesses`` accesses —
    the batched kernel's throughput at O(chunk) memory.

    One pass = one iteration of ``source``; :meth:`next_chunk` returns
    ``None`` at the end of a pass and re-opens the source on the following
    call, so replay semantics (for bounded instruction budgets) match the
    scalar streamed path exactly.

    Chunks feed either driver unchanged: the Python batched kernel, or —
    under ``kernel="compiled"`` — the C ``DriverKernel``
    (:mod:`repro.sim.driver`), which consumes one chunk per call.
    """

    __slots__ = ("source", "chunk_accesses", "_iterator")

    def __init__(self, source, chunk_accesses: int = DEFAULT_CHUNK_ACCESSES) -> None:
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        self.source = source
        self.chunk_accesses = chunk_accesses
        self._iterator: Optional[Iterator[MemoryAccess]] = None

    def next_chunk(self) -> Optional[BatchedTrace]:
        """Decode and return the next chunk of the current pass.

        Returns ``None`` exactly once at the end of each pass (also for an
        empty source); the next call starts a fresh pass.
        """
        if self._iterator is None:
            self._iterator = iter(self.source)
        iterator = self._iterator
        addresses: List[int] = []
        pcs: List[int] = []
        gaps: List[int] = []
        kinds = bytearray()
        blocks: List[int] = []
        total = 0
        count = 0
        limit = self.chunk_accesses
        load = AccessType.LOAD
        store = AccessType.STORE
        for access in iterator:
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
            count += 1
            if count >= limit:
                break
        if not count:
            self._iterator = None
            return None
        return BatchedTrace(addresses, pcs, gaps, kinds, blocks, total)

    def __iter__(self) -> Iterator[MemoryAccess]:
        """A fresh scalar pass over the underlying source (for counting)."""
        return iter(self.source)


def decode_trace(source) -> Optional[BatchedTrace]:
    """Decode ``source`` into a :class:`BatchedTrace`, or ``None``.

    Accepts an existing :class:`BatchedTrace` (returned as-is) or any
    materialized sequence of access records.  Sources that stream (no
    ``__len__``) or whose items do not look like accesses return ``None``
    so callers can fall back to the scalar kernel; decode is strictly an
    optimization, never a requirement.
    """
    if isinstance(source, BatchedTrace):
        return source
    if not isinstance(source, (list, tuple)):
        return None
    try:
        return BatchedTrace.from_accesses(source)
    except (AttributeError, TypeError):
        return None
