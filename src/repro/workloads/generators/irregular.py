"""Irregular workload generators: pointer chasing and scale-out cloud.

``PointerChaseWorkload`` models mcf/omnetpp-style dependent pointer chasing
with essentially no spatial pattern -- the workloads on the left edge of the
paper's Fig. 9 where every characterization scheme struggles and aggressive
prefetchers lose performance.

``CloudWorkload`` models the CloudSuite scale-out server behaviour the
paper's Fig. 1 is built around: access patterns *are* predictable, but only
with fine-grained characterization -- footprints correlate with the request
handler (PC) and with the first two accesses of the touched object, not
with the trigger offset alone -- and a substantial fraction of the accesses
(hash probes, buffer management) are simply irregular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.workloads.generators.base import Access, WorkloadGenerator


class PointerChaseWorkload(WorkloadGenerator):
    """Dependent pointer chasing over a randomly laid-out node pool.

    Parameters:
        num_nodes: number of linked-list/tree nodes.
        node_span_blocks: address-space spread (in blocks) over which nodes
            are scattered; larger values reduce spatial locality further.
        locality_fraction: fraction of accesses that touch a small hot set
            (models stack/metadata hits so the workload is not 100% misses).
    """

    kind = "pointer-chase"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_nodes: int = 16_384,
        node_span_blocks: int = 262_144,
        locality_fraction: float = 0.25,
        mean_instr_gap: float = 8.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        self.num_nodes = num_nodes
        self.node_span_blocks = node_span_blocks
        self.locality_fraction = locality_fraction
        # Scatter nodes over the span and build one long random cycle.
        self._node_blocks = self.rng.sample(
            range(0x100000, 0x100000 + node_span_blocks), k=num_nodes
        )
        order = list(range(num_nodes))
        self.rng.shuffle(order)
        self._next_node = {
            order[i]: order[(i + 1) % num_nodes] for i in range(num_nodes)
        }
        self._chase_pc = self.new_pc()
        self._hot_pc = self.new_pc()
        self._hot_blocks = [0xF0000 + i for i in range(16)]

    def _generate(self) -> Iterable[Access]:
        node = 0
        while True:
            if self.rng.random() < self.locality_fraction:
                block = self.rng.choice(self._hot_blocks)
                yield self.access(self._hot_pc, block * 64)
                continue
            block = self._node_blocks[node]
            yield self.access(self._chase_pc, block * 64 + self.rng.randrange(0, 64, 8))
            node = self._next_node[node]


@dataclass
class _RequestHandler:
    """One server request handler: PCs plus a characteristic object footprint."""

    pc: int
    footprint_offsets: List[int]


class CloudWorkload(WorkloadGenerator):
    """Scale-out server workload (CloudSuite / QMM-server stand-in).

    The access stream interleaves:

    * object accesses issued by a set of request handlers -- each handler
      touches freshly allocated objects (new regions) with its own sparse
      footprint, reproducing both the spatial pattern recurrence and the
      PC correlation of server software;
    * irregular accesses (hash-table probes, allocator metadata) with no
      exploitable pattern;
    * short code-correlated strides (log writers, ring buffers) that favour
      PC/delta-based prefetchers' accuracy.

    Handlers are constructed so that many share the same trigger offset but
    differ in their second offset and the rest of the footprint -- the
    situation in which trigger-offset-only characterization (PMP, Offset)
    produces large volumes of wrong prefetches.
    """

    kind = "cloud"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_handlers: int = 24,
        handlers_per_trigger: int = 4,
        footprint_blocks: int = 8,
        irregular_fraction: float = 0.40,
        strided_fraction: float = 0.10,
        concurrency: int = 6,
        mean_instr_gap: float = 7.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        self.num_handlers = num_handlers
        self.handlers_per_trigger = max(1, handlers_per_trigger)
        self.footprint_blocks = max(2, footprint_blocks)
        self.irregular_fraction = irregular_fraction
        self.strided_fraction = strided_fraction
        self.concurrency = max(1, concurrency)
        self.handlers = self._build_handlers()
        self._irregular_pc = self.new_pc()
        self._stride_pc = self.new_pc()
        self._stride_position = 0
        self._next_region = 0x200000 + (seed % 71) * 0x2000
        self._irregular_span = 0x400000

    def _build_handlers(self) -> List[_RequestHandler]:
        handlers: List[_RequestHandler] = []
        num_triggers = max(1, self.num_handlers // self.handlers_per_trigger)
        triggers = self.rng.sample(range(self.blocks_per_region), k=min(num_triggers, 32))
        for index in range(self.num_handlers):
            trigger = triggers[index % len(triggers)]
            second = (trigger + 2 + (index // len(triggers)) * 5) % self.blocks_per_region
            if second == trigger:
                second = (second + 1) % self.blocks_per_region
            pool = [
                o for o in range(self.blocks_per_region) if o not in (trigger, second)
            ]
            body = sorted(
                self.rng.sample(pool, k=min(self.footprint_blocks - 2, len(pool)))
            )
            handlers.append(
                _RequestHandler(pc=self.new_pc(), footprint_offsets=[trigger, second] + body)
            )
        return handlers

    def _new_region(self) -> int:
        self._next_region += 1 + self.rng.randrange(4)
        return self._next_region

    def _handler_request(self) -> List[Access]:
        handler = self.rng.choice(self.handlers)
        region = self._new_region()
        base = self.region_base(region)
        return [
            self.access(handler.pc, base + offset * 64)
            for offset in handler.footprint_offsets
        ]

    def _irregular_access(self) -> Access:
        block = 0x600000 + self.rng.randrange(self._irregular_span)
        return self.access(self._irregular_pc, block * 64)

    def _stride_access(self) -> Access:
        self._stride_position += 1
        address = 0x900000 * 64 + self._stride_position * 64
        return self.access(self._stride_pc, address)

    def _generate(self) -> Iterable[Access]:
        # In-flight handler requests, interleaved with irregular traffic.
        active: List[List[Access]] = [
            self._handler_request() for _ in range(self.concurrency)
        ]
        cursors = [0] * self.concurrency
        slot = 0
        while True:
            roll = self.rng.random()
            if roll < self.irregular_fraction:
                yield self._irregular_access()
                continue
            if roll < self.irregular_fraction + self.strided_fraction:
                yield self._stride_access()
                continue
            if cursors[slot] >= len(active[slot]):
                active[slot] = self._handler_request()
                cursors[slot] = 0
            yield active[slot][cursors[slot]]
            cursors[slot] += 1
            slot = (slot + 1) % self.concurrency
