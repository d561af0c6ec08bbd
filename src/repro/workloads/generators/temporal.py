"""Workload generators with genuine temporal reuse.

The original bench/test traces are dominated by streaming and spatial
footprints over *freshly allocated* regions: almost no block is touched
twice while it is still resident in the L1, so neither the temporal
prefetchers nor the simulator's L1-hit path sees realistic input.  These
generators produce the opposite regime — recurring address *sequences*
(the address-pair correlations temporal prefetchers replay) and short
reuse distances (dense runs of consecutive L1 hits):

* :class:`TemporalPointerChaseWorkload` — pointer chasing over a fixed
  linked cycle that is re-traversed pass after pass, so the same miss
  sequence recurs (mcf-style structure with linkbench-style recurrence);
* :class:`RingBufferWorkload` — a producer-consumer ring queue: hot
  head/tail control blocks on every operation plus slot addresses that
  recur with the ring period;
* :class:`HashProbeWorkload` — hash-table probes with a skewed key
  popularity: each hot key's bucket-and-chain walk is a short fixed
  address sequence that repeats whenever the key is probed.

All three honour the generator contract: seeded determinism, exact
length, streamability and round-trips through every trace format.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.sim.batch import KIND_STORE
from repro.workloads.generators.base import Access, WorkloadGenerator


class TemporalPointerChaseWorkload(WorkloadGenerator):
    """Recurrent pointer chasing: the same linked cycle, traversed repeatedly.

    Unlike :class:`~repro.workloads.generators.irregular.PointerChaseWorkload`
    (one endless walk over a huge scattered pool), the node pool here is
    bounded and the traversal *restarts from the same head* every
    ``walk_length`` steps.  With the default pool size the working set
    exceeds the L1 but the recurring miss order is exactly what
    address-pair correlation predicts; shrink ``num_nodes`` below the L1
    capacity and the later passes become pure L1-hit runs instead.

    Parameters:
        num_nodes: linked nodes in the cycle (one block each).
        walk_length: steps per traversal before restarting at the head
            (0 = the full cycle).
        noise_fraction: fraction of accesses hitting a wide random span
            (breaks runs and pollutes correlation, like real metadata
            traffic).
        node_span_blocks: address spread over which nodes are scattered.
    """

    kind = "temporal-pointer"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_nodes: int = 2_048,
        walk_length: int = 0,
        noise_fraction: float = 0.05,
        node_span_blocks: int = 65_536,
        mean_instr_gap: float = 6.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if num_nodes <= 1:
            raise ValueError("num_nodes must be at least 2")
        self.num_nodes = num_nodes
        self.walk_length = walk_length if walk_length > 0 else num_nodes
        self.noise_fraction = noise_fraction
        span = max(node_span_blocks, num_nodes)
        self._node_blocks = self.rng.sample(
            range(0x400000, 0x400000 + span), k=num_nodes
        )
        order = list(range(num_nodes))
        self.rng.shuffle(order)
        self._next_node = [0] * num_nodes
        for i in range(num_nodes):
            self._next_node[order[i]] = order[(i + 1) % num_nodes]
        self._head = order[0]
        self._chase_pc = self.new_pc()
        self._noise_pc = self.new_pc()

    def _generate(self) -> Iterable[Access]:
        node = self._head
        steps = 0
        while True:
            if self.noise_fraction and self.rng.random() < self.noise_fraction:
                block = 0x2000000 + self.rng.randrange(0x400000)
                yield self.access(self._noise_pc, block * 64)
                continue
            yield self.access(self._chase_pc, self._node_blocks[node] * 64)
            node = self._next_node[node]
            steps += 1
            if steps >= self.walk_length:
                # Recurrence: the next traversal replays the same sequence.
                node = self._head
                steps = 0


class RingBufferWorkload(WorkloadGenerator):
    """Producer-consumer ring queue with hot control blocks.

    Each produce operation loads the head counter block, stores the slot;
    each consume loads the tail counter block, loads the slot ``lag``
    items behind the producer.  The two counter blocks are touched on
    every operation (reuse distance ~2), and slot addresses recur with
    period ``slots`` — both genuine temporal reuse, at two very different
    distances.

    Parameters:
        slots: ring capacity in items.
        item_blocks: contiguous blocks per item.
        lag: items the consumer trails the producer by.
        burst: operations performed per role before switching.
    """

    kind = "ring"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        slots: int = 256,
        item_blocks: int = 1,
        lag: int = 64,
        burst: int = 8,
        mean_instr_gap: float = 4.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if slots <= 1:
            raise ValueError("slots must be at least 2")
        if item_blocks <= 0:
            raise ValueError("item_blocks must be positive")
        self.slots = slots
        self.item_blocks = item_blocks
        self.lag = max(1, min(lag, slots - 1))
        self.burst = max(1, burst)
        base = 0x800000 + (seed & 0xFF) * 0x10000
        self._ring_base_block = base
        self._head_ctrl = (base - 16) * 64
        self._tail_ctrl = (base - 8) * 64
        self._producer_pc = self.new_pc()
        self._consumer_pc = self.new_pc()
        self._head_pc = self.new_pc()
        self._tail_pc = self.new_pc()

    def _slot_address(self, item_index: int, block: int) -> int:
        slot = item_index % self.slots
        return (self._ring_base_block + slot * self.item_blocks + block) * 64

    def _generate(self) -> Iterable[Access]:
        produced = self.lag  # start with the consumer's lag already queued
        consumed = 0
        producing = True
        in_burst = 0
        while True:
            if producing:
                yield self.access(self._head_pc, self._head_ctrl)
                for block in range(self.item_blocks):
                    yield self.access(
                        self._producer_pc,
                        self._slot_address(produced, block),
                        KIND_STORE,
                    )
                produced += 1
            else:
                yield self.access(self._tail_pc, self._tail_ctrl)
                for block in range(self.item_blocks):
                    yield self.access(
                        self._consumer_pc, self._slot_address(consumed, block)
                    )
                consumed += 1
            in_burst += 1
            if in_burst >= self.burst:
                in_burst = 0
                producing = not producing
                # Keep the consumer exactly ``lag`` items behind.
                if producing and produced - consumed < self.lag:
                    producing = False
                elif not producing and produced - consumed <= 0:
                    producing = True


class HashProbeWorkload(WorkloadGenerator):
    """Hash-table probe sequences with skewed key popularity.

    A fixed set of keys hashes into a bucket array; each key owns a short
    chain of scattered nodes ending in a value block.  Probing a key
    walks bucket → chain → value in a fixed order, so every re-probe of
    the same key replays the same short address sequence — address-pair
    correlation at its purest.  Key popularity is skewed (``zipf_s``), so
    hot keys recur at short reuse distances while the tail stays cold.

    Parameters:
        num_keys: distinct keys in the table.
        buckets: bucket-array entries (8 per block).
        max_chain: longest per-key chain (per-key length is fixed, drawn
            once from [1, max_chain]).
        zipf_s: popularity skew (higher = hotter head; 1.0 = uniform-ish).
        miss_fraction: probes for absent keys (bucket load + one wild
            block, no recurring chain).
    """

    kind = "hash-probe"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_keys: int = 512,
        buckets: int = 1_024,
        max_chain: int = 3,
        zipf_s: float = 3.0,
        miss_fraction: float = 0.10,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if max_chain <= 0:
            raise ValueError("max_chain must be positive")
        self.num_keys = num_keys
        self.buckets = buckets
        self.zipf_s = zipf_s
        self.miss_fraction = miss_fraction
        self._bucket_base_block = 0xA00000 + (seed & 0xFF) * 0x4000
        node_span = max(4 * num_keys * max_chain, 1 << 14)
        node_pool = self.rng.sample(
            range(0xC00000, 0xC00000 + node_span), k=num_keys * (max_chain + 1)
        )
        cursor = 0
        #: Per-key probe sequence: bucket block, chain node blocks, value.
        self._key_blocks: List[List[int]] = []
        for key in range(num_keys):
            bucket = self._bucket_base_block + (
                (key * 2654435761) % (buckets * 8)
            ) // 8
            chain_length = 1 + self.rng.randrange(max_chain)
            blocks = [bucket]
            blocks.extend(node_pool[cursor : cursor + chain_length])
            cursor += chain_length
            self._key_blocks.append(blocks)
        self._probe_pc = self.new_pc()
        self._chain_pc = self.new_pc()
        self._miss_pc = self.new_pc()

    def _pick_key(self) -> int:
        # Power-law popularity: u**s compresses the draw toward index 0.
        return int(self.num_keys * (self.rng.random() ** self.zipf_s))

    def _generate(self) -> Iterable[Access]:
        while True:
            if self.miss_fraction and self.rng.random() < self.miss_fraction:
                bucket = self._bucket_base_block + self.rng.randrange(
                    self.buckets * 8
                ) // 8
                yield self.access(self._miss_pc, bucket * 64)
                wild = 0x3000000 + self.rng.randrange(0x100000)
                yield self.access(self._miss_pc, wild * 64)
                continue
            blocks = self._key_blocks[min(self._pick_key(), self.num_keys - 1)]
            yield self.access(self._probe_pc, blocks[0] * 64)
            for block in blocks[1:]:
                yield self.access(self._chain_pc, block * 64)
