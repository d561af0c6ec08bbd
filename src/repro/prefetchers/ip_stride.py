"""IP-stride prefetcher.

The widely deployed commercial baseline (Doweck, "Inside Intel Core
Microarchitecture and Smart Memory Access"): a per-PC table records the last
address and last stride of each load instruction; when the same stride is
observed twice in a row the prefetcher issues ``degree`` prefetches along
that stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, BLOCK_SHIFT


@dataclass(slots=True)
class _IPEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


class IPStridePrefetcher(Prefetcher):
    """Per-PC constant-stride prefetcher with a small confidence counter."""

    name = "ip-stride"

    def __init__(
        self,
        table_entries: int = 64,
        degree: int = 3,
        confidence_threshold: int = 2,
        max_confidence: int = 3,
    ) -> None:
        self.table: LRUTable[int, _IPEntry] = LRUTable(table_entries)
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        self.max_confidence = max_confidence

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        # Works on the table's dict directly (``LRUTable.get`` inlined) and
        # packs each request (``block << 1 | to_l1``, an L1 fill) inline.
        block = address >> BLOCK_SHIFT
        entries = self.table._entries
        entry = entries.get(pc)
        if entry is None:
            self.table.put(pc, _IPEntry(last_block=block))
            return []
        entries.move_to_end(pc)

        stride = block - entry.last_block
        requests: List[int] = []
        if stride != 0:
            if stride == entry.stride:
                entry.confidence = min(self.max_confidence, entry.confidence + 1)
            else:
                entry.confidence = max(0, entry.confidence - 1)
                if entry.confidence == 0:
                    entry.stride = stride
            if entry.confidence >= self.confidence_threshold and entry.stride != 0:
                step = entry.stride
                for i in range(1, self.degree + 1):
                    target = block + step * i
                    if target < 0:
                        break
                    requests.append(target << 1 | 1)
        entry.last_block = block
        return requests

    def storage_bits(self) -> int:
        # Per entry: PC tag (16b) + last block (58b) + stride (7b) + conf (2b).
        return self.table.capacity * (16 + 58 + 7 + 2)

    def reset(self) -> None:
        self.table.clear()
