"""Simple next-N-line prefetcher (sanity baseline, not in the paper's set)."""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import StatelessPrefetcher
from repro.sim.types import (
    AccessResult,
    BLOCK_SIZE,
    PrefetchHint,
    block_number,
)


class NextLinePrefetcher(StatelessPrefetcher):
    """Prefetches the next ``degree`` sequential cache blocks on every load."""

    name = "next-line"

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        base_block = block_number(address)
        return [
            self.request((base_block + i) * BLOCK_SIZE, PrefetchHint.L1)
            for i in range(1, self.degree + 1)
        ]
