"""The no-prefetching baseline used as the speedup denominator."""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import StatelessPrefetcher
from repro.sim.types import AccessResult


class NoPrefetcher(StatelessPrefetcher):
    """Issues no prefetches; the paper's baseline configuration."""

    name = "none"

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        return []
