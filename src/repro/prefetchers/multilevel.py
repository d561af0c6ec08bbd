"""Multi-level prefetching combinations (paper §IV-B5, Fig. 13).

The paper evaluates pairs of prefetchers, one trained at the L1D and one at
the L2C.  In this reproduction both components observe the same demand-load
stream (our hierarchy is driven from the L1D), but the L2 component's
requests are demoted to L2 fills and it is only trained on accesses that
*miss* the L1D -- which is the information an L2-resident prefetcher would
see.
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.sim.types import AccessResult


class MultiLevelPrefetcher(Prefetcher):
    """Combines an L1D prefetcher with an L2C prefetcher."""

    def __init__(self, l1_prefetcher: Prefetcher, l2_prefetcher: Prefetcher) -> None:
        self.l1 = l1_prefetcher
        self.l2 = l2_prefetcher
        self.name = f"{l1_prefetcher.name}+{l2_prefetcher.name}"

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        requests = list(self.l1.train(pc, address, cycle, result))

        l1_missed = result is None or result.hit_level != "L1D"
        if l1_missed:
            # Demote to an L2 fill: clear the packed to-L1 bit.
            l2_requests = self.l2.train(pc, address, cycle, result)
            requests.extend(p & ~1 for p in l2_requests)
        return requests

    def on_cache_eviction(self, block: int) -> None:
        self.l1.on_cache_eviction(block)
        self.l2.on_cache_eviction(block)

    def storage_bits(self) -> int:
        return self.l1.storage_bits() + self.l2.storage_bits()

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
