"""Prefetcher interface.

A prefetcher sees the stream of demand loads issued by one core at the cache
level where it is deployed (the paper places all evaluated prefetchers at
the L1D unless noted otherwise) and produces prefetch requests tagged with a
target fill level.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.sim.types import AccessResult, pack_prefetch


class Prefetcher(abc.ABC):
    """Abstract base class for all hardware prefetchers."""

    #: Short name used by the registry, reports and figures.
    name: str = "base"

    @abc.abstractmethod
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        """Observe one demand load and return prefetch candidates.

        Args:
            pc: program counter of the load.
            address: byte address accessed.
            cycle: core cycle at which the load issued.
            result: outcome of the access in the hierarchy (hit level,
                latency); prefetchers that only need the address stream may
                ignore it.

        Returns:
            A (possibly empty) list of prefetches, each packed by
            :func:`~repro.sim.types.pack_prefetch` (``block << 1 | to_l1``).
        """

    def storage_bits(self) -> int:
        """Total metadata storage the design requires, in bits.

        Used by the Table I / Table IV reproduction; defaults to zero for
        stateless designs.
        """
        return 0

    def storage_kib(self) -> float:
        """Storage requirement in KiB."""
        return self.storage_bits() / 8.0 / 1024.0

    def reset(self) -> None:
        """Clear all internal state (used between simulation runs)."""

    def on_cache_eviction(self, block: int) -> None:
        """Notification that ``block`` was evicted from the L1D.

        Spatial-pattern prefetchers use this to deactivate the block's region
        (the paper: a region's tracking ends when one of its cached blocks is
        evicted, or when its tracking entry falls out of the AT).  The default
        implementation ignores the event.
        """

    #: ``request(address, hint=PrefetchHint.L1)`` packs one prefetch
    #: (small readability helper; see :func:`~repro.sim.types.pack_prefetch`).
    request = staticmethod(pack_prefetch)


class StatelessPrefetcher(Prefetcher):
    """Base class for prefetchers that keep no cross-access state."""

    def reset(self) -> None:  # pragma: no cover - nothing to clear
        return None
