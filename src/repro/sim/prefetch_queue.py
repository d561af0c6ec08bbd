"""Prefetch queue (PQ) model.

Prefetch requests produced by a prefetcher do not reach the memory hierarchy
instantly: they are enqueued in a small FIFO and drained a few entries at a
time.  Two effects matter for the paper's results and are modelled here:

* a full queue drops new requests (lost opportunities for very aggressive
  prefetchers);
* *redundant* requests (for blocks already resident in the L1D) still occupy
  queue slots until they are drained and discarded -- this is the effect that
  limits vBerti on streaming workloads (§IV-B3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class PrefetchQueue:
    """Bounded FIFO of pending prefetch requests.

    Entries are the packed ints prefetchers return
    (:func:`~repro.sim.types.pack_prefetch`: ``block << 1 | to_l1``).
    """

    __slots__ = ("capacity", "drain_per_access", "_queue", "enqueued", "dropped_full")

    def __init__(self, capacity: int, drain_per_access: int = 4) -> None:
        if capacity <= 0:
            raise ValueError("prefetch queue capacity must be positive")
        if drain_per_access <= 0:
            raise ValueError("drain_per_access must be positive")
        self.capacity = capacity
        self.drain_per_access = drain_per_access
        self._queue: Deque[int] = deque()
        self.enqueued = 0
        self.dropped_full = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        """True when at least one request is queued (hot-path fast check)."""
        return bool(self._queue)

    @property
    def is_full(self) -> bool:
        """True when no more requests can be accepted."""
        return len(self._queue) >= self.capacity

    @property
    def pending(self) -> Deque[int]:
        """The underlying FIFO, exposed for hot-path truthiness checks.

        Drivers bind this deque once and test it per access (or per chunk)
        instead of calling a method; mutation stays this class's job.  The
        deque object is stable for the queue's lifetime (never rebound).
        """
        return self._queue

    def push(self, packed: int) -> bool:
        """Enqueue ``packed``; returns False (and counts a drop) if full."""
        queue = self._queue
        if len(queue) >= self.capacity:
            self.dropped_full += 1
            return False
        queue.append(packed)
        self.enqueued += 1
        return True

    def drain(self, limit: Optional[int] = None) -> List[int]:
        """Remove and return up to ``limit`` queued requests (FIFO order)."""
        if limit is None:
            limit = self.drain_per_access
        queue = self._queue
        popleft = queue.popleft
        return [popleft() for _ in range(min(limit, len(queue)))]

    def drain_all(self) -> List[int]:
        """Remove and return every queued request."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def clear(self) -> None:
        """Discard all queued requests without counting them."""
        self._queue.clear()
