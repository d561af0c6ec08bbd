"""Best-Offset Prefetcher (BOP), Michaud, HPCA 2016.

BOP is a delta prefetcher that learns, over repeated rounds, which single
block offset ``d`` maximizes the number of timely prefetches: for each
demand access to block ``X`` it tests whether ``X - d`` was recently
accessed (via a small recent-requests table); offsets accumulate scores and
the round winner becomes the prefetch offset.  Included as an additional
delta-correlated baseline (the paper discusses BOP in related work).
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import (
    AccessResult,
    BLOCK_SIZE,
    PrefetchHint,
    block_number,
)

#: Candidate offsets from the original paper (subset: small composite numbers).
DEFAULT_OFFSET_CANDIDATES = (
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32,
)


class BestOffsetPrefetcher(Prefetcher):
    """Round-based best-offset learning with a recent-request table."""

    name = "bop"

    def __init__(
        self,
        candidates=DEFAULT_OFFSET_CANDIDATES,
        round_max: int = 100,
        score_max: int = 31,
        bad_score: int = 1,
        recent_requests: int = 256,
    ) -> None:
        self.candidates = list(candidates)
        self.round_max = round_max
        self.score_max = score_max
        self.bad_score = bad_score
        self.recent: LRUTable[int, bool] = LRUTable(recent_requests)
        self._scores = {offset: 0 for offset in self.candidates}
        self._round_count = 0
        self._candidate_index = 0
        self.best_offset = 1
        self.prefetch_enabled = True

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        block = block_number(address)

        # Learning: test the current candidate offset against this access.
        candidate = self.candidates[self._candidate_index]
        if self.recent.get(block - candidate) is not None:
            self._scores[candidate] += 1
            if self._scores[candidate] >= self.score_max:
                self._finish_round(winner=candidate)
        self._advance_candidate()

        self.recent.put(block, True)

        if not self.prefetch_enabled:
            return []
        target = block + self.best_offset
        return [self.request(target * BLOCK_SIZE, PrefetchHint.L1)]

    # ------------------------------------------------------------------ #
    def _advance_candidate(self) -> None:
        self._candidate_index += 1
        if self._candidate_index >= len(self.candidates):
            self._candidate_index = 0
            self._round_count += 1
            if self._round_count >= self.round_max:
                best = max(self._scores, key=self._scores.get)
                self._finish_round(winner=best)

    def _finish_round(self, winner: int) -> None:
        best_score = self._scores[winner]
        self.best_offset = winner
        self.prefetch_enabled = best_score > self.bad_score
        self._scores = {offset: 0 for offset in self.candidates}
        self._round_count = 0
        self._candidate_index = 0

    def storage_bits(self) -> int:
        # Recent-request table (~256 x 12b hashed tags) + scores (len x 5b).
        return self.recent.capacity * 12 + len(self.candidates) * 5 + 8

    def reset(self) -> None:
        self.recent.clear()
        self._scores = {offset: 0 for offset in self.candidates}
        self._round_count = 0
        self._candidate_index = 0
        self.best_offset = 1
        self.prefetch_enabled = True
