"""Berti / vBerti: an accurate local-delta data prefetcher.

Navarro-Torres et al., MICRO 2022.  Berti works in a per-PC view: for every
load instruction it learns which block *deltas* (relative to the current
access) would have produced *timely* prefetches, by checking, when a block
is demanded, which earlier accesses of the same instruction occurred long
enough ago that a prefetch launched at that point would have completed.
Deltas are scored by how often they are timely; high-confidence deltas are
prefetched into the L1D, medium-confidence deltas into the L2C.

The evaluated variant is **vBerti**: it operates on virtual addresses and is
allowed to cross page boundaries within a window of +-4 pages (the paper
restricts the original +-64-page window because overly large windows select
large-but-inaccurate deltas in multi-core runs).

The key behavioural property the paper leans on -- and which this model
reproduces -- is that Berti has no notion of region activation, so it keeps
re-issuing prefetches for blocks that are already resident in the L1D when
data is re-traversed; those redundant requests occupy prefetch-queue slots
(§IV-B3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, block_number


@dataclass(slots=True)
class _DeltaScore:
    """Score of one candidate delta for one PC."""

    occurrences: int = 0
    timely: int = 0


@dataclass(slots=True)
class _PCState:
    """Per-PC Berti state: recent accesses and delta scores.

    ``history`` holds plain ``(block, cycle)`` tuples — it is walked once
    per access, so the entries stay allocation-light.
    """

    history: List[Tuple[int, int]] = field(default_factory=list)
    deltas: Dict[int, _DeltaScore] = field(default_factory=dict)
    rounds: int = 0

    def confidence(self, delta: int) -> float:
        """Coverage-style confidence: fraction of this PC's recent accesses
        for which ``delta`` pointed at a block the PC really did access."""
        score = self.deltas.get(delta)
        if score is None or self.rounds == 0:
            return 0.0
        return min(1.0, score.occurrences / self.rounds)

    def timeliness(self, delta: int) -> float:
        """Fraction of the delta's occurrences that would have been timely."""
        score = self.deltas.get(delta)
        if score is None or score.occurrences == 0:
            return 0.0
        return score.timely / score.occurrences


class BertiPrefetcher(Prefetcher):
    """Per-PC timely-delta prefetcher (vBerti configuration)."""

    name = "vberti"

    def __init__(
        self,
        pc_entries: int = 64,
        history_per_pc: int = 16,
        max_deltas_per_pc: int = 16,
        page_window: int = 4,
        l1_confidence: float = 0.65,
        l2_confidence: float = 0.35,
        max_prefetches_per_access: int = 4,
        region_size: int = 4096,
        fetch_latency: int = 60,
    ) -> None:
        self.pc_table: LRUTable[int, _PCState] = LRUTable(pc_entries)
        self.history_per_pc = history_per_pc
        self.max_deltas_per_pc = max_deltas_per_pc
        self.page_window = page_window
        self.l1_confidence = l1_confidence
        self.l2_confidence = l2_confidence
        self.max_prefetches_per_access = max_prefetches_per_access
        self.region_size = region_size
        self.blocks_per_page = region_size // 64
        self.fetch_latency = fetch_latency
        # Hot-path constant: the +-page window expressed in blocks.
        self._window_blocks = page_window * self.blocks_per_page
        # Hot-path binding (train() hits the PC table once per load; the
        # dict is a stable object — ``clear`` empties it in place).
        self._pc_entries = self.pc_table._entries

    # ------------------------------------------------------------------ #
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        block = block_number(address)
        key = pc & 0xFFFF
        pc_entries = self._pc_entries
        state = pc_entries.get(key)
        if state is None:
            state = _PCState()
            self.pc_table.put(key, state)
        else:
            pc_entries.move_to_end(key)

        latency = result.latency if result is not None else self.fetch_latency
        self._learn_deltas(state, block, cycle, latency)

        history = state.history
        history.append((block, cycle))
        if len(history) > self.history_per_pc:
            history.pop(0)

        return self._issue(state, block)

    def _learn_deltas(
        self, state: _PCState, block: int, cycle: int, latency: int
    ) -> None:
        """Score deltas from past accesses of this PC to the current block.

        This loop runs over the full per-PC history on *every* demand load,
        which makes it vBerti's single hottest function — everything is
        bound to locals and the window/timeliness tests are plain integer
        comparisons (``past_cycle + latency <= cycle`` rewritten as a
        precomputed threshold; ``abs`` unrolled into a two-sided compare).
        """
        window_blocks = self._window_blocks
        neg_window = -window_blocks
        timely_threshold = cycle - latency
        seen_this_access = set()
        seen_add = seen_this_access.add
        deltas = state.deltas
        deltas_get = deltas.get
        rounds = state.rounds
        max_deltas = self.max_deltas_per_pc
        for past_block, past_cycle in state.history:
            delta = block - past_block
            if (
                delta == 0
                or delta > window_blocks
                or delta < neg_window
                or delta in seen_this_access
            ):
                continue
            seen_add(delta)
            score = deltas_get(delta)
            if score is None:
                if len(deltas) >= max_deltas:
                    # Replace the weakest delta (lowest confidence; first in
                    # insertion order on ties, matching min() semantics).
                    weakest = None
                    weakest_conf = None
                    if rounds:
                        for d, s in deltas.items():
                            conf = s.occurrences / rounds
                            if conf > 1.0:
                                conf = 1.0
                            if weakest_conf is None or conf < weakest_conf:
                                weakest_conf = conf
                                weakest = d
                    else:
                        weakest = next(iter(deltas))
                    del deltas[weakest]
                score = _DeltaScore()
                deltas[delta] = score
            score.occurrences += 1
            # Timely if a prefetch launched at the past access would have
            # completed (past_cycle + latency) before the demand arrived.
            if past_cycle <= timely_threshold:
                score.timely += 1
        state.rounds += 1
        if state.rounds % 64 == 0:
            state.rounds //= 2
            for score in state.deltas.values():
                score.occurrences = max(1, score.occurrences // 2)
                score.timely //= 2

    def _issue(self, state: _PCState, block: int) -> List[int]:
        rounds = state.rounds
        if not rounds:
            return []
        candidates: List[Tuple[float, int]] = []
        l2_confidence = self.l2_confidence
        for delta, score in state.deltas.items():
            occurrences = score.occurrences
            if occurrences < 2:
                continue
            confidence = occurrences / rounds
            if confidence > 1.0:
                confidence = 1.0
            if confidence >= l2_confidence:
                candidates.append((confidence, delta))
        if not candidates:
            return []
        candidates.sort(reverse=True)
        requests: List[int] = []
        window_blocks = self._window_blocks
        deltas = state.deltas
        l1_confidence = self.l1_confidence
        for confidence, delta in candidates[: self.max_prefetches_per_access]:
            target = block + delta
            if target < 0 or abs(delta) > window_blocks:
                continue
            # High-confidence, timely deltas go to the L1D; accurate but
            # late (or lower-confidence) deltas are demoted to the L2C --
            # Berti's level selection by certainty/timeliness.  Packed as
            # :func:`~repro.sim.types.pack_prefetch` does.
            to_l1 = 0
            if confidence >= l1_confidence:
                score = deltas[delta]
                if score.timely / score.occurrences >= 0.5:
                    to_l1 = 1
            requests.append(target << 1 | to_l1)
        return requests

    def storage_bits(self) -> int:
        # Per PC: tag 16b + history (16 x (7b delta-capable block offset +
        # 12b cycle)) + delta table (16 x (8b delta + 8b counters)).
        per_pc = 16 + self.history_per_pc * (7 + 12) + self.max_deltas_per_pc * 16
        return self.pc_table.capacity * per_pc

    def reset(self) -> None:
        self.pc_table.clear()
