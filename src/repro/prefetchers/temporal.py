"""Temporal (address-correlating) prefetchers.

The paper's thesis is that *spatial* patterns carry internal temporal
correlations; these designs sit on the other side of that line — they log
correlated pairs of miss addresses and replay them, with no spatial
generalization at all.  Two designs are provided:

* :class:`GHBMarkovPrefetcher` — the classic global-history-buffer
  address-correlating prefetcher (Nesbit & Smith, HPCA'04, the "G/AC"
  organization): an index table points at the most recent occurrence of
  each block in a circular history buffer, occurrences of the same block
  are linked, and the blocks that followed previous occurrences are
  prefetched.  A first-order Markov predictor with bounded history.

* :class:`TriangelPrefetcher` — a Triangel-style design (Ainsworth &
  Mukhanov, ISCA'24): per-PC training with *sampled* reuse confidence
  decides which streams deserve Markov metadata at all, a set-associative
  Markov table stores one address-pair successor per block with a small
  confidence counter, and predictions chain through the table for
  lookahead.  The on-chip budget is fixed (the real design places its
  metadata in the LLC; modeling that migration is a ROADMAP follow-up),
  so the sampler's job — spending table capacity only on streams whose
  reuse distance fits the table's reach — is what the reproduction
  captures.

Both are ordinary registry prefetchers: single-core jobs, goldens, bench
cases and the engine cache treat them exactly like the spatial designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable, SetAssociativeTable
from repro.sim.types import (
    AccessResult,
    BLOCK_SIZE,
    PrefetchHint,
    block_number,
)


class GHBMarkovPrefetcher(Prefetcher):
    """Global History Buffer prefetcher, address-correlating organization.

    Like the original design, the prefetcher observes the *miss stream*
    (accesses that left the L1), not every load: each observed block is
    appended to a circular global history buffer, an index table maps
    each block to its most recent buffer position, and same-block
    occurrences are chained through link pointers.  On a lookup hit the
    blocks that *followed* up to ``width`` previous occurrences become
    prefetch candidates, newest occurrence first, capped at ``degree``
    distinct targets.  When trained directly without an
    :class:`AccessResult` (unit tests), every access is observed.
    """

    name = "ghb"

    def __init__(
        self,
        ghb_entries: int = 4096,
        index_entries: int = 4096,
        width: int = 2,
        depth: int = 4,
        degree: int = 4,
        distance: int = 16,
    ) -> None:
        if ghb_entries <= 0:
            raise ValueError("ghb_entries must be positive")
        if width <= 0 or depth <= 0 or degree <= 0:
            raise ValueError("width, depth and degree must be positive")
        if distance < 0:
            raise ValueError("distance must be non-negative")
        self.ghb_entries = ghb_entries
        self.width = width
        self.depth = depth
        self.degree = degree
        self.distance = distance
        #: Circular buffer slots: (block, link_position) — ``link_position``
        #: is the *global* position of the previous occurrence (-1 if none).
        self._buffer: List[tuple] = [(-1, -1)] * ghb_entries
        #: Global insertion counter; slot = position % ghb_entries.
        self._head = 0
        self.index: LRUTable[int, int] = LRUTable(index_entries)

    def _entry_at(self, position: int):
        """The buffer entry at a global position (None if overwritten)."""
        if position < 0 or position < self._head - self.ghb_entries:
            return None
        if position >= self._head:
            return None
        return self._buffer[position % self.ghb_entries]

    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        if result is not None and result.hit_level == "L1D":
            return []  # correlate the miss stream only, like the original
        block = block_number(address)
        last_position = self.index.get(block)

        requests: List[int] = []
        if last_position is not None:
            targets: List[int] = []
            seen = {block}
            position = last_position
            for _ in range(self.width):
                entry = self._entry_at(position)
                if entry is None or entry[0] != block:
                    break
                # The ``depth`` entries recorded ``distance`` slots after
                # this occurrence are the blocks that followed it last time
                # around; the skipped slots would arrive too late to beat
                # the demand stream anyway.
                for step in range(1 + self.distance, 1 + self.distance + self.depth):
                    follower = self._entry_at(position + step)
                    if follower is None:
                        break
                    target = follower[0]
                    if target >= 0 and target not in seen:
                        seen.add(target)
                        targets.append(target)
                position = entry[1]
                if position < 0:
                    break
            for target in targets[: self.degree]:
                requests.append(
                    self.request(target * BLOCK_SIZE, PrefetchHint.L1)
                )

        link = last_position if last_position is not None else -1
        self._buffer[self._head % self.ghb_entries] = (block, link)
        self.index.put(block, self._head)
        self._head += 1
        return requests

    def storage_bits(self) -> int:
        # GHB slot: block address (58b) + link pointer (log2 entries, 9-16b
        # rounded to 16).  Index entry: block tag (16b) + pointer (16b).
        return self.ghb_entries * (58 + 16) + self.index.capacity * (16 + 16)

    def reset(self) -> None:
        self._buffer = [(-1, -1)] * self.ghb_entries
        self._head = 0
        self.index.clear()


@dataclass(slots=True)
class _TrainingEntry:
    """Per-PC training-unit state (Triangel's Training Unit)."""

    #: Recent observed blocks, oldest first (bounded by ``distance``): the
    #: Markov pair trained on each observation is (history[0] -> current).
    history: List[int]
    #: Saturating reuse confidence fed by the sampler: high values mean the
    #: PC's addresses recur within the Markov table's reach.
    reuse_conf: int = 0
    #: Accesses observed for this PC (drives the sampling cadence).
    observed: int = 0


class TriangelPrefetcher(Prefetcher):
    """Triangel-style temporal prefetcher with sampled training confidence.

    Structure:

    Like the real design (which observes L2 accesses), training sees the
    L1 *miss stream*; accesses served by the L1 are invisible to it.
    A bit-exact C twin exists
    (:class:`repro.prefetchers.compiled.CompiledTriangelPrefetcher`), so
    under ``kernel="compiled"`` this design trains in the extension and
    runs inside the compiled driver loop.

    * a per-PC **training unit** (:class:`LRUTable`) holding the previous
      block and a saturating reuse-confidence counter;
    * a **sample table** that records a subset of observed blocks (one in
      ``sample_rate`` per PC): re-observing a sampled block before it falls
      out of the table proves the stream's reuse distance is within the
      metadata's reach and raises the PC's confidence, an eviction without
      reuse lowers it — Triangel's key idea of *measuring* temporal reuse
      before spending Markov capacity on a stream;
    * a set-associative **Markov table** mapping block → (the block
      observed ``distance`` misses later, confidence), trained and
      queried only for PCs whose confidence reached ``train_threshold``.
      Training at a distance (rather than on adjacent pairs) is what buys
      timeliness: one table hop predicts a block the demand stream will
      not reach for ``distance`` more misses, so the prefetch has that
      many miss-latencies of slack.  A short chained walk (``degree``
      hops, each jumping another ``distance`` ahead) extends the window.
    """

    name = "triangel"

    def __init__(
        self,
        training_entries: int = 256,
        sample_entries: int = 512,
        sample_rate: int = 8,
        markov_sets: int = 1024,
        markov_ways: int = 4,
        degree: int = 3,
        distance: int = 12,
        train_threshold: int = 2,
        predict_threshold: int = 2,
        max_confidence: int = 3,
    ) -> None:
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if degree <= 0:
            raise ValueError("degree must be positive")
        if distance <= 0:
            raise ValueError("distance must be positive")
        self.training: LRUTable[int, _TrainingEntry] = LRUTable(training_entries)
        #: sampled block → owning PC (reuse check on re-observation).
        self.samples: LRUTable[int, int] = LRUTable(sample_entries)
        self.sample_rate = sample_rate
        #: block → [successor_block, confidence]
        self.markov: SetAssociativeTable[list] = SetAssociativeTable(
            markov_sets, markov_ways
        )
        self._markov_sets = markov_sets
        self.degree = degree
        self.distance = distance
        self.train_threshold = train_threshold
        self.predict_threshold = predict_threshold
        self.max_confidence = max_confidence

    # ------------------------------------------------------------------ #
    # Sampler
    # ------------------------------------------------------------------ #
    def _sample(self, pc: int, block: int, entry: _TrainingEntry) -> None:
        """Update the sampled reuse confidence for ``pc`` on ``block``."""
        owner = self.samples.get(block, touch=False)
        if owner is not None:
            # Reuse within the sample table's reach: the owning stream is
            # temporally predictable at this metadata budget.
            self.samples.pop(block)
            owning = self.training.get(owner, touch=False)
            if owning is not None:
                owning.reuse_conf = min(self.max_confidence, owning.reuse_conf + 1)
            return
        entry.observed += 1
        if entry.observed % self.sample_rate == 0:
            evicted = self.samples.put(block, pc)
            if evicted is not None:
                # The sample aged out unused: its stream's reuse distance
                # exceeds the table's reach — back off that PC.
                evicted_owner = self.training.get(evicted[1], touch=False)
                if evicted_owner is not None and evicted_owner.reuse_conf > 0:
                    evicted_owner.reuse_conf -= 1

    # ------------------------------------------------------------------ #
    # Markov table
    # ------------------------------------------------------------------ #
    def _markov_key(self, block: int):
        return block % self._markov_sets, block // self._markov_sets

    def _markov_update(self, prev_block: int, block: int) -> None:
        set_index, tag = self._markov_key(prev_block)
        entry = self.markov.get(set_index, tag)
        if entry is None:
            self.markov.put(set_index, tag, [block, 1])
            return
        if entry[0] == block:
            entry[1] = min(self.max_confidence, entry[1] + 1)
        else:
            entry[1] -= 1
            if entry[1] <= 0:
                entry[0] = block
                entry[1] = 1

    def _predict(self, block: int) -> List[int]:
        # Each Markov hop jumps ``distance`` misses ahead of the demand
        # stream, so every emitted target has at least ``distance``
        # miss-latencies of slack.
        requests: List[int] = []
        seen = {block}
        current = block
        for _ in range(self.degree):
            set_index, tag = self._markov_key(current)
            entry = self.markov.get(set_index, tag, touch=False)
            if entry is None or entry[1] < self.predict_threshold or entry[0] in seen:
                break
            target = entry[0]
            seen.add(target)
            requests.append(self.request(target * BLOCK_SIZE, PrefetchHint.L1))
            current = target
        return requests

    # ------------------------------------------------------------------ #
    # Prefetcher interface
    # ------------------------------------------------------------------ #
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        if result is not None and result.hit_level == "L1D":
            return []  # the training unit observes the L1 miss stream
        block = block_number(address)
        entry = self.training.get(pc)
        if entry is None:
            self.training.put(pc, _TrainingEntry(history=[block]))
            return []

        self._sample(pc, block, entry)
        trained = entry.reuse_conf >= self.train_threshold
        history = entry.history
        if len(history) >= self.distance:
            # ``history[0]`` was observed ``distance`` misses ago: train
            # the pair (then -> now) so lookups predict at full lead.
            if trained and history[0] != block:
                self._markov_update(history[0], block)
            del history[: len(history) - self.distance + 1]
        history.append(block)
        if not trained:
            return []
        return self._predict(block)

    def storage_bits(self) -> int:
        # Training unit: PC tag (16b) + ``distance`` history blocks (58b
        # each) + confidence (2b) + sample phase (3b).  Sample table:
        # block tag (16b) + PC id (8b).  Markov entry: tag (46b) + target
        # block (58b) + confidence (2b).
        return (
            self.training.capacity * (16 + self.distance * 58 + 2 + 3)
            + self.samples.capacity * (16 + 8)
            + self.markov.capacity * (46 + 58 + 2)
        )

    def reset(self) -> None:
        self.training.clear()
        self.samples.clear()
        self.markov.clear()
