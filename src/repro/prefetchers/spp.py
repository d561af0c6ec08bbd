"""Signature Path Prefetcher with Perceptron Prefetch Filtering (SPP-PPF).

SPP (Kim et al., MICRO 2016) compresses the recent delta history of each
physical page into a 12-bit *signature*; a pattern table maps signatures to
candidate next deltas with confidence counters, and the prefetcher walks the
signature path in a lookahead fashion, multiplying per-step confidences
until the path confidence falls below a threshold.

PPF (Bhatia et al., ISCA 2019) adds a perceptron filter that decides, per
candidate prefetch, whether it is likely to be useful.  The reproduction
implements a compact perceptron over (signature, delta, offset) features and
trains it online from the hierarchy feedback embedded in the demand stream
(a candidate is rewarded when a later demand touches it, penalised when it
ages out unreferenced).

The train path is hand-inlined for speed and stays the oracle for every
tier.  ``_PatternEntry.best()`` is memoized: the memo is either ``None`` or
the exact ``(delta, count / total)`` tuple ``max()`` over the current
counters returns, and ``update()``, the only writer of the counters, clears
it, so the tie rule (first inserted delta wins) and the halving stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, BLOCK_SHIFT, BLOCK_SIZE


@dataclass(slots=True)
class _SignatureEntry:
    """Per-page state in the signature table."""

    signature: int = 0
    last_offset: int = -1


@dataclass(slots=True)
class _PatternEntry:
    """Candidate deltas (with confidence) for one signature."""

    deltas: Dict[int, int] = field(default_factory=dict)
    total: int = 0
    #: Memo of :meth:`best`; ``update`` clears it (see the module docstring).
    _best: Optional[Tuple[int, float]] = field(default=None, repr=False, compare=False)

    def update(self, delta: int) -> None:
        self._best = None
        self.deltas[delta] = self.deltas.get(delta, 0) + 1
        self.total += 1
        if self.total >= 64:
            # Periodic halving keeps the counters adaptive.
            self.deltas = {d: max(1, c // 2) for d, c in self.deltas.items()}
            self.total = sum(self.deltas.values())

    def best(self) -> Optional[Tuple[int, float]]:
        best = self._best
        if best is None:
            if not self.deltas or self.total == 0:
                return None
            delta, count = max(self.deltas.items(), key=lambda item: item[1])
            best = self._best = (delta, count / self.total)
        return best


class _PerceptronFilter:
    """Tiny perceptron deciding whether a candidate prefetch is worthwhile."""

    __slots__ = ("table_size", "threshold", "weights_signature", "weights_delta",
                 "weights_offset", "_pending")

    def __init__(self, table_size: int = 1024, threshold: int = 0) -> None:
        self.table_size = table_size
        self.threshold = threshold
        self.weights_signature = [0] * table_size
        self.weights_delta = [0] * table_size
        self.weights_offset = [0] * 64
        self._pending: LRUTable[int, Tuple[int, int, int]] = LRUTable(256)

    def _indices(self, signature: int, delta: int, offset: int) -> Tuple[int, int, int]:
        return (
            signature % self.table_size,
            (delta * 2654435761) % self.table_size,
            offset % 64,
        )

    def score(self, signature: int, delta: int, offset: int) -> int:
        i, j, k = self._indices(signature, delta, offset)
        return (
            self.weights_signature[i] + self.weights_delta[j] + self.weights_offset[k]
        )

    def record_issue(self, block: int, signature: int, delta: int, offset: int) -> None:
        evicted = self._pending.put(block, (signature, delta, offset))
        if evicted is not None:
            self._train(*evicted[1], reward=False)

    def record_demand(self, block: int) -> None:
        features = self._pending.pop(block)
        if features is not None:
            self._train(*features, reward=True)

    def _train(self, signature: int, delta: int, offset: int, reward: bool) -> None:
        i, j, k = self._indices(signature, delta, offset)
        step = 1 if reward else -1
        self.weights_signature[i] = max(-32, min(31, self.weights_signature[i] + step))
        self.weights_delta[j] = max(-32, min(31, self.weights_delta[j] + step))
        self.weights_offset[k] = max(-32, min(31, self.weights_offset[k] + step))

    def reset(self) -> None:
        self.weights_signature = [0] * self.table_size
        self.weights_delta = [0] * self.table_size
        self.weights_offset = [0] * 64
        self._pending.clear()


class SPPPrefetcher(Prefetcher):
    """Lookahead signature-path prefetcher with a perceptron filter."""

    name = "spp-ppf"

    def __init__(
        self,
        signature_table_entries: int = 256,
        pattern_table_entries: int = 512,
        region_size: int = 4096,
        lookahead_threshold: float = 0.25,
        fill_l1_threshold: float = 0.60,
        max_lookahead: int = 6,
        use_perceptron: bool = True,
    ) -> None:
        if region_size <= 0 or region_size % BLOCK_SIZE:
            raise ValueError(f"region_size {region_size} is not a positive "
                             f"multiple of {BLOCK_SIZE}")
        self.region_size = region_size
        self.blocks = region_size // BLOCK_SIZE
        self.signature_table: LRUTable[int, _SignatureEntry] = LRUTable(
            signature_table_entries
        )
        self.pattern_table: LRUTable[int, _PatternEntry] = LRUTable(
            pattern_table_entries
        )
        self.lookahead_threshold = lookahead_threshold
        self.fill_l1_threshold = fill_l1_threshold
        self.max_lookahead = max_lookahead
        self.use_perceptron = use_perceptron
        self.filter = _PerceptronFilter()

    # ------------------------------------------------------------------ #
    # The train path below works on the tables' dicts directly, touching
    # exactly the entries ``LRUTable.get``/``put``/``pop`` would.
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        block = address >> BLOCK_SHIFT
        blocks = self.blocks
        page, offset = divmod(block, blocks)

        ppf = self.filter
        use_perceptron = self.use_perceptron
        if use_perceptron:
            features = ppf._pending._entries.pop(block, None)
            if features is not None:
                ppf._train(*features, reward=True)

        signatures = self.signature_table._entries
        entry = signatures.get(page)
        if entry is None:
            self.signature_table.put(
                page, _SignatureEntry(signature=0, last_offset=offset)
            )
            return []
        signatures.move_to_end(page)

        delta = offset - entry.last_offset
        if delta == 0:
            return []

        signature = entry.signature
        patterns = self.pattern_table._entries
        pattern = patterns.get(signature)
        if pattern is None:
            pattern = _PatternEntry()
            self.pattern_table.put(signature, pattern)
        else:
            patterns.move_to_end(signature)
        pattern.update(delta)

        signature = ((signature << 3) ^ (delta & 0x7F)) & 0xFFF
        entry.signature = signature
        entry.last_offset = offset

        # Lookahead: walk the signature path from ``offset`` (no LRU
        # updates), with the perceptron score and signature hash inlined.
        base = page * blocks
        table_size = ppf.table_size
        weights_signature = ppf.weights_signature
        weights_delta = ppf.weights_delta
        weights_offset = ppf.weights_offset
        requests: List[int] = []
        confidence = 1.0
        for _step in range(self.max_lookahead):
            pattern = patterns.get(signature)
            if pattern is None:
                break
            best = pattern._best or pattern.best()
            if best is None:
                break
            delta, probability = best
            confidence *= probability
            if confidence < self.lookahead_threshold:
                break
            offset += delta
            if offset < 0 or offset >= blocks:
                break
            if not use_perceptron or (
                weights_signature[signature % table_size]
                + weights_delta[(delta * 2654435761) % table_size]
                + weights_offset[offset % 64]
                >= ppf.threshold
            ):
                target = base + offset
                requests.append(target << 1 | (confidence >= self.fill_l1_threshold))
                if use_perceptron:
                    ppf.record_issue(target, signature, delta, offset)
            signature = ((signature << 3) ^ (delta & 0x7F)) & 0xFFF
        return requests

    def storage_bits(self) -> int:
        st = self.signature_table.capacity * (16 + 12 + 6)
        pt = self.pattern_table.capacity * (4 * (7 + 4))
        ppf = (2 * self.filter.table_size + 64) * 6
        return st + pt + ppf

    def reset(self) -> None:
        self.signature_table.clear()
        self.pattern_table.clear()
        self.filter.reset()
