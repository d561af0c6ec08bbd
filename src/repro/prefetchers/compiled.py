"""Compiled-kernel twins of the object prefetchers.

When the optional C extension :mod:`repro._kernels` has been built
(``python setup.py build_ext --inplace``), this module exposes subclasses
of :class:`~repro.core.gaze.GazePrefetcher`,
:class:`~repro.prefetchers.berti.BertiPrefetcher`,
:class:`~repro.prefetchers.pmp.PMPPrefetcher` and
:class:`~repro.prefetchers.temporal.TriangelPrefetcher` whose train hot
path runs entirely in C.  The object classes remain the bit-exact oracle;
the C kernels replicate every LRU touch, eviction order and threshold
comparison.  Float thresholds are precomputed here (or in the object
constructor) with the exact float comparisons the object classes perform,
and passed to C as integer tables, so the kernels are pure integer code.
A twin inherits its configuration and storage accounting from the object
class; the object tables it constructs stay empty.

Selection is *opt-in* via the ``kernel="compiled"`` knob on
:func:`repro.sim.simulator.simulate_trace` / the ``--kernel`` CLI flag;
:func:`compiled_twin` returns ``None`` whenever no compiled artifact
exists or the prefetcher/geometry is not supported, so callers always
fall back gracefully to the object prefetcher.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.gaze import GazePrefetcher
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.pmp import PMPPrefetcher
from repro.prefetchers.temporal import TriangelPrefetcher
from repro.sim.types import BLOCK_SIZE

#: The ``KERNELS_ABI`` of the ``_kernels.c`` in this tree; a build that
#: reports another value predates it and is declined (lint R2 mirrors it).
KERNELS_ABI = 7

# The one import of the extension: ``repro.sim.driver`` reads it from here.
try:  # pragma: no cover - exercised only when the extension is built
    from repro import _kernels
except ImportError:  # plain source checkouts: object prefetchers only
    _kernels = None


def kernels_decline_reason() -> Optional[str]:
    """Why :mod:`repro._kernels` cannot be used, or ``None`` when it can."""
    if _kernels is None:
        return "repro._kernels extension not built"
    abi = getattr(_kernels, "KERNELS_ABI", None)
    if abi != KERNELS_ABI:
        return (
            f"repro._kernels is a stale build (ABI {abi}, "
            f"expected {KERNELS_ABI})"
        )
    return None


def compiled_available() -> bool:
    """Whether :mod:`repro._kernels` is importable and built from this tree."""
    return kernels_decline_reason() is None


def _require_kernels() -> None:
    reason = kernels_decline_reason()
    if reason is not None:
        raise RuntimeError(reason)


class CompiledBertiPrefetcher(BertiPrefetcher):
    """vBerti whose train loop runs in the C kernel (bit-exact).

    Requires ``history_per_pc <= 64`` and ``max_deltas_per_pc <= 64``
    (per-PC histories and delta tables are fixed C arrays);
    :func:`compiled_twin` enforces the limits.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        _require_kernels()
        # Per-``rounds`` occurrence thresholds: the smallest occurrence
        # count whose clamped confidence ``min(occ/rounds, 1.0)`` passes
        # each threshold, found with the exact float comparisons the object
        # implementation applies per delta.  Confidence is monotone in the
        # occurrence count, so ``occ >= threshold[rounds]`` is equivalent to
        # the per-delta division and the C issue scan runs entirely on
        # ints.  ``rounds`` stays below 64 (it is halved when it reaches
        # 64), and occurrences above ``rounds`` clamp to confidence 1.0, so
        # scanning 0..rounds is exhaustive.
        unreachable = 1 << 60
        self._l2_occ_thr = l2_thr = [unreachable] * 64
        self._l1_occ_thr = l1_thr = [unreachable] * 64
        for r in range(1, 64):
            for occ in range(r + 1):
                conf = occ / r
                if conf > 1.0:
                    conf = 1.0
                if l2_thr[r] == unreachable and conf >= self.l2_confidence:
                    l2_thr[r] = occ
                if l1_thr[r] == unreachable and conf >= self.l1_confidence:
                    l1_thr[r] = occ
        # Packed sort keys for issue candidates: ``min(occ, rounds)`` above
        # an offset-biased delta.  The offset strictly exceeds the delta
        # window, so keys order by (clamped confidence, delta) descending,
        # exactly the order of the object implementation's tuple sort.
        cand_off = 1 << max(10, (self._window_blocks + 1).bit_length())
        self._kernel = _kernels.BertiKernel(
            pc_entries=self.pc_table.capacity,
            history_per_pc=self.history_per_pc,
            max_deltas_per_pc=self.max_deltas_per_pc,
            window_blocks=self._window_blocks,
            max_prefetches=self.max_prefetches_per_access,
            l2_occ_thr=l2_thr,
            l1_occ_thr=l1_thr,
            cand_off=cand_off,
            cand_shift=cand_off.bit_length(),
        )
        self._ktrain = self._kernel.train

    def train(self, pc, address, cycle, result=None) -> List[int]:
        latency = result.latency if result is not None else self.fetch_latency
        return self._ktrain(pc, address, cycle, latency)

    def reset(self) -> None:
        super().reset()
        self._kernel.reset()


class CompiledGazePrefetcher(GazePrefetcher):
    """Gaze whose train/evict/drain paths run in the C kernel (bit-exact).

    Requires ``blocks_per_region <= 64`` (region footprints are single
    64-bit masks in C) and a ``region_size`` that is a multiple of the
    block size (the kernel forms target block numbers from whole-block
    regions); :func:`compiled_twin` enforces both.

    The introspection counters (``pht.lookups``/``hits``/``updates``,
    ``pht_predictions`` … ``promotions``) live on the C side while
    training runs and are written onto the object layout by
    :meth:`drain`; read them after draining, not mid-stream.
    """

    def __init__(self, config=None) -> None:
        super().__init__(config)
        _require_kernels()
        cfg = self.config
        if cfg.blocks_per_region > 64 or cfg.region_size % BLOCK_SIZE:
            raise ValueError(
                "CompiledGazePrefetcher requires blocks_per_region <= 64 and "
                f"a region_size that is a multiple of {BLOCK_SIZE}"
            )
        self._kernel = _kernels.GazeKernel(
            blocks=cfg.blocks_per_region,
            region_size=cfg.region_size,
            filter_entries=cfg.filter_entries,
            accumulation_entries=cfg.accumulation_entries,
            pht_sets=self.pht.sets,
            pht_ways=cfg.pht_ways,
            prefetch_buffer_entries=cfg.prefetch_buffer_entries,
            pb_limit=cfg.pb_issue_per_access,
            promo_start=cfg.promotion_skip + 1,
            promo_count=cfg.promotion_degree,
            head_blocks=cfg.streaming_head_blocks,
            dpct_entries=cfg.dpct_entries,
            dc_bits=cfg.dense_counter_bits,
            enable_streaming=int(cfg.enable_streaming_module),
            enable_pht=int(cfg.enable_pht),
            stride_backup=int(cfg.enable_stride_backup),
        )
        self._ktrain = self._kernel.train

    def train(self, pc, address, cycle, result=None) -> List[int]:
        return self._ktrain(pc, address)

    def on_cache_eviction(self, block: int) -> None:
        self._kernel.evict(block)

    def drain(self) -> None:
        self._kernel.drain()
        pht = self.pht
        (
            pht.lookups,
            pht.hits,
            pht.updates,
            self.pht_predictions,
            self.streaming_predictions,
            self.backup_activations,
            self.promotions,
        ) = self._kernel.counters()

    def reset(self) -> None:
        super().reset()
        self._kernel.reset()


class CompiledPMPPrefetcher(PMPPrefetcher):
    """PMP whose train/merge/predict paths run in the C kernel (bit-exact).

    Requires ``blocks_per_region <= 64`` (region footprints are single
    64-bit masks in C); :func:`compiled_twin` enforces the limit.  The
    integer confidence-threshold tables are precomputed by the Python
    constructor with the exact float comparisons and shipped to C.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        _require_kernels()
        if self.blocks > 64:
            raise ValueError(
                "CompiledPMPPrefetcher requires blocks_per_region <= 64"
            )
        self._kernel = _kernels.PMPKernel(
            blocks=self.blocks,
            region_size=self.region_size,
            filter_entries=self.tracker.filter_table.capacity,
            accumulation_entries=self.tracker.accumulation_table.capacity,
            max_confidence=self.max_confidence,
            anchor=int(self.anchor_patterns),
            l1_min=self._l1_min,
            l2_min=self._l2_min,
        )
        self._ktrain = self._kernel.train

    def train(self, pc, address, cycle, result=None) -> List[int]:
        return self._ktrain(pc, address)

    def on_cache_eviction(self, block: int) -> None:
        self._kernel.evict(block)

    def reset(self) -> None:
        super().reset()
        self._kernel.reset()


class CompiledTriangelPrefetcher(TriangelPrefetcher):
    """Triangel whose train loop runs in the C kernel (bit-exact).

    Triangel's training unit observes the L1 miss stream, so :meth:`train`
    keeps the object class's hit-level gate and forwards only the surviving
    accesses to C; the compiled *driver* applies the same gate natively.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        _require_kernels()
        self._kernel = _kernels.TriangelKernel(
            training_entries=self.training.capacity,
            sample_entries=self.samples.capacity,
            sample_rate=self.sample_rate,
            markov_sets=self._markov_sets,
            markov_ways=self.markov.ways,
            degree=self.degree,
            distance=self.distance,
            train_threshold=self.train_threshold,
            predict_threshold=self.predict_threshold,
            max_confidence=self.max_confidence,
        )
        self._ktrain = self._kernel.train

    def train(self, pc, address, cycle, result=None) -> List[int]:
        if result is not None and result.hit_level == "L1D":
            return []  # the training unit observes the L1 miss stream
        return self._ktrain(pc, address)

    def reset(self) -> None:
        super().reset()
        self._kernel.reset()


def compiled_twin(prefetcher):
    """A compiled twin of ``prefetcher``, or ``None`` when unavailable.

    Returns a *fresh* instance configured identically (kernel selection
    happens before any training, so no state transfer is needed).  The
    compiled classes themselves pass through unchanged.

    Only the exact object classes map to a twin: a subclass (the Gaze
    ablations ``GazePHTOnly``, ``VirtualGaze`` and ``StreamingOnlyGaze``,
    for instance) overrides behaviour the C kernel does not replicate, so
    it keeps running as itself.
    """
    if not compiled_available():
        return None
    kind = type(prefetcher)
    if kind in (
        CompiledBertiPrefetcher,
        CompiledGazePrefetcher,
        CompiledPMPPrefetcher,
        CompiledTriangelPrefetcher,
    ):
        return prefetcher
    if kind is GazePrefetcher:
        config = prefetcher.config
        if config.blocks_per_region > 64 or config.region_size % BLOCK_SIZE:
            return None
        return CompiledGazePrefetcher(config)
    if kind is BertiPrefetcher:
        if (
            prefetcher.history_per_pc > 64
            or prefetcher.max_deltas_per_pc > 64
        ):
            return None
        return CompiledBertiPrefetcher(
            pc_entries=prefetcher.pc_table.capacity,
            history_per_pc=prefetcher.history_per_pc,
            max_deltas_per_pc=prefetcher.max_deltas_per_pc,
            page_window=prefetcher.page_window,
            l1_confidence=prefetcher.l1_confidence,
            l2_confidence=prefetcher.l2_confidence,
            max_prefetches_per_access=prefetcher.max_prefetches_per_access,
            region_size=prefetcher.region_size,
            fetch_latency=prefetcher.fetch_latency,
        )
    if kind is PMPPrefetcher:
        if prefetcher.blocks > 64:
            return None
        return CompiledPMPPrefetcher(
            region_size=prefetcher.region_size,
            filter_entries=prefetcher.tracker.filter_table.capacity,
            accumulation_entries=prefetcher.tracker.accumulation_table.capacity,
            max_confidence=prefetcher.max_confidence,
            l1_threshold=prefetcher.l1_threshold,
            l2_threshold=prefetcher.l2_threshold,
            anchor_patterns=prefetcher.anchor_patterns,
        )
    if kind is TriangelPrefetcher:
        if prefetcher.degree > 64:
            return None
        return CompiledTriangelPrefetcher(
            training_entries=prefetcher.training.capacity,
            sample_entries=prefetcher.samples.capacity,
            sample_rate=prefetcher.sample_rate,
            markov_sets=prefetcher._markov_sets,
            markov_ways=prefetcher.markov.ways,
            degree=prefetcher.degree,
            distance=prefetcher.distance,
            train_threshold=prefetcher.train_threshold,
            predict_threshold=prefetcher.predict_threshold,
            max_confidence=prefetcher.max_confidence,
        )
    return None
