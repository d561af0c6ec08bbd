"""Compiled batched driver loop: equivalence, engagement, tier reporting.

Under ``kernel="compiled"`` the simulator hands whole batched chunks to the
C ``DriverKernel`` (:mod:`repro.sim.driver`) for every prefetcher.  Its one
loop takes every access through the same per-access body, with or without
a prefetcher: it trains the four designs with full C twins (vberti, gaze,
pmp, triangel) in-process and calls every other design back through its
Python ``train``/``on_cache_eviction``.  Only a stale extension build,
geometry and run shape decline to the Python driver; a decline records
its reason (``non-power-of-two cache set count``), not the scalar path it
led to.  Both paths must be
*bit-identical* for every statistic and for the complete hierarchy state
the driver exports when it is read — caches (contents, flags and LRU
order), MSHR file, prefetch queue, DRAM bank/row/channel timing and the
core model.

These tests pin that equivalence over every registered prefetcher, over
chunked file-backed streams with warmup/budget cuts landing mid-run and
MSHR fills straddling chunk boundaries, the Python callback protocol
(argument-for-argument, including the reused ``result`` object, and
exception propagation), the lazy hierarchy export, the tier bookkeeping
that makes a fallen-back "compiled" run visible, and the PMP/Triangel
train twins the driver dispatches to.

All equality assertions hold whether or not the extension is built (the
fallback is the identity); tests that require the C driver to *engage* are
skipped when it is absent.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro.experiments.bench import BENCH_SCHEMA, BenchCase
from repro.prefetchers import available_prefetchers, create_prefetcher
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.compiled import compiled_available, compiled_twin
from repro.sim.batch import ChunkedTraceStream
from repro.sim.config import default_system_config
from repro.sim.driver import driver_available
from repro.sim.simulator import (
    SingleCoreSimulator,
    resolve_kernel,
    simulate_trace,
)
from repro.sim.types import PrefetchHint, pack_prefetch, unpack_prefetch
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

requires_driver = pytest.mark.skipif(
    not driver_available(), reason="compiled driver kernel not built"
)
requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled extension not built"
)

#: The bare no-prefetcher run plus the four designs with C train twins.
TWIN_PREFETCHERS = ("none", "vberti", "gaze", "pmp", "triangel")

#: Registered designs the driver hosts through Python callbacks.
PYTHON_HOSTED = ("sms", "spp-ppf", "bingo", "ipcp", "dspatch", "ip-stride")


def _trace(generator="spatial", seed=11, length=1_200):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length,
    ).build()


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"compiled driver diverged from the Python driver ({label})"
    )


def _prefetcher(name):
    return None if name == "none" else create_prefetcher(name)


def _run(trace, name, kernel, **kwargs):
    return simulate_trace(
        trace, prefetcher=_prefetcher(name), kernel=kernel, **kwargs
    )


# --------------------------------------------------------------------------- #
# Statistics equivalence
# --------------------------------------------------------------------------- #
class TestDriverEquivalence:
    @pytest.mark.parametrize("prefetcher_name", sorted(available_prefetchers()))
    def test_every_registered_prefetcher(self, prefetcher_name):
        trace = _trace(length=900)
        scalar = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="python", batch="off",
        )
        python = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="python",
        )
        compiled = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="compiled",
        )
        _assert_identical(scalar, python, f"{prefetcher_name}, python batched")
        _assert_identical(scalar, compiled, f"{prefetcher_name}, compiled")

    def test_non_default_spp(self):
        # The goldens pin only spp-ppf's default configuration; a smaller
        # page, a shorter lookahead and no perceptron take other branches
        # of its inlined train path.
        trace = _trace(generator="spatial", seed=29, length=1_500)
        params = dict(use_perceptron=False, max_lookahead=3, region_size=2048)
        runs = [
            simulate_trace(
                trace, prefetcher=create_prefetcher("spp-ppf", **params),
                kernel=kernel, batch=batch,
            )
            for kernel, batch in (("python", "off"), ("python", "auto"),
                                  ("compiled", "auto"))
        ]
        assert runs[0].prefetch.issued > 0
        _assert_identical(runs[0], runs[1], "spp-ppf, python batched")
        _assert_identical(runs[0], runs[2], "spp-ppf, compiled")

    @pytest.mark.parametrize("name", ["gaze+spp-ppf", "pmp+bingo"])
    def test_multilevel_pair(self, name):
        # A Fig. 13 L1+L2 pair: the C driver hosts the MultiLevelPrefetcher
        # through its Python train and eviction callbacks, and the L2
        # component's requests are demoted by clearing the packed to-L1
        # bit, the one place a packed request is rewritten.
        trace = _trace(generator="spatial", seed=23, length=1_500)
        python = simulate_trace(
            trace, prefetcher=create_prefetcher(name), kernel="python"
        )
        compiled = simulate_trace(
            trace, prefetcher=create_prefetcher(name), kernel="compiled",
            record_tier=True,
        )
        _assert_identical(python, compiled, name)
        assert python.prefetch.filled_l1 > 0 and python.prefetch.filled_l2 > 0
        if driver_available():
            assert compiled.extra["kernel_tier"] == "compiled-driver"

    @pytest.mark.parametrize("generator", ["spatial", "streaming", "cloud"])
    def test_bare_none_fused_path(self, generator):
        trace = _trace(generator=generator, seed=3, length=1_500)
        scalar = simulate_trace(trace, batch="off")
        compiled = simulate_trace(trace, kernel="compiled")
        _assert_identical(scalar, compiled, f"{generator}, fused none")

    @pytest.mark.parametrize("name", TWIN_PREFETCHERS + PYTHON_HOSTED)
    @pytest.mark.parametrize(
        "warmup,budget", [(0, 997), (250, None), (500, 1_503), (0, 100_000)]
    )
    def test_warmup_and_budget_cuts_mid_run(self, name, warmup, budget):
        # Budgets inside a pass, warmup boundaries mid-hit-run, and a
        # budget past one pass (replay wrap) must all cut at the exact
        # access the Python driver cuts at.
        trace = _trace(generator="streaming", seed=5, length=1_000)
        reference = _run(trace, name, "python",
                         warmup_instructions=warmup, max_instructions=budget)
        compiled = _run(trace, name, "compiled",
                        warmup_instructions=warmup, max_instructions=budget)
        _assert_identical(
            reference, compiled, f"{name}, warmup={warmup}, budget={budget}"
        )


# --------------------------------------------------------------------------- #
# Chunked / file-backed streams
# --------------------------------------------------------------------------- #
class TestChunkedDriver:
    @pytest.mark.parametrize("name", ["gaze", "pmp"])
    def test_small_chunks_with_straddling_fills(self, name):
        # chunk_accesses far below the trace length: prefetch fills issued
        # near the end of one chunk become ready inside the next, so the
        # driver's exported MSHR state must round-trip between run_batch
        # calls at exactly the scalar fill cycles.
        trace = _trace(generator="spatial", seed=7, length=2_000)
        scalar = _run(trace, name, "python", batch="off")
        chunked = simulate_trace(
            ChunkedTraceStream(trace, chunk_accesses=64),
            prefetcher=_prefetcher(name), kernel="compiled",
        )
        _assert_identical(scalar, chunked, f"{name}, 64-access chunks")
        assert scalar.prefetch.filled_l1 + scalar.prefetch.filled_l2 > 0

    @pytest.mark.parametrize(
        "warmup,budget", [(0, 777), (300, None), (150, 2_111)]
    )
    def test_chunked_budget_and_warmup_cuts(self, warmup, budget):
        trace = _trace(generator="cloud", seed=9, length=1_500)
        reference = simulate_trace(
            trace, prefetcher=_prefetcher("vberti"), kernel="python",
            warmup_instructions=warmup, max_instructions=budget,
        )
        chunked = simulate_trace(
            ChunkedTraceStream(trace, chunk_accesses=128),
            prefetcher=_prefetcher("vberti"), kernel="compiled",
            warmup_instructions=warmup, max_instructions=budget,
        )
        _assert_identical(
            reference, chunked, f"chunked, warmup={warmup}, budget={budget}"
        )

    def test_file_backed_stream(self, tmp_path):
        trace = _trace(generator="streaming", seed=13, length=900)
        path = tmp_path / "driver.gzt.gz"
        trace_formats.save_trace_file(iter(trace), str(path))
        spec = TraceSpec.from_file(str(path), name="driver", suite="test",
                                   length=900)
        scalar = _run(trace, "triangel", "python", batch="off")
        streamed = simulate_trace(
            spec.replayable(), prefetcher=_prefetcher("triangel"),
            kernel="compiled",
        )
        _assert_identical(scalar, streamed, "file-backed stream, triangel")


# --------------------------------------------------------------------------- #
# Hierarchy state after detach
# --------------------------------------------------------------------------- #
def _hierarchy_state(sim):
    def cache_state(cache):
        return [
            [
                (entry.block, entry.prefetched, entry.prefetch_useful,
                 entry.from_dram, entry.dirty, entry.useful_counted)
                for entry in cache_set.values()
            ]
            for cache_set in cache._sets
        ]

    h = sim.hierarchy
    return {
        "l1d": cache_state(h.l1d),
        "l2c": cache_state(h.l2c),
        "llc": cache_state(h.llc),
        "mshr": sorted(
            (e.block, e.ready_cycle, e.is_prefetch, e.from_dram)
            for e in h.l1_mshr._entries.values()
        ),
        "mshr_min_ready": h.l1_mshr._min_ready,
        "pq": [unpack_prefetch(p) for p in h.prefetch_queue._queue],
        "dram": (
            dict(h.dram._open_row),
            dict(h.dram._bank_busy_until),
            list(h.dram._channel_busy_until),
        ),
        "core": (
            sim.core._instr_count,
            sim.core._fetch_cycle,
            sim.core._last_retire_cycle,
            list(sim.core._outstanding),
            list(sim.core._outstanding_misses),
        ),
    }


class TestDriverStateSync:
    @requires_driver
    @pytest.mark.parametrize("name", sorted(available_prefetchers()))
    def test_detach_restores_exact_hierarchy_state(self, name):
        # Not just the counters: cache contents in LRU order with all five
        # flag bits, in-flight MSHR entries, queued prefetches, DRAM
        # bank/row/channel timing and the core model must match what the
        # Python driver leaves behind, once the lazy export has run.
        trace = _trace(generator="spatial", seed=17, length=1_500)
        sims = {}
        for kernel in ("python", "compiled"):
            sim = SingleCoreSimulator(
                prefetcher=resolve_kernel(_prefetcher(name), kernel),
                kernel=kernel,
            )
            sim.run(trace)
            sims[kernel] = sim
        assert sims["compiled"].kernel_tier_used == "compiled-driver"
        assert _hierarchy_state(sims["python"]) == _hierarchy_state(
            sims["compiled"]
        ), f"hierarchy state diverged after detach ({name})"

    @requires_driver
    def test_compiled_driver_actually_engaged(self):
        sim = SingleCoreSimulator(kernel="compiled")
        sim.run(_trace(length=400))
        assert sim.kernel_tier_used == "compiled-driver"
        assert sim.kernel_decline_reason is None

    @requires_driver
    def test_hierarchy_export_is_lazy(self):
        sim = SingleCoreSimulator(
            prefetcher=resolve_kernel(create_prefetcher("gaze"), "compiled"),
            kernel="compiled",
        )
        sim.run(_trace(length=600))
        # Detach synced only the core and the stats; the caches are still
        # empty Python objects until the hierarchy is read.
        assert sim._pending_export is not None
        assert not any(sim._hierarchy.l1d._sets)
        assert any(sim.hierarchy.l1d._sets)
        assert sim._pending_export is None

    @requires_driver
    def test_stats_hold_no_reference_to_the_kernel(self):
        sim = SingleCoreSimulator(kernel="compiled")
        stats = sim.run(_trace(length=400))
        kernel = sim._pending_export
        assert kernel is not None
        del sim
        # Only this frame (and getrefcount's argument) still hold it.
        assert sys.getrefcount(kernel) == 2
        assert stats.demand_accesses > 0

    @pytest.mark.parametrize("name", ["gaze", "sms", "none"])
    def test_second_run_on_same_simulator(self, name):
        # The second run must attach to exactly the state the first run
        # left in the kernel (exported just before it attaches).
        first = _trace(generator="spatial", seed=19, length=800)
        second = _trace(generator="cloud", seed=23, length=800)
        results = {}
        for kernel in ("python", "compiled"):
            sim = SingleCoreSimulator(
                prefetcher=resolve_kernel(_prefetcher(name), kernel),
                kernel=kernel,
            )
            a = _stats_dict(sim.run(first))
            b = _stats_dict(sim.run(second))
            results[kernel] = (a, b, _hierarchy_state(sim))
        assert results["python"] == results["compiled"]


# --------------------------------------------------------------------------- #
# Tier recording
# --------------------------------------------------------------------------- #
def _odd_l2_config():
    config = default_system_config(1)
    # 768 sets: a power-of-two L1 keeps the batched kernel, the L2 does not
    # fit the C driver's mask indexing.
    l2c = replace(config.l2c, size_bytes=768 * config.l2c.ways * 64)
    assert l2c.sets == 768
    return replace(config, l2c=l2c)


class TestTierRecording:
    @requires_driver
    @pytest.mark.parametrize("name", sorted(available_prefetchers()))
    def test_every_design_records_compiled_driver(self, name):
        stats = simulate_trace(
            _trace(length=400), prefetcher=create_prefetcher(name),
            kernel="compiled", record_tier=True,
        )
        assert stats.extra["kernel_tier"] == "compiled-driver"
        assert "kernel_decline_reason" not in stats.extra

    def test_scalar_path_declines_with_reason(self):
        stats = simulate_trace(
            _trace(length=400), kernel="compiled", batch="off",
            record_tier=True,
        )
        assert stats.extra["kernel_tier"] != "compiled-driver"
        assert stats.extra["kernel_decline_reason"] == "batch=off"

    @requires_driver
    @pytest.mark.parametrize("warmup", [0, 5_000])
    @pytest.mark.parametrize("name", ["none", "gaze", "sms"])
    def test_one_shot_iterator_reaches_compiled_driver(self, name, warmup):
        # A one-shot iterator streams in chunks like a file does, so it
        # runs in the C driver; 10k accesses span two default chunks.
        trace = _trace(length=10_000)

        def run(kernel):
            prefetcher = None if name == "none" else create_prefetcher(name)
            return simulate_trace(
                iter(trace), prefetcher=prefetcher, kernel=kernel,
                warmup_instructions=warmup, record_tier=True,
            )

        reference = run("python")
        compiled = run("compiled")
        assert compiled.extra["kernel_tier"] == "compiled-driver"
        assert "kernel_decline_reason" not in compiled.extra
        _assert_identical(reference, compiled, f"one-shot {name}, warmup={warmup}")

    @requires_driver
    def test_non_power_of_two_l2_declines_with_reason(self):
        config = _odd_l2_config()
        trace = _trace(length=600)
        stats = simulate_trace(
            trace, prefetcher=create_prefetcher("sms"), config=config,
            kernel="compiled", record_tier=True,
        )
        assert stats.extra["kernel_tier"] == "python"
        assert "non-power-of-two" in stats.extra["kernel_decline_reason"]
        reference = simulate_trace(
            trace, prefetcher=create_prefetcher("sms"), config=config,
            batch="off",
        )
        _assert_identical(reference, stats, "odd L2 fallback")

    @requires_driver
    def test_stale_build_declines_with_reason(self, monkeypatch):
        # An extension built from an older _kernels.c (a leftover in-place
        # build, say) falls back instead of being called with the old
        # signatures.
        from repro.prefetchers import compiled

        stale = compiled.KERNELS_ABI - 1
        monkeypatch.setattr(compiled._kernels, "KERNELS_ABI", stale)
        trace = _trace(length=600)
        stats = _run(trace, "gaze", "compiled", record_tier=True)
        assert stats.extra["kernel_tier"] == "python"
        assert stats.extra["kernel_decline_reason"] == (
            f"repro._kernels is a stale build (ABI {stale}, "
            f"expected {compiled.KERNELS_ABI})"
        )
        _assert_identical(_run(trace, "gaze", "python"), stats, "stale build")

    def test_default_run_leaves_extra_untouched(self):
        stats = simulate_trace(_trace(length=400), kernel="compiled")
        assert "kernel_tier" not in stats.extra

    def test_python_kernel_records_python(self):
        stats = simulate_trace(
            _trace(length=400), kernel="python", record_tier=True
        )
        assert stats.extra["kernel_tier"] == "python"
        assert "kernel_decline_reason" not in stats.extra


class TestBudgetValidation:
    """Budgets are checked once, in ``run``, the same way on every tier."""

    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    @pytest.mark.parametrize("batch", ["auto", "off"])
    @pytest.mark.parametrize(
        "kwargs,parameter",
        [
            ({"max_instructions": 0}, "max_instructions"),
            ({"max_instructions": -5}, "max_instructions"),
            ({"warmup_instructions": -3}, "warmup_instructions"),
        ],
    )
    def test_invalid_budget_rejected(self, kernel, batch, kwargs, parameter):
        with pytest.raises(ValueError, match=parameter):
            simulate_trace(
                _trace(length=200), prefetcher=create_prefetcher("gaze"),
                kernel=kernel, batch=batch, **kwargs,
            )


# --------------------------------------------------------------------------- #
# Python callback protocol
# --------------------------------------------------------------------------- #
def _small_config():
    # Small L1/L2 so a short trace reaches every serving level (L1, L2,
    # LLC, DRAM, in-flight) and evicts from the L1 constantly.
    config = default_system_config(1)
    l1d = replace(config.l1d, size_bytes=8 * config.l1d.ways * 64)
    l2c = replace(config.l2c, size_bytes=32 * config.l2c.ways * 64)
    return replace(config, l1d=l1d, l2c=l2c)


class _RecordingPrefetcher(Prefetcher):
    """Logs every callback; returns a fixed mix of L1/L2-hinted requests.

    Every 97th call asks for more requests than the 64-entry PQ holds.
    """

    name = "recording"

    def __init__(self):
        self.trains = []
        self.evictions = []

    def train(self, pc, address, cycle, result=None):
        self.trains.append(
            (pc, address, cycle, result.hit_level, result.latency,
             result.served_by_prefetch, result.late_prefetch)
        )
        step = len(self.trains)
        count = 70 if step % 97 == 0 else step % 4
        block = address >> 6
        return [
            pack_prefetch(
                (block + k) << 6, PrefetchHint.L1 if k % 2 else PrefetchHint.L2
            )
            for k in range(1, count + 1)
        ]

    def on_cache_eviction(self, block):
        self.evictions.append(block)


class _Boom(Exception):
    pass


class _RaisingPrefetcher(_RecordingPrefetcher):
    """Raises from ``train`` on call ``train_at`` or from
    ``on_cache_eviction`` on eviction ``evict_at`` (0-based)."""

    def __init__(self, train_at=None, evict_at=None):
        super().__init__()
        self.train_at = train_at
        self.evict_at = evict_at
        self.error = None

    def train(self, pc, address, cycle, result=None):
        if len(self.trains) == self.train_at:
            self.error = _Boom(f"train call {self.train_at}")
            raise self.error
        return super().train(pc, address, cycle, result)

    def on_cache_eviction(self, block):
        if len(self.evictions) == self.evict_at:
            self.error = _Boom(f"eviction {self.evict_at}")
            raise self.error
        super().on_cache_eviction(block)


class _DuckTypedPrefetcher:
    """Not a :class:`Prefetcher` subclass and has no eviction hook."""

    name = "duck"

    def train(self, pc, address, cycle, result=None):
        return [pack_prefetch(((address >> 6) + 1) << 6, PrefetchHint.L1)]


class _NonIntPrefetcher(Prefetcher):
    """Returns an item that is not a packed int after a valid one."""

    name = "non-int"

    def train(self, pc, address, cycle, result=None):
        return [pack_prefetch(address + 64), object()]


class TestPythonCallbacks:
    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    def test_non_int_request_raises_type_error(self, kernel):
        # train returns packed ints; either driver rejects anything else
        # (the C callback fails the conversion and enqueues nothing of it).
        with pytest.raises(TypeError):
            simulate_trace(
                _trace(length=400), prefetcher=_NonIntPrefetcher(),
                kernel=kernel,
            )

    @pytest.mark.parametrize("shape", ["whole", "chunked", "warmup"])
    def test_callbacks_identical_across_drivers(self, shape):
        trace = _trace(generator="spatial", seed=29, length=1_500)
        config = _small_config()
        logs = {}
        for kernel in ("python", "compiled"):
            prefetcher = _RecordingPrefetcher()
            source = trace
            kwargs = {}
            if shape == "chunked":
                source = ChunkedTraceStream(trace, chunk_accesses=64)
            elif shape == "warmup":
                kwargs = {"warmup_instructions": 700,
                          "max_instructions": 2_500}
            stats = simulate_trace(
                source, prefetcher=prefetcher, config=config, kernel=kernel,
                record_tier=True, **kwargs,
            )
            logs[kernel] = (prefetcher.trains, prefetcher.evictions, stats)
        py_trains, py_evictions, py_stats = logs["python"]
        c_trains, c_evictions, c_stats = logs["compiled"]
        assert c_trains == py_trains
        assert c_evictions == py_evictions
        _assert_identical(py_stats, c_stats, f"recording prefetcher, {shape}")
        # The trace must exercise every result shape and the PQ overflow.
        assert {t[3] for t in py_trains} == {"L1D", "L2C", "LLC", "DRAM"}
        assert any(t[6] for t in py_trains), "no late prefetch observed"
        assert any(t[5] and not t[6] for t in py_trains)
        assert py_stats.prefetch.dropped_queue_full > 0
        if driver_available():
            assert c_stats.extra["kernel_tier"] == "compiled-driver"

    @pytest.mark.parametrize(
        "arm", [{"train_at": 300}, {"evict_at": 150}], ids=["train", "evict"]
    )
    def test_callback_exception_propagates(self, arm):
        trace = _trace(generator="streaming", seed=31, length=1_200)
        config = _small_config()
        logs = {}
        for kernel in ("python", "compiled"):
            prefetcher = _RaisingPrefetcher(**arm)
            with pytest.raises(_Boom) as caught:
                simulate_trace(
                    trace, prefetcher=prefetcher, config=config, kernel=kernel
                )
            assert caught.value is prefetcher.error
            logs[kernel] = (prefetcher.trains, prefetcher.evictions)
        # No callback runs after the one that raised.
        assert logs["compiled"] == logs["python"]

    @requires_driver
    @pytest.mark.parametrize(
        "arm", [{"train_at": 300}, {"evict_at": 150}], ids=["train", "evict"]
    )
    def test_simulator_runs_again_after_exception(self, arm):
        trace = _trace(generator="streaming", seed=31, length=1_200)
        prefetcher = _RaisingPrefetcher(**arm)
        sim = SingleCoreSimulator(
            config=_small_config(), prefetcher=prefetcher, kernel="compiled"
        )
        with pytest.raises(_Boom) as caught:
            sim.run(trace)
        assert caught.value is prefetcher.error
        prefetcher.train_at = prefetcher.evict_at = None
        # Statistics accumulate across runs of one simulator.
        before = sim.stats.demand_accesses
        stats = sim.run(trace)
        assert stats.demand_accesses - before == len(trace)
        assert stats.prefetch.issued > 0

    def test_duck_typed_prefetcher_without_hook(self):
        trace = _trace(length=800)
        reference = simulate_trace(
            trace, prefetcher=_DuckTypedPrefetcher(), kernel="python"
        )
        compiled = simulate_trace(
            trace, prefetcher=_DuckTypedPrefetcher(), kernel="compiled",
            record_tier=True,
        )
        _assert_identical(reference, compiled, "duck-typed prefetcher")
        assert reference.prefetch.issued > 0
        if driver_available():
            assert compiled.extra["kernel_tier"] == "compiled-driver"
            assert "kernel_decline_reason" not in compiled.extra


# --------------------------------------------------------------------------- #
# Debug-assertion builds (REPRO_DEBUG_KERNELS=1)
# --------------------------------------------------------------------------- #
class TestDebugKernels:
    """The invariant-assertion tier of the extension.

    These tests run against whichever build is loaded: release builds
    export ``DEBUG_KERNELS == 0`` and skip the sweep entirely, debug
    builds run it at every Python boundary crossing.  The full
    equivalence suite above doubles as the bit-identity proof — the
    assertions are read-only, so a debug build must produce the exact
    statistics the release build (and the Python oracle) produce.
    """

    @requires_driver
    def test_debug_flag_exported(self):
        from repro import _kernels

        assert _kernels.DEBUG_KERNELS in (0, 1)

    @requires_driver
    def test_boundary_sweep_passes_on_real_runs(self):
        # Attach, chunked run, detach: every DRV_CHECK call site fires on
        # a debug build and must stay silent on healthy state.
        for name in TWIN_PREFETCHERS + PYTHON_HOSTED:
            stats = _run(_trace(length=900), name, "compiled", record_tier=True)
            assert stats.extra["kernel_tier"] == "compiled-driver"

    @requires_driver
    def test_debug_build_rejects_corrupt_core_state(self):
        # The outstanding ring must be issue-position sorted; loading an
        # out-of-order ring is the one corruption reachable from Python
        # without poking C memory.  Release builds accept it silently
        # (the sweep is compiled out), debug builds refuse loudly.
        from repro import _kernels
        from repro.sim.driver import CompiledDriver

        sim = SingleCoreSimulator(kernel="compiled")
        driver, reason = CompiledDriver.try_attach(sim)
        assert driver is not None, reason
        unsorted_ring = [(10, 1.0), (5, 2.0)]
        if _kernels.DEBUG_KERNELS:
            with pytest.raises(AssertionError, match="not monotonic"):
                driver._kernel.load_core(0, 0.0, 0.0, 0.0, unsorted_ring, [])
        else:
            driver._kernel.load_core(0, 0.0, 0.0, 0.0, unsorted_ring, [])


# --------------------------------------------------------------------------- #
# PMP / Triangel train twins
# --------------------------------------------------------------------------- #
def _pmp_pair_and_blocks():
    from repro.prefetchers.pmp import PMPPrefetcher

    # Two sweeps over 80 regions with a dense head footprint: sweep one
    # overflows the 64-entry accumulation table so regions deactivate and
    # merge into the offset pattern table, sweep two triggers predictions
    # from the merged counters.
    blocks = []
    for region in range(80):
        base = region * 64
        blocks.extend([base, base + 1, base + 2, base + 3])
    return PMPPrefetcher(), PMPPrefetcher(), blocks * 2


def _triangel_pair_and_blocks():
    from repro.prefetchers.temporal import TriangelPrefetcher

    # Eager parameters (as in the temporal unit suite) so a recurring
    # sequence trains reuse confidence and the Markov pairs within a few
    # passes and predictions actually issue.
    def build():
        return TriangelPrefetcher(
            sample_rate=1, train_threshold=1, predict_threshold=1,
            distance=4, degree=2,
        )

    return build(), build(), list(range(0x5000, 0x5000 + 48)) * 3


@requires_compiled
class TestTrainTwins:
    @pytest.mark.parametrize(
        "builder", [_pmp_pair_and_blocks, _triangel_pair_and_blocks],
        ids=["pmp", "triangel"],
    )
    def test_twin_issues_identical_requests(self, builder):
        reference, template, blocks = builder()
        twin = compiled_twin(template)
        assert twin is not None and twin.name == reference.name
        issued_ref, issued_twin = [], []
        for cycle, block in enumerate(blocks):
            pc = 0x400 + (block % 7)
            ref_requests = reference.train(pc, block * 64, cycle)
            twin_requests = twin.train(pc, block * 64, cycle)
            issued_ref.extend(map(unpack_prefetch, ref_requests))
            issued_twin.extend(map(unpack_prefetch, twin_requests))
        assert issued_ref == issued_twin
        assert issued_ref, (
            f"{reference.name} twin-equivalence trace never issued"
        )


# --------------------------------------------------------------------------- #
# Bench tier hygiene
# --------------------------------------------------------------------------- #
class TestBenchTierHygiene:
    def test_case_key_is_tier_independent(self):
        # A compiled-tier snapshot must carry the same case keys as a
        # pure-Python one so compare_bench lines the tiers up
        # case-by-case instead of reporting key churn.
        keys = {
            BenchCase(kind="kernel", generator="spatial", seed=11,
                      prefetcher="gaze", kernel=kernel).key(40_000)
            for kernel in ("auto", "python", "compiled")
        }
        assert len(keys) == 1

    def test_schema_carries_the_tier_section(self):
        assert BENCH_SCHEMA >= 5
