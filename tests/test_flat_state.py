"""Cross-tier equality: every prefetcher, every kernel, bit-identical.

Each design has one Python implementation (the object classes) and, for
Gaze, vBerti, PMP and Triangel, an optional C twin
(:mod:`repro.prefetchers.compiled`, built from ``src/repro/_kernels.c``).
Every statistic of every registered prefetcher must be identical across
tiers.  These tests pin:

* whole-simulation equality across every tier combination — scalar vs
  batched kernel x ``kernel`` knob (pure Python vs the compiled
  extension, when built);
* the compiled-twin substitution rules (:func:`compiled_twin`): only the
  exact object classes are swapped, and configurations the C kernels
  cannot represent fall back gracefully;
* chunked streaming (:class:`repro.sim.batch.ChunkedTraceStream`) against
  the scalar loop over the same stream, including replayed instruction
  budgets and warm-up boundaries with deliberately tiny chunk sizes.
"""

from __future__ import annotations

import pytest

from repro.core.gaze import GazeConfig, GazePrefetcher
from repro.prefetchers import available_prefetchers, create_prefetcher
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.compiled import compiled_available, compiled_twin
from repro.sim.batch import ChunkedTraceStream
from repro.sim.simulator import KERNEL_MODES, resolve_kernel, simulate_trace
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built "
    "(`python setup.py build_ext --inplace`)",
)


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"prefetcher tiers diverged ({label})"
    )


def _trace(generator="cloud", seed=5, length=1_500):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length,
    ).build()


# --------------------------------------------------------------------------- #
# Whole-simulation equality across every tier
# --------------------------------------------------------------------------- #
ALL_PREFETCHERS = sorted(available_prefetchers())


class TestAllTierEquality:
    """scalar/batched x python/compiled must be bit-identical everywhere.

    ``kernel="compiled"`` cases run even when the extension is absent
    (they then exercise the documented silent fallback); the
    ``requires_compiled`` twin tests below assert the extension really
    was engaged.
    """

    @pytest.mark.parametrize("prefetcher_name", ALL_PREFETCHERS)
    def test_every_registered_prefetcher_every_kernel(self, prefetcher_name):
        trace = _trace(length=1_200)
        reference = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            batch="off", kernel="python",
        )
        for batch in ("off", "auto"):
            for kernel in KERNEL_MODES:
                candidate = simulate_trace(
                    trace, prefetcher=create_prefetcher(prefetcher_name),
                    batch=batch, kernel=kernel,
                )
                _assert_identical(
                    reference, candidate,
                    f"{prefetcher_name}, batch={batch}, kernel={kernel}",
                )

    def test_budget_and_warmup_boundaries_across_kernels(self):
        trace = _trace(generator="strided", seed=2, length=1_000)
        for kwargs in (
            {"max_instructions": 2_500},       # replayed budget
            {"warmup_instructions": 333},      # warm-up boundary
            {"max_instructions": 5_000, "warmup_instructions": 1_111},
        ):
            reference = simulate_trace(
                trace, prefetcher=create_prefetcher("gaze"),
                batch="off", kernel="python", **kwargs,
            )
            for kernel in ("auto", "compiled"):
                candidate = simulate_trace(
                    trace, prefetcher=create_prefetcher("gaze"),
                    batch="auto", kernel=kernel, **kwargs,
                )
                _assert_identical(reference, candidate, f"{kwargs}, {kernel}")

    def test_unknown_kernel_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(_trace(length=64), kernel="jit")
        with pytest.raises(ValueError):
            resolve_kernel(create_prefetcher("gaze"), "jit")

    def test_stale_state_knob_fails_loudly(self):
        # ``state`` is not a prefetcher parameter: a stale knob must raise
        # rather than be silently ignored.
        with pytest.raises(TypeError):
            create_prefetcher("gaze", state="flat")
        with pytest.raises(TypeError):
            create_prefetcher("vberti", state="object")


# --------------------------------------------------------------------------- #
# Compiled-twin substitution rules
# --------------------------------------------------------------------------- #
class TestCompiledTwin:
    def test_prefetchers_without_a_kernel_have_no_twin(self):
        assert compiled_twin(create_prefetcher("bop")) is None
        assert compiled_twin(create_prefetcher("ghb")) is None
        assert compiled_twin(None) is None

    @pytest.mark.parametrize(
        "prefetcher_name", ["gaze-pht", "pht4ss", "sm4ss", "vgaze-4kb"]
    )
    def test_gaze_subclasses_are_not_swapped_for_plain_gaze(
        self, prefetcher_name
    ):
        # These ablations subclass GazePrefetcher but change its behaviour;
        # the C Gaze kernel replicates only the exact class.
        prefetcher = create_prefetcher(prefetcher_name)
        assert isinstance(prefetcher, GazePrefetcher)
        assert compiled_twin(prefetcher) is None
        trace = _trace(generator="graph", seed=11, length=1_500)
        python = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="python",
        )
        compiled = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="compiled",
        )
        _assert_identical(python, compiled, f"{prefetcher_name} compiled")

    @requires_compiled
    def test_object_prefetchers_get_compiled_twins(self):
        from repro.prefetchers.compiled import (
            CompiledBertiPrefetcher,
            CompiledGazePrefetcher,
        )

        gaze_twin = compiled_twin(create_prefetcher("gaze"))
        berti_twin = compiled_twin(create_prefetcher("vberti"))
        assert type(gaze_twin) is CompiledGazePrefetcher
        assert type(berti_twin) is CompiledBertiPrefetcher
        # Already-compiled instances pass through untouched.
        assert compiled_twin(gaze_twin) is gaze_twin
        assert compiled_twin(berti_twin) is berti_twin

    @requires_compiled
    def test_unrepresentable_configs_fall_back(self):
        # 128 blocks per region exceeds the C kernels' 64-bit footprint
        # masks; the twin must decline rather than truncate.
        wide = GazePrefetcher(GazeConfig(region_size=128 * 64))
        assert compiled_twin(wide) is None
        deep = BertiPrefetcher(history_per_pc=80)
        assert compiled_twin(deep) is None

    @requires_compiled
    def test_resolve_kernel_swaps_in_the_twin(self):
        from repro.prefetchers.compiled import CompiledGazePrefetcher

        gaze = create_prefetcher("gaze")
        assert isinstance(resolve_kernel(gaze, "compiled"), CompiledGazePrefetcher)
        assert resolve_kernel(gaze, "python") is gaze
        assert resolve_kernel(gaze, "auto") is gaze
        assert resolve_kernel(None, "compiled") is None

    @requires_compiled
    def test_compiled_gaze_counters_match_python(self):
        trace = _trace(generator="mixed", seed=8, length=2_000)
        python = create_prefetcher("gaze")
        compiled = compiled_twin(create_prefetcher("gaze"))
        simulate_trace(trace, prefetcher=python)
        simulate_trace(trace, prefetcher=compiled)
        # The C-side counters are written onto the object layout by drain().
        python.drain()
        compiled.drain()
        assert python.pht.lookups > 0
        assert python.pht.hit_rate == compiled.pht.hit_rate
        for attr in ("lookups", "hits", "updates"):
            assert getattr(python.pht, attr) == getattr(compiled.pht, attr), attr
        for attr in (
            "pht_predictions", "streaming_predictions", "backup_activations",
            "promotions",
        ):
            assert getattr(python, attr) == getattr(compiled, attr), attr

    @requires_compiled
    def test_compiled_reset_restores_initial_state(self):
        trace = _trace(length=800)
        fresh = compiled_twin(create_prefetcher("gaze"))
        used = compiled_twin(create_prefetcher("gaze"))
        first = simulate_trace(trace, prefetcher=used)
        used.reset()
        again = simulate_trace(trace, prefetcher=used)
        baseline = simulate_trace(trace, prefetcher=fresh)
        _assert_identical(first, again, "reset round-trip")
        _assert_identical(baseline, again, "reset vs fresh instance")


# --------------------------------------------------------------------------- #
# Chunked streaming against the scalar loop
# --------------------------------------------------------------------------- #
class TestChunkedStreaming:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        accesses = _trace(generator="streaming", seed=6, length=1_800)
        path = tmp_path / "chunked.gzt.gz"
        trace_formats.save_trace_file(iter(accesses), str(path))
        return trace_formats.TraceFile(str(path))

    def test_chunk_sizes_are_bounded_and_complete(self, trace_file):
        stream = ChunkedTraceStream(trace_file, chunk_accesses=300)
        chunks = list(iter(stream.next_chunk, None))
        assert all(len(chunk) <= 300 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == 1_800
        whole = trace_file.decode_batched()
        flattened = [access for chunk in chunks for access in chunk]
        assert flattened == list(whole)

    def test_stream_signals_end_of_pass_once_then_reopens(self, trace_file):
        stream = ChunkedTraceStream(trace_file, chunk_accesses=700)
        first_pass = 0
        while stream.next_chunk() is not None:
            first_pass += 1
        assert first_pass == 3  # 700 + 700 + 400
        assert stream.next_chunk() is not None  # re-opened, not exhausted

    def test_empty_source_yields_none(self):
        stream = ChunkedTraceStream([])
        assert stream.next_chunk() is None
        assert stream.next_chunk() is None

    def test_nonpositive_chunk_size_rejected(self, trace_file):
        with pytest.raises(ValueError):
            ChunkedTraceStream(trace_file, chunk_accesses=0)

    @pytest.mark.parametrize("prefetcher_name", ["none", "gaze", "vberti"])
    def test_streamed_equality_tiny_chunks(self, trace_file, prefetcher_name):
        scalar = simulate_trace(
            trace_file, prefetcher=create_prefetcher(prefetcher_name),
            batch="off",
        )
        for chunk_accesses in (64, 509):
            chunked = simulate_trace(
                ChunkedTraceStream(trace_file, chunk_accesses=chunk_accesses),
                prefetcher=create_prefetcher(prefetcher_name),
            )
            _assert_identical(
                scalar, chunked, f"{prefetcher_name}, chunk={chunk_accesses}"
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_instructions": 9_000},  # budget beyond one pass: replay
            {"warmup_instructions": 1_234},
            {"max_instructions": 6_000, "warmup_instructions": 2_000},
        ],
    )
    def test_budgets_and_warmup_across_pass_boundaries(self, trace_file, kwargs):
        scalar = simulate_trace(
            trace_file, prefetcher=create_prefetcher("gaze"),
            batch="off", **kwargs,
        )
        chunked = simulate_trace(
            ChunkedTraceStream(trace_file, chunk_accesses=450),
            prefetcher=create_prefetcher("gaze"), **kwargs,
        )
        _assert_identical(scalar, chunked, f"chunked stream, {kwargs}")

    def test_file_trace_auto_batch_takes_chunked_path(self, trace_file):
        # batch="auto" over a re-openable file source must now match the
        # materialized batched kernel bit-for-bit (it used to run scalar).
        materialized = simulate_trace(
            list(iter(trace_file)), prefetcher=create_prefetcher("gaze"),
        )
        streamed = simulate_trace(
            trace_file, prefetcher=create_prefetcher("gaze"), batch="auto"
        )
        _assert_identical(materialized, streamed, "file trace, batch=auto")
