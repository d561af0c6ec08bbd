"""Hit-run retirement regression suite, driven by temporal-reuse traces.

Without a prefetcher, the batched kernel's one loop retires dense L1-hit
runs through two calls: :meth:`repro.sim.cache.Cache.demand_hit_run`
(residency scan + batched LRU touches) and
:meth:`repro.sim.cpu.CoreTimingModel.advance_hit_run` (the aggregate timing
advance).  The temporal-reuse generators are what actually
produce such runs — ring traffic re-touches a small slot window and a
resident pointer cycle replays its node blocks — so this suite uses them
to pin three things:

* ``advance_hit_run`` against its own documented reference semantics (the
  scalar ``advance_non_memory`` / ``begin_memory_access`` /
  ``complete_memory_access`` loop), including runs that start with
  long-latency completions still outstanding;
* batched == scalar == streamed bit-identity at run lengths straddling the
  chunk boundary (``DEFAULT_CHUNK_ACCESSES``), with instruction budgets and
  warm-up cuts landing mid-run;
* that the temporal traces *engage* the fast path at all — asserted via an
  instrumented ``Cache.demand_hit_run``, not assumed — and that the
  engaged runs retire a substantial share of the trace.
"""

from __future__ import annotations

import pytest

from repro.prefetchers import create_prefetcher
from repro.sim.batch import DEFAULT_CHUNK_ACCESSES
from repro.sim.cache import Cache
from repro.sim.cpu import CoreTimingModel
from repro.sim.config import default_system_config
from repro.sim.simulator import simulate_trace
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

CHUNK = DEFAULT_CHUNK_ACCESSES


def _trace(generator, seed=11, length=4_000, **params):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length, params=params,
    ).build()


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"batched kernel diverged from the scalar kernel ({label})"
    )


def _core_model():
    return CoreTimingModel(default_system_config(1).core)


def _scalar_run(model, gaps, start, count, latency):
    """The documented reference semantics of ``advance_hit_run``."""
    for i in range(start, start + count):
        model.advance_non_memory(gaps[i])
        model.begin_memory_access()
        model.complete_memory_access(latency)


# --------------------------------------------------------------------------- #
# advance_hit_run vs its scalar reference semantics
# --------------------------------------------------------------------------- #
class TestAdvanceHitRunReference:
    GAPS = ([0, 1, 3, 0, 0, 7, 2, 0, 5, 1, 0, 0, 4, 9, 0, 2] * 40)

    @pytest.mark.parametrize("latency", [1, 4, 25, 180])
    def test_matches_scalar_loop(self, latency):
        # Latencies either side of the miss threshold: 1/4 never enter the
        # outstanding-miss queue, 25/180 do (and 180 stalls retirement).
        reference, aggregate = _core_model(), _core_model()
        _scalar_run(reference, self.GAPS, 0, len(self.GAPS), latency)
        aggregate.advance_hit_run(self.GAPS, 0, len(self.GAPS), latency)
        assert aggregate.snapshot() == reference.snapshot()
        assert aggregate.finalize() == reference.finalize()

    def test_start_and_count_select_a_slice(self):
        reference, aggregate = _core_model(), _core_model()
        _scalar_run(reference, self.GAPS, 37, 200, 4)
        aggregate.advance_hit_run(self.GAPS, 37, 200, 4)
        assert aggregate.finalize() == reference.finalize()

    def test_run_starting_with_outstanding_long_misses(self):
        # The constraint checks must stay inside the loop: a hit run can
        # begin while DRAM-latency completions are still in flight, and
        # those completions retire *during* the run.
        reference, aggregate = _core_model(), _core_model()
        for model in (reference, aggregate):
            for _ in range(12):
                model.advance_non_memory(2)
                model.begin_memory_access()
                model.complete_memory_access(250)
        _scalar_run(reference, self.GAPS, 0, 300, 1)
        aggregate.advance_hit_run(self.GAPS, 0, 300, 1)
        assert aggregate.snapshot() == reference.snapshot()
        assert aggregate.finalize() == reference.finalize()

    def test_back_to_back_runs_compose(self):
        # Two aggregate runs with an interleaved miss equal one scalar
        # history: the model state carried across run boundaries is
        # complete.
        reference, aggregate = _core_model(), _core_model()
        _scalar_run(reference, self.GAPS, 0, 150, 1)
        reference.advance_non_memory(3)
        reference.begin_memory_access()
        reference.complete_memory_access(195)
        _scalar_run(reference, self.GAPS, 151, 150, 1)
        aggregate.advance_hit_run(self.GAPS, 0, 150, 1)
        aggregate.advance_non_memory(3)
        aggregate.begin_memory_access()
        aggregate.complete_memory_access(195)
        aggregate.advance_hit_run(self.GAPS, 151, 150, 1)
        assert aggregate.finalize() == reference.finalize()

    def test_zero_count_is_a_no_op(self):
        model = _core_model()
        before = model.snapshot()
        model.advance_hit_run(self.GAPS, 0, 0, 1)
        assert model.snapshot() == before


# --------------------------------------------------------------------------- #
# Batched == scalar == streamed at chunk-boundary run lengths
# --------------------------------------------------------------------------- #
class TestChunkBoundaryEquality:
    @pytest.mark.parametrize(
        "length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 17]
    )
    def test_ring_trace_identical_across_kernels(self, length):
        # Ring traffic produces hit runs dense enough that the chunk edge
        # lands inside one for every length here.
        trace = _trace("ring", length=length)
        scalar = simulate_trace(trace, batch="off")
        batched = simulate_trace(trace)
        _assert_identical(scalar, batched, f"ring, length={length}")

    def test_resident_pointer_cycle_with_triangel(self):
        # A temporal prefetcher in the loop: prefetch side effects and hit
        # runs interleave across the chunk boundary.
        trace = _trace(
            "temporal-pointer", length=CHUNK + 1, num_nodes=256,
            noise_fraction=0.02,
        )
        scalar = simulate_trace(
            trace, prefetcher=create_prefetcher("triangel"), batch="off"
        )
        batched = simulate_trace(trace, prefetcher=create_prefetcher("triangel"))
        _assert_identical(scalar, batched, "temporal-pointer/triangel")

    @pytest.mark.parametrize("max_instructions", [10_007, 20_011])
    def test_budget_cut_lands_mid_run(self, max_instructions):
        # Odd budgets on a hit-dense trace: exhaustion lands inside a run,
        # so the batched kernel must retire a *partial* run identically.
        trace = _trace("ring", length=12_000)
        scalar = simulate_trace(
            trace, batch="off", max_instructions=max_instructions
        )
        batched = simulate_trace(trace, max_instructions=max_instructions)
        _assert_identical(scalar, batched, f"budget={max_instructions}")
        assert scalar.instructions <= max_instructions + 64

    def test_warmup_cut_lands_mid_run(self):
        trace = _trace("ring", length=12_000)
        scalar = simulate_trace(
            trace, batch="off", warmup_instructions=5_003
        )
        batched = simulate_trace(trace, warmup_instructions=5_003)
        _assert_identical(scalar, batched, "warmup=5003")

    def test_warmup_and_budget_together(self):
        trace = _trace("temporal-pointer", length=12_000, num_nodes=256)
        scalar = simulate_trace(
            trace, batch="off", warmup_instructions=5_003,
            max_instructions=30_011,
        )
        batched = simulate_trace(
            trace, warmup_instructions=5_003, max_instructions=30_011
        )
        _assert_identical(scalar, batched, "warmup+budget")

    def test_streamed_shapes_identical(self, tmp_path):
        # The same trace through a file: replayed stream, decoded-batched
        # stream, and eager batched all match the materialized scalar run.
        length = CHUNK + 1
        trace = _trace("ring", length=length)
        path = tmp_path / "ring.gzt.gz"
        trace_formats.save_trace_file(iter(trace), str(path))
        spec = TraceSpec.from_file(
            str(path), name="ring-stream", suite="test", length=length
        )
        scalar = simulate_trace(trace, batch="off")
        _assert_identical(
            scalar, simulate_trace(spec.replayable(), batch="off"),
            "streamed scalar",
        )
        _assert_identical(
            scalar, simulate_trace(spec.batched()), "spec.batched()"
        )
        _assert_identical(
            scalar, simulate_trace(spec.replayable()),
            "batch=auto over a stream",
        )


# --------------------------------------------------------------------------- #
# The fast path actually engages on temporal traces (asserted, not assumed)
# --------------------------------------------------------------------------- #
class TestDemandHitRunEngagement:
    def _spy(self, monkeypatch):
        counters = {"calls": 0, "retired": 0}
        original = Cache.demand_hit_run

        def spy(cache, blocks, kinds, gaps, start, stop, instruction_limit):
            run, instructions = original(
                cache, blocks, kinds, gaps, start, stop, instruction_limit
            )
            counters["calls"] += 1
            counters["retired"] += run
            return run, instructions

        monkeypatch.setattr(Cache, "demand_hit_run", spy)
        return counters

    def test_ring_trace_engages_the_fast_path(self, monkeypatch):
        counters = self._spy(monkeypatch)
        trace = _trace("ring", length=6_000)
        stats = simulate_trace(trace)  # batch="auto" must pick the kernel
        assert counters["calls"] > 0, (
            "the batched kernel never probed for a hit run on a ring trace"
        )
        # Ring reuse is dense (>0.8 within an L1-sized window): the fast
        # path must retire a substantial share of the trace, not a token
        # run or two.
        assert counters["retired"] > len(trace) // 4
        assert stats.l1_hits >= counters["retired"]

    def test_resident_pointer_cycle_engages_the_fast_path(self, monkeypatch):
        counters = self._spy(monkeypatch)
        trace = _trace("temporal-pointer", length=6_000, num_nodes=256)
        simulate_trace(trace)
        assert counters["calls"] > 0
        assert counters["retired"] > len(trace) // 8

    def test_instrumented_run_matches_the_scalar_kernel(self, monkeypatch):
        # Ties engagement to correctness: the very runs the spy observed
        # produce statistics bit-identical to the scalar kernel's.
        trace = _trace("ring", length=6_000)
        scalar = simulate_trace(trace, batch="off")
        counters = self._spy(monkeypatch)
        batched = simulate_trace(trace)
        assert counters["calls"] > 0
        _assert_identical(scalar, batched, "instrumented ring run")
