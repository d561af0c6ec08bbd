"""Batched-kernel correctness: decode, boundaries, and scalar equivalence.

The batched kernel (:mod:`repro.sim.batch` + the chunked driver in
:mod:`repro.sim.simulator`) must be *bit-identical* to the scalar kernel for
every statistic.  These tests pin the boundary conditions the chunked loop
has to get right — runs of hits broken by misses, an MSHR fill becoming
ready inside a run of hits, budget exhaustion inside a run, warm-up
boundaries landing mid-run — plus streamed-vs-materialized-vs-batched
equality over every registered prefetcher.
"""

from __future__ import annotations

import pytest

from repro.prefetchers import available_prefetchers, create_prefetcher
from repro.prefetchers.base import Prefetcher
from repro.sim.batch import BatchedTrace
from repro.sim.cache import MSHRFile
from repro.sim.config import CacheConfig, default_system_config
from repro.sim.simulator import (
    BATCH_MODES,
    SingleCoreSimulator,
    _TraceReplayer,
    simulate_trace,
)
from repro.sim.types import AccessType, MemoryAccess, PrefetchHint, pack_prefetch
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"batched kernel diverged from the scalar kernel ({label})"
    )


def _trace(generator="spatial", seed=7, length=1_200):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length,
    ).build()


def _hit_run_trace(n_chunks=40, run_length=12):
    """Alternating pure-L1-hit runs and forced misses.

    Each chunk re-touches one block ``run_length`` times (hits once
    resident) and then jumps to a brand-new block (a guaranteed miss that
    breaks the run), with stores sprinkled in so the dirty bit of a hit
    block is exercised.
    """
    accesses = []
    for chunk in range(n_chunks):
        base = 0x100000 + chunk * 0x10000
        for i in range(run_length):
            access_type = AccessType.STORE if i % 5 == 3 else AccessType.LOAD
            accesses.append(
                MemoryAccess(pc=0x40 + chunk, address=base,
                             access_type=access_type, instr_gap=i % 3)
            )
        accesses.append(
            MemoryAccess(pc=0x40 + chunk, address=base + 0x8000, instr_gap=1)
        )
    return accesses


class _L1PrefetchStub(Prefetcher):
    """Deterministic stub that keeps the L1 MSHR file busy.

    Every trained load requests the next two blocks into the L1D, so MSHR
    fills are constantly in flight and their ready cycles straddle runs
    of hits — the batched kernel must complete fills at the same cycles
    the scalar kernel does.
    """

    name = "l1-stub"

    def train(self, pc, address, cycle, result=None):
        return [
            pack_prefetch(address + 64, PrefetchHint.L1),
            pack_prefetch(address + 128, PrefetchHint.L1),
        ]


# --------------------------------------------------------------------------- #
# Decode
# --------------------------------------------------------------------------- #
class TestBatchedTraceDecode:
    def test_round_trip_preserves_every_access(self):
        trace = _trace(length=500)
        batched = BatchedTrace.from_accesses(trace)
        assert len(batched) == len(trace)
        assert list(batched) == trace
        assert batched[0] == trace[0]
        assert batched[len(trace) - 1] == trace[-1]
        assert batched.instruction_total == sum(
            a.instr_gap + 1 for a in trace
        )

    def test_kind_encoding_covers_all_access_types(self):
        accesses = [
            MemoryAccess(pc=1, address=64, access_type=AccessType.LOAD),
            MemoryAccess(pc=2, address=128, access_type=AccessType.STORE),
            MemoryAccess(pc=3, address=192, access_type=AccessType.PREFETCH),
        ]
        batched = BatchedTrace.from_accesses(accesses)
        assert list(batched.kinds) == [0, 1, 2]
        assert list(batched) == accesses

    def test_blocks_are_precomputed(self):
        batched = BatchedTrace.from_accesses(_trace(length=100))
        assert batched.blocks == [a >> 6 for a in batched.addresses]

    def test_decode_trace_accepts_lists_and_passes_batched_through(self):
        # The simulator's cursor decodes a list once, reads a BatchedTrace
        # as it is, and streams a one-shot iterator chunk by chunk.
        trace = _trace(length=50)
        decoded = _TraceReplayer(trace)._batched
        assert isinstance(decoded, BatchedTrace)
        assert list(decoded) == trace
        batched = BatchedTrace.from_accesses(trace)
        assert _TraceReplayer(batched)._batched is batched
        streamed = _TraceReplayer(iter(trace))
        assert streamed._stream is not None
        assert not streamed._stream.reopenable
        assert list(streamed._batched) == trace

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(BatchedTrace.from_accesses([]))

    def test_unknown_batch_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(_trace(length=10), batch="sometimes")
        assert set(BATCH_MODES) == {"auto", "off"}


# --------------------------------------------------------------------------- #
# Scalar equivalence (bit-identical statistics)
# --------------------------------------------------------------------------- #
class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("prefetcher_name", sorted(available_prefetchers()))
    def test_every_registered_prefetcher(self, prefetcher_name):
        trace = _trace(length=800)
        scalar = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name), batch="off"
        )
        batched = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name), batch="auto"
        )
        predecoded = simulate_trace(
            BatchedTrace.from_accesses(trace),
            prefetcher=create_prefetcher(prefetcher_name),
        )
        _assert_identical(scalar, batched, f"{prefetcher_name}, auto-decoded")
        _assert_identical(scalar, predecoded, f"{prefetcher_name}, pre-decoded")

    @pytest.mark.parametrize("generator", ["spatial", "streaming", "cloud"])
    def test_no_prefetcher_fused_path(self, generator):
        trace = _trace(generator=generator, seed=3, length=1_500)
        scalar = simulate_trace(trace, batch="off")
        batched = simulate_trace(trace)
        _assert_identical(scalar, batched, f"{generator}, none")

    def test_forced_fallback_mid_chunk(self):
        trace = _hit_run_trace()
        scalar = simulate_trace(trace, batch="off")
        batched = simulate_trace(trace)
        _assert_identical(scalar, batched, "hit runs broken by misses")
        # The scenario really alternates: most accesses hit, each chunk
        # ends in a miss.
        assert batched.l1_misses >= 40
        assert batched.l1_hits > batched.l1_misses * 5

    def test_chunk_straddling_mshr_fill_cycles(self):
        trace = _hit_run_trace(n_chunks=30, run_length=10)
        scalar = simulate_trace(
            trace, prefetcher=_L1PrefetchStub(), batch="off"
        )
        batched = simulate_trace(trace, prefetcher=_L1PrefetchStub())
        _assert_identical(scalar, batched, "in-flight L1 fills")
        # The stub must actually have produced in-flight traffic for the
        # scenario to mean anything (late fills observed by demands).
        assert batched.prefetch.filled_l1 > 0

    @pytest.mark.parametrize("budget", [1, 7, 37, 403, 2_001, 100_000])
    def test_budget_exhaustion_inside_a_batched_run(self, budget):
        # One long pure-hit run: any mid-run budget must cut at the exact
        # access the scalar kernel would cut at (replaying across the end
        # of the trace for budgets beyond one pass).
        trace = _hit_run_trace(n_chunks=4, run_length=200)
        scalar = simulate_trace(trace, max_instructions=budget, batch="off")
        batched = simulate_trace(trace, max_instructions=budget)
        _assert_identical(scalar, batched, f"budget={budget}")

    @pytest.mark.parametrize("warmup", [13, 250, 1_000])
    def test_warmup_boundary_inside_a_batched_run(self, warmup):
        trace = _hit_run_trace(n_chunks=6, run_length=100)
        scalar = simulate_trace(
            trace, warmup_instructions=warmup, batch="off"
        )
        batched = simulate_trace(trace, warmup_instructions=warmup)
        _assert_identical(scalar, batched, f"warmup={warmup}")

    def test_batch_off_over_predecoded_trace_runs_scalar(self, monkeypatch):
        # The scalar loop reads the columns directly: it never rebuilds an
        # access object from the BatchedTrace.
        trace = _trace(length=400)
        batched_input = BatchedTrace.from_accesses(trace)
        reference = simulate_trace(trace)

        def forbidden(*_args):
            raise AssertionError("scalar loop rebuilt a MemoryAccess")

        monkeypatch.setattr(BatchedTrace, "__getitem__", forbidden)
        monkeypatch.setattr(BatchedTrace, "__iter__", forbidden)
        scalar = simulate_trace(batched_input, batch="off")
        _assert_identical(reference, scalar, "batch=off over BatchedTrace")

    @pytest.mark.parametrize("prefetcher_name", ["none", "gaze"])
    @pytest.mark.parametrize(
        "level,odd_sets", [("l1d", 48), ("l2c", 768), ("llc", 1536)]
    )
    def test_non_power_of_two_l1_falls_back_to_scalar(
        self, level, odd_sets, prefetcher_name
    ):
        config = default_system_config(1)
        # An odd set count (not a power of two) at the default associativity.
        base = getattr(config, level)
        odd_cache = CacheConfig(
            name=base.name, size_bytes=odd_sets * base.ways * 64,
            ways=base.ways, latency=base.latency,
            mshrs=base.mshrs,
            prefetch_queue_size=base.prefetch_queue_size,
            max_prefetch_issue_per_access=(
                base.max_prefetch_issue_per_access
            ),
        )
        assert odd_cache.sets == odd_sets
        caches = {"l1d": config.l1d, "l2c": config.l2c, "llc": config.llc}
        caches[level] = odd_cache
        odd_config = type(config)(core=config.core, dram=config.dram, **caches)

        def prefetcher():
            if prefetcher_name == "none":
                return None
            return create_prefetcher(prefetcher_name)

        trace = _trace(length=600)
        scalar = simulate_trace(
            trace, prefetcher=prefetcher(), config=odd_config, batch="off"
        )
        batched = simulate_trace(
            trace, prefetcher=prefetcher(), config=odd_config, batch="auto"
        )
        _assert_identical(
            scalar, batched, f"non-power-of-two {level} geometry"
        )


# --------------------------------------------------------------------------- #
# Streamed vs materialized vs batched (file-backed traces)
# --------------------------------------------------------------------------- #
class TestStreamedMaterializedBatchedEquality:
    @pytest.fixture()
    def trace_file_spec(self, tmp_path):
        trace = _trace(generator="streaming", seed=5, length=900)
        path = tmp_path / "equality.gzt.gz"
        trace_formats.save_trace_file(iter(trace), str(path))
        return trace, TraceSpec.from_file(str(path), name="equality",
                                          suite="test", length=900)

    @pytest.mark.parametrize("prefetcher_name", ["none", "gaze", "pmp", "vberti"])
    def test_three_shapes_identical(self, trace_file_spec, prefetcher_name):
        trace, spec = trace_file_spec

        def prefetcher():
            if prefetcher_name == "none":
                return None
            return create_prefetcher(prefetcher_name)

        materialized = simulate_trace(trace, prefetcher=prefetcher(),
                                      batch="off")
        streamed = simulate_trace(spec.replayable(), prefetcher=prefetcher(),
                                  batch="off")
        batched = simulate_trace(spec.build(), prefetcher=prefetcher())
        chunked = simulate_trace(spec.replayable(),
                                    prefetcher=prefetcher())
        _assert_identical(materialized, streamed,
                          f"{prefetcher_name}, streamed")
        _assert_identical(materialized, batched,
                          f"{prefetcher_name}, spec.build()")
        _assert_identical(materialized, chunked,
                          f"{prefetcher_name}, batch=auto over a stream")

    def test_trace_file_decode_batched(self, trace_file_spec):
        trace, spec = trace_file_spec
        handle = spec.source.open()
        batched = handle.decode_batched()
        assert isinstance(batched, BatchedTrace)
        assert list(batched) == trace


# --------------------------------------------------------------------------- #
# The engine-level batch knob
# --------------------------------------------------------------------------- #
class TestJobBatchKnob:
    def _spec(self):
        return TraceSpec(name="knob", suite="test", generator="spatial",
                         seed=9, length=700)

    def test_batch_is_an_execution_detail_not_identity(self):
        from repro.experiments.jobs import SimulationJob

        keys = {
            SimulationJob(spec=self._spec(), prefetcher="gaze",
                          trace_length=700, batch=batch).key()
            for batch in BATCH_MODES
        }
        assert len(keys) == 1
        job = SimulationJob(spec=self._spec(), trace_length=700)
        assert "batch" not in job.to_dict()

    def test_invalid_batch_value_rejected(self):
        from repro.experiments.jobs import SimulationJob

        with pytest.raises(ValueError):
            SimulationJob(spec=self._spec(), batch="sometimes")

    @pytest.mark.parametrize("prefetcher_name", ["none", "gaze"])
    def test_execute_job_identical_across_batch_values(self, prefetcher_name):
        from repro.experiments.jobs import SimulationJob, execute_job

        results = [
            execute_job(
                SimulationJob(spec=self._spec(), prefetcher=prefetcher_name,
                              trace_length=700, batch=batch)
            )
            for batch in ("auto", "off")
        ]
        _assert_identical(results[0], results[1],
                          f"execute_job batch knob, {prefetcher_name}")


# --------------------------------------------------------------------------- #
# The batched primitives in isolation
# --------------------------------------------------------------------------- #
class TestBatchedPrimitives:
    def test_mshr_expire_fast_path_returns_empty(self):
        mshr = MSHRFile(capacity=2)
        mshr.allocate(5, ready_cycle=100, is_prefetch=True)
        assert list(mshr.expire(10)) == []
        assert [e.block for e in mshr.expire(100)] == [5]
