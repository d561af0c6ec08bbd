"""Multi-core driver tests: stat gating, goldens and mix jobs.

Covers the acceptance properties of the multi-core subsystem:

* **Stat gating** — a core that exhausts its instruction budget keeps
  replaying its trace (shared-resource pressure) but stops accumulating
  statistics, and its instruction/cycle totals are snapshotted at the
  budget boundary (no drift with overall mix length).
* **Golden counters** — per-core counter snapshots of the exact schedule
  on fixed mixes (``tests/goldens/multicore.json``), refreshed like the
  single-core goldens with ``REFRESH_GOLDENS=1``.
* **Re-entrancy** — every ``run`` starts from a cold shared LLC and DRAM.
* **Compiled mixes** — ``kernel="compiled"`` runs the whole round-robin
  schedule in the C driver over one shared LLC/DRAM state; its
  statistics must equal the Python ``_CoreContext.step`` schedule for
  every core count, budget cut and replay, a raising Python ``train``
  must propagate unchanged, and a mix the driver declines falls back.
  Without the extension the compiled runs fall back, so the equalities
  still hold; tests that need the C loop to engage are skipped.
* **Engine integration** — mix jobs are content-keyed (trace tuples,
  budgets), sharded across worker processes bit-identically, and answered
  from the persistent cache on warm re-runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.jobs import MixSimulationJob, execute_job
from repro.prefetchers.registry import create_prefetcher
from repro.prefetchers.base import Prefetcher
from repro.sim import default_system_config, simulate_mix
from repro.sim.batch import BatchedTrace, ChunkedTraceStream
from repro.sim.driver import driver_available
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.stats import MultiCoreStats
from repro.sim.types import MemoryAccess, PrefetchHint, pack_prefetch
from repro.workloads.trace import TraceSpec

requires_driver = pytest.mark.skipif(
    not driver_available(), reason="compiled driver kernel not built"
)

GOLDEN_PATH = Path(__file__).parent / "goldens" / "multicore.json"

_REFRESH = os.environ.get("REFRESH_GOLDENS", "") not in ("", "0")

#: The golden mixes: fixed generator tuples, short on purpose (drift
#: detection, not statistical fidelity).
GOLDEN_MIXES = {
    "mix2-spatial-streaming": {
        "traces": (("spatial", 3), ("streaming", 2)),
        "length": 2_000,
        "budget": 6_000,
    },
    "mix4-hetero": {
        "traces": (("spatial", 31), ("cloud", 32), ("streaming", 33), ("graph", 34)),
        "length": 1_500,
        "budget": 4_500,
    },
}


def _specs(mix_key):
    definition = GOLDEN_MIXES[mix_key]
    return tuple(
        TraceSpec(
            name=f"{generator}-s{seed}",
            suite="golden-mix",
            generator=generator,
            seed=seed,
            length=definition["length"],
        )
        for generator, seed in definition["traces"]
    )


def _traces(mix_key):
    definition = GOLDEN_MIXES[mix_key]
    return [spec.build(length=definition["length"]) for spec in _specs(mix_key)]


def _run_mix(mix_key, prefetcher="gaze", kernel="auto"):
    definition = GOLDEN_MIXES[mix_key]
    traces = _traces(mix_key)
    factory = (lambda: create_prefetcher(prefetcher)) if prefetcher else None
    return simulate_mix(
        traces,
        factory,
        default_system_config(len(traces)),
        definition["budget"],
        name=mix_key,
        kernel=kernel,
    )


def _flat_trace(num_accesses, instr_gap, pc=0x40, stride=64):
    """A deterministic trace with a constant instruction gap."""
    return [
        MemoryAccess(pc=pc, address=0x10000 + i * stride, instr_gap=instr_gap)
        for i in range(num_accesses)
    ]


def _expected_measured(trace, budget):
    """(instructions, accesses) the measured window must contain exactly.

    The measured stream is schedule-independent: accesses replay in trace
    order until the cumulative instruction count reaches the budget.
    """
    instructions = 0
    accesses = 0
    index = 0
    while instructions < budget:
        access = trace[index % len(trace)]
        instructions += access.instr_gap + 1
        accesses += 1
        index += 1
    return instructions, accesses


# --------------------------------------------------------------------------- #
# Stat gating at budget exhaustion
# --------------------------------------------------------------------------- #
class TestFinishedCoreGating:
    def test_finished_core_stops_accumulating_stats(self):
        # Core 1's large gaps exhaust its budget in a tenth of the steps,
        # after which it keeps replaying (pressure) for the whole remainder
        # of core 0's run.  Its measured counters must cover exactly the
        # budgeted window — before the gating fix they kept growing.
        budget = 2_000
        traces = [_flat_trace(256, 0, pc=0x1), _flat_trace(256, 9, pc=0x2)]
        result = simulate_mix(
            traces, None, default_system_config(2), budget, name="gating"
        )
        for core_id, trace in enumerate(traces):
            instructions, accesses = _expected_measured(trace, budget)
            stats = result.per_core[core_id]
            assert stats.instructions == instructions
            assert stats.demand_accesses == accesses

    def test_finished_core_ipc_does_not_drift_with_mix_length(self):
        # The fast-finishing core's totals are snapshotted at its budget
        # boundary, so they cannot depend on how much longer the slowest
        # core keeps the mix alive.  Compare the same fast core against
        # runs where the partner trace (and hence the overrun) differs.
        fast = _flat_trace(200, 9, pc=0x2)
        short_partner = _flat_trace(300, 1, pc=0x1)
        # The long partner touches far-away addresses: different pressure,
        # much longer overrun — but the fast core's *instruction/cycle*
        # snapshot must still be taken at the same boundary.
        result_short = simulate_mix(
            [short_partner, fast], None, default_system_config(2), 1_000
        )
        instructions, accesses = _expected_measured(fast, 1_000)
        stats = result_short.per_core[1]
        assert stats.instructions == instructions
        assert stats.demand_accesses == accesses

    def test_all_cores_reach_budget(self):
        result = _run_mix("mix2-spatial-streaming", prefetcher=None)
        for stats in result.per_core.values():
            assert stats.instructions >= GOLDEN_MIXES["mix2-spatial-streaming"]["budget"]
            assert stats.cycles > 0


# --------------------------------------------------------------------------- #
# Golden counters (exact schedule)
# --------------------------------------------------------------------------- #
def _golden_row(stats):
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "demand_accesses": stats.demand_accesses,
        "l1_hits": stats.l1_hits,
        "llc_misses": stats.llc_misses,
        "issued_prefetches": stats.prefetch.issued,
        "useful_prefetches": stats.prefetch.useful,
        "ipc": round(stats.ipc, 9),
    }


def _load_goldens():
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _store_golden(entry_key, rows):
    data = _load_goldens()
    data[entry_key] = rows
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(dict(sorted(data.items())), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# The Python-tier cases keep their historical ids; the compiled ones add
# a "-compiled" suffix.
@pytest.mark.parametrize(
    "mix_key,prefetcher,kernel",
    [
        pytest.param(
            mix_key, prefetcher, kernel,
            id=f"{prefetcher}-{mix_key}" + ("-compiled" if kernel == "compiled" else ""),
        )
        for kernel in ("auto", "compiled")
        for prefetcher in (None, "gaze")
        for mix_key in sorted(GOLDEN_MIXES)
    ],
)
def test_multicore_golden_stats(mix_key, prefetcher, kernel):
    entry_key = f"{mix_key}/{prefetcher if prefetcher else 'none'}"
    result = _run_mix(mix_key, prefetcher=prefetcher, kernel=kernel)
    rows = {
        str(core_id): _golden_row(stats)
        for core_id, stats in sorted(result.per_core.items())
    }
    if _REFRESH and kernel == "auto":
        _store_golden(entry_key, rows)
    golden = _load_goldens()
    assert entry_key in golden, (
        f"no golden entry for {entry_key}; refresh with "
        "REFRESH_GOLDENS=1 python -m pytest tests/test_multicore.py -q"
    )
    assert rows == golden[entry_key], (
        f"multi-core simulation drift for {entry_key}; if intentional, "
        "refresh goldens and bump ENGINE_SCHEMA_VERSION"
    )


# --------------------------------------------------------------------------- #
# Re-entrancy
# --------------------------------------------------------------------------- #
def test_repeated_run_starts_cold():
    # The shared LLC and DRAM belong to one run: a second run on the same
    # simulator must not inherit the first run's warm shared state.
    mix_key = "mix2-spatial-streaming"
    budget = GOLDEN_MIXES[mix_key]["budget"]
    traces = _traces(mix_key)

    def simulator():
        return MultiCoreSimulator(
            num_cores=len(traces),
            prefetcher_factory=lambda: create_prefetcher("gaze"),
            config=default_system_config(len(traces)),
            name=mix_key,
        )

    fresh = simulator().run(traces, budget)
    reused = simulator()
    first = reused.run(traces, budget)
    second = reused.run(traces, budget)
    assert first.to_dict() == fresh.to_dict()
    assert second.to_dict() == fresh.to_dict()


# --------------------------------------------------------------------------- #
# Compiled mixes: the C round-robin loop against _CoreContext.step
# --------------------------------------------------------------------------- #
#: (generator, seed) per core; lengths differ per core (see _mix_traces).
DIFF_TRACES = (("spatial", 41), ("cloud", 42), ("streaming", 43), ("graph", 44))

#: Twin-backed designs, the bare core, and bingo, which the C driver hosts
#: through Python train/on_cache_eviction callbacks.
DIFF_PREFETCHERS = ("none", "gaze", "pmp", "vberti", "triangel", "bingo")


def _mix_traces(cores):
    """Short heterogeneous traces: core k's holds 300 + 170 * k accesses."""
    return [
        TraceSpec(
            name=f"{generator}-s{seed}", suite="diff", generator=generator,
            seed=seed, length=300 + 170 * core,
        ).build()
        for core, (generator, seed) in enumerate(DIFF_TRACES[:cores])
    ]


def _factory(name):
    return None if name == "none" else (lambda: create_prefetcher(name))


def _compare_tiers(traces, factory, budget, config=None):
    """Run one mix on both tiers; returns (python, compiled, simulator)."""
    config = config if config is not None else default_system_config(len(traces))
    python = simulate_mix(traces, factory, config, budget, name="diff",
                          kernel="python")
    simulator = MultiCoreSimulator(len(traces), factory, config, name="diff",
                                   kernel="compiled")
    compiled = simulator.run(traces, budget)
    assert compiled.to_dict() == python.to_dict()
    return python, compiled, simulator


def _conflict_trace(core, accesses, span):
    """Every access maps to LLC set 0: the cores fight over 16 shared ways."""
    base = (core + 1) * 0x4000_0000
    return [
        MemoryAccess(pc=0x100 + core, address=base + i * span,
                     instr_gap=1 + core)
        for i in range(accesses)
    ]


class _RecordingPrefetcher(Prefetcher):
    """Logs every callback and asks for two L1- and one L2-hinted blocks."""

    name = "recording"

    def __init__(self, raise_at=None):
        self.trains = []
        self.evictions = []
        self.raise_at = raise_at
        self.error = None

    def train(self, pc, address, cycle, result=None):
        if len(self.trains) == self.raise_at:
            self.error = RuntimeError(f"train call {self.raise_at}")
            raise self.error
        self.trains.append((pc, address, cycle, result.hit_level, result.latency))
        block = address >> 6
        return [
            pack_prefetch((block + 1) << 6, PrefetchHint.L1),
            pack_prefetch((block + 2) << 6, PrefetchHint.L1),
            pack_prefetch((block + 9) << 6, PrefetchHint.L2),
        ]

    def on_cache_eviction(self, block):
        self.evictions.append(block)


class TestCompiledMix:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("prefetcher", DIFF_PREFETCHERS)
    def test_matches_python_schedule(self, prefetcher, cores):
        # Budgets past one pass of the short traces: cores replay on
        # exhaust and reach their budgets at different steps, so the C
        # loop returns (and resumes) at every round-robin position.
        traces = _mix_traces(cores)
        budget = 2_600
        python, _compiled, simulator = _compare_tiers(
            traces, _factory(prefetcher), budget
        )
        assert any(
            stats.demand_accesses > len(trace)
            for stats, trace in zip(python.per_core.values(), traces)
        ), "no core replayed its trace"
        if driver_available():
            assert simulator.kernel_decline_reason is None

    @pytest.mark.parametrize("prefetcher", ["none", "gaze", "bingo"])
    def test_shared_llc_conflicts(self, prefetcher):
        # Both cores map every access to one LLC set, so shared-LLC
        # evictions interleave across cores access by access.
        config = default_system_config(2)
        span = config.llc.size_bytes // config.llc.ways
        traces = [_conflict_trace(core, 120, span) for core in range(2)]
        python, _, _ = _compare_tiers(traces, _factory(prefetcher), 1_500, config)
        assert all(stats.llc_misses > 0 for stats in python.per_core.values())

    def test_python_callbacks_identical(self):
        logs = {}
        for kernel in ("python", "compiled"):
            prefetchers = []

            def factory():
                prefetchers.append(_RecordingPrefetcher())
                return prefetchers[-1]

            result = simulate_mix(_mix_traces(2), factory,
                                  default_system_config(2), 2_000,
                                  kernel=kernel)
            logs[kernel] = (
                [(p.trains, p.evictions) for p in prefetchers], result.to_dict()
            )
        assert logs["compiled"] == logs["python"]
        assert any(evictions for _, evictions in logs["python"][0])

    def test_raising_train_propagates(self):
        logs = {}
        for kernel in ("python", "compiled"):
            prefetchers = []

            def factory():
                # Core 1's prefetcher raises on its 150th training call.
                prefetchers.append(
                    _RecordingPrefetcher(raise_at=150 if prefetchers else None)
                )
                return prefetchers[-1]

            with pytest.raises(RuntimeError) as caught:
                simulate_mix(_mix_traces(2), factory,
                             default_system_config(2), 3_000, kernel=kernel)
            assert caught.value is prefetchers[1].error
            logs[kernel] = [(p.trains, p.evictions) for p in prefetchers]
        # No callback runs after the one that raised.
        assert logs["compiled"] == logs["python"]

    def test_non_power_of_two_llc_declines_and_matches(self):
        # Three cores scale the LLC to 6 MB: 6,144 sets.
        _, _, simulator = _compare_tiers(_mix_traces(3), _factory("gaze"), 2_000)
        if driver_available():
            assert simulator.kernel_decline_reason == (
                "non-power-of-two cache set count"
            )

    def test_file_handles_decline_and_match(self, tmp_path):
        from repro.workloads import formats as trace_formats

        handles = []
        for index, trace in enumerate(_mix_traces(2)):
            path = tmp_path / f"core{index}.gzt.gz"
            trace_formats.save_trace_file(iter(trace), str(path))
            handles.append(trace_formats.TraceFile(str(path)))
        _, _, simulator = _compare_tiers(handles, _factory("pmp"), 2_000)
        if driver_available():
            assert simulator.kernel_decline_reason == (
                "file-backed trace handle in mix"
            )

    @requires_driver
    def test_compiled_mix_never_steps_in_python(self, monkeypatch):
        from repro.sim import multicore

        def forbidden(self):
            raise AssertionError("the compiled mix stepped a core in Python")

        monkeypatch.setattr(multicore._CoreContext, "step", forbidden)
        simulator = MultiCoreSimulator(2, _factory("gaze"),
                                       default_system_config(2),
                                       kernel="compiled")
        result = simulator.run(_mix_traces(2), 2_000)
        assert simulator.kernel_decline_reason is None
        assert all(stats.instructions >= 2_000
                   for stats in result.per_core.values())

    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    def test_mix_never_builds_access_objects(self, kernel, monkeypatch):
        # Both schedules read each core's decoded columns; the compiled
        # 3-core mix declines (6,144 LLC sets) and steps in Python.
        traces = [BatchedTrace.from_accesses(t) for t in _mix_traces(3)]
        reference = simulate_mix(_mix_traces(3), _factory("gaze"),
                                 default_system_config(3), 2_000)

        def forbidden(*_args):
            raise AssertionError("the mix rebuilt a MemoryAccess")

        monkeypatch.setattr(BatchedTrace, "__getitem__", forbidden)
        monkeypatch.setattr(BatchedTrace, "__iter__", forbidden)
        simulator = MultiCoreSimulator(3, _factory("gaze"),
                                       default_system_config(3),
                                       kernel=kernel)
        result = simulator.run(traces, 2_000)
        assert result.to_dict() == reference.to_dict()
        if kernel == "compiled" and driver_available():
            assert simulator.kernel_decline_reason == (
                "non-power-of-two cache set count"
            )

    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_budget_rejected(self, kernel, budget):
        with pytest.raises(ValueError, match="max_instructions_per_core"):
            simulate_mix(_mix_traces(2), _factory("gaze"),
                         default_system_config(2), budget, kernel=kernel)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            MultiCoreSimulator(2, kernel="fast")


# --------------------------------------------------------------------------- #
# Streamed TraceFile mixes
# --------------------------------------------------------------------------- #
class TestStreamedMixes:
    def test_streamed_handles_equal_materialized(self, tmp_path):
        from repro.workloads import formats as trace_formats

        materialized = _traces("mix2-spatial-streaming")
        handles = []
        for index, trace in enumerate(materialized):
            path = tmp_path / f"core{index}.gzt.gz"
            trace_formats.save_trace_file(iter(trace), str(path))
            handles.append(trace_formats.TraceFile(str(path)))
        factory = lambda: create_prefetcher("gaze")  # noqa: E731
        config = default_system_config(2)
        from_lists = simulate_mix(materialized, factory, config, 4_000, name="m")
        from_files = simulate_mix(handles, factory, config, 4_000, name="m")
        assert from_files.to_dict() == from_lists.to_dict()

    def test_small_chunks_equal_materialized(self):
        # A streamed core steps across chunk ends and re-opens its source
        # at each pass end; neither may change what it executes.
        materialized = _mix_traces(2)
        streams = [ChunkedTraceStream(trace, chunk_accesses=97)
                   for trace in materialized]
        factory = _factory("gaze")
        config = default_system_config(2)
        from_lists = simulate_mix(materialized, factory, config, 6_000, name="m")
        from_chunks = simulate_mix(streams, factory, config, 6_000, name="m")
        assert from_chunks.to_dict() == from_lists.to_dict()


# --------------------------------------------------------------------------- #
# Mix jobs: keys, executors, persistent cache
# --------------------------------------------------------------------------- #
def _mix_job(prefetcher="gaze", **overrides):
    defaults = dict(
        specs=_specs("mix2-spatial-streaming"),
        prefetcher=prefetcher,
        trace_length=GOLDEN_MIXES["mix2-spatial-streaming"]["length"],
        max_instructions_per_core=4_000,
    )
    defaults.update(overrides)
    return MixSimulationJob(**defaults)


class TestMixJobs:
    def test_key_covers_trace_tuple_and_schedule(self):
        base = _mix_job()
        assert base.key() == _mix_job().key()
        reordered = _mix_job(specs=tuple(reversed(_specs("mix2-spatial-streaming"))))
        assert base.key() != reordered.key()
        assert base.key() != _mix_job(prefetcher="pmp").key()
        assert base.key() != _mix_job(max_instructions_per_core=5_000).key()

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            MixSimulationJob(specs=())

    def test_kernel_is_left_out_of_the_key(self):
        base = _mix_job()
        compiled = _mix_job(kernel="compiled")
        assert compiled.key() == base.key()
        assert "kernel" not in compiled.to_dict()
        with pytest.raises(ValueError, match="unknown kernel mode"):
            _mix_job(kernel="fast")

    def test_runner_forwards_kernel(self):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(use_cache=False, kernel="compiled")
        job = runner.mix_job_for(_specs("mix2-spatial-streaming"), "gaze")
        assert job.kernel == "compiled"

    @pytest.mark.parametrize("prefetcher", ["none", "vberti"])
    def test_compiled_job_matches_python_job(self, prefetcher):
        python = execute_job(_mix_job(prefetcher=prefetcher, kernel="python"))
        compiled = execute_job(_mix_job(prefetcher=prefetcher, kernel="compiled"))
        assert compiled.to_dict() == python.to_dict()

    def test_execute_matches_direct_simulation(self):
        job = _mix_job()
        via_job = execute_job(job)
        direct = simulate_mix(
            [spec.build(length=job.trace_length) for spec in job.specs],
            lambda: create_prefetcher("gaze"),
            default_system_config(2),
            job.max_instructions_per_core,
            name=job.name,
        )
        assert via_job.to_dict() == direct.to_dict()

    def test_parallel_executor_bit_identical(self):
        jobs = [_mix_job(prefetcher="none"), _mix_job(), _mix_job(prefetcher="pmp")]
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(jobs=2).run(jobs)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]

    def test_multicore_stats_roundtrip(self):
        stats = execute_job(_mix_job())
        rebuilt = MultiCoreStats.from_dict(stats.to_dict())
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.per_core[0] == stats.per_core[0]

    def test_persistent_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = [_mix_job(prefetcher="none"), _mix_job()]

        cold = ExperimentEngine(cache=ResultCache(cache_dir))
        cold_results = cold.run_jobs(jobs)
        assert cold.simulations_run == 2

        warm = ExperimentEngine(cache=ResultCache(cache_dir))
        warm_results = warm.run_jobs(jobs)
        assert warm.simulations_run == 0
        assert warm.cache.hits == 2
        for cold_stats, warm_stats in zip(cold_results, warm_results):
            assert isinstance(warm_stats, MultiCoreStats)
            assert warm_stats.to_dict() == cold_stats.to_dict()

    def test_engine_memo_dedupes_identical_mixes(self):
        engine = ExperimentEngine()
        results = engine.run_jobs([_mix_job(), _mix_job()])
        assert engine.simulations_run == 1
        assert results[0] is results[1]
