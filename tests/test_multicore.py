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
from repro.sim import default_system_config, simulate_mix
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.stats import MultiCoreStats
from repro.sim.types import MemoryAccess
from repro.workloads.trace import TraceSpec

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


def _run_mix(mix_key, prefetcher="gaze"):
    definition = GOLDEN_MIXES[mix_key]
    traces = _traces(mix_key)
    factory = (lambda: create_prefetcher(prefetcher)) if prefetcher else None
    return simulate_mix(
        traces,
        factory,
        default_system_config(len(traces)),
        definition["budget"],
        name=mix_key,
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


@pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
@pytest.mark.parametrize("prefetcher", [None, "gaze"])
def test_multicore_golden_stats(mix_key, prefetcher):
    entry_key = f"{mix_key}/{prefetcher if prefetcher else 'none'}"
    result = _run_mix(mix_key, prefetcher=prefetcher)
    rows = {
        str(core_id): _golden_row(stats)
        for core_id, stats in sorted(result.per_core.items())
    }
    if _REFRESH:
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
