"""Simulation jobs: the unit of work of the experiment engine.

A :class:`SimulationJob` is a frozen, picklable, *complete* description of
one single-core simulation: which trace to generate, which prefetcher to
attach (by registry name plus keyword parameters, never a live object) and
which :class:`~repro.sim.config.SystemConfig` to run it on.  Because every
input is captured by value, a job has a deterministic content-hash key
(:meth:`SimulationJob.key` — use it, not ``hash(job)``, for dict/set
membership) that is stable across processes — the foundation for both the parallel executor
(bit-identical results regardless of worker placement) and the persistent
result cache (warm re-runs skip simulation entirely).

:class:`MixSimulationJob` is the multi-core counterpart: one frozen
description of an ``n``-core mix (a content-hashed *tuple* of trace specs,
one per core) run on the round-robin multi-core schedule.  Mix jobs flow
through the same engine/executor/cache machinery, which is what shards
fig. 14 / Table VI mixes across worker processes and lets warm re-runs
answer them from the persistent cache.

:func:`execute_job` is the pure top-level worker for both job kinds: it
depends only on its argument, so ``ProcessPoolExecutor`` can ship it to
worker processes.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.hashing import content_hash
from repro.prefetchers.registry import create_prefetcher
from repro.sim.batch import BatchedTrace
from repro.sim.config import SystemConfig
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import BATCH_MODES, KERNEL_MODES, simulate_trace
from repro.sim.stats import MultiCoreStats, SimulationStats
from repro.workloads.trace import TraceSpec

#: Version salt mixed into every job key.  Bump this whenever the simulator,
#: a prefetcher, or a workload generator changes behaviour: old cache
#: entries become unreachable instead of silently stale.
#:
#: v2: multi-core stat gating — a core that exhausts its instruction budget
#: now snapshots its instruction/cycle totals and stops accumulating
#: statistics, so every multi-core counter changed; mix jobs were added.
ENGINE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SimulationJob:
    """One (trace spec, prefetcher, system, scale) simulation request.

    ``prefetcher`` is a registry name (``"none"`` means the no-prefetching
    baseline) and ``prefetcher_params`` an ordered tuple of ``(key, value)``
    pairs forwarded to the factory, so configured designs (e.g. Gaze with a
    512 B region for Fig. 17) are expressed by value and stay picklable.

    ``batch`` selects the simulator's inner loop (see
    :meth:`repro.sim.simulator.SingleCoreSimulator.run`): ``"auto"`` (the
    default) runs the batched loop and ``"off"`` forces the scalar loop.
    Either reads generated traces from a per-process decoded-trace memo
    and file-backed traces chunk by chunk.  Like
    :attr:`MixSimulationJob.kernel` it is an *execution* detail — results
    are bit-identical for every value — so it is deliberately excluded
    from :meth:`to_dict` and :meth:`key`.

    ``kernel`` selects the prefetcher tier the same way (see
    :data:`repro.sim.simulator.KERNEL_MODES`): ``"compiled"`` swaps
    Gaze, vBerti, PMP and Triangel for their C twins when the optional
    :mod:`repro._kernels` extension is built, falling back silently
    otherwise.  Also bit-identical by contract, also excluded from the
    key.
    """

    spec: TraceSpec
    prefetcher: str = "none"
    system: SystemConfig = field(default_factory=SystemConfig)
    trace_length: int = 12_000
    warmup_instructions: int = 0
    max_instructions: Optional[int] = None
    prefetcher_params: Tuple[Tuple[str, object], ...] = ()
    batch: str = "auto"
    kernel: str = "auto"

    #: Execution-detail fields deliberately left out of :meth:`to_dict` /
    #: :meth:`key` — results are bit-identical for every value.  Checked
    #: by ``repro lint`` rule R1: a new field must either feed the key or
    #: be listed here on purpose.
    KEY_EXCLUDED = ("batch", "kernel")

    def __post_init__(self) -> None:
        if self.batch not in BATCH_MODES:
            raise ValueError(
                f"unknown batch mode {self.batch!r}; expected one of {BATCH_MODES}"
            )
        if self.kernel not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {self.kernel!r}; "
                f"expected one of {KERNEL_MODES}"
            )

    @property
    def is_baseline(self) -> bool:
        """True when this job simulates without any prefetcher."""
        return self.prefetcher in ("none", "", None)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data representation covering every result-affecting input.

        The spec contributes its *content identity* (file sources appear as
        ``(format, digest)`` fingerprints, not paths), so job keys — and
        therefore persistent cache entries — survive trace-file moves.
        """
        return {
            "spec": self.spec.identity_dict(),
            "prefetcher": "none" if self.is_baseline else self.prefetcher.lower(),
            "prefetcher_params": {
                key: value for key, value in sorted(self.prefetcher_params)
            },
            "system": self.system.to_dict(),
            "trace_length": self.trace_length,
            "warmup_instructions": self.warmup_instructions,
            "max_instructions": self.max_instructions,
        }

    def key(self, salt: str = "") -> str:
        """Deterministic content-hash key of this job.

        The key folds in :data:`ENGINE_SCHEMA_VERSION` plus an optional
        caller salt, so cache entries are invalidated both by engine
        upgrades and by explicit experiment-level salting.
        """
        return content_hash(
            {
                "schema": ENGINE_SCHEMA_VERSION,
                "salt": salt,
                "job": self.to_dict(),
            }
        )


@dataclass(frozen=True)
class MixSimulationJob:
    """One multi-core mix simulation request (fig. 14 / fig. 15 / Table VI).

    ``specs`` holds one :class:`~repro.workloads.trace.TraceSpec` per core
    (a homogeneous mix repeats one spec), so the job key covers the
    content-hashed trace tuple.  Every field but ``kernel`` affects
    results, so every other field is part of the key.

    ``system`` is the per-core base configuration; the simulator scales the
    shared LLC/DRAM for ``len(specs)`` cores exactly as the paper's Table
    II does.

    ``kernel`` selects the tier like :attr:`SimulationJob.kernel`:
    ``"compiled"`` runs every core's prefetcher as its C twin (or hosted
    through callbacks) and the whole round-robin schedule in the C driver
    when the extension is built, falling back to the Python schedule
    otherwise.  It is bit-identical by contract.
    """

    specs: Tuple[TraceSpec, ...]
    prefetcher: str = "none"
    system: SystemConfig = field(default_factory=SystemConfig)
    trace_length: int = 8_000
    max_instructions_per_core: int = 30_000
    prefetcher_params: Tuple[Tuple[str, object], ...] = ()
    kernel: str = "auto"

    #: Execution-detail fields left out of :meth:`to_dict` / :meth:`key`
    #: (see :attr:`SimulationJob.KEY_EXCLUDED`).
    KEY_EXCLUDED = ("kernel",)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a mix needs at least one trace spec")
        if self.kernel not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {self.kernel!r}; "
                f"expected one of {KERNEL_MODES}"
            )

    @property
    def num_cores(self) -> int:
        """Number of cores in the mix (one per trace spec)."""
        return len(self.specs)

    @property
    def is_baseline(self) -> bool:
        """True when this job simulates without any prefetcher."""
        return self.prefetcher in ("none", "", None)

    @property
    def name(self) -> str:
        """Deterministic mix name derived from the job's content.

        Derived (not free-form) so that a cached result carries the same
        name a fresh simulation would produce.
        """
        prefetcher = "none" if self.is_baseline else self.prefetcher.lower()
        return f"mix{self.num_cores}[{'+'.join(s.name for s in self.specs)}]/{prefetcher}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data representation of every result-affecting input."""
        return {
            "kind": "mix",
            "specs": [spec.identity_dict() for spec in self.specs],
            "prefetcher": "none" if self.is_baseline else self.prefetcher.lower(),
            "prefetcher_params": {
                key: value for key, value in sorted(self.prefetcher_params)
            },
            "system": self.system.to_dict(),
            "trace_length": self.trace_length,
            "max_instructions_per_core": self.max_instructions_per_core,
        }

    def key(self, salt: str = "") -> str:
        """Deterministic content-hash key (schema- and salt-folded)."""
        return content_hash(
            {
                "schema": ENGINE_SCHEMA_VERSION,
                "salt": salt,
                "job": self.to_dict(),
            }
        )


#: Either job kind accepted by the engine and executors.
AnyJob = Union[SimulationJob, MixSimulationJob]

#: What one executed job yields: single-core or multi-core statistics.
JobResult = Union[SimulationStats, MultiCoreStats]


# --------------------------------------------------------------------------- #
# Worker-side trace memoization
# --------------------------------------------------------------------------- #
# Worker processes are reused across jobs, so generating each trace once per
# process (instead of once per job) removes the dominant non-simulation cost
# of a grid.  The memo holds each trace in its one form, the decoded
# columns every simulator loop reads (see :mod:`repro.sim.batch`).  It is
# keyed by trace content, bounded, and purely a memoization — it never
# changes results.
_BATCHED_CACHE: "OrderedDict[Tuple[str, int], BatchedTrace]" = OrderedDict()
_BATCHED_CACHE_LIMIT = 64


def batched_trace_cached(spec: TraceSpec, length: int) -> BatchedTrace:
    """Build (or fetch from the per-process memo) the trace for ``spec``.

    Shared by :func:`execute_job` and :meth:`ExperimentRunner.trace_for`, so
    one process holds at most one copy of each generated trace.
    """
    key = (spec.content_key(), length)
    cached = _BATCHED_CACHE.get(key)
    if cached is None:
        cached = spec.build(length=length)
        _BATCHED_CACHE[key] = cached
        while len(_BATCHED_CACHE) > _BATCHED_CACHE_LIMIT:
            _BATCHED_CACHE.popitem(last=False)
    else:
        _BATCHED_CACHE.move_to_end(key)
    return cached


def _job_trace(spec: TraceSpec, length: int):
    """One trace of a job, in the shape the simulator should consume.

    Generator specs return the per-process memoized trace, which every
    inner loop reads (``batch`` only picks the loop).  File-backed specs
    return a re-openable streaming handle, which single-core runs stream
    and mixes replay by re-opening, so either runs in O(chunk) memory
    whatever the trace length (the content digest in the job key keeps
    cache identity exact).
    """
    if spec.source is not None:
        return spec.replayable(length=length)
    return batched_trace_cached(spec, length)


def _execute_mix_job(job: MixSimulationJob) -> MultiCoreStats:
    """Run one multi-core mix job to completion and return its statistics.

    Pure with respect to ``job``: trace specs are seed-deterministic or
    digest-pinned, and the round-robin schedule is deterministic.  Both
    schedules — Python and C — read the memoized decoded traces.
    """
    traces = [_job_trace(spec, job.trace_length) for spec in job.specs]
    if job.is_baseline:
        prefetcher_factory = None
    else:
        params = dict(job.prefetcher_params)
        prefetcher_factory = lambda: create_prefetcher(job.prefetcher, **params)  # noqa: E731
    simulator = MultiCoreSimulator(
        num_cores=job.num_cores,
        prefetcher_factory=prefetcher_factory,
        config=job.system,
        name=job.name,
        kernel=job.kernel,
    )
    return simulator.run(
        traces,
        max_instructions_per_core=job.max_instructions_per_core,
    )


def execute_job(
    job: AnyJob, record_timing: bool = False
) -> Union[SimulationStats, MultiCoreStats]:
    """Run one job (single-core or mix) to completion and return its stats.

    Pure with respect to ``job``: trace generation is seed-deterministic
    (and file-backed traces are digest-pinned), so any process executing
    the same job produces identical statistics.

    With ``record_timing`` the wall-clock cost of the simulation phase is
    reported into the result's ``extra`` dict (``wall_time_s`` and
    ``accesses_per_sec``).  Timing is opt-in — the engine and executors run
    without it — because cached results must stay bit-identical to fresh
    runs, and wall time is the one quantity that never is.  The benchmark
    harness (``python -m repro bench``) is the consumer.  Mix jobs ignore
    ``record_timing`` (:class:`~repro.sim.stats.MultiCoreStats` carries no
    ``extra`` dict; the bench harness times them externally).
    """
    if isinstance(job, MixSimulationJob):
        return _execute_mix_job(job)
    trace = _job_trace(job.spec, job.trace_length)
    if job.is_baseline:
        prefetcher = None
    else:
        prefetcher = create_prefetcher(
            job.prefetcher, **dict(job.prefetcher_params)
        )
    start = time.perf_counter() if record_timing else 0.0
    stats = simulate_trace(
        trace,
        prefetcher=prefetcher,
        config=job.system,
        max_instructions=job.max_instructions,
        warmup_instructions=job.warmup_instructions,
        name=job.spec.name,
        batch=job.batch,
        kernel=job.kernel,
        record_tier=record_timing,
    )
    if record_timing:
        wall = time.perf_counter() - start
        stats.extra["wall_time_s"] = wall
        stats.extra["accesses_per_sec"] = (
            stats.demand_accesses / wall if wall > 0 else 0.0
        )
    return stats
