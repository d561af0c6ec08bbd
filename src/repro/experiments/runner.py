"""Experiment runner: the figure-facing façade over the job engine.

The paper's experiments all share a structure: simulate a set of traces with
a set of prefetchers and compare against the no-prefetching baseline of the
same trace.  :class:`ExperimentRunner` provides exactly that.  Since the
job-engine refactor it no longer simulates anything itself: every request is
expressed as a :class:`~repro.experiments.jobs.SimulationJob` and dispatched
through an :class:`~repro.experiments.engine.ExperimentEngine`, which

* deduplicates repeated work in-process (figures sharing a grid pay once),
* answers warm re-runs from the persistent on-disk cache, and
* fans cold batches out over worker processes when ``jobs > 1`` —
  with results bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.engine import ExperimentEngine, build_engine
from repro.experiments.executors import JobFailure
from repro.experiments.faults import FaultsArg
from repro.experiments.jobs import (
    MixSimulationJob,
    SimulationJob,
    batched_trace_cached,
)
from repro.sim.batch import BatchedTrace
from repro.sim.config import SystemConfig, default_system_config
from repro.sim.stats import SimulationStats
from repro.workloads.suites import trace_specs_for_suite
from repro.workloads.trace import TraceSpec


@dataclass(frozen=True)
class RunScale:
    """Controls how much work an experiment does.

    The paper simulates 200M instructions per trace on ChampSim; a Python
    simulator cannot, so experiments run scaled-down traces.  The relative
    comparisons the figures make survive the scaling because every
    prefetcher sees exactly the same trace and the same system.
    """

    trace_length: int = 12_000
    traces_per_suite: Optional[int] = 3
    warmup_fraction: float = 0.0

    def select(self, specs: Sequence[TraceSpec]) -> List[TraceSpec]:
        """Pick the subset of trace specs this scale allows."""
        if self.traces_per_suite is None:
            return list(specs)
        return list(specs)[: self.traces_per_suite]


@dataclass
class RunResult:
    """One (trace, prefetcher) simulation outcome plus its baseline.

    Under the engine's default ``strict=False``, a cell whose job (or
    whose baseline job) exhausted its retries carries the structured
    :class:`~repro.experiments.executors.JobFailure` in place of stats.
    Every derived metric then reads ``nan`` — which is exactly how the
    report tables mark the cell — while :attr:`failure` keeps the
    evidence (key, attempts, reason, traceback) for the failure report.
    """

    spec: TraceSpec
    prefetcher: str
    stats: Union[SimulationStats, JobFailure]
    baseline: Union[SimulationStats, JobFailure]

    @property
    def failure(self) -> Optional[JobFailure]:
        """The cell's failure (its own job's first, else its baseline's)."""
        if isinstance(self.stats, JobFailure):
            return self.stats
        if isinstance(self.baseline, JobFailure):
            return self.baseline
        return None

    @property
    def ok(self) -> bool:
        """True when both the cell and its baseline simulated."""
        return self.failure is None

    @property
    def speedup(self) -> float:
        """IPC speedup over the no-prefetching baseline."""
        if not self.ok:
            return float("nan")
        return self.stats.speedup(self.baseline)

    @property
    def accuracy(self) -> float:
        """Overall prefetch accuracy."""
        if isinstance(self.stats, JobFailure):
            return float("nan")
        return self.stats.prefetch.accuracy

    @property
    def coverage(self) -> float:
        """LLC miss coverage relative to the baseline run."""
        if not self.ok:
            return float("nan")
        return self.stats.coverage(self.baseline)

    @property
    def late_fraction(self) -> float:
        """Fraction of useful prefetches that were late."""
        if isinstance(self.stats, JobFailure):
            return float("nan")
        return self.stats.prefetch.late_fraction

    def row(self) -> Dict[str, object]:
        """Flat dictionary representation (for reports and tests).

        Failed cells keep the exact same columns with ``nan`` metrics, so
        partial grids render with failed cells marked instead of raising
        or reshaping the table.
        """
        nan = float("nan")
        stats_ok = not isinstance(self.stats, JobFailure)
        baseline_ok = not isinstance(self.baseline, JobFailure)
        return {
            "trace": self.spec.name,
            "suite": self.spec.suite,
            "prefetcher": self.prefetcher,
            "speedup": self.speedup,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "late_fraction": self.late_fraction,
            "ipc": self.stats.ipc if stats_ok else nan,
            "baseline_ipc": self.baseline.ipc if baseline_ok else nan,
            "llc_mpki": self.stats.llc_mpki if stats_ok else nan,
        }


PrefetcherParams = Union[Mapping[str, object], Sequence[Tuple[str, object]]]


def _normalize_params(
    params: Optional[PrefetcherParams],
) -> Tuple[Tuple[str, object], ...]:
    if not params:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = params
    return tuple(sorted((str(key), value) for key, value in items))


class ExperimentRunner:
    """Runs (trace x prefetcher) grids through the job engine."""

    def __init__(
        self,
        scale: Optional[RunScale] = None,
        system: Optional[SystemConfig] = None,
        *,
        engine: Optional[ExperimentEngine] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: Optional[bool] = None,
        batch: str = "auto",
        kernel: str = "auto",
        retries: Optional[int] = None,
        job_timeout: Optional[float] = None,
        faults: FaultsArg = None,
        strict: bool = False,
    ) -> None:
        """Create a runner.

        Args:
            scale: trace length / suite-subset policy (default laptop scale).
            system: the simulated system (default 1-core Table II config).
            engine: share an existing engine (its executor, cache and memo);
                when given, ``jobs``/``cache_dir``/``use_cache`` and the
                fault-tolerance knobs below are ignored.
            jobs: worker-process count; ``None`` or ``1`` runs serially.
            cache_dir: persistent cache location (default ``.repro-cache``
                or ``$REPRO_CACHE_DIR``).
            use_cache: force the persistent cache on/off; defaults to on
                unless ``REPRO_CACHE=0``.
            retries: total attempts per job before it becomes a
                :class:`~repro.experiments.executors.JobFailure`
                (``None`` = :class:`RetryPolicy` default).
            job_timeout: per-job wall-clock bound in the pool path; a hung
                worker is reclaimed and the job retried.
            faults: chaos plan/spec forwarded to the engine (``None``
                defers to ``REPRO_FAULT_PLAN``).
            strict: re-raise on exhausted retries instead of returning
                failure-marked cells.
            batch: simulation-kernel selection forwarded to every
                single-core job (``"auto"``/``"off"``, see
                :class:`~repro.experiments.jobs.SimulationJob`); results
                are bit-identical for every value.
            kernel: prefetcher-state tier forwarded to every job,
                single-core and mix (``"auto"``/``"python"``/``"compiled"``,
                see :class:`~repro.experiments.jobs.SimulationJob`); like
                ``batch``, results are bit-identical for every value and
                ``"compiled"`` silently falls back when the extension is
                not built.
        """
        self.scale = scale if scale is not None else RunScale()
        self.system = system if system is not None else default_system_config(1)
        self.batch = batch
        self.kernel = kernel
        if engine is None:
            engine = build_engine(
                jobs=jobs,
                cache_dir=cache_dir,
                use_cache=use_cache,
                retries=retries,
                job_timeout=job_timeout,
                faults=faults,
                strict=strict,
            )
        self.engine = engine

    # ------------------------------------------------------------------ #
    # Job construction
    # ------------------------------------------------------------------ #
    def job_for(
        self,
        spec: TraceSpec,
        prefetcher_name: str = "none",
        system: Optional[SystemConfig] = None,
        prefetcher_params: Optional[PrefetcherParams] = None,
    ) -> SimulationJob:
        """Build the :class:`SimulationJob` for one grid cell at this scale."""
        return SimulationJob(
            spec=spec,
            prefetcher=prefetcher_name if prefetcher_name else "none",
            system=system if system is not None else self.system,
            trace_length=self.scale.trace_length,
            prefetcher_params=_normalize_params(prefetcher_params),
            batch=self.batch,
            kernel=self.kernel,
        )

    def mix_job_for(
        self,
        specs: Sequence[TraceSpec],
        prefetcher_name: str = "none",
        trace_length: int = 8_000,
        max_instructions_per_core: int = 30_000,
        prefetcher_params: Optional[PrefetcherParams] = None,
    ) -> MixSimulationJob:
        """Build the :class:`MixSimulationJob` for one multi-core mix.

        ``specs`` holds one trace spec per core; the runner's base system
        configuration is scaled for the core count inside the simulator.
        Unlike single-core jobs, mixes keep their own ``trace_length`` /
        ``max_instructions_per_core`` knobs (the paper's multi-core runs
        are scaled independently of the single-core grids); the runner's
        ``kernel`` tier is forwarded like :meth:`job_for`'s.
        """
        return MixSimulationJob(
            specs=tuple(specs),
            prefetcher=prefetcher_name if prefetcher_name else "none",
            system=self.system,
            trace_length=trace_length,
            max_instructions_per_core=max_instructions_per_core,
            prefetcher_params=_normalize_params(prefetcher_params),
            kernel=self.kernel,
        )

    # ------------------------------------------------------------------ #
    # Trace and baseline management
    # ------------------------------------------------------------------ #
    def trace_for(self, spec: TraceSpec) -> BatchedTrace:
        """Build (or fetch from the process-wide cache) the trace for ``spec``.

        Delegates to the same per-process memo the job worker uses, so a
        caller inspecting a trace shares the object the simulations saw.
        """
        return batched_trace_cached(spec, self.scale.trace_length)

    def _system_key(self, system: SystemConfig) -> str:
        """Full deterministic content key of ``system``.

        Replaces the old truncated, process-randomized ``hash()`` over six
        fields: every configuration field now participates, so systems that
        differ only in MSHRs, latencies or prefetch-queue sizes no longer
        share a cached baseline, and keys are stable across processes.
        """
        return system.content_key()

    def baseline_for(
        self, spec: TraceSpec, system: Optional[SystemConfig] = None
    ) -> SimulationStats:
        """No-prefetching run of ``spec`` (cached per system configuration).

        Memoization lives in the engine: the job's content key covers the
        spec, the scale and every field of ``system`` (via
        :meth:`_system_key` semantics), so repeated calls return the same
        stats object without re-simulating.
        """
        return self.engine.run_job(self.job_for(spec, "none", system))

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run_one(
        self,
        spec: TraceSpec,
        prefetcher_name: str,
        system: Optional[SystemConfig] = None,
        prefetcher_params: Optional[PrefetcherParams] = None,
    ) -> RunResult:
        """Simulate one trace with one prefetcher."""
        system = system if system is not None else self.system
        baseline = self.baseline_for(spec, system)
        if prefetcher_name in ("none", None):
            stats = baseline
        else:
            stats = self.engine.run_job(
                self.job_for(spec, prefetcher_name, system, prefetcher_params)
            )
        return RunResult(
            spec=spec, prefetcher=prefetcher_name, stats=stats, baseline=baseline
        )

    def run_grid(
        self,
        specs: Iterable[TraceSpec],
        prefetchers: Sequence[str],
        system: Optional[SystemConfig] = None,
    ) -> List[RunResult]:
        """Simulate every (trace, prefetcher) combination.

        The whole grid — baselines included — is submitted to the engine as
        one batch, so a parallel executor can overlap every cell.
        """
        system = system if system is not None else self.system
        specs = list(specs)

        jobs: List[SimulationJob] = []
        for spec in specs:
            jobs.append(self.job_for(spec, "none", system))
            for prefetcher_name in prefetchers:
                if prefetcher_name not in ("none", None):
                    jobs.append(self.job_for(spec, prefetcher_name, system))
        stats_list = self.engine.run_jobs(jobs)

        results: List[RunResult] = []
        cursor = 0
        for spec in specs:
            baseline = stats_list[cursor]
            cursor += 1
            for prefetcher_name in prefetchers:
                if prefetcher_name in ("none", None):
                    stats = baseline
                else:
                    stats = stats_list[cursor]
                    cursor += 1
                results.append(
                    RunResult(
                        spec=spec,
                        prefetcher=prefetcher_name,
                        stats=stats,
                        baseline=baseline,
                    )
                )
        return results

    def run_suites(
        self,
        suites: Sequence[str],
        prefetchers: Sequence[str],
        system: Optional[SystemConfig] = None,
    ) -> List[RunResult]:
        """Simulate a grid over whole benchmark suites (scaled selection)."""
        specs: List[TraceSpec] = []
        for suite in suites:
            specs.extend(self.scale.select(trace_specs_for_suite(suite)))
        return self.run_grid(specs, prefetchers, system)
