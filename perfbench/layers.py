"""Wrappers around each layer's public functions, installed from outside.

Every run wraps two calls, each once per job: ``execute_job`` (whose first
span marks the first dispatch) and ``CompiledDriver.try_attach`` (whose
outcome is the tier guard).  A traced run also wraps every other layer
boundary named in :data:`TRACED`.  No program source is edited; the
wrappers replace module and class attributes in this process only.
"""

from __future__ import annotations

import importlib
from typing import Dict

from tracing import (
    Tracer,
    durations,
    percentile,
    roots_with,
    self_time_by_name,
    tail_percentile,
)

#: Traced-only boundaries: (span name, module, owner, attribute).  An
#: owner of ``None`` means a module-level function.
TRACED = (
    ("workloads.build", "repro.workloads.trace", "TraceSpec", "build"),
    ("sim.decode", "repro.sim.batch", "BatchedTrace", "from_accesses"),
    ("prefetchers.create", "repro.experiments.jobs", None, "create_prefetcher"),
    ("sim.python", "repro.experiments.jobs", None, "simulate_trace"),
    ("sim.driver.run", "repro.sim.driver", "CompiledDriver", "run_batch"),
    ("sim.driver.detach", "repro.sim.driver", "CompiledDriver", "detach"),
    ("sim.multicore", "repro.sim.multicore", "MultiCoreSimulator", "run"),
)


def _attach_outcome(result) -> str:
    driver, _reason = result
    return "engaged" if driver is not None else "declined"


def _replace(tracer: Tracer, name: str, module, owner, attribute, classify=None):
    """Swap one attribute for its traced wrapper, keeping its binding kind."""
    target = getattr(module, owner) if owner else module
    raw = vars(target)[attribute]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(tracer.wrap(name, raw.__func__, classify))
    else:
        wrapped = tracer.wrap(name, raw, classify)
    setattr(target, attribute, wrapped)


def install(traced: bool) -> Tracer:
    """Install the wrappers and return the tracer that records their spans."""
    from repro.experiments import executors
    from repro.sim import driver

    tracer = Tracer()
    _replace(tracer, "execute_job", executors, None, "execute_job")
    _replace(tracer, "sim.driver.attach", driver, "CompiledDriver", "try_attach",
             _attach_outcome)
    if traced:
        for name, module, owner, attribute in TRACED:
            _replace(tracer, name, importlib.import_module(module), owner, attribute)
    return tracer


def first_dispatch(tracer: Tracer) -> float:
    """When the first job was handed to ``execute_job``."""
    return min(span.start for span in tracer.spans if span.name == "execute_job")


def job_counts(tracer: Tracer) -> Dict[str, int]:
    """Jobs the C driver ran, and jobs on which it was asked but declined."""
    spans = tracer.spans
    engaged = roots_with(spans, "sim.driver.attach", "engaged")
    declined = roots_with(spans, "sim.driver.attach", "declined") - engaged
    return {"engaged": len(engaged), "declined": len(declined)}


def layer_metrics(tracer: Tracer, rows_at: float) -> Dict[str, float]:
    """Per-layer metrics of one traced figure run that ended at ``rows_at``."""
    spans = tracer.spans
    own = self_time_by_name(spans)
    engaged = roots_with(spans, "sim.driver.attach", "engaged")
    jobs_s = durations(spans, "execute_job")
    jobs_ms = [seconds * 1000.0 for seconds in jobs_s]
    tail = tail_percentile(len(jobs_ms))
    counts = job_counts(tracer)
    return {
        "sim.driver.attach_s": own.get("sim.driver.attach", 0.0),
        "sim.driver.run_s": own.get("sim.driver.run", 0.0),
        "sim.driver.detach_s": own.get("sim.driver.detach", 0.0),
        "sim.driver.jobs": counts["engaged"],
        "sim.driver.declines": counts["declined"],
        "sim.python_s": own.get("sim.python", 0.0),
        "sim.python_jobs": len(roots_with(spans, "sim.python") - engaged),
        "sim.multicore_s": own.get("sim.multicore", 0.0),
        "sim.multicore_calls": len(durations(spans, "sim.multicore")),
        "workloads.build_s": own.get("workloads.build", 0.0),
        "workloads.build_calls": len(durations(spans, "workloads.build")),
        "sim.decode_s": own.get("sim.decode", 0.0),
        "prefetchers.create_s": own.get("prefetchers.create", 0.0),
        "experiments.job_n": len(jobs_ms),
        "experiments.job_p50_ms": percentile(jobs_ms, 50),
        "experiments.job_tail_ms": percentile(jobs_ms, tail),
        "experiments.job_tail_pct": tail,
        "experiments.overhead_s": (rows_at - first_dispatch(tracer)) - sum(jobs_s),
    }
