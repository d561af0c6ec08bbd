"""One cold figure run in a fresh process: the unit the benchmark times.

``run.py`` starts this script once per repetition, serially, and reads the
one JSON line it prints.  The process loads the freshly built C extension
from ``--extension`` (or blocks it with ``--extension none``), installs the
wrappers from :mod:`layers`, runs the figure through a serial, cache-less
:class:`~repro.experiments.runner.ExperimentRunner` and reports its times,
counts and per-job statistics digests.

Times use ``time.monotonic``, the clock ``run.py`` stamped the spawn with,
so ``setup_s`` spans the two processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (figure function in repro.experiments.figures, kernel tier,
#: fewest jobs the C driver must run for the process to count as that
#: tier).  ``"compiled"`` workloads load the fresh extension; the
#: ``"python"`` one runs where it cannot load.
WORKLOADS = {
    "fig6-compiled": ("fig6_single_core_speedup", "compiled", 1),
    "fig11-python": ("fig11_comparative", "python", 0),
    "fig15-mix": ("fig15_four_core_mixes", "compiled", 0),
}


def load_extension(path: str) -> object:
    """Import ``repro._kernels`` from ``path``, or block it for ``"none"``.

    Seeding ``sys.modules`` before ``repro`` is imported makes every
    ``from repro import _kernels`` in the program resolve to this build,
    whatever stale artifact sits in the source tree; ``None`` there makes
    the import raise ``ImportError``, as on a machine without a compiler.
    """
    if path == "none":
        sys.modules["repro._kernels"] = None
        return None
    spec = importlib.util.spec_from_file_location("repro._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._kernels"] = module
    return module


def tier_errors(kernel: str, extension_path: str) -> list:
    """Reasons this process does not run the tier its workload names."""
    if kernel == "compiled":
        from repro.sim.driver import driver_available

        loaded = sys.modules.get("repro._kernels")
        if loaded is None or not driver_available():
            return ["repro._kernels did not load"]
        if Path(loaded.__file__).resolve() != Path(extension_path).resolve():
            return [f"repro._kernels loaded from {loaded.__file__}, "
                    f"not the fresh build {extension_path}"]
        return []
    try:
        importlib.import_module("repro._kernels")
    except ImportError:
        return []
    return ["repro._kernels is importable in the Python-tier process"]


def stats_digest(stats) -> str:
    """SHA-256 prefix of every simulated statistic of one job's result.

    ``extra`` is left out: it carries execution telemetry (tier, wall
    time), not simulated state.
    """
    data = stats.to_dict()
    data.pop("extra", None)
    for core in data.get("per_core", {}).values():
        core.pop("extra", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def nan_cells(value) -> int:
    """Number of ``nan`` floats anywhere in a figure's rows."""
    if isinstance(value, float):
        return int(math.isnan(value))
    if isinstance(value, dict):
        return sum(nan_cells(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(nan_cells(item) for item in value)
    return 0


def per_core(stats) -> list:
    """The single-core statistics inside one job's result."""
    return list(stats.per_core.values()) if hasattr(stats, "per_core") else [stats]


def seeded_runner(shift: int, **kwargs):
    """An ``ExperimentRunner`` whose jobs add ``shift`` to every trace seed.

    Only the public job constructors are overridden, so the figure
    functions build exactly their own grid; ``shift=0`` is that grid.
    """
    from repro.experiments.runner import ExperimentRunner

    class SeededRunner(ExperimentRunner):
        def _shifted(self, spec):
            return dataclasses.replace(spec, seed=spec.seed + shift)

        def job_for(self, spec, *args, **kwargs):
            return super().job_for(self._shifted(spec), *args, **kwargs)

        def mix_job_for(self, specs, *args, **kwargs):
            shifted = [self._shifted(spec) for spec in specs]
            return super().mix_job_for(shifted, *args, **kwargs)

    return SeededRunner(**kwargs)


def record_batches(engine) -> list:
    """Make ``engine`` remember each ``run_jobs`` batch as ``(jobs, results)``."""
    batches = []
    run_jobs = engine.run_jobs

    def recording_run_jobs(jobs, *args, **kwargs):
        results = run_jobs(jobs, *args, **kwargs)
        batches.append((list(jobs), results))
        return results

    engine.run_jobs = recording_run_jobs
    return batches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--extension", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit at the first dispatch; only setup_s is measured")
    args = parser.parse_args()
    figure_name, kernel, _min_engaged = WORKLOADS[args.workload]

    load_extension(args.extension)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from repro.experiments import executors, figures
    from repro.experiments.executors import JobFailure, job_name

    errors = tier_errors(kernel, args.extension)

    tracer = layers.install(traced=bool(args.trace))
    if args.setup_only:
        def stop_at_dispatch(*_args, **_kwargs):
            print(json.dumps({"dispatched_at": time.monotonic()}), flush=True)
            os._exit(0)

        executors.execute_job = stop_at_dispatch
    runner = seeded_runner(
        args.seed, jobs=1, use_cache=False, kernel=kernel, faults="off", strict=False
    )
    batches = record_batches(runner.engine)
    rows = getattr(figures, figure_name)(runner)
    rows_at = time.monotonic()

    jobs = []
    instructions = issued = useful = 0
    for batch_jobs, results in batches:
        for job, stats in zip(batch_jobs, results):
            if isinstance(stats, JobFailure):
                jobs.append([job_name(job), None])
                continue
            jobs.append([job_name(job), stats_digest(stats)])
            for core in per_core(stats):
                instructions += core.instructions
                issued += core.prefetch.issued
                useful += core.prefetch.useful
    report = {
        "dispatched_at": layers.first_dispatch(tracer),
        "rows_at": rows_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instructions": instructions,
        "nan_cells": nan_cells(rows),
        "jobs": jobs,
        **layers.job_counts(tracer),
        "tier_errors": errors,
        "prefetch_issued": issued,
        "prefetch_useful": useful,
        "layers": layers.layer_metrics(tracer, rows_at) if args.trace else {},
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
