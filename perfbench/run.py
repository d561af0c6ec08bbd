"""Cold figure-run benchmark of the reproduction's three execution tiers.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig6-compiled --seed 0 --seconds 18 --trace 0

Each invocation rebuilds ``repro._kernels`` from ``src/repro/_kernels.c``
(outside every timed region), then starts one fresh, serial, cache-less
figure process after another (``figure_process.py``) while less than
``--seconds`` have been measured.  It prints a report and, as its last line, one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  ``--seed`` shifts every trace-spec
seed of the workload; seed 0 is the paper figure's own grid, whose
per-job statistics digests are pinned in ``pinned_digests.json``.
``--write-pins`` re-pins them from one seed-0 run.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from figure_process import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pinned_digests.json"

#: Setup-only processes started per invocation besides the full runs, so
#: ``setup_s`` is a median of several spawns even when one figure run
#: fills ``--seconds``.
SETUP_PROBES = 9

#: Every figure process is stopped this long after the invocation started,
#: so the invocation ends within 180 s even when a run hangs.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "sim.driver.attach_s": "s",
    "sim.driver.run_s": "s",
    "sim.driver.detach_s": "s",
    "sim.driver.jobs": "count",
    "sim.driver.declines": "count",
    "sim.python_s": "s",
    "sim.python_jobs": "count",
    "sim.multicore_s": "s",
    "sim.multicore_calls": "count",
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "sim.decode_s": "s",
    "prefetchers.create_s": "s",
    "prefetchers.issued": "count",
    "prefetchers.accuracy": "ratio",
    "experiments.job_n": "count",
    "experiments.job_p50_ms": "ms",
    "experiments.job_tail_ms": "ms",
    "experiments.job_tail_pct": "percentile",
    "experiments.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def build_extension() -> Path:
    """Compile ``repro._kernels`` from the checkout's source into ``BUILD``.

    The build directory is emptied first and ``--force`` recompiles, so a
    module left by an earlier build can never be measured in its place.
    """
    shutil.rmtree(BUILD, ignore_errors=True)
    (BUILD / "tmp").mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--force",
         "--build-lib", str(BUILD / "lib"), "--build-temp", str(BUILD / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "TMPDIR": str(BUILD / "tmp")},
    )
    built = sorted((BUILD / "lib" / "repro").glob("_kernels*"))
    if done.returncode or not built:
        # The extension is optional in setup.py, so a failed compile can
        # still exit 0; the missing module is the reliable signal.
        sys.stderr.write(done.stderr)
        raise SystemExit("error: setup.py build_ext produced no repro._kernels module")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return built[0]


def extension_for(workload: str, library: Path) -> str:
    """The ``--extension`` argument of ``workload``'s figure processes."""
    return str(library) if WORKLOADS[workload][1] == "compiled" else "none"


def spawn(workload: str, seed: int, traced: bool, extension: str,
          deadline: float, setup_only: bool = False) -> dict:
    """Run one fresh figure process and return its report, spawn time added."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    command = [sys.executable, str(HERE / "figure_process.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--extension", extension]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, env=env, check=True, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - spawned_at))
    report = json.loads(done.stdout.splitlines()[-1])
    report["spawned_at"] = spawned_at
    return report


def failed_jobs(report: dict, reference: list, min_engaged: int) -> int:
    """Jobs of one figure run that failed, mismatched or ran the wrong tier.

    A ``JobFailure`` slot, a ``nan`` figure cell and a statistics digest
    that differs from ``reference`` each count as one failure.  A process
    that did not run its workload's tier fails every job.
    """
    jobs = report["jobs"]
    if report["tier_errors"] or report["engaged"] < min_engaged:
        return len(jobs)
    failed = report["nan_cells"] + abs(len(jobs) - len(reference))
    for job, expected in zip(jobs, reference):
        if job[1] is None or job != expected:
            failed += 1
    return min(failed, len(jobs))


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One invocation: build, setup probes, figure runs, checks, report."""
    min_engaged = WORKLOADS[workload][2]
    started = time.monotonic()
    extension = extension_for(workload, build_extension())
    build_s = time.monotonic() - started

    deadline = started + DEADLINE_S
    setup = [spawn(workload, seed, False, extension, deadline, setup_only=True)
             for _ in range(SETUP_PROBES)]
    # Figure runs start until --seconds have been measured; a traced
    # invocation alternates untraced and traced runs and has one of each.
    plain, layered = [], []
    measure_until = time.monotonic() + seconds
    while True:
        with_trace = traced and len(layered) < len(plain)
        report = spawn(workload, seed, with_trace, extension, deadline)
        (layered if with_trace else plain).append(report)
        if time.monotonic() >= measure_until and (layered or not traced):
            break

    pinned = json.loads(PINS.read_text()).get(workload) if seed == 0 else None
    reference = pinned if pinned is not None else plain[0]["jobs"]
    runs = plain + layered
    failed = sum(failed_jobs(r, reference, min_engaged) for r in runs)
    attempted = sum(len(r["jobs"]) for r in runs)

    walls = [r["rows_at"] - r["dispatched_at"] for r in plain]
    end_to_end = {
        "setup_s": statistics.median(
            r["dispatched_at"] - r["spawned_at"] for r in setup + runs),
        "wall_s": statistics.median(walls),
        "sim_kips": statistics.median(
            r["instructions"] / 1000.0 / wall for r, wall in zip(plain, walls)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    print(f"# {workload} seed={seed}: build_s={build_s:.2f} (extension and "
          f"byte-code build, untimed); {len(plain)} untraced and {len(layered)} "
          f"traced figure runs, {SETUP_PROBES} setup probes")
    for name, value in end_to_end.items():
        print(f"{name:<24} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"{'fail_rate':<24} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} jobs)")
    print("# C driver jobs engaged/declined per figure run: "
          + ", ".join(f"{r['engaged']}/{r['declined']}" for r in runs))
    for r in runs:
        for error in r["tier_errors"]:
            print(f"# tier guard: {error}")

    if traced:
        per_layer = {name: statistics.median(r["layers"][name] for r in layered)
                     for name in layered[0]["layers"]}
        issued = layered[0]["prefetch_issued"]
        per_layer["prefetchers.issued"] = issued
        per_layer["prefetchers.accuracy"] = (
            layered[0]["prefetch_useful"] / issued if issued else 0.0)
        traced_wall = statistics.median(
            r["rows_at"] - r["dispatched_at"] for r in layered)
        per_layer["trace.overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1.0
        for name, value in per_layer.items():
            print(f"{name:<24} {value:12.4f} {LAYER_UNITS[name]}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_pins(workload: str) -> None:
    """Re-pin ``workload``'s seed-0 digests from one untraced figure run."""
    report = spawn(workload, 0, False, extension_for(workload, build_extension()),
                   time.monotonic() + DEADLINE_S)
    if failed_jobs(report, report["jobs"], WORKLOADS[workload][2]):
        raise SystemExit("error: not pinning a failed run or one of the wrong tier: "
                         f"{report['tier_errors']}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[workload] = report["jobs"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"error: {ROOT} is not a source checkout of the repro package")
    if args.write_pins:
        write_pins(args.workload)
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
