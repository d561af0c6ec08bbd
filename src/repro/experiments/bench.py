"""Simulation-throughput benchmark suite and the on-disk BENCH trajectory.

``python -m repro bench`` runs a fixed set of cases through
:func:`repro.experiments.jobs.execute_job` and records the
simulated-accesses-per-second of each.  Results are written to
``BENCH_<n>.json`` files that are committed to the repository, so the
performance of the simulation kernel becomes a first-class, regression-
guarded artifact: every perf-focused PR appends a new snapshot and CI
compares fresh numbers against the last committed baseline.

Three case kinds cover the perf-relevant execution paths:

* ``kernel`` — the original (generator, seed) x prefetcher grid over the
  single-core fast path (in-job timing, trace generation excluded via the
  per-process memo);
* ``mix`` — a fixed four-core heterogeneous mix through the multi-core
  driver's round-robin schedule (timed externally; the rate counts
  *measured* demand accesses across all cores, which undercounts
  post-budget pressure replay — a consistent definition across snapshots);
* ``stream`` — a trace-file case that decodes a compressed on-disk trace on
  every pass, measuring the streaming-ingestion path end to end.

Design notes:

* The suite is *fixed* (same traces, seeds, lengths and prefetchers across
  snapshots) so accesses/sec is comparable between files; ``--quick`` runs a
  subset of the same cases — identical keys — rather than shorter traces.
* Each case takes the best of ``repeats`` runs: throughput snapshots should
  measure the kernel, not scheduler noise.
* Comparisons are per-case with a generous threshold (machines differ; the
  guard is for order-of-magnitude regressions, not single-digit drift).
  Cases present in only one snapshot are *reported* but not compared, so a
  renamed case surfaces in the ``--check`` output instead of silently
  dropping out of regression coverage.
"""

from __future__ import annotations

import json
import math
import platform
import re
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.jobs import (
    ENGINE_SCHEMA_VERSION,
    MixSimulationJob,
    SimulationJob,
    execute_job,
)
from repro.prefetchers.compiled import compiled_available
from repro.sim.simulator import KERNEL_MODES
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

#: Schema version of the BENCH_*.json files themselves.
#: v2: mix (multi-core) and stream (trace-file) case kinds were added;
#: kernel case keys are unchanged and stay comparable with v1 snapshots.
#: v3: per-kind geomeans (``geomean_by_kind``) and scalar-kernel reference
#: cases (``…@scalar``, ``batch="off"``) were added; all previous case keys
#: are unchanged — the default kernel cases now measure the batched kernel,
#: which produces bit-identical statistics.
#: v4: the prefetcher-state tier is recorded (top-level ``kernel`` +
#: ``compiled_kernel_available``, per-case ``kernel``).  Purely additive:
#: case keys are tier-independent, so v4 snapshots compare case-by-case
#: against v3 and earlier baselines.
#: v5: the tier that *actually executed* is recorded per case (``tier``:
#: ``compiled-driver``/``compiled``/``python``, from the simulator's
#: engagement record, so a silently-fallen-back "compiled" run is visible
#: in the snapshot), and default-tier runs embed a ``compiled_tier``
#: section — the compiled-driver-eligible kernel cases re-run under
#: ``kernel="compiled"`` with per-case and geomean ratios against the
#: default tier.  Purely additive: the main case table and its keys are
#: unchanged, so v5 snapshots compare case-by-case against v1–v4.
BENCH_SCHEMA = 5

#: File-name pattern of committed benchmark snapshots.
BENCH_FILE_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: Accesses per benchmark trace.  Long enough that per-run constant costs
#: (trace generation is excluded; simulator construction is not) disappear
#: into the noise, short enough that the full suite finishes in well under a
#: minute.
BENCH_TRACE_LENGTH = 40_000

#: The fixed kernel grid: (generator, seed) x prefetcher.  ``"none"`` is
#: the raw kernel (no prefetcher attached); the three designs cover the
#: paper's main families (Gaze two-access, PMP offset-context, vBerti
#: per-PC deltas) and exercise different prefetch volumes.
BENCH_TRACES: Tuple[Tuple[str, int], ...] = (
    ("spatial", 11),
    ("streaming", 12),
    ("cloud", 13),
)
BENCH_PREFETCHERS: Tuple[str, ...] = ("none", "gaze", "pmp", "vberti")

#: The temporal-reuse kernel lane: a recurring pointer-chase trace (mostly
#: L1 hits after warmup plus a recurring miss sequence) measured raw
#: and under both temporal designs and one spatial design.  Added with the
#: temporal tier; keys are new, so snapshots stay comparable case-by-case
#: with pre-temporal baselines over the shared keys.
TEMPORAL_BENCH_TRACE: Tuple[str, int] = ("temporal-pointer", 14)
TEMPORAL_BENCH_PREFETCHERS: Tuple[str, ...] = ("none", "triangel", "ghb", "gaze")

#: The fixed four-core heterogeneous mix behind every ``mix`` case: one
#: (generator, seed) per core.  Each core's trace holds ``trace_length/4``
#: accesses and its instruction budget is ``trace_length`` instructions.
MIX_BENCH_SPECS: Tuple[Tuple[str, int], ...] = (
    ("spatial", 21),
    ("streaming", 22),
    ("cloud", 23),
    ("graph", 24),
)

#: The (generator, seed) of the ``stream`` trace-file case (written as a
#: gzip-compressed native trace into a temporary directory per run).
STREAM_BENCH_TRACE: Tuple[str, int] = ("streaming", 12)


@dataclass(frozen=True)
class BenchCase:
    """One fixed benchmark case.

    ``kind`` selects the execution path: ``"kernel"`` (single-core fast
    path over a generated trace), ``"mix"`` (the fixed four-core mix) or
    ``"stream"`` (single-core over a compressed on-disk trace file,
    decoded on every pass).  ``generator`` and ``seed`` are unused for
    ``mix`` cases (the mix composition is the fixed
    :data:`MIX_BENCH_SPECS`).

    ``batch`` is the kernel knob of single-core cases: the default
    ``"auto"`` measures the batched kernel (the engine default; key
    unchanged from earlier snapshots), ``"off"`` pins the scalar kernel
    under a distinct ``…@scalar`` key so the batched-vs-scalar delta is
    recorded in every snapshot and the scalar path keeps regression
    coverage.

    ``kernel`` is the tier (``"auto"``/``"python"``/``"compiled"``) of
    every case, the mix case included.  It is deliberately *not* part
    of the case key: a snapshot taken under ``--kernel compiled``
    carries the same keys as a pure-Python one, so ``compare_bench``
    lines the tiers up case-by-case and the compiled lane's ratios read
    directly as its speedup.  The tier is recorded in the case payload
    and at snapshot top level instead.
    """

    kind: str
    generator: str
    seed: int
    prefetcher: str
    batch: str = "auto"
    kernel: str = "auto"

    def key(self, trace_length: int) -> str:
        """The stable case key recorded in BENCH files."""
        if self.kind == "kernel":
            key = _case_key(self.generator, self.seed, self.prefetcher, trace_length)
            if self.batch == "off":
                key += "@scalar"
            return key
        if self.kind == "mix":
            # "-exact" names the schedule of earlier snapshots, which also
            # recorded an epoch-sharded mix; keeping it keeps the key
            # comparable with them.
            cores = len(MIX_BENCH_SPECS)
            return f"mix{cores}-hetero-L{trace_length}-exact/{self.prefetcher}"
        return (
            f"stream-gzt-{self.generator}-s{self.seed}-L{trace_length}"
            f"/{self.prefetcher}"
        )


def _kernel_case(generator: str, seed: int, prefetcher: str) -> BenchCase:
    return BenchCase("kernel", generator, seed, prefetcher)


#: ``--quick`` subset: one kernel case per prefetcher spanning all three
#: trace kinds, one scalar-kernel reference case (so the quick lane covers
#: the batched-vs-scalar pair), plus one multi-core and one streamed-trace
#: case.  Keys are identical to the full suite, so quick runs are directly
#: comparable against full-suite baselines.
QUICK_CASES: Tuple[BenchCase, ...] = (
    _kernel_case("spatial", 11, "none"),
    _kernel_case("spatial", 11, "gaze"),
    _kernel_case("streaming", 12, "pmp"),
    _kernel_case("cloud", 13, "vberti"),
    _kernel_case(*TEMPORAL_BENCH_TRACE, "none"),
    _kernel_case(*TEMPORAL_BENCH_TRACE, "triangel"),
    BenchCase("kernel", "spatial", 11, "none", batch="off"),
    BenchCase("mix", "hetero", 0, "gaze"),
    BenchCase("stream", *STREAM_BENCH_TRACE, "gaze"),
)


def _case_key(generator: str, seed: int, prefetcher: str, length: int) -> str:
    return f"{generator}-s{seed}-L{length}/{prefetcher}"


#: Valid values of the ``kinds`` filter (``repro bench --kind …``).
BENCH_KINDS = ("kernel", "mix", "stream")

#: Prefetchers with a full compiled path (``none`` = the C driver loop
#: alone; the four designs = the same loop + in-process C train
#: kernels).  Kernel cases over these make up the ``compiled_tier``
#: snapshot section.
COMPILED_TIER_PREFETCHERS = ("none", "gaze", "pmp", "vberti", "triangel")


def bench_cases(
    quick: bool = False, kinds: Optional[Tuple[str, ...]] = None
) -> List[BenchCase]:
    """The :class:`BenchCase` list of the selected suite.

    ``kinds`` restricts the suite to the named case kinds (any subset of
    :data:`BENCH_KINDS`); ``None`` keeps every case.  Filtering drops
    cases rather than renaming them, so a ``--kind kernel`` run stays
    comparable against full-suite baselines over the shared keys.
    """
    if kinds is not None:
        unknown = sorted(set(kinds) - set(BENCH_KINDS))
        if unknown:
            raise ValueError(
                f"unknown bench kind(s) {', '.join(unknown)}; "
                f"known: {', '.join(BENCH_KINDS)}"
            )
    if quick:
        cases = list(QUICK_CASES)
    else:
        cases = [
            _kernel_case(generator, seed, prefetcher)
            for generator, seed in BENCH_TRACES
            for prefetcher in BENCH_PREFETCHERS
        ]
        # Scalar-kernel reference cases: one prefetcher-less and one trained
        # case pinned to batch="off", so every snapshot records the
        # batched-vs-scalar delta and the scalar path cannot silently regress.
        cases.extend(
            _kernel_case(*TEMPORAL_BENCH_TRACE, prefetcher)
            for prefetcher in TEMPORAL_BENCH_PREFETCHERS
        )
        cases.append(BenchCase("kernel", "spatial", 11, "none", batch="off"))
        cases.append(BenchCase("kernel", "spatial", 11, "gaze", batch="off"))
        # Temporal scalar reference: the recurring trace is hit-dense, so
        # its batched-vs-scalar delta covers the L1-hit path in every
        # snapshot.
        cases.append(
            BenchCase("kernel", *TEMPORAL_BENCH_TRACE, "none", batch="off")
        )
        cases.append(BenchCase("mix", "hetero", 0, "gaze"))
        cases.append(BenchCase("stream", *STREAM_BENCH_TRACE, "gaze"))
        cases.append(BenchCase("stream", *TEMPORAL_BENCH_TRACE, "triangel"))
    if kinds is not None:
        cases = [case for case in cases if case.kind in kinds]
    return cases


# --------------------------------------------------------------------------- #
# Case execution
# --------------------------------------------------------------------------- #
def _best_of(repeats: int, run_once) -> Tuple[float, float, object]:
    """``(best_rate, best_wall, last_result)`` over ``repeats`` runs."""
    best_rate = 0.0
    best_wall = math.inf
    result = None
    for _ in range(repeats):
        rate, wall, result = run_once()
        if rate > best_rate:
            best_rate = rate
            best_wall = wall
    return best_rate, best_wall, result


def _run_kernel_case(
    case: BenchCase, trace_length: int, repeats: int, spec: Optional[TraceSpec] = None
) -> Dict[str, object]:
    if spec is None:
        spec = TraceSpec(
            name=f"bench-{case.generator}-s{case.seed}",
            suite="bench",
            generator=case.generator,
            seed=case.seed,
            length=trace_length,
        )
    job = SimulationJob(
        spec=spec,
        prefetcher=case.prefetcher,
        trace_length=trace_length,
        batch=case.batch,
        kernel=case.kernel,
    )

    def run_once():
        stats = execute_job(job, record_timing=True)
        return (
            float(stats.extra["accesses_per_sec"]),
            float(stats.extra["wall_time_s"]),
            stats,
        )

    best_rate, best_wall, stats = _best_of(repeats, run_once)
    payload = {
        "kind": case.kind,
        "kernel": case.kernel,
        "tier": stats.extra.get("kernel_tier", "python"),
        "accesses": stats.demand_accesses,
        "instructions": stats.instructions,
        "best_wall_s": round(best_wall, 6),
        "accesses_per_sec": round(best_rate, 1),
    }
    decline = stats.extra.get("kernel_decline_reason")
    if decline:
        payload["tier_decline_reason"] = decline
    return payload


def _run_stream_case(
    case: BenchCase, trace_length: int, repeats: int, directory: str
) -> Dict[str, object]:
    """Stream a compressed on-disk trace: decode cost is part of the case."""
    generated = TraceSpec(
        name=f"bench-stream-{case.generator}-s{case.seed}",
        suite="bench",
        generator=case.generator,
        seed=case.seed,
        length=trace_length,
    ).build(length=trace_length)
    path = Path(directory) / f"bench-{case.generator}-s{case.seed}.gzt.gz"
    trace_formats.save_trace_file(iter(generated), str(path))
    spec = TraceSpec.from_file(
        str(path), name=path.name, suite="bench", length=trace_length
    )
    return _run_kernel_case(case, trace_length, repeats, spec=spec)


def _run_mix_case(
    case: BenchCase, trace_length: int, repeats: int
) -> Dict[str, object]:
    """Run the fixed four-core mix; timed externally around execute_job."""
    per_core_length = max(1, trace_length // len(MIX_BENCH_SPECS))
    specs = tuple(
        TraceSpec(
            name=f"bench-mix-{generator}-s{seed}",
            suite="bench",
            generator=generator,
            seed=seed,
            length=per_core_length,
        )
        for generator, seed in MIX_BENCH_SPECS
    )
    job = MixSimulationJob(
        specs=specs,
        prefetcher=case.prefetcher,
        trace_length=per_core_length,
        max_instructions_per_core=trace_length,
        kernel=case.kernel,
    )

    def run_once():
        start = time.perf_counter()
        result = execute_job(job)
        wall = time.perf_counter() - start
        accesses = sum(s.demand_accesses for s in result.per_core.values())
        return (accesses / wall if wall > 0 else 0.0, wall, result)

    best_rate, best_wall, result = _best_of(repeats, run_once)
    return {
        "kind": case.kind,
        "kernel": case.kernel,
        "cores": len(specs),
        "accesses": sum(s.demand_accesses for s in result.per_core.values()),
        "instructions": sum(s.instructions for s in result.per_core.values()),
        "best_wall_s": round(best_wall, 6),
        "accesses_per_sec": round(best_rate, 1),
    }


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    trace_length: Optional[int] = None,
    progress=None,
    kernel: str = "auto",
    kinds: Optional[Tuple[str, ...]] = None,
) -> Dict[str, object]:
    """Run the throughput suite and return a BENCH-file payload.

    ``trace_length`` defaults to :data:`BENCH_TRACE_LENGTH` (resolved at
    call time so tests can shrink the suite).  ``progress`` is an optional
    callable receiving one line per finished case (used by the CLI to
    stream results).  ``kernel`` selects the tier of every case, the
    mix case included (under ``"compiled"`` it runs its whole schedule in
    the C driver); case keys are tier-independent, so a compiled-tier run
    compares case-by-case against pure-Python baselines.  ``kinds``
    restricts the run to the named case kinds (see :func:`bench_cases`).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; known: {', '.join(KERNEL_MODES)}"
        )
    if trace_length is None:
        trace_length = BENCH_TRACE_LENGTH
    cases: Dict[str, Dict[str, object]] = {}
    rates: List[float] = []
    tier_eligible: List[BenchCase] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp_dir:
        for case in bench_cases(quick, kinds=kinds):
            if kernel != "auto":
                case = replace(case, kernel=kernel)
            if case.kind == "mix":
                payload = _run_mix_case(case, trace_length, repeats)
            elif case.kind == "stream":
                payload = _run_stream_case(case, trace_length, repeats, tmp_dir)
            else:
                payload = _run_kernel_case(case, trace_length, repeats)
                if (
                    case.batch != "off"
                    and case.prefetcher in COMPILED_TIER_PREFETCHERS
                ):
                    tier_eligible.append(case)
            key = case.key(trace_length)
            cases[key] = payload
            rates.append(float(payload["accesses_per_sec"]))
            if progress is not None:
                progress(f"{key:40s} {payload['accesses_per_sec']:12,.0f} acc/s")
    compiled_tier: Optional[Dict[str, object]] = None
    if kernel != "compiled" and compiled_available() and tier_eligible:
        # Re-run every compiled-driver-eligible kernel case under the
        # compiled tier.  Keys are identical to the default-tier cases
        # above, so the ratios read directly as the tier's speedup —
        # this is the snapshot section acceptance gates look at.
        tier_cases: Dict[str, Dict[str, object]] = {}
        tier_ratios: Dict[str, float] = {}
        for case in tier_eligible:
            case = replace(case, kernel="compiled")
            payload = _run_kernel_case(case, trace_length, repeats)
            key = case.key(trace_length)
            tier_cases[key] = payload
            base_rate = float(cases[key]["accesses_per_sec"])
            if base_rate > 0:
                tier_ratios[key] = round(
                    float(payload["accesses_per_sec"]) / base_rate, 3
                )
            if progress is not None:
                progress(
                    f"{key + '@compiled':40s} "
                    f"{payload['accesses_per_sec']:12,.0f} acc/s"
                    f"  ({tier_ratios.get(key, 0.0):.2f}x, {payload['tier']})"
                )
        compiled_tier = {
            "kernel": "compiled",
            "cases": tier_cases,
            "ratio_vs_default": tier_ratios,
            "geomean_ratio_vs_default": round(
                _geomean(list(tier_ratios.values())), 3
            ),
        }
    by_kind: Dict[str, List[float]] = {}
    for payload in cases.values():
        by_kind.setdefault(str(payload["kind"]), []).append(
            float(payload["accesses_per_sec"])
        )
    result: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "kind": "kernel-throughput",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "quick": quick,
        "repeats": repeats,
        "trace_length": trace_length,
        "kernel": kernel,
        "compiled_kernel_available": compiled_available(),
        "cases": cases,
        "geomean_accesses_per_sec": round(_geomean(rates), 1),
        "geomean_by_kind": {
            kind: round(_geomean(values), 1)
            for kind, values in sorted(by_kind.items())
        },
    }
    if compiled_tier is not None:
        result["compiled_tier"] = compiled_tier
    return result


def _geomean(values: List[float]) -> float:
    """Geometric mean of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


# --------------------------------------------------------------------------- #
# BENCH_<n>.json trajectory
# --------------------------------------------------------------------------- #
def bench_files(directory: str = ".") -> List[Path]:
    """Committed BENCH files in ``directory``, sorted by snapshot number."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = []
    for path in root.iterdir():
        match = BENCH_FILE_PATTERN.match(path.name)
        if match is not None:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def latest_bench_file(directory: str = ".") -> Optional[Path]:
    """The most recent BENCH snapshot in ``directory`` (None when empty)."""
    files = bench_files(directory)
    return files[-1] if files else None


def next_bench_path(directory: str = ".") -> Path:
    """The path the next snapshot should be written to (``BENCH_<n+1>``)."""
    files = bench_files(directory)
    if not files:
        return Path(directory) / "BENCH_0.json"
    last = int(BENCH_FILE_PATTERN.match(files[-1].name).group(1))
    return Path(directory) / f"BENCH_{last + 1}.json"


def write_bench_file(result: Dict[str, object], directory: str = ".") -> Path:
    """Write ``result`` as the next ``BENCH_<n>.json``; returns the path."""
    path = next_bench_path(directory)
    path.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench_file(path) -> Dict[str, object]:
    """Load one BENCH snapshot from disk."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare_bench(
    new: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.40,
) -> Dict[str, object]:
    """Compare two snapshots over their shared cases.

    Returns a report with per-case throughput ratios (new/baseline), the
    geomean ratio — both overall and *per case kind* — and the list of
    cases regressing by more than ``threshold`` (e.g. 0.40 = new case is
    slower than 60% of the baseline rate).  Cases present in only one
    snapshot are excluded from the comparison — that is what makes
    ``--quick`` runs comparable against full-suite baselines — but they
    are *named* in the report (``only_in_new`` / ``only_in_baseline``), so
    a renamed or dropped case shows up in the ``--check`` output instead
    of silently losing its regression coverage.

    Geomeans are evaluated per kind (kernel / mix / stream), not just
    globally: a mix-path regression cannot hide behind a kernel-path win.
    A kind whose geomean ratio falls below ``1 - threshold`` is reported
    in ``kind_regressions`` and fails the check like a per-case
    regression.
    """
    new_cases = new.get("cases", {})
    base_cases = baseline.get("cases", {})
    shared = sorted(set(new_cases) & set(base_cases))
    only_in_new = sorted(set(new_cases) - set(base_cases))
    only_in_baseline = sorted(set(base_cases) - set(new_cases))
    ratios: Dict[str, float] = {}
    ratios_by_kind: Dict[str, List[float]] = {}
    regressions: List[str] = []
    for key in shared:
        new_payload = new_cases[key]
        old_rate = float(base_cases[key]["accesses_per_sec"])
        new_rate = float(new_payload["accesses_per_sec"])
        ratio = new_rate / old_rate if old_rate > 0 else math.inf
        ratios[key] = ratio
        kind = str(
            new_payload.get("kind", base_cases[key].get("kind", "kernel"))
        )
        ratios_by_kind.setdefault(kind, []).append(ratio)
        if ratio < 1.0 - threshold:
            regressions.append(key)
    geomean_ratio = _geomean(list(ratios.values())) if ratios else 1.0
    geomean_ratio_by_kind = {
        kind: _geomean(values) for kind, values in sorted(ratios_by_kind.items())
    }
    kind_regressions = [
        kind
        for kind, value in geomean_ratio_by_kind.items()
        if value < 1.0 - threshold
    ]
    return {
        "shared_cases": shared,
        "only_in_new": only_in_new,
        "only_in_baseline": only_in_baseline,
        "ratios": ratios,
        "geomean_ratio": geomean_ratio,
        "geomean_ratio_by_kind": geomean_ratio_by_kind,
        "threshold": threshold,
        "regressions": regressions,
        "kind_regressions": kind_regressions,
        "ok": not regressions and not kind_regressions,
    }


def main(argv=None) -> int:  # pragma: no cover - thin wrapper for debugging
    """Allow ``python -m repro.experiments.bench`` for ad-hoc runs."""
    result = run_bench(progress=print)
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0
