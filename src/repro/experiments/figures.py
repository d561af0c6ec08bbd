"""Per-figure experiment definitions.

Each ``figN_*`` function reproduces one figure of the paper's evaluation:
it runs the required simulations through an :class:`ExperimentRunner` and
returns structured rows (list of dicts) or series (nested dicts) that the
benchmarks print and ``EXPERIMENTS.md`` records.  The functions accept a
``runner`` so callers control the scale; when omitted, a default scaled-down
runner is created.

Figure index (see DESIGN.md for the full mapping):

* Fig. 1  -- characterization schemes: speedup on Cloud vs SPEC17 + storage.
* Fig. 4  -- number of aligned initial accesses (1-4).
* Fig. 6/7/8 -- single-core speedup / accuracy / coverage+timeliness.
* Fig. 9  -- Offset vs Gaze-PHT vs full Gaze across all traces.
* Fig. 10 -- streaming module ablation (PHT4SS / SM4SS / Gaze).
* Fig. 11 -- per-trace comparison of vBerti / PMP / Gaze.
* Fig. 12 -- GAP and QMM suites.
* Fig. 13 -- multi-level prefetching combinations.
* Fig. 14 -- multi-core scaling (homogeneous and heterogeneous).
* Fig. 15 -- selected four-core mixes.
* Fig. 16 -- sensitivity to DRAM bandwidth / LLC size / L2C size (sweeps.py).
* Fig. 17 -- sensitivity to Gaze's region size and PHT size.
* Fig. 18 -- vGaze with large virtual regions.
* Fig. 19 -- (extension, not in the paper) spatial vs temporal designs
  head-to-head on the temporal-reuse suite, scaled hierarchy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.experiments.executors import JobFailure
from repro.experiments.metrics import aggregate_by_suite, geomean, summarize_runs
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.prefetchers.registry import create_prefetcher
from repro.sim.config import SystemConfig
from repro.workloads.suites import MAIN_SUITES, trace_specs_for_suite
from repro.workloads.trace import TraceSpec

#: The nine prefetchers of the paper's main single-core comparison (Fig. 6).
MAIN_PREFETCHERS = (
    "ip-stride",
    "spp-ppf",
    "ipcp",
    "vberti",
    "sms",
    "bingo",
    "dspatch",
    "pmp",
    "gaze",
)

#: Fig. 1 characterization schemes mapped to their implementations.
CHARACTERIZATION_SCHEMES = (
    ("Offset", "offset"),
    ("Offset-opt (PMP)", "pmp"),
    ("PC", "pc"),
    ("PC-opt (DSPatch)", "dspatch"),
    ("PC+Addr (SMS)", "sms"),
    ("PC+Addr-opt (Bingo)", "bingo"),
    ("Gaze", "gaze"),
)

#: Table VI: the heterogeneous four-core mixes (trace-spec names per core).
FOUR_CORE_MIXES: Dict[str, Sequence[str]] = {
    "mix1": ("wrf-like", "BFS-like", "lbm_s-like", "BC-like"),
    "mix2": ("GemsFDTD-like", "PageRank-like", "BFS-init-like", "BFS-like"),
    "mix3": ("bwaves_s-like", "Components-like", "wrf_s-like", "mcf-like"),
    "mix4": ("PageRank-like", "bwaves_s-like", "PageRank-init-like", "facesim-like"),
    "mix5": ("cassandra-like", "nutch-like", "cloud9-like", "streaming-srv-like"),
}


def _default_runner(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    return runner if runner is not None else ExperimentRunner(RunScale())


def _failed(*slots: object) -> bool:
    """True when any engine result slot is a structured job failure.

    Figures that read stats fields directly (the mix figures and the
    sensitivity study bypass :class:`~repro.experiments.runner.RunResult`)
    use this to render a failed cell as ``nan`` instead of raising — the
    engine's default ``strict=False`` promises partial grids.
    """
    return any(isinstance(slot, JobFailure) for slot in slots)


def _spec_by_name(name: str) -> TraceSpec:
    for suite in ("spec06", "spec17", "ligra", "parsec", "cloud", "gap",
                  "qmm-server", "qmm-client", "temporal"):
        for spec in trace_specs_for_suite(suite):
            if spec.name == name:
                return spec
    raise KeyError(f"unknown trace spec {name!r}")


# --------------------------------------------------------------------------- #
# Fig. 1: characterization schemes on Cloud vs SPEC17, with storage cost
# --------------------------------------------------------------------------- #
def fig1_characterization(
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """Speedup in Cloud / SPEC17 and storage for each characterization scheme."""
    runner = _default_runner(runner)
    schemes = tuple(prefetcher for _label, prefetcher in CHARACTERIZATION_SCHEMES)
    results = runner.run_suites(("cloud", "spec17"), schemes)
    by_suite_all = aggregate_by_suite(results)
    rows: List[Dict[str, object]] = []
    for label, prefetcher in CHARACTERIZATION_SCHEMES:
        by_suite = by_suite_all[prefetcher]
        rows.append(
            {
                "scheme": label,
                "prefetcher": prefetcher,
                "cloud_speedup": by_suite.get("cloud", 0.0),
                "spec17_speedup": by_suite.get("spec17", 0.0),
                "storage_kib": create_prefetcher(prefetcher).storage_kib(),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 4: number of aligned initial accesses used for characterization
# --------------------------------------------------------------------------- #
def fig4_initial_accesses(
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """IPC / accuracy / coverage when requiring 1..4 aligned initial accesses."""
    runner = _default_runner(runner)
    names = tuple(f"gaze-n{n}" for n in (1, 2, 3, 4))
    summary = summarize_runs(runner.run_suites(MAIN_SUITES, names))
    rows: List[Dict[str, object]] = []
    for n in (1, 2, 3, 4):
        rows.append(
            {
                "initial_accesses": n,
                "speedup": summary[f"gaze-n{n}"]["speedup"],
                "accuracy": summary[f"gaze-n{n}"]["accuracy"],
                "coverage": summary[f"gaze-n{n}"]["coverage"],
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 6 / 7 / 8: the main single-core comparison
# --------------------------------------------------------------------------- #
def fig6_single_core_speedup(
    runner: Optional[ExperimentRunner] = None,
    prefetchers: Sequence[str] = MAIN_PREFETCHERS,
) -> Dict[str, Dict[str, float]]:
    """Per-suite geometric-mean speedup for every evaluated prefetcher."""
    runner = _default_runner(runner)
    results = runner.run_suites(MAIN_SUITES, prefetchers)
    return aggregate_by_suite(results, metric="speedup")


def fig7_accuracy(
    runner: Optional[ExperimentRunner] = None,
    prefetchers: Sequence[str] = MAIN_PREFETCHERS,
) -> Dict[str, Dict[str, float]]:
    """Per-suite mean prefetch accuracy for every evaluated prefetcher."""
    runner = _default_runner(runner)
    results = runner.run_suites(MAIN_SUITES, prefetchers)
    return aggregate_by_suite(results, metric="accuracy")


def fig8_coverage_timeliness(
    runner: Optional[ExperimentRunner] = None,
    prefetchers: Sequence[str] = MAIN_PREFETCHERS,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-suite LLC coverage and late-prefetch fraction."""
    runner = _default_runner(runner)
    results = runner.run_suites(MAIN_SUITES, prefetchers)
    return {
        "coverage": aggregate_by_suite(results, metric="coverage"),
        "late_fraction": aggregate_by_suite(results, metric="late_fraction"),
    }


# --------------------------------------------------------------------------- #
# Fig. 9: effect of the pattern characterization scheme across all traces
# --------------------------------------------------------------------------- #
def fig9_characterization_effect(
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, object]:
    """Sorted per-trace speedups of Offset, Gaze-PHT and full Gaze."""
    runner = _default_runner(runner)
    schemes = ("offset", "gaze-pht", "gaze")
    results = runner.run_suites(MAIN_SUITES, schemes)
    per_scheme: Dict[str, List[float]] = {name: [] for name in schemes}
    for result in results:
        per_scheme[result.prefetcher].append(result.speedup)
    return {
        "series": {name: sorted(values) for name, values in per_scheme.items()},
        "averages": {name: geomean(values) for name, values in per_scheme.items()},
    }


# --------------------------------------------------------------------------- #
# Fig. 10: streaming-module ablation on streaming-heavy workloads
# --------------------------------------------------------------------------- #
def fig10_streaming_module(
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """PHT4SS vs SM4SS vs full Gaze on streaming / graph representative traces."""
    runner = _default_runner(runner)
    trace_names = (
        "bwaves_s-like",
        "leslie3d-like",
        "roms_s-like",
        "streamcluster-like",
        "PageRank-init-like",
        "PageRank-like",
        "BFS-init-like",
        "BFS-like",
    )
    specs = [_spec_by_name(name) for name in trace_names]
    schemes = ("pht4ss", "sm4ss", "gaze")
    results = runner.run_grid(specs, schemes)
    speedups = {(r.spec.name, r.prefetcher): r.speedup for r in results}
    rows: List[Dict[str, object]] = []
    for name in trace_names:
        row: Dict[str, object] = {"trace": name}
        for prefetcher in schemes:
            row[prefetcher] = speedups[(name, prefetcher)]
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Fig. 11: vBerti vs PMP vs Gaze on representative traces
# --------------------------------------------------------------------------- #
def fig11_comparative(
    runner: Optional[ExperimentRunner] = None,
    trace_names: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Per-trace speedup of the three latest spatial prefetchers."""
    runner = _default_runner(runner)
    if trace_names is None:
        trace_names = (
            "leslie3d-like",
            "GemsFDTD-like",
            "libquantum-like",
            "lbm-like",
            "sphinx3-like",
            "mcf-like",
            "BFS-like",
            "PageRank-like",
            "Components-like",
            "canneal-like",
            "facesim-like",
            "streamcluster-like",
            "cassandra-like",
            "cloud9-like",
            "nutch-like",
            "gcc_s-like",
            "bwaves_s-like",
            "mcf_s-like",
            "xalancbmk_s-like",
            "fotonik3d_s-like",
            "roms_s-like",
        )
    specs = [_spec_by_name(name) for name in trace_names]
    prefetchers = ("vberti", "pmp", "gaze")
    results = runner.run_grid(specs, prefetchers)
    speedups = {(r.spec.name, r.prefetcher): r.speedup for r in results}
    rows: List[Dict[str, object]] = []
    for spec in specs:
        row: Dict[str, object] = {"trace": spec.name, "suite": spec.suite}
        for prefetcher in prefetchers:
            row[prefetcher] = speedups[(spec.name, prefetcher)]
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Fig. 12: GAP and QMM suites
# --------------------------------------------------------------------------- #
def fig12_gap_qmm(
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Speedups of vBerti / PMP / Gaze on GAP and QMM (server + client)."""
    runner = _default_runner(runner)
    prefetchers = ("vberti", "pmp", "gaze")
    results = runner.run_suites(("gap", "qmm-server", "qmm-client"), prefetchers)
    return aggregate_by_suite(results, metric="speedup")


# --------------------------------------------------------------------------- #
# Fig. 13: multi-level prefetching
# --------------------------------------------------------------------------- #
def fig13_multilevel(
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """L1+L2 prefetcher combinations (Group 1) and with IP-stride at L1 (Group 2)."""
    runner = _default_runner(runner)
    l1_choices = ("vberti", "pmp", "dspatch", "ipcp", "gaze")
    l2_choices = ("spp-ppf", "bingo")
    group1 = [f"{l1}+{l2}" for l1 in l1_choices for l2 in l2_choices]
    group2 = [f"ip-stride+{l2}" for l2 in ("spp-ppf", "bingo", "gaze")]

    # One batched grid covering the reference and every combination, so the
    # engine can dedupe shared baselines and parallelize across all of them.
    summary = summarize_runs(
        runner.run_suites(MAIN_SUITES, ["gaze"] + group1 + group2)
    )
    rows: List[Dict[str, object]] = [
        {"group": "reference", "combination": "gaze(L1 only)",
         "speedup": summary["gaze"]["speedup"]}
    ]
    for name in group1:
        rows.append(
            {"group": "group1", "combination": name,
             "speedup": summary[name]["speedup"]}
        )
    for name in group2:
        rows.append(
            {"group": "group2", "combination": name,
             "speedup": summary[name]["speedup"]}
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 14 / 15: multi-core (engine-backed mix jobs)
# --------------------------------------------------------------------------- #
def fig14_multicore(
    runner: Optional[ExperimentRunner] = None,
    core_counts: Sequence[int] = (1, 2, 4),
    prefetchers: Sequence[str] = ("vberti", "pmp", "bingo", "gaze"),
    trace_length: int = 8_000,
    max_instructions_per_core: int = 30_000,
    homogeneous_trace: str = "bwaves_s-like",
    heterogeneous_traces: Sequence[str] = (
        "bwaves_s-like",
        "PageRank-like",
        "cassandra-like",
        "mcf_s-like",
        "leslie3d-like",
        "gcc_s-like",
        "facesim-like",
        "xalancbmk_s-like",
    ),
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Multi-core speedups for homogeneous and heterogeneous mixes.

    Every mix — baselines included — is submitted to the runner's engine as
    one :class:`~repro.experiments.jobs.MixSimulationJob` batch, so
    ``--jobs N`` shards mixes across worker processes and warm re-runs are
    answered from the persistent cache.

    Returns ``{"homogeneous"|"heterogeneous": {prefetcher: {cores: speedup}}}``.
    """
    runner = _default_runner(runner)
    homo_spec = _spec_by_name(homogeneous_trace)
    hetero_specs = [_spec_by_name(name) for name in heterogeneous_traces]

    def mix_job(specs, prefetcher):
        return runner.mix_job_for(
            specs,
            prefetcher,
            trace_length=trace_length,
            max_instructions_per_core=max_instructions_per_core,
        )

    jobs = []
    layout: List = []
    for cores in core_counts:
        for kind, specs in (
            ("homogeneous", (homo_spec,) * cores),
            ("heterogeneous", tuple(hetero_specs[:cores])),
        ):
            jobs.append(mix_job(specs, "none"))
            layout.append((kind, None, cores))
            for prefetcher in prefetchers:
                jobs.append(mix_job(specs, prefetcher))
                layout.append((kind, prefetcher, cores))
    stats_list = runner.engine.run_jobs(jobs)

    results: Dict[str, Dict[str, Dict[int, float]]] = {
        "homogeneous": {p: {} for p in prefetchers},
        "heterogeneous": {p: {} for p in prefetchers},
    }
    baselines: Dict = {}
    for (kind, prefetcher, cores), stats in zip(layout, stats_list):
        if prefetcher is None:
            baselines[(kind, cores)] = stats
        elif _failed(stats, baselines[(kind, cores)]):
            results[kind][prefetcher][cores] = float("nan")
        else:
            results[kind][prefetcher][cores] = stats.geomean_speedup(
                baselines[(kind, cores)]
            )
    return results


def fig15_four_core_mixes(
    runner: Optional[ExperimentRunner] = None,
    prefetchers: Sequence[str] = ("vberti", "pmp", "gaze"),
    trace_length: int = 8_000,
    max_instructions_per_core: int = 30_000,
    mixes: Optional[Dict[str, Sequence[str]]] = None,
) -> List[Dict[str, object]]:
    """Per-core and average speedups on the selected four-core mixes (Table VI).

    Like :func:`fig14_multicore`, the whole table — five mixes times
    (baseline + prefetchers) — is one engine batch of mix jobs:
    parallelizable across worker processes and persistently cacheable.
    """
    runner = _default_runner(runner)
    mixes = mixes if mixes is not None else FOUR_CORE_MIXES

    def mix_job(specs, prefetcher):
        return runner.mix_job_for(
            specs,
            prefetcher,
            trace_length=trace_length,
            max_instructions_per_core=max_instructions_per_core,
        )

    jobs = []
    layout: List = []
    for mix_name, trace_names in mixes.items():
        specs = tuple(_spec_by_name(name) for name in trace_names)
        jobs.append(mix_job(specs, "none"))
        layout.append((mix_name, None))
        for prefetcher in prefetchers:
            jobs.append(mix_job(specs, prefetcher))
            layout.append((mix_name, prefetcher))
    stats_list = runner.engine.run_jobs(jobs)

    rows: List[Dict[str, object]] = []
    baselines: Dict[str, object] = {}
    for (mix_name, prefetcher), stats in zip(layout, stats_list):
        if prefetcher is None:
            baselines[mix_name] = stats
            continue
        baseline = baselines[mix_name]
        row: Dict[str, object] = {"mix": mix_name, "prefetcher": prefetcher}
        if _failed(stats, baseline):
            for core in range(len(mixes[mix_name])):
                row[f"c{core}"] = float("nan")
            row["avg"] = float("nan")
            rows.append(row)
            continue
        for core in sorted(stats.per_core):
            base_core = baseline.per_core[core]
            run_core = stats.per_core[core]
            row[f"c{core}"] = (
                run_core.ipc / base_core.ipc if base_core.ipc else 0.0
            )
        row["avg"] = stats.geomean_speedup(baseline)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Fig. 17: Gaze configuration sensitivity (region size / PHT size)
# --------------------------------------------------------------------------- #
def fig17_gaze_sensitivity(
    runner: Optional[ExperimentRunner] = None,
    region_sizes: Sequence[int] = (512, 1024, 2048, 4096),
    pht_sizes: Sequence[int] = (128, 256, 512, 1024),
    trace_names: Sequence[str] = (
        "bwaves_s-like",
        "fotonik3d_s-like",
        "gcc_s-like",
        "PageRank-like",
        "streamcluster-like",
        "xalancbmk_s-like",
    ),
) -> Dict[str, List[Dict[str, object]]]:
    """Speedup of Gaze with different region sizes and PHT sizes.

    Results are normalised to the baseline configuration (4 KB region,
    256-entry PHT), exactly as the paper plots them.
    """
    runner = _default_runner(runner)
    specs = [_spec_by_name(name) for name in trace_names]

    # Every configuration is a (spec, "gaze", params) job; the whole
    # sensitivity study is submitted as one engine batch, so it is both
    # cacheable and parallelizable.
    configs: List[Dict[str, object]] = [{}]
    configs += [{"region_size": size} for size in region_sizes]
    configs += [{"pht_entries": entries} for entries in pht_sizes]

    jobs = []
    for spec in specs:
        jobs.append(runner.job_for(spec, "none"))
        for params in configs:
            jobs.append(runner.job_for(spec, "gaze", prefetcher_params=params))
    stats_list = runner.engine.run_jobs(jobs)

    region_rows: List[Dict[str, object]] = []
    pht_rows: List[Dict[str, object]] = []
    cursor = 0
    for spec in specs:
        baseline = stats_list[cursor]
        cursor += 1
        speedups: List[float] = []
        for _params in configs:
            cell = stats_list[cursor]
            speedups.append(
                float("nan") if _failed(cell, baseline) else cell.speedup(baseline)
            )
            cursor += 1
        reference = speedups[0]
        region_row: Dict[str, object] = {"trace": spec.name}
        for size, speedup in zip(region_sizes, speedups[1 : 1 + len(region_sizes)]):
            region_row[f"{size // 1024}KB" if size >= 1024 else f"{size}B"] = (
                speedup / reference if reference else 0.0
            )
        region_rows.append(region_row)
        pht_row: Dict[str, object] = {"trace": spec.name}
        for entries, speedup in zip(pht_sizes, speedups[1 + len(region_sizes) :]):
            pht_row[str(entries)] = speedup / reference if reference else 0.0
        pht_rows.append(pht_row)
    return {"region_size": region_rows, "pht_size": pht_rows}


# --------------------------------------------------------------------------- #
# Fig. 18: vGaze with larger (virtual) region sizes
# --------------------------------------------------------------------------- #
def fig18_vgaze(
    runner: Optional[ExperimentRunner] = None,
    region_sizes_kb: Sequence[int] = (4, 8, 16, 32, 64),
    trace_names: Sequence[str] = (
        "bwaves_s-like",
        "lbm-like",
        "wrf-like",
        "gcc_s-like",
        "xalancbmk_s-like",
        "fotonik3d_s-like",
        "PageRank-like",
        "streamcluster-like",
    ),
) -> List[Dict[str, object]]:
    """Speedup of vGaze at 4-64 KB regions, normalised to the 4 KB baseline."""
    runner = _default_runner(runner)
    specs = [_spec_by_name(name) for name in trace_names]
    prefetchers = tuple(f"vgaze-{size_kb}kb" for size_kb in region_sizes_kb)
    results = runner.run_grid(specs, prefetchers)
    speedups = {(r.spec.name, r.prefetcher): r.speedup for r in results}
    rows: List[Dict[str, object]] = []
    for spec in specs:
        reference = None
        row: Dict[str, object] = {"trace": spec.name}
        for size_kb in region_sizes_kb:
            speedup = speedups[(spec.name, f"vgaze-{size_kb}kb")]
            if size_kb == 4:
                reference = speedup
            row[f"{size_kb}KB"] = speedup / reference if reference else 0.0
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Fig. 19 (extension): spatial vs temporal prefetching head-to-head
# --------------------------------------------------------------------------- #
#: The paper's spatial frontier vs the temporal-correlation frontier.
SPATIAL_DESIGNS = ("gaze", "pmp", "vberti")
TEMPORAL_DESIGNS = ("triangel", "ghb")


def temporal_frontier_system() -> SystemConfig:
    """Scaled hierarchy for the spatial-vs-temporal comparison.

    The reproduction's traces are several orders of magnitude shorter than
    the paper's, so working sets that would thrash a real 2 MB LLC fit
    comfortably in the Table II hierarchy — and the core model hides any
    latency shorter than a DRAM round trip, making cache-resident reuse
    invisible in IPC.  This config scales the caches the same way the
    traces are scaled (L1D 8 KB, L2C 32 KB, LLC 64 KB, same latencies and
    DRAM), so the temporal suite's recurring miss sequences reach DRAM
    exactly as their full-size counterparts would.
    """
    base = SystemConfig()
    return dataclasses.replace(
        base,
        l1d=dataclasses.replace(base.l1d, size_bytes=8 * 1024, ways=4),
        l2c=dataclasses.replace(base.l2c, size_bytes=32 * 1024, ways=8),
        llc=dataclasses.replace(base.llc, size_bytes=64 * 1024, ways=16),
    )


def fig19_spatial_vs_temporal(
    runner: Optional[ExperimentRunner] = None,
    trace_names: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Temporal designs (Triangel, GHB) vs spatial designs, head to head.

    Runs the temporal-reuse suite plus spatial/irregular representatives
    on the scaled :func:`temporal_frontier_system` and reports per-trace
    speedups plus per-design geomeans over each trace family.  The
    expected shape: temporal prefetchers win on long-range recurring miss
    sequences (linkwalk), stay neutral where Triangel's confidence
    machinery detects no replayable stream (kvprobe, ring), and do
    nothing for spatial streaming — while offset-style spatial designs
    (PMP) collapse on temporal traces they cannot pattern-match.
    """
    runner = _default_runner(runner)
    if trace_names is None:
        trace_names = tuple(
            spec.name for spec in trace_specs_for_suite("temporal")
        ) + ("leslie3d-like", "sphinx3-like", "mcf-like", "cassandra-like")
    specs = [_spec_by_name(name) for name in trace_names]
    prefetchers = TEMPORAL_DESIGNS + SPATIAL_DESIGNS
    results = runner.run_grid(specs, prefetchers, system=temporal_frontier_system())
    speedups = {(r.spec.name, r.prefetcher): r.speedup for r in results}
    rows: List[Dict[str, object]] = []
    for spec in specs:
        row: Dict[str, object] = {"trace": spec.name, "suite": spec.suite}
        for prefetcher in prefetchers:
            row[prefetcher] = speedups[(spec.name, prefetcher)]
        rows.append(row)
    summary: Dict[str, Dict[str, float]] = {}
    for family, family_specs in (
        ("temporal", [s for s in specs if s.suite == "temporal"]),
        ("spatial", [s for s in specs if s.suite != "temporal"]),
    ):
        summary[family] = {
            prefetcher: geomean(
                [speedups[(s.name, prefetcher)] for s in family_specs]
            )
            for prefetcher in prefetchers
        }
    return {"rows": rows, "geomean_by_family": summary}
