"""Command-line interface: ``python -m repro``.

Examples::

    python -m repro run --figure fig6 --jobs 4
    python -m repro run --figure fig11 --trace-length 4000
    python -m repro run --figure fig14 --jobs 4
    python -m repro run --suite spec17 --suite cloud --prefetchers gaze,pmp
    python -m repro run --table table5
    python -m repro run --sweep dram --jobs 8
    python -m repro run --trace-file traces/bwaves.gzt.gz --prefetchers gaze
    python -m repro trace export --generator streaming --seed 1 \
        --length 50000 -o traces/stream.champsim.xz
    python -m repro trace import raw.jsonl -o traces/raw.gzt.gz
    python -m repro trace info traces/stream.champsim.xz
    python -m repro bench
    python -m repro bench --quick --check --threshold 40
    python -m repro cache info
    python -m repro cache clear
    python -m repro list figures

``run`` builds an :class:`~repro.experiments.runner.ExperimentRunner` backed
by the job engine: ``--jobs N`` fans simulations out over N worker processes
(results are bit-identical to serial runs) and the persistent cache under
``.repro-cache/`` makes warm re-runs skip simulation entirely.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import figures, sweeps, tables
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, build_engine
from repro.experiments.executors import BatchExecutionError
from repro.experiments.reporting import render_result
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.prefetchers.registry import available_prefetchers, is_registered
from repro.workloads import formats as trace_formats
from repro.workloads.formats import (
    COMPRESSIONS,
    FORMATS,
    TraceFormatError,
    cap_instructions,
    interleave,
    remap_addresses,
    slice_accesses,
)
from repro.workloads.suites import SUITES, all_trace_specs, trace_specs_for_suite
from repro.workloads.trace import TraceSpec, make_trace, trace_statistics

#: Figures that accept a runner (and therefore honour --jobs / the cache).
_RUNNER_FIGURES: Dict[str, Callable[..., object]] = {
    "fig1": figures.fig1_characterization,
    "fig4": figures.fig4_initial_accesses,
    "fig6": figures.fig6_single_core_speedup,
    "fig7": figures.fig7_accuracy,
    "fig8": figures.fig8_coverage_timeliness,
    "fig9": figures.fig9_characterization_effect,
    "fig10": figures.fig10_streaming_module,
    "fig11": figures.fig11_comparative,
    "fig12": figures.fig12_gap_qmm,
    "fig13": figures.fig13_multilevel,
    "fig14": figures.fig14_multicore,
    "fig15": figures.fig15_four_core_mixes,
    "fig17": figures.fig17_gaze_sensitivity,
    "fig18": figures.fig18_vgaze,
    "fig19": figures.fig19_spatial_vs_temporal,
}

#: Figures over a fixed representative trace list: --traces-per-suite has no
#: effect on them (only --trace-length shrinks the run).
_FIXED_TRACE_FIGURES = ("fig10", "fig11", "fig17", "fig18", "fig19")

#: Multi-core figures: engine-backed mix jobs that honour --jobs / the
#: cache and map --trace-length onto the mix's own trace length.
_MIX_FIGURES = ("fig14", "fig15")

_TABLES: Dict[str, Callable[..., object]] = {
    "table1": tables.table1_gaze_storage,
    "table4": tables.table4_baseline_storage,
    "table5": tables.table5_comparison,
    "table6": tables.table6_four_core_mixes,
}

#: Tables that accept a runner.
_RUNNER_TABLES = ("table5",)

_SWEEPS: Dict[str, Callable[..., object]] = {
    "dram": sweeps.sweep_dram_bandwidth,
    "llc": sweeps.sweep_llc_size,
    "l2c": sweeps.sweep_l2c_size,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Gaze prefetcher evaluation (HPCA 2025).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a figure, table, sweep or ad-hoc grid")
    target = run.add_mutually_exclusive_group()
    target.add_argument("--figure", choices=sorted(_RUNNER_FIGURES),
                        help="figure to reproduce (fig1..fig19)")
    target.add_argument("--table", choices=sorted(_TABLES), help="table to reproduce")
    target.add_argument("--sweep", choices=sorted(_SWEEPS),
                        help="Fig. 16 system sweep to run")
    run.add_argument("--suite", action="append", default=None,
                     choices=sorted(SUITES),
                     help="suite for an ad-hoc grid (repeatable)")
    run.add_argument("--trace-file", action="append", default=None,
                     metavar="PATH",
                     help="simulate an on-disk trace file instead of a "
                          "generated suite (repeatable; streams in O(1) "
                          "memory, any supported format/compression)")
    run.add_argument("--prefetchers", default=None,
                     help="comma-separated prefetcher names for ad-hoc grids "
                          "(default gaze,vberti,pmp)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (1 = serial)")
    run.add_argument("--trace-length", type=int, default=None, metavar="L",
                     help="accesses per trace (default 12000)")
    run.add_argument("--traces-per-suite", type=int, default=None, metavar="K",
                     help="traces per suite (default 3; 0 = all)")
    run.add_argument("--batch", choices=("auto", "off"), default="auto",
                     help="simulation kernel for single-core jobs: batched "
                          "over array-decoded traces (auto, default) or the "
                          "scalar kernel (off); statistics are bit-identical "
                          "either way")
    run.add_argument("--kernel", choices=("auto", "python", "compiled"),
                     default="auto",
                     help="prefetcher-state tier for single-core and mix "
                          "jobs: engine default (auto), pure Python (python), or "
                          "the optional C extension with silent fallback "
                          "when it is not built (compiled; build it with "
                          "`python setup.py build_ext --inplace`); "
                          "statistics are bit-identical either way")
    run.add_argument("--cache-dir", default=None,
                     help="persistent result cache directory (default .repro-cache)")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the persistent result cache")
    run.add_argument("--precision", type=int, default=3,
                     help="decimal places in printed tables")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="total attempts per job before it is reported as "
                          "a failure (default 3; crashes, hangs and "
                          "transient errors each cost one attempt)")
    run.add_argument("--job-timeout", type=float, default=None, metavar="S",
                     help="per-job wall-clock bound in seconds under "
                          "--jobs N: a hung worker is terminated and the "
                          "job retried (default: no timeout)")
    run.add_argument("--strict", action="store_true",
                     help="abort with an error when any job exhausts its "
                          "retries (default: render the partial grid with "
                          "failed cells marked nan and print a failure "
                          "report)")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="fault-injection plan spec for chaos testing, "
                          "e.g. 'seed=1;worker.crash:rate=0.3' "
                          "(default: $REPRO_FAULT_PLAN; 'off' disables)")

    cache = sub.add_parser(
        "cache", help="inspect, verify or clear the result cache"
    )
    cache.add_argument("action", choices=("info", "clear", "verify"))
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default .repro-cache)")

    bench = sub.add_parser(
        "bench",
        help="run the kernel-throughput suite and record a BENCH_<n>.json "
             "snapshot",
    )
    bench.add_argument("--quick", action="store_true",
                       help="run the 4-case subset (same case keys, "
                            "comparable against full-suite baselines)")
    bench.add_argument("--repeats", type=int, default=3, metavar="N",
                       help="runs per case; the best rate is recorded "
                            "(default 3)")
    bench.add_argument("--output-dir", default=".", metavar="DIR",
                       help="directory holding the BENCH_<n>.json "
                            "trajectory (default: repo root)")
    bench.add_argument("--no-write", action="store_true",
                       help="measure and compare only; do not write a new "
                            "snapshot")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="snapshot to compare against (default: latest "
                            "BENCH_<n>.json in --output-dir)")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero when any shared case regresses "
                            "beyond --threshold")
    bench.add_argument("--threshold", type=float, default=40.0,
                       metavar="PCT",
                       help="regression threshold in percent (default 40; "
                            "generous on purpose — machines differ)")
    bench.add_argument("--kind", action="append", default=None,
                       choices=("kernel", "mix", "stream"), metavar="KIND",
                       help="restrict the run to one case kind (repeatable: "
                            "kernel, mix, stream); filtered runs keep their "
                            "case keys and compare against full baselines "
                            "over the shared cases")
    bench.add_argument("--kernel", choices=("auto", "python", "compiled"),
                       default="auto",
                       help="prefetcher-state tier for every case, mix "
                            "cases included; case keys "
                            "are tier-independent, so a compiled-tier run's "
                            "per-case ratios against a pure-Python baseline "
                            "read directly as the compiled speedup")

    trace = sub.add_parser(
        "trace", help="export, convert and inspect trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_transform_flags(cmd):
        cmd.add_argument("--start", type=int, default=0, metavar="N",
                         help="skip the first N accesses")
        cmd.add_argument("--limit", type=int, default=None, metavar="N",
                         help="keep at most N accesses (after --start)")
        cmd.add_argument("--instr-budget", type=int, default=None, metavar="I",
                         help="stop once I instructions have been emitted")
        cmd.add_argument("--remap-offset", default=None, metavar="BYTES",
                         help="shift every address by this byte offset "
                              "(accepts hex, e.g. 0x1000000)")

    export = trace_sub.add_parser(
        "export", help="generate a synthetic trace and write it to a file"
    )
    export_source = export.add_mutually_exclusive_group(required=True)
    export_source.add_argument("--generator", metavar="KIND",
                               help="workload generator kind (see "
                                    "`repro list suites` traces)")
    export_source.add_argument("--trace", metavar="NAME",
                               help="named trace spec from the built-in "
                                    "suites (e.g. bwaves_s-like)")
    export.add_argument("--seed", type=int, default=0,
                        help="generator RNG seed (with --generator)")
    export.add_argument("--length", type=int, default=None, metavar="L",
                        help="accesses to generate (default: spec length "
                             "or 40000)")
    export.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="generator parameter (repeatable, with "
                             "--generator)")
    export.add_argument("-o", "--output", required=True, metavar="PATH",
                        help="destination file (suffix selects format and "
                             "compression)")
    export.add_argument("--format", choices=sorted(FORMATS), default=None,
                        help="force the trace format (default: from suffix)")
    export.add_argument("--compression", choices=("auto",) + COMPRESSIONS,
                        default="auto",
                        help="force the compression codec (default: from "
                             "suffix)")
    _add_transform_flags(export)

    imp = trace_sub.add_parser(
        "import",
        help="convert/validate trace files (several inputs interleave "
             "deterministically)",
    )
    imp.add_argument("sources", nargs="+", metavar="SRC",
                     help="input trace file(s) in any supported format")
    imp.add_argument("-o", "--output", required=True, metavar="PATH",
                     help="destination file (suffix selects format and "
                          "compression)")
    imp.add_argument("--input-format", choices=sorted(FORMATS), default=None,
                     help="force the input format (default: sniffed)")
    imp.add_argument("--format", choices=sorted(FORMATS), default=None,
                     help="force the output format (default: from suffix)")
    imp.add_argument("--compression", choices=("auto",) + COMPRESSIONS,
                     default="auto",
                     help="force the compression codec (default: from suffix)")
    imp.add_argument("--interleave-chunk", type=int, default=1, metavar="K",
                     help="accesses taken per input per round when "
                          "interleaving several sources (default 1)")
    _add_transform_flags(imp)

    info = trace_sub.add_parser(
        "info", help="validate a trace file and print its metadata"
    )
    info.add_argument("path", metavar="PATH")
    info.add_argument("--no-stats", action="store_true",
                      help="skip the access-pattern statistics pass")

    lst = sub.add_parser("list", help="list available experiment targets")
    lst.add_argument("what", choices=("figures", "tables", "sweeps",
                                      "prefetchers", "suites"))

    lint = sub.add_parser(
        "lint",
        help="run the repo invariant lint (rules R1-R6)",
        description=(
            "Static analysis of repo-specific invariants: job-key "
            "completeness (R1), C/Python twin-constant drift (R2), "
            "hot-path hygiene (R3), golden-grid registry coverage (R4), "
            "compiled-driver decline reasons (R5) and no silent "
            "exception handlers in experiments/ (R6).  Exits non-zero "
            "when any unwaived diagnostic is found."
        ),
    )
    lint.add_argument("--check", action="store_true",
                      help="explicit CI alias; lint always exits non-zero "
                           "on findings")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule IDs to run (default: all)")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="repository root to lint (default: the checkout "
                           "that owns the running repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    return parser


def _make_scale(args: argparse.Namespace) -> Optional[RunScale]:
    if args.trace_length is None and args.traces_per_suite is None:
        return None
    defaults = RunScale()
    traces_per_suite = defaults.traces_per_suite
    if args.traces_per_suite is not None:
        traces_per_suite = args.traces_per_suite if args.traces_per_suite > 0 else None
    return RunScale(
        trace_length=(
            args.trace_length if args.trace_length is not None
            else defaults.trace_length
        ),
        traces_per_suite=traces_per_suite,
    )


def _warn_ignored_engine_flags(args: argparse.Namespace, reason: str) -> None:
    """Tell the user which engine flags a non-engine target will ignore."""
    ignored = [
        flag
        for flag, is_set in (
            ("--jobs", args.jobs not in (None, 1)),
            ("--trace-length", args.trace_length is not None),
            ("--traces-per-suite", args.traces_per_suite is not None),
            ("--cache-dir", args.cache_dir is not None),
            ("--no-cache", args.no_cache),
        )
        if is_set
    ]
    if ignored:
        print(f"note: {reason}; {', '.join(ignored)} ignored", file=sys.stderr)


def _print_engine_summary(engine: ExperimentEngine, elapsed: float) -> None:
    counters = engine.counters()
    cache_root = engine.cache.root if engine.cache is not None else "disabled"
    print(
        f"\n# {counters['simulations_run']} simulated, "
        f"{counters['cache_hits']} cache hits, "
        f"{counters['memo_hits']} memo hits in {elapsed:.1f}s "
        f"(cache: {cache_root})"
    )
    recovery = {
        key: counters[key]
        for key in ("retries", "crashes", "timeouts", "cache_quarantined")
        if counters[key]
    }
    if recovery:
        detail = ", ".join(f"{value} {key}" for key, value in recovery.items())
        print(f"# fault recovery: {detail}")


def _print_failure_report(engine: ExperimentEngine) -> None:
    """Structured report of every cell that exhausted its retries."""
    if not engine.job_failures:
        return
    print(
        f"# {len(engine.job_failures)} job(s) failed after retries "
        "(cells marked nan):",
        file=sys.stderr,
    )
    for failure in engine.job_failures:
        print(f"#   {failure} [key {failure.key[:16]}…]", file=sys.stderr)


def _file_trace_specs(paths: List[str]) -> List[TraceSpec]:
    """Build file-backed specs for ``run --trace-file`` arguments."""
    specs = []
    for path in paths:
        spec = TraceSpec.from_file(path)
        if spec.length == 0:
            raise TraceFormatError(
                f"trace file {path} is empty (0 records); nothing to simulate"
            )
        specs.append(spec)
    return specs


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        return _cmd_run_inner(args)
    except BatchExecutionError as exc:
        # --strict: a job exhausted its retries; the structured failures
        # are the error message.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run_inner(args: argparse.Namespace) -> int:
    if args.trace_file and (args.figure or args.table or args.sweep):
        target = args.figure or args.table or f"sweep {args.sweep}"
        print(
            f"error: --trace-file defines an ad-hoc grid and cannot be "
            f"combined with {target}",
            file=sys.stderr,
        )
        return 2
    file_specs: List[TraceSpec] = []
    if args.trace_file:
        try:
            file_specs = _file_trace_specs(args.trace_file)
        except TraceFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.retries is not None and args.retries < 1:
        print("error: --retries must be >= 1", file=sys.stderr)
        return 2
    engine = build_engine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else None,
        retries=args.retries,
        job_timeout=args.job_timeout,
        faults=args.faults,
        strict=args.strict,
    )
    scale = _make_scale(args)
    if file_specs and args.trace_length is None:
        if args.suite:
            # One scale drives every job in a grid, so stretching it to
            # the file length would silently inflate the suite's synthetic
            # traces too; keep the default and tell the user.
            default_length = (scale if scale is not None else RunScale()).trace_length
            if any(spec.length > default_length for spec in file_specs):
                print(
                    f"note: combined with --suite, file traces are capped at "
                    f"the grid trace length ({default_length} accesses); "
                    "pass --trace-length to simulate more",
                    file=sys.stderr,
                )
        else:
            # Default to simulating each file trace in full rather than
            # truncating at the synthetic-grid default length.
            base = scale if scale is not None else RunScale()
            scale = RunScale(
                trace_length=max(spec.length for spec in file_specs),
                traces_per_suite=base.traces_per_suite,
            )
    runner = ExperimentRunner(
        scale=scale, engine=engine, batch=args.batch, kernel=args.kernel
    )

    if args.figure in _FIXED_TRACE_FIGURES and args.traces_per_suite is not None:
        print(
            f"note: {args.figure} uses a fixed trace list; "
            "--traces-per-suite ignored (use --trace-length to shrink the run)",
            file=sys.stderr,
        )
    if args.figure in _MIX_FIGURES and args.traces_per_suite is not None:
        print(
            f"note: {args.figure} uses fixed mix compositions; "
            "--traces-per-suite ignored (use --trace-length to shrink the run)",
            file=sys.stderr,
        )
    if (args.figure or args.table or args.sweep) and (
        args.suite or args.prefetchers is not None
    ):
        target = args.figure or args.table or f"sweep {args.sweep}"
        print(
            f"note: --suite/--prefetchers only apply to ad-hoc grids; "
            f"{target} defines its own workloads, flags ignored",
            file=sys.stderr,
        )

    start = time.perf_counter()
    engine_used = True
    if args.figure in _MIX_FIGURES:
        title = args.figure
        mix_kwargs: Dict[str, object] = {}
        if args.trace_length is not None:
            # Mixes scale independently of the single-core grids, so the
            # flag maps onto the mix's own trace length.
            mix_kwargs["trace_length"] = args.trace_length
        result = _RUNNER_FIGURES[args.figure](runner, **mix_kwargs)
    elif args.figure:
        title = args.figure
        result = _RUNNER_FIGURES[args.figure](runner)
    elif args.table:
        title = args.table
        func = _TABLES[args.table]
        if args.table in _RUNNER_TABLES:
            result = func(runner)
        else:
            _warn_ignored_engine_flags(args, f"{args.table} runs no simulations")
            engine_used = False
            result = func()
    elif args.sweep:
        title = f"sweep-{args.sweep}"
        result = _SWEEPS[args.sweep](scale=scale, engine=engine)
    else:
        requested = (
            args.prefetchers if args.prefetchers is not None else "gaze,vberti,pmp"
        )
        prefetchers = [
            name.strip() for name in requested.split(",") if name.strip()
        ]
        if not prefetchers:
            print("error: --prefetchers selected no prefetchers", file=sys.stderr)
            return 2
        for name in prefetchers:
            if not is_registered(name):
                print(
                    f"error: unknown prefetcher {name!r}; "
                    f"known: {', '.join(available_prefetchers())}",
                    file=sys.stderr,
                )
                return 2
        if file_specs:
            sources = [spec.name for spec in file_specs]
            if args.suite:
                for suite in args.suite:
                    file_specs.extend(
                        runner.scale.select(trace_specs_for_suite(suite))
                    )
                sources.extend(args.suite)
            title = f"grid: {','.join(sources)} x {','.join(prefetchers)}"
            results = runner.run_grid(file_specs, prefetchers)
        else:
            suites = args.suite if args.suite else ["spec17"]
            title = f"grid: {','.join(suites)} x {','.join(prefetchers)}"
            results = runner.run_suites(suites, prefetchers)
        result = [r.row() for r in results]
    elapsed = time.perf_counter() - start

    print(f"== {title} ==")
    print(render_result(result, precision=args.precision))
    if engine_used:
        _print_engine_summary(engine, elapsed)
        _print_failure_report(engine)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments import bench as bench_mod

    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 < args.threshold < 100.0:
        print("error: --threshold must be in (0, 100)", file=sys.stderr)
        return 2

    kinds = tuple(dict.fromkeys(args.kind)) if args.kind else None
    suite = "quick subset" if args.quick else "full suite"
    if kinds is not None:
        suite += f", kinds: {','.join(kinds)}"
    if args.kernel != "auto":
        suite += f", kernel={args.kernel}"
    print(f"== throughput bench ({suite}, best of {args.repeats}) ==")
    result = bench_mod.run_bench(
        quick=args.quick,
        repeats=args.repeats,
        progress=print,
        kernel=args.kernel,
        kinds=kinds,
    )
    if args.kernel == "compiled" and not result.get("compiled_kernel_available"):
        print(
            "note: compiled kernel extension not built; single-core cases "
            "fell back to the pure-Python tier "
            "(`python setup.py build_ext --inplace` to build it)",
            file=sys.stderr,
        )
    print(f"{'geomean':40s} {result['geomean_accesses_per_sec']:12,.0f} acc/s")
    for kind, value in result.get("geomean_by_kind", {}).items():
        print(f"{'geomean/' + kind:40s} {value:12,.0f} acc/s")
    if args.check or args.kernel == "compiled":
        # Which tier actually executed each single-core case — a
        # ``--kernel compiled`` run that silently fell back to the Python
        # driver is visible here, not masquerading as a tier win.
        for key, payload in result.get("cases", {}).items():
            tier = payload.get("tier")
            if tier is None:
                continue  # mix cases have no single-core tier
            line = f"# tier[{key}] = {tier}"
            reason = payload.get("tier_decline_reason")
            if reason:
                line += f" ({reason})"
            print(line)
    compiled_tier = result.get("compiled_tier")
    if compiled_tier:
        print(
            f"# compiled tier: geomean "
            f"{compiled_tier['geomean_ratio_vs_default']:.2f}x vs default "
            f"over {len(compiled_tier['cases'])} driver case(s)"
        )

    baseline_path = args.baseline
    if baseline_path is None:
        latest = bench_mod.latest_bench_file(args.output_dir)
        baseline_path = str(latest) if latest is not None else None
    exit_code = 0
    if baseline_path is not None:
        baseline = bench_mod.load_bench_file(baseline_path)
        report = bench_mod.compare_bench(
            result, baseline, threshold=args.threshold / 100.0
        )
        print(f"\n# vs {baseline_path} "
              f"({len(report['shared_cases'])} shared cases): "
              f"geomean {report['geomean_ratio']:.2f}x")
        # Per-kind geomeans: a mix/stream regression cannot hide behind a
        # kernel-case win (each kind is checked against the threshold).
        for kind, value in report.get("geomean_ratio_by_kind", {}).items():
            marker = (
                " <-- REGRESSION"
                if kind in report.get("kind_regressions", ())
                else ""
            )
            print(f"#   geomean[{kind}] {value:.2f}x{marker}")
        for key in report["shared_cases"]:
            marker = " <-- REGRESSION" if key in report["regressions"] else ""
            print(f"  {key:38s} {report['ratios'][key]:6.2f}x{marker}")
        if report["only_in_baseline"]:
            print(f"# {len(report['only_in_baseline'])} baseline case(s) "
                  "not measured this run (no regression coverage): "
                  + ", ".join(report["only_in_baseline"]))
        if report["only_in_new"]:
            print(f"# {len(report['only_in_new'])} new case(s) without a "
                  "baseline: " + ", ".join(report["only_in_new"]))
        if not report["ok"]:
            kind_note = (
                f" + {len(report['kind_regressions'])} kind geomean(s)"
                if report.get("kind_regressions")
                else ""
            )
            print(
                f"\nerror: {len(report['regressions'])} case(s){kind_note} "
                f"regressed beyond {args.threshold:.0f}%",
                file=sys.stderr,
            )
            if args.check:
                exit_code = 1
    else:
        print("\n# no baseline snapshot found; this run establishes one")

    if not args.no_write:
        path = bench_mod.write_bench_file(result, args.output_dir)
        print(f"\nwrote {path}")
    return exit_code


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        for key in ("root", "entries", "bytes", "quarantine_entries",
                    "quarantine_bytes", "tmp_files", "schema"):
            print(f"{key}: {info[key]}")
    elif args.action == "verify":
        report = cache.verify()
        for key in ("scanned", "ok", "legacy", "quarantined", "tmp_removed"):
            print(f"{key}: {report[key]}")
        if report["quarantined"]:
            print(
                f"# {report['quarantined']} corrupt entr(ies) moved to "
                f"{cache.quarantine_root}; they will re-simulate as misses"
            )
    else:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
    return 0


def _parse_generator_params(pairs: List[str]) -> Dict[str, object]:
    """Parse repeated ``--param key=value`` flags (int/float/str coercion)."""
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        for convert in (lambda v: int(v, 0), float):
            try:
                params[key] = convert(raw)
                break
            except ValueError:
                continue
        else:
            params[key] = raw
    return params


def _apply_transform_flags(accesses, args: argparse.Namespace):
    """Chain the slice/cap/remap streaming transforms selected by flags."""
    if args.start or args.limit is not None:
        stop = None if args.limit is None else args.start + args.limit
        accesses = slice_accesses(accesses, args.start, stop)
    if args.instr_budget is not None:
        accesses = cap_instructions(accesses, args.instr_budget)
    if args.remap_offset is not None:
        try:
            offset = int(args.remap_offset, 0)
        except ValueError:
            raise TraceFormatError(
                f"--remap-offset must be an integer (decimal or 0x-hex), "
                f"got {args.remap_offset!r}"
            ) from None
        accesses = remap_addresses(accesses, offset=offset)
    return accesses


def _cmd_trace_export(args: argparse.Namespace) -> int:
    if args.trace is not None:
        matches = [
            spec for spec in all_trace_specs(main_only=False)
            if spec.name == args.trace
        ]
        if not matches:
            print(f"error: unknown trace {args.trace!r}; see "
                  "`python -m repro list suites`", file=sys.stderr)
            return 2
        spec = matches[0]
        accesses = iter(spec.build(length=args.length))
    else:
        try:
            params = _parse_generator_params(args.param)
            accesses = iter(make_trace(
                args.generator,
                seed=args.seed,
                length=args.length if args.length is not None else 40_000,
                **params,
            ))
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    accesses = _apply_transform_flags(accesses, args)
    count = trace_formats.save_trace_file(
        accesses, args.output, format=args.format, compression=args.compression
    )
    digest = trace_formats.file_digest(args.output)
    print(f"wrote {count} accesses to {args.output} (sha256 {digest[:16]}…)")
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    streams = [
        trace_formats.read_trace_stream(source, format=args.input_format)
        for source in args.sources
    ]
    if len(streams) == 1:
        combined = streams[0]
    else:
        combined = interleave(streams, chunk=args.interleave_chunk)
    combined = _apply_transform_flags(combined, args)
    count = trace_formats.save_trace_file(
        combined, args.output, format=args.format, compression=args.compression
    )
    digest = trace_formats.file_digest(args.output)
    print(
        f"wrote {count} accesses from {len(args.sources)} source(s) to "
        f"{args.output} (sha256 {digest[:16]}…)"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.no_stats:
        info = trace_formats.describe_trace_file(args.path)
        for key, value in info.items():
            print(f"{key}: {value}")
        return 0

    # One decode pass serves both the record/instruction counts and the
    # access-pattern statistics (decompression dominates on large traces).
    fmt = trace_formats.sniff_format(args.path)
    with trace_formats.open_for_read(args.path) as stream:
        header = fmt.describe(stream)
    stats = trace_statistics(
        trace_formats.read_trace_stream(args.path, format=fmt.name)
    )
    info = {
        "path": str(args.path),
        "format": fmt.name,
        "compression": trace_formats.sniff_compression(args.path),
        "bytes": Path(args.path).stat().st_size,
        "records": int(stats["accesses"]),
        "instructions": int(stats["instructions"]),
        "digest": trace_formats.file_digest(args.path),
    }
    info.update(header)
    for key, value in info.items():
        print(f"{key}: {value}")
    for key, value in stats.items():
        if key in ("accesses", "instructions"):
            continue  # already printed as records/instructions above
        print(f"{key}: {value:g}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "export": _cmd_trace_export,
        "import": _cmd_trace_import,
        "info": _cmd_trace_info,
    }
    try:
        return handlers[args.trace_command](args)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "figures":
        names: List[str] = sorted(_RUNNER_FIGURES)
    elif args.what == "tables":
        names = sorted(_TABLES)
    elif args.what == "sweeps":
        names = sorted(_SWEEPS)
    elif args.what == "prefetchers":
        names = available_prefetchers()
    else:
        names = sorted(SUITES)
    for name in names:
        print(name)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import RULES, run_lint

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].summary}")
        return 0
    rules = None
    if args.rules:
        rules = [token.strip().upper() for token in args.rules.split(",") if token.strip()]
    try:
        report = run_lint(
            root=Path(args.root) if args.root else None, rules=rules
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for diagnostic in report.diagnostics:
        print(diagnostic.format())
    waived = f", {len(report.waived)} waived" if report.waived else ""
    if report.diagnostics:
        print(
            f"repro lint: {len(report.diagnostics)} problem(s) "
            f"[{', '.join(report.rules_run)}{waived}]"
        )
        return 1
    print(f"repro lint: clean [{', '.join(report.rules_run)}{waived}]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_list(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
