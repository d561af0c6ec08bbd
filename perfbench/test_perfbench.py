"""Tests of the benchmark's own arithmetic, digests and guards.

Run from the repository root with ``python -m pytest perfbench``.  They
simulate nothing: spans are synthetic and the figure grid is captured
before its first job runs.
"""

import importlib
import math
import sys
import types

import pytest

import figure_process
import layers
import run
from tracing import (
    Span,
    Tracer,
    durations,
    percentile,
    roots_with,
    self_time_by_name,
    self_times,
    tail_percentile,
)


def nested_job_spans():
    """One job: execute_job > simulate_trace > (attach, 2 x run, detach)."""
    return [
        Span("execute_job", 0.0, 10.0, -1),
        Span("workloads.build", 0.5, 1.5, 0),
        Span("sim.python", 2.0, 9.0, 0),
        Span("sim.driver.attach", 2.5, 3.0, 2, "engaged"),
        Span("sim.driver.run", 3.0, 5.0, 2),
        Span("sim.driver.run", 5.0, 6.0, 2),
        Span("sim.driver.detach", 6.0, 8.5, 2),
        Span("execute_job", 10.0, 14.0, -1),
        Span("sim.python", 10.5, 13.5, 7),
        Span("sim.driver.attach", 11.0, 11.25, 8, "declined"),
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    own = self_times(nested_job_spans())
    # execute_job: 10 s minus build (1) and simulate_trace (7).
    assert own[0] == pytest.approx(2.0)
    # simulate_trace: 7 s minus attach 0.5, runs 3, detach 2.5.
    assert own[2] == pytest.approx(1.0)
    assert own[8] == pytest.approx(2.75)
    assert own[4] == pytest.approx(2.0)


def test_self_time_by_name_sums_and_covers_every_second():
    spans = nested_job_spans()
    totals = self_time_by_name(spans)
    assert totals["sim.python"] == pytest.approx(1.0 + 2.75)
    assert totals["sim.driver.run"] == pytest.approx(3.0)
    assert totals["sim.driver.detach"] == pytest.approx(2.5)
    roots = sum(d for d in durations(spans, "execute_job"))
    assert sum(totals.values()) == pytest.approx(roots)


def test_tracer_records_nesting_outcome_and_unwinds_on_error():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: (None, "why") if x else ("drv", None),
                        classify=layers._attach_outcome)
    outer = tracer.wrap("outer", lambda: [inner(0), inner(1)])

    def boom():
        raise KeyError("x")

    failing = tracer.wrap("failing", boom)
    outer()
    with pytest.raises(KeyError):
        failing()
    names = [(s.name, s.parent, s.outcome) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, "engaged"),
                     ("inner", 0, "declined"), ("failing", -1, None)]
    assert all(s.end > s.start for s in tracer.spans)
    outer()
    assert tracer.spans[-1].parent == 4


def test_roots_with_maps_layer_spans_to_their_job():
    spans = nested_job_spans()
    assert roots_with(spans, "sim.driver.attach", "engaged") == {0}
    assert roots_with(spans, "sim.driver.attach", "declined") == {7}
    assert roots_with(spans, "sim.python") == {0, 7}
    assert roots_with(spans, "sim.multicore") == set()


def test_layer_metrics_on_synthetic_spans():
    tracer = Tracer()
    tracer.spans.extend(nested_job_spans())
    extra = [Span("execute_job", 14.0, 14.0 + i, -1) for i in range(1, 19)]
    tracer.spans.extend(extra)
    metrics = layers.layer_metrics(tracer, rows_at=40.0)
    assert metrics["sim.driver.jobs"] == 1
    assert metrics["sim.driver.declines"] == 1
    assert metrics["sim.python_jobs"] == 1
    assert metrics["sim.python_s"] == pytest.approx(3.75)
    assert metrics["sim.driver.detach_s"] == pytest.approx(2.5)
    assert metrics["workloads.build_calls"] == 1
    assert metrics["experiments.job_n"] == 20
    assert metrics["experiments.job_tail_pct"] == 50
    job_seconds = 10.0 + 4.0 + sum(range(1, 19))
    assert metrics["experiments.overhead_s"] == pytest.approx(40.0 - job_seconds)
    assert set(metrics) | {"prefetchers.issued", "prefetchers.accuracy",
                           "trace.overhead_frac"} == set(run.LAYER_UNITS)


# --------------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [(150, 93), (84, 88), (20, 50), (21, 52),
                                         (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    rank = math.ceil(p * n / 100)
    assert n - rank >= 10
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 151))[::-1]
    assert percentile(samples, 93) == 140
    assert percentile(samples, 50) == 75
    assert percentile([3.0], 50) == 3.0


# --------------------------------------------------------------------------- #
# Digests and failure counting
# --------------------------------------------------------------------------- #
def test_stats_digest_covers_simulated_counters_not_extra():
    from repro.sim.stats import MultiCoreStats, SimulationStats

    stats = SimulationStats(name="t", prefetcher="gaze", instructions=10, cycles=20)
    digest = figure_process.stats_digest(stats)
    stats.extra["wall_time_s"] = 1.5
    assert figure_process.stats_digest(stats) == digest
    stats.prefetch.issued += 1
    assert figure_process.stats_digest(stats) != digest

    mix = MultiCoreStats(name="m", per_core={0: stats})
    mix_digest = figure_process.stats_digest(mix)
    stats.extra["kernel_tier"] = "python"
    assert figure_process.stats_digest(mix) == mix_digest
    stats.cycles += 1
    assert figure_process.stats_digest(mix) != mix_digest


def test_nan_cells_walks_nested_rows():
    rows = [{"a": 1.0, "b": float("nan")}, {"c": {"d": float("nan"), "e": "x"}}]
    assert figure_process.nan_cells(rows) == 2
    assert figure_process.nan_cells({"a": [1.0, 2]}) == 0


def report(jobs, **overrides):
    base = {"jobs": jobs, "tier_errors": [], "engaged": 5, "nan_cells": 0}
    base.update(overrides)
    return base


def test_failed_jobs_counts_mismatch_failure_and_nan():
    reference = [["a/none", "d1"], ["a/gaze", "d2"], ["b/none", "d3"]]
    assert run.failed_jobs(report(reference), reference, 1) == 0
    mismatched = [["a/none", "d1"], ["a/gaze", "XX"], ["b/none", None]]
    assert run.failed_jobs(report(mismatched), reference, 1) == 2
    assert run.failed_jobs(report(reference, nan_cells=1), reference, 1) == 1
    assert run.failed_jobs(report(reference[:2]), reference, 1) == 1


def test_failed_jobs_fails_every_job_on_the_wrong_tier():
    reference = [["a/none", "d1"], ["a/gaze", "d2"]]
    wrong = report(reference, tier_errors=["repro._kernels did not load"])
    assert run.failed_jobs(wrong, reference, 0) == 2
    assert run.failed_jobs(report(reference, engaged=0), reference, 1) == 2


def test_benchmark_json_names_the_metrics_run_reports():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_pins_cover_every_workload_with_named_jobs():
    import json

    pins = json.loads(run.PINS.read_text())
    assert {name: len(jobs) for name, jobs in pins.items()} == {
        "fig6-compiled": 150, "fig11-python": 84, "fig15-mix": 20}
    assert figure_process.WORKLOADS.keys() == pins.keys()


# --------------------------------------------------------------------------- #
# Tier guards
# --------------------------------------------------------------------------- #
def test_blocked_extension_passes_only_the_python_guard(monkeypatch):
    monkeypatch.setitem(sys.modules, "repro._kernels", object())
    assert figure_process.load_extension("none") is None
    with pytest.raises(ImportError):
        importlib.import_module("repro._kernels")
    assert figure_process.tier_errors("python", "none") == []
    assert figure_process.tier_errors("compiled", "x.so") == [
        "repro._kernels did not load"]


def test_importable_extension_fails_the_python_guard(monkeypatch):
    monkeypatch.setitem(sys.modules, "repro._kernels",
                        types.ModuleType("repro._kernels"))
    assert figure_process.tier_errors("python", "none") == [
        "repro._kernels is importable in the Python-tier process"]


def test_compiled_guard_rejects_a_module_from_elsewhere(monkeypatch, tmp_path):
    from repro.sim import driver

    stale = types.ModuleType("repro._kernels")
    stale.__file__ = str(tmp_path / "stale.so")
    stale.DriverKernel = object
    monkeypatch.setitem(sys.modules, "repro._kernels", stale)
    monkeypatch.setattr(driver, "_kernels", stale)
    errors = figure_process.tier_errors("compiled", str(tmp_path / "fresh.so"))
    assert len(errors) == 1 and "not the fresh build" in errors[0]
    assert figure_process.tier_errors("compiled", stale.__file__) == []


# --------------------------------------------------------------------------- #
# Seeded grids
# --------------------------------------------------------------------------- #
class Captured(Exception):
    pass


def captured_grid(figure, runner):
    """The job batch ``figure`` submits, captured before anything runs."""
    seen = []

    def capture(jobs, *args, **kwargs):
        seen.extend(jobs)
        raise Captured

    runner.engine.run_jobs = capture
    with pytest.raises(Captured):
        figure(runner)
    return seen


@pytest.mark.parametrize("workload", sorted(figure_process.WORKLOADS))
def test_seed_zero_is_the_figure_grid_and_seeds_shift_every_spec(workload):
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner

    figure_name, kernel, _min_engaged = figure_process.WORKLOADS[workload]
    figure = getattr(figures, figure_name)
    options = dict(jobs=1, use_cache=False, kernel=kernel, faults="off")
    plain = captured_grid(figure, ExperimentRunner(**options))
    seeded = captured_grid(figure, figure_process.seeded_runner(0, **options))
    shifted = captured_grid(figure, figure_process.seeded_runner(7, **options))
    assert len(plain) == {"fig6-compiled": 150, "fig11-python": 84,
                          "fig15-mix": 20}[workload]
    assert [job.key() for job in seeded] == [job.key() for job in plain]

    def seeds(job):
        return [spec.seed for spec in getattr(job, "specs", None) or (job.spec,)]

    for before, after in zip(plain, shifted):
        assert [seed + 7 for seed in seeds(before)] == seeds(after)
