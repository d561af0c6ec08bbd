"""Tests for the kernel-throughput benchmark harness and BENCH trajectory."""

import json

import pytest

from repro.experiments import bench
from repro.experiments.jobs import SimulationJob, execute_job
from repro.workloads.trace import TraceSpec


def _fake_result(rates):
    return {
        "schema": bench.BENCH_SCHEMA,
        "cases": {
            key: {"accesses_per_sec": rate, "accesses": 100, "best_wall_s": 0.1}
            for key, rate in rates.items()
        },
        "geomean_accesses_per_sec": 0.0,
    }


class TestBenchSuiteDefinition:
    def test_full_suite_covers_every_case_kind(self):
        cases = bench.bench_cases(quick=False)
        kernel = [c for c in cases if c.kind == "kernel"]
        scalar = [c for c in kernel if c.batch == "off"]
        mixes = [c for c in cases if c.kind == "mix"]
        streams = [c for c in cases if c.kind == "stream"]
        # The batched-kernel grids (spatial + temporal) plus the scalar
        # reference cases.
        assert len(kernel) == (
            len(bench.BENCH_TRACES) * len(bench.BENCH_PREFETCHERS)
            + len(bench.TEMPORAL_BENCH_PREFETCHERS)
            + len(scalar)
        )
        assert len(scalar) == 3
        assert len(mixes) == 1
        assert len(streams) == 2
        assert {c.generator for c in streams} == {
            "streaming", bench.TEMPORAL_BENCH_TRACE[0],
        }

    def test_scalar_reference_cases_have_distinct_keys(self):
        batched = bench.BenchCase("kernel", "spatial", 11, "none")
        scalar = bench.BenchCase("kernel", "spatial", 11, "none", batch="off")
        assert batched.key(40_000) == "spatial-s11-L40000/none"
        assert scalar.key(40_000) == "spatial-s11-L40000/none@scalar"

    def test_quick_cases_are_a_subset_of_the_full_suite(self):
        full = set(bench.bench_cases(quick=False))
        quick = set(bench.bench_cases(quick=True))
        assert quick < full
        # The quick lane must exercise the multi-core and streamed paths.
        assert any(c.kind == "mix" for c in quick)
        assert any(c.kind == "stream" for c in quick)

    def test_mix_case_key_is_stable(self):
        # The mix key must stay byte-identical to BENCH_5's, or --check
        # silently stops comparing the mix case.
        case = bench.BenchCase("mix", "hetero", 0, "gaze")
        assert case.key(40_000) == "mix4-hetero-L40000-exact/gaze"

    def test_kernel_case_keys_are_stable(self):
        # Kernel keys must stay byte-identical to v1 snapshots (BENCH_0)
        # so the trajectory remains comparable across schema versions.
        case = bench.BenchCase("kernel", "spatial", 11, "gaze")
        assert case.key(40_000) == "spatial-s11-L40000/gaze"

    def test_run_bench_smoke(self):
        # Tiny traces keep this a unit test; the case *keys* then differ
        # from the committed snapshots, which is fine — comparisons only
        # consider shared keys.
        result = bench.run_bench(quick=True, repeats=1, trace_length=400)
        assert result["schema"] == bench.BENCH_SCHEMA
        assert len(result["cases"]) == len(bench.QUICK_CASES)
        for payload in result["cases"].values():
            assert payload["accesses_per_sec"] > 0
            if payload["kind"] in ("kernel", "stream"):
                assert payload["accesses"] == 400
            else:  # mix: measured accesses across all cores
                assert payload["cores"] == len(bench.MIX_BENCH_SPECS)
                assert payload["accesses"] > 0
        assert result["geomean_accesses_per_sec"] > 0
        assert set(result["geomean_by_kind"]) == {"kernel", "mix", "stream"}
        for value in result["geomean_by_kind"].values():
            assert value > 0

    def test_mix_case_follows_kernel(self):
        # --kernel reaches the mix case too; its key stays tier-independent.
        for kernel in ("auto", "compiled"):
            result = bench.run_bench(
                repeats=1, trace_length=400, kernel=kernel, kinds=("mix",)
            )
            payload = result["cases"]["mix4-hetero-L400-exact/gaze"]
            assert payload["kernel"] == kernel
            assert payload["accesses"] > 0

    def test_run_bench_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            bench.run_bench(repeats=0)


class TestBenchFiles:
    def test_numbering_starts_at_zero_and_increments(self, tmp_path):
        directory = str(tmp_path)
        assert bench.latest_bench_file(directory) is None
        first = bench.write_bench_file(_fake_result({"a/x": 1.0}), directory)
        assert first.name == "BENCH_0.json"
        second = bench.write_bench_file(_fake_result({"a/x": 2.0}), directory)
        assert second.name == "BENCH_1.json"
        assert bench.latest_bench_file(directory) == second
        assert [p.name for p in bench.bench_files(directory)] == [
            "BENCH_0.json",
            "BENCH_1.json",
        ]

    def test_round_trip(self, tmp_path):
        result = _fake_result({"a/x": 123.0})
        path = bench.write_bench_file(result, str(tmp_path))
        assert bench.load_bench_file(path) == result

    def test_committed_trajectory_is_valid(self):
        # The repository commits its own trajectory; the latest snapshot
        # must carry the *current* full suite at the standard trace length
        # (earlier snapshots may predate newer case kinds) plus, at most,
        # cases retired since it was taken.
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        files = bench.bench_files(str(repo_root))
        assert files, "expected committed BENCH_<n>.json files at the repo root"
        latest = bench.load_bench_file(files[-1])
        assert latest["schema"] == bench.BENCH_SCHEMA
        expected_keys = {
            case.key(bench.BENCH_TRACE_LENGTH)
            for case in bench.bench_cases(quick=False)
        }
        retired = {"mix4-hetero-L40000-epoch/gaze"}
        assert set(latest["cases"]) - retired == expected_keys
        # Kernel keys are stable across schema versions: every kernel case
        # of the first snapshot must still be part of the current suite.
        first = bench.load_bench_file(files[0])
        assert set(first["cases"]) <= expected_keys


class TestBenchComparison:
    def test_no_regression(self):
        old = _fake_result({"a/x": 100.0, "a/y": 100.0})
        new = _fake_result({"a/x": 90.0, "a/y": 130.0})
        report = bench.compare_bench(new, old, threshold=0.40)
        assert report["ok"]
        assert report["regressions"] == []
        assert report["ratios"]["a/x"] == pytest.approx(0.9)

    def test_regression_detected(self):
        old = _fake_result({"a/x": 100.0})
        new = _fake_result({"a/x": 50.0})
        report = bench.compare_bench(new, old, threshold=0.40)
        assert not report["ok"]
        assert report["regressions"] == ["a/x"]

    def test_only_shared_cases_compared(self):
        old = _fake_result({"a/x": 100.0, "only-old": 1.0})
        new = _fake_result({"a/x": 100.0, "only-new": 1.0})
        report = bench.compare_bench(new, old, threshold=0.40)
        assert report["shared_cases"] == ["a/x"]
        assert report["geomean_ratio"] == pytest.approx(1.0)

    def test_mix_regression_not_masked_by_kernel_win(self):
        # The global geomean can look healthy while one kind collapses;
        # the per-kind geomeans surface (and fail) the collapsed kind.
        old = _fake_result({"k/x": 100.0, "mix4/x": 100.0})
        new = _fake_result({"k/x": 300.0, "mix4/x": 50.0})
        for result in (old, new):
            result["cases"]["k/x"]["kind"] = "kernel"
            result["cases"]["mix4/x"]["kind"] = "mix"
        report = bench.compare_bench(new, old, threshold=0.40)
        assert report["geomean_ratio"] > 1.0  # masked at the global level
        assert report["geomean_ratio_by_kind"]["kernel"] == pytest.approx(3.0)
        assert report["geomean_ratio_by_kind"]["mix"] == pytest.approx(0.5)
        assert report["kind_regressions"] == ["mix"]
        assert not report["ok"]

    def test_kind_defaults_to_kernel_for_legacy_payloads(self):
        old = _fake_result({"a/x": 100.0})
        new = _fake_result({"a/x": 100.0})
        report = bench.compare_bench(new, old, threshold=0.40)
        assert report["geomean_ratio_by_kind"] == {"kernel": pytest.approx(1.0)}
        assert report["kind_regressions"] == []

    def test_unshared_cases_are_reported_by_name(self):
        # A renamed case must not silently lose regression coverage: it
        # shows up as uncovered-in-baseline plus new-without-baseline.
        old = _fake_result({"a/x": 100.0, "renamed-old": 50.0})
        new = _fake_result({"a/x": 100.0, "renamed-new": 50.0})
        report = bench.compare_bench(new, old, threshold=0.40)
        assert report["only_in_baseline"] == ["renamed-old"]
        assert report["only_in_new"] == ["renamed-new"]


class TestExecuteJobTiming:
    def _job(self):
        spec = TraceSpec(
            name="t", suite="test", generator="spatial", seed=5, length=600
        )
        return SimulationJob(spec=spec, prefetcher="none", trace_length=600)

    def test_timing_off_by_default(self):
        stats = execute_job(self._job())
        assert "wall_time_s" not in stats.extra
        assert "accesses_per_sec" not in stats.extra

    def test_timing_recorded_on_request(self):
        stats = execute_job(self._job(), record_timing=True)
        assert stats.extra["wall_time_s"] > 0
        assert stats.extra["accesses_per_sec"] == pytest.approx(
            stats.demand_accesses / stats.extra["wall_time_s"]
        )

    def test_timed_and_untimed_counters_identical(self):
        timed = execute_job(self._job(), record_timing=True)
        untimed = execute_job(self._job())
        timed_dict = timed.to_dict()
        timed_dict["extra"] = {}
        assert timed_dict == untimed.to_dict()


class TestBenchCLI:
    def test_cli_quick_writes_and_compares(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        # Shrink the suite so the CLI test stays fast.
        monkeypatch.setattr(
            bench, "QUICK_CASES", (bench.BenchCase("kernel", "spatial", 11, "none"),)
        )
        monkeypatch.setattr(bench, "BENCH_TRACE_LENGTH", 400)
        directory = str(tmp_path)
        code = cli.main(
            ["bench", "--quick", "--repeats", "1", "--output-dir", directory]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "establishes one" in out
        written = bench.latest_bench_file(directory)
        assert written is not None and written.name == "BENCH_0.json"

        # Second run compares against the first and writes BENCH_1.json.
        # The tiny monkeypatched suite measures ~milliseconds of wall
        # time, so scheduler noise between the two runs can be large; a
        # near-maximal threshold keeps this a plumbing test, not a perf
        # assertion.
        code = cli.main(
            ["bench", "--quick", "--repeats", "1", "--output-dir", directory,
             "--check", "--threshold", "95"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shared cases" in out
        assert bench.latest_bench_file(directory).name == "BENCH_1.json"

    def test_cli_check_fails_on_regression(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(
            bench, "QUICK_CASES", (bench.BenchCase("kernel", "spatial", 11, "none"),)
        )
        monkeypatch.setattr(bench, "BENCH_TRACE_LENGTH", 400)
        directory = str(tmp_path)
        key = bench._case_key("spatial", 11, "none", 400)
        impossible = _fake_result({key: 1e15})
        (tmp_path / "BENCH_0.json").write_text(
            json.dumps(impossible), encoding="utf-8"
        )
        code = cli.main(
            ["bench", "--quick", "--repeats", "1", "--output-dir", directory,
             "--check", "--no-write"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_reports_uncovered_baseline_cases(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setattr(
            bench, "QUICK_CASES", (bench.BenchCase("kernel", "spatial", 11, "none"),)
        )
        monkeypatch.setattr(bench, "BENCH_TRACE_LENGTH", 400)
        key = bench._case_key("spatial", 11, "none", 400)
        baseline = _fake_result({key: 1.0, "vanished-case/gaze": 1.0})
        (tmp_path / "BENCH_0.json").write_text(
            json.dumps(baseline), encoding="utf-8"
        )
        code = cli.main(
            ["bench", "--quick", "--repeats", "1", "--output-dir",
             str(tmp_path), "--check", "--no-write"]
        )
        out = capsys.readouterr().out
        assert code == 0  # uncovered cases are reported, not failed
        assert "not measured this run" in out
        assert "vanished-case/gaze" in out

    def test_cli_rejects_bad_flags(self, capsys):
        from repro import cli

        assert cli.main(["bench", "--repeats", "0"]) == 2
        assert cli.main(["bench", "--threshold", "0"]) == 2
