"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestListCommands:
    def test_list_figures(self, capsys):
        code, out = _run(["list", "figures"], capsys)
        assert code == 0
        names = out.split()
        assert "fig6" in names and "fig18" in names

    def test_list_prefetchers(self, capsys):
        code, out = _run(["list", "prefetchers"], capsys)
        assert code == 0
        assert "gaze" in out.split()

    def test_list_suites(self, capsys):
        code, out = _run(["list", "suites"], capsys)
        assert code == 0
        assert "spec17" in out.split()

    def test_list_tables_and_sweeps(self, capsys):
        assert "table5" in _run(["list", "tables"], capsys)[1].split()
        assert "dram" in _run(["list", "sweeps"], capsys)[1].split()


class TestRunCommand:
    def test_adhoc_grid(self, tmp_path, capsys):
        code, out = _run(
            [
                "run", "--suite", "spec17", "--prefetchers", "ip-stride",
                "--trace-length", "600", "--traces-per-suite", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            capsys,
        )
        assert code == 0
        assert "ip-stride" in out
        assert "speedup" in out
        assert "# 2 simulated" in out

    def test_warm_rerun_skips_simulation(self, tmp_path, capsys):
        argv = [
            "run", "--suite", "spec17", "--prefetchers", "ip-stride",
            "--trace-length", "600", "--traces-per-suite", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        _run(argv, capsys)
        code, out = _run(argv, capsys)
        assert code == 0
        assert "# 0 simulated" in out
        assert "2 cache hits" in out

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        # Run from a fresh CWD so the default .repro-cache location would be
        # observable if --no-cache failed to suppress it.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code, out = _run(
            [
                "run", "--suite", "spec17", "--prefetchers", "ip-stride",
                "--trace-length", "600", "--traces-per-suite", "1",
                "--no-cache",
            ],
            capsys,
        )
        assert code == 0
        assert "cache: disabled" in out
        assert not (tmp_path / ".repro-cache").exists()

    def test_run_table(self, capsys):
        code, out = _run(["run", "--table", "table1"], capsys)
        assert code == 0
        assert "structure" in out

    def test_figure_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--figure", "fig99"])

    def test_unknown_prefetcher_is_clean_error(self, capsys):
        code = main(["run", "--suite", "spec17", "--prefetchers", "gazee",
                     "--trace-length", "600", "--traces-per-suite", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown prefetcher 'gazee'" in err

    def test_empty_prefetchers_is_clean_error(self, capsys):
        code = main(["run", "--suite", "spec17", "--prefetchers", " , ",
                     "--trace-length", "600", "--traces-per-suite", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no prefetchers" in err

    def test_mix_figure_is_engine_backed(self, tmp_path, capsys, monkeypatch):
        # Stub the expensive multi-core figure: this test covers CLI flag
        # plumbing (runner + mix kwargs), not the simulation itself.
        import repro.cli as cli

        seen = {}

        def stub(runner, **kwargs):
            seen["runner"] = runner
            seen.update(kwargs)
            return [{"mix": "stub"}]

        monkeypatch.setitem(cli._RUNNER_FIGURES, "fig15", stub)
        code = main(["run", "--figure", "fig15", "--jobs", "2",
                     "--cache-dir", str(tmp_path), "--trace-length", "2000"])
        captured = capsys.readouterr()
        assert code == 0
        assert seen["trace_length"] == 2000
        assert "mode" not in seen  # mixes have one schedule, no knob
        assert seen["runner"].engine.executor.jobs == 2
        assert "simulated" in captured.out  # engine summary is printed


class TestTraceCommands:
    def test_export_info_import_round_trip(self, tmp_path, capsys):
        exported = tmp_path / "t.gzt.gz"
        code, out = _run(
            ["trace", "export", "--generator", "streaming", "--seed", "4",
             "--length", "400", "-o", str(exported)],
            capsys,
        )
        assert code == 0
        assert "wrote 400 accesses" in out

        code, out = _run(["trace", "info", str(exported)], capsys)
        assert code == 0
        assert "format: native" in out
        assert "compression: gzip" in out
        assert "records: 400" in out

        converted = tmp_path / "t.champsim"
        code, out = _run(
            ["trace", "import", str(exported), "-o", str(converted)], capsys
        )
        assert code == 0
        from repro.workloads import load_trace

        assert load_trace(converted) == load_trace(exported)

    def test_export_named_trace_with_transforms(self, tmp_path, capsys):
        out_path = tmp_path / "bwaves.jsonl"
        code, out = _run(
            ["trace", "export", "--trace", "bwaves_s-like", "--length", "300",
             "--start", "50", "--limit", "100", "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "wrote 100 accesses" in out

    def test_export_generator_params(self, tmp_path, capsys):
        out_path = tmp_path / "g.gzt"
        code, out = _run(
            ["trace", "export", "--generator", "strided", "--length", "100",
             "--param", "stride_blocks=4", "--param", "num_streams=1",
             "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        from repro.workloads import load_trace

        blocks = [a.address >> 6 for a in load_trace(out_path)]
        assert {b - a for a, b in zip(blocks, blocks[1:])} == {4}

    def test_import_interleaves_multiple_sources(self, tmp_path, capsys):
        from repro.sim.types import MemoryAccess
        from repro.workloads import load_trace, save_trace

        a_path = tmp_path / "a.jsonl"
        b_path = tmp_path / "b.jsonl"
        save_trace([MemoryAccess(pc=1, address=64 * i) for i in range(3)], a_path)
        save_trace([MemoryAccess(pc=2, address=64 * i) for i in range(3)], b_path)
        mixed_path = tmp_path / "mix.gzt"
        code, out = _run(
            ["trace", "import", str(a_path), str(b_path), "-o", str(mixed_path)],
            capsys,
        )
        assert code == 0
        assert "wrote 6 accesses from 2 source(s)" in out
        assert [a.pc for a in load_trace(mixed_path)] == [1, 2, 1, 2, 1, 2]

    def test_info_rejects_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.gzt"
        path.write_bytes(b"NOTATRACE_______" + b"\x00" * 10)
        code = main(["trace", "info", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_export_unknown_generator_is_clean_error(self, tmp_path, capsys):
        code = main(["trace", "export", "--generator", "quantum",
                     "-o", str(tmp_path / "t.gzt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "quantum" in err

    def test_export_unknown_named_trace_is_clean_error(self, tmp_path, capsys):
        code = main(["trace", "export", "--trace", "no-such-trace",
                     "-o", str(tmp_path / "t.gzt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-trace" in err


class TestRunTraceFile:
    def test_run_on_gzip_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "stream.gzt.gz"
        _run(
            ["trace", "export", "--generator", "streaming", "--seed", "9",
             "--length", "1500", "-o", str(trace_path)],
            capsys,
        )
        code, out = _run(
            ["run", "--trace-file", str(trace_path),
             "--prefetchers", "ip-stride",
             "--cache-dir", str(tmp_path / "cache")],
            capsys,
        )
        assert code == 0
        assert "stream.gzt.gz" in out
        assert "speedup" in out
        assert "# 2 simulated" in out

    def test_trace_file_results_are_cached(self, tmp_path, capsys):
        trace_path = tmp_path / "stream.gzt.gz"
        _run(
            ["trace", "export", "--generator", "streaming", "--seed", "9",
             "--length", "1500", "-o", str(trace_path)],
            capsys,
        )
        argv = ["run", "--trace-file", str(trace_path),
                "--prefetchers", "ip-stride",
                "--cache-dir", str(tmp_path / "cache")]
        _run(argv, capsys)
        code, out = _run(argv, capsys)
        assert code == 0
        assert "# 0 simulated" in out

    def test_trace_file_conflicts_with_figure(self, tmp_path, capsys):
        code = main(["run", "--trace-file", str(tmp_path / "t.gzt"),
                     "--figure", "fig6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--trace-file" in err

    def test_missing_trace_file_is_clean_error(self, tmp_path, capsys):
        code = main(["run", "--trace-file", str(tmp_path / "absent.gzt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_suite_traces_not_inflated_by_file_length(self, tmp_path, capsys):
        # A long file trace combined with --suite must not stretch the
        # synthetic suite traces to the file's length.
        trace_path = tmp_path / "long.gzt"
        _run(
            ["trace", "export", "--generator", "streaming", "--seed", "1",
             "--length", "30000", "-o", str(trace_path)],
            capsys,
        )
        import repro.cli as cli
        from repro.experiments.runner import ExperimentRunner

        seen_lengths = {}
        original = ExperimentRunner.job_for

        def spy(self, spec, *a, **kw):
            job = original(self, spec, *a, **kw)
            seen_lengths[spec.name] = job.trace_length
            return job

        try:
            ExperimentRunner.job_for = spy
            code = main(
                ["run", "--trace-file", str(trace_path),
                 "--suite", "spec17", "--prefetchers", "ip-stride",
                 "--traces-per-suite", "1", "--no-cache"]
            )
        finally:
            ExperimentRunner.job_for = original
        captured = capsys.readouterr()
        assert code == 0
        assert "capped at the grid trace length" in captured.err
        suite_lengths = {
            name: length for name, length in seen_lengths.items()
            if name != "long.gzt"
        }
        assert suite_lengths and all(
            length <= 12_000 for length in suite_lengths.values()
        )

    def test_empty_trace_file_is_clean_error(self, tmp_path, capsys):
        from repro.workloads import save_trace

        path = tmp_path / "empty.gzt"
        save_trace([], path)
        code = main(["run", "--trace-file", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "empty" in err

    def test_bad_remap_offset_is_clean_error(self, tmp_path, capsys):
        code = main(["trace", "export", "--generator", "streaming",
                     "--length", "10", "--remap-offset", "zz",
                     "-o", str(tmp_path / "t.gzt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--remap-offset" in err


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        _run(
            [
                "run", "--suite", "spec17", "--prefetchers", "ip-stride",
                "--trace-length", "600", "--traces-per-suite", "1",
                "--cache-dir", cache_dir,
            ],
            capsys,
        )
        code, out = _run(["cache", "info", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert "entries: 2" in out

        code, out = _run(["cache", "clear", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert "removed 2" in out
        code, out = _run(["cache", "info", "--cache-dir", cache_dir], capsys)
        assert "entries: 0" in out
