"""The repro lint engine: rule-by-rule fixtures, waivers, CLI and the
"real repository is clean" gate.

Each rule is exercised against a miniature fixture tree (``tmp_path``
acting as a repo root) that seeds exactly the violation the rule exists
to catch, so the assertions can pin the full diagnostic down to rule ID,
path and message fragment.  R2's fixtures are copies of the real anchor
files with one constant edited — the cheapest way to guarantee every
anchor resolves while still proving drift detection.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, run_lint
from repro.analysis.lint.diagnostics import Diagnostic, is_waived, waived_rules
from repro.cli import main
from repro.prefetchers import available_prefetchers

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The real files R2 anchors on; fixture trees copy these wholesale.
R2_ANCHORS = (
    "src/repro/_kernels.c",
    "src/repro/sim/driver.py",
    "src/repro/prefetchers/berti.py",
    "src/repro/sim/types.py",
    "src/repro/prefetchers/compiled.py",
)


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def _copy_anchors(root: Path) -> None:
    for rel in R2_ANCHORS:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)


def _full_grid_snapshot() -> dict:
    return {name: {} for name in available_prefetchers()}


def _messages(report, rule=None):
    return [
        d.format() for d in report.diagnostics if rule is None or d.rule == rule
    ]


# --------------------------------------------------------------------------- #
# Waiver syntax
# --------------------------------------------------------------------------- #
class TestWaiverSyntax:
    def test_no_marker(self):
        assert waived_rules("x = 1  # just a comment") is None

    def test_single_rule(self):
        assert waived_rules("x = {}  # repro-lint: waive R3") == {"R3"}

    def test_multiple_rules(self):
        assert waived_rules("# repro-lint: waive R2, R3") == {"R2", "R3"}

    def test_all(self):
        assert waived_rules("# repro-lint: waive all") == {"all"}

    def test_case_insensitive(self):
        assert waived_rules("# REPRO-LINT: WAIVE r3") == {"R3"}

    def test_c_comment_style(self):
        assert waived_rules("int x; /* repro-lint: waive R2 */") == {"R2"}

    def test_marker_without_tokens_waives_nothing(self):
        # A bare marker is a loud no-op, not a blanket waiver.
        assert waived_rules("# repro-lint: waive") == frozenset()

    def test_is_waived_on_flagged_line(self):
        lines = ["a = {}  # repro-lint: waive R3"]
        assert is_waived(Diagnostic("R3", "f.py", 1, "m"), lines)
        assert not is_waived(Diagnostic("R1", "f.py", 1, "m"), lines)

    def test_is_waived_on_line_above(self):
        lines = ["# repro-lint: waive R3", "a = {}"]
        assert is_waived(Diagnostic("R3", "f.py", 2, "m"), lines)

    def test_not_waived_two_lines_up(self):
        lines = ["# repro-lint: waive R3", "", "a = {}"]
        assert not is_waived(Diagnostic("R3", "f.py", 3, "m"), lines)

    def test_all_waives_any_rule(self):
        lines = ["a = {}  # repro-lint: waive all"]
        assert is_waived(Diagnostic("R4", "f.py", 1, "m"), lines)


# --------------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(root=tmp_path, rules=["R1", "R99"])

    def test_rule_subset_runs_only_those(self, tmp_path):
        report = run_lint(root=tmp_path, rules=["R5"])
        assert report.rules_run == ("R5",)

    def test_empty_root_is_mostly_clean(self, tmp_path):
        # An empty tree has nothing for the file-based rules to flag; R4
        # still requires the golden snapshot (the registry is live).
        report = run_lint(root=tmp_path)
        assert all(d.rule == "R4" for d in report.diagnostics)

    def test_diagnostic_format(self):
        d = Diagnostic("R1", "src/x.py", 12, "message text")
        assert d.format() == "src/x.py:12: R1: message text"


# --------------------------------------------------------------------------- #
# R1 — job-key completeness
# --------------------------------------------------------------------------- #
class TestR1JobKeys:
    def _job(self, body: str) -> str:
        return (
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\n"
            "class Job:\n" + textwrap.indent(textwrap.dedent(body), "    ")
        )

    def test_unconsumed_field_is_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/job.py", self._job(
            """\
            trace: str
            seed: int
            batch: str

            def to_dict(self):
                return {"trace": self.trace, "seed": self.seed}
            """
        ))
        report = run_lint(root=tmp_path, rules=["R1"])
        assert len(report.diagnostics) == 1
        diagnostic = report.diagnostics[0]
        assert diagnostic.rule == "R1"
        assert diagnostic.path == "src/repro/job.py"
        assert "'batch' of Job" in diagnostic.message
        assert "KEY_EXCLUDED" in diagnostic.message

    def test_key_excluded_field_is_fine(self, tmp_path):
        _write(tmp_path, "src/repro/job.py", self._job(
            """\
            trace: str
            batch: str

            KEY_EXCLUDED = ("batch",)

            def to_dict(self):
                return {"trace": self.trace}
            """
        ))
        assert run_lint(root=tmp_path, rules=["R1"]).ok

    def test_transitive_consumption_through_key(self, tmp_path):
        _write(tmp_path, "src/repro/job.py", self._job(
            """\
            trace: str
            seed: int

            def _identity(self):
                return (self.trace, self.seed)

            def to_dict(self):
                return dict(zip(("trace", "seed"), self._identity()))
            """
        ))
        assert run_lint(root=tmp_path, rules=["R1"]).ok

    def test_asdict_consumes_every_field(self, tmp_path):
        _write(tmp_path, "src/repro/job.py", self._job(
            """\
            trace: str
            seed: int

            def to_dict(self):
                from dataclasses import asdict
                return asdict(self)
            """
        ))
        assert run_lint(root=tmp_path, rules=["R1"]).ok

    def test_stale_exclusions_are_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/job.py", self._job(
            """\
            trace: str

            KEY_EXCLUDED = ("gone", "trace")

            def to_dict(self):
                return {"trace": self.trace}
            """
        ))
        report = run_lint(root=tmp_path, rules=["R1"])
        messages = _messages(report)
        assert len(messages) == 2
        assert any("'gone'" in m and "no such field" in m for m in messages)
        assert any("'trace'" in m and "consumed" in m for m in messages)

    def test_unfrozen_or_keyless_classes_ignored(self, tmp_path):
        _write(tmp_path, "src/repro/job.py",
            """\
            from dataclasses import dataclass

            @dataclass
            class Mutable:
                hidden: int

                def to_dict(self):
                    return {}

            @dataclass(frozen=True)
            class NoKey:
                hidden: int
            """
        )
        assert run_lint(root=tmp_path, rules=["R1"]).ok


# --------------------------------------------------------------------------- #
# R2 — twin-constant drift
# --------------------------------------------------------------------------- #
class TestR2TwinConstants:
    def test_faithful_copy_is_clean(self, tmp_path):
        _copy_anchors(tmp_path)
        report = run_lint(root=tmp_path, rules=["R2"])
        assert report.ok, _messages(report)

    def test_seeded_flag_drift_is_caught(self, tmp_path):
        _copy_anchors(tmp_path)
        driver = tmp_path / "src/repro/sim/driver.py"
        text = driver.read_text(encoding="utf-8")
        assert "_F_DIRTY = 8" in text
        driver.write_text(
            text.replace("_F_DIRTY = 8", "_F_DIRTY = 9"), encoding="utf-8"
        )
        report = run_lint(root=tmp_path, rules=["R2"])
        assert len(report.diagnostics) == 1
        message = report.diagnostics[0].message
        assert "twin drift" in message and "_F_DIRTY" in message

    def test_seeded_python_ptype_drift_is_caught(self, tmp_path):
        _copy_anchors(tmp_path)
        kernels = tmp_path / "src/repro/_kernels.c"
        text = kernels.read_text(encoding="utf-8")
        assert "DRV_PF_PYTHON = 5" in text
        kernels.write_text(
            text.replace("DRV_PF_PYTHON = 5", "DRV_PF_PYTHON = 6"),
            encoding="utf-8",
        )
        report = run_lint(root=tmp_path, rules=["R2"])
        assert len(report.diagnostics) == 1
        message = report.diagnostics[0].message
        assert "twin drift" in message and "PF_PYTHON" in message

    def test_seeded_berti_pc_mask_drift_is_caught(self, tmp_path):
        _copy_anchors(tmp_path)
        berti = tmp_path / "src/repro/prefetchers/berti.py"
        text = berti.read_text(encoding="utf-8")
        assert "pc & 0xFFFF" in text
        berti.write_text(
            text.replace("pc & 0xFFFF", "pc & 0xFFF"), encoding="utf-8"
        )
        report = run_lint(root=tmp_path, rules=["R2"])
        assert len(report.diagnostics) == 1
        message = report.diagnostics[0].message
        assert "twin drift" in message and "PC mask" in message

    def test_seeded_threshold_table_drift_is_caught(self, tmp_path):
        _copy_anchors(tmp_path)
        compiled = tmp_path / "src/repro/prefetchers/compiled.py"
        text = compiled.read_text(encoding="utf-8")
        assert "[unreachable] * 64" in text
        compiled.write_text(
            text.replace("[unreachable] * 64", "[unreachable] * 63"),
            encoding="utf-8",
        )
        report = run_lint(root=tmp_path, rules=["R2"])
        assert len(report.diagnostics) == 2  # both the L1 and L2 tables
        assert all(
            "twin drift" in d.message and "_occ_thr" in d.message
            for d in report.diagnostics
        )

    def test_seeded_kernels_abi_drift_is_caught(self, tmp_path):
        _copy_anchors(tmp_path)
        compiled = tmp_path / "src/repro/prefetchers/compiled.py"
        text = compiled.read_text(encoding="utf-8")
        assert "KERNELS_ABI = 7" in text
        compiled.write_text(
            text.replace("KERNELS_ABI = 7", "KERNELS_ABI = 6"), encoding="utf-8"
        )
        report = run_lint(root=tmp_path, rules=["R2"])
        assert len(report.diagnostics) == 1
        message = report.diagnostics[0].message
        assert "twin drift" in message and "KERNELS_ABI" in message

    def test_missing_anchor_is_loud(self, tmp_path):
        _copy_anchors(tmp_path)
        (tmp_path / "src/repro/sim/types.py").unlink()
        report = run_lint(root=tmp_path, rules=["R2"])
        assert any(
            "twin anchor file" in d.message and "types.py" in d.message
            for d in report.diagnostics
        )

    def test_pure_python_checkout_is_silent(self, tmp_path):
        # No _kernels.c at all: nothing to mirror, not an error.
        assert run_lint(root=tmp_path, rules=["R2"]).ok


# --------------------------------------------------------------------------- #
# R3 — hot-path hygiene
# --------------------------------------------------------------------------- #
class TestR3Hygiene:
    def test_hot_modules_exist(self):
        # A deleted module must not leave a dead entry behind.
        from repro.analysis.lint.rule_hygiene import HOT_MODULES

        missing = sorted(p for p in HOT_MODULES if not (REPO_ROOT / p).is_file())
        assert missing == []

    def test_unslotted_class_in_hot_module(self, tmp_path):
        _write(tmp_path, "src/repro/sim/cache.py",
            """\
            class Cache:
                def __init__(self):
                    self.sets = []
            """
        )
        report = run_lint(root=tmp_path, rules=["R3"])
        assert _messages(report) == [
            "src/repro/sim/cache.py:1: R3: class Cache lives in a hot module "
            "and must define __slots__"
        ]

    def test_slotted_class_is_fine(self, tmp_path):
        _write(tmp_path, "src/repro/sim/cache.py",
            """\
            class Cache:
                __slots__ = ("sets",)
            """
        )
        assert run_lint(root=tmp_path, rules=["R3"]).ok

    def test_foreign_base_is_exempt(self, tmp_path):
        _write(tmp_path, "src/repro/sim/cache.py",
            """\
            from enum import Enum

            class Kind(Enum):
                A = 1
            """
        )
        assert run_lint(root=tmp_path, rules=["R3"]).ok

    def test_dataclass_without_slots(self, tmp_path):
        _write(tmp_path, "src/repro/prefetchers/entries.py",
            """\
            from dataclasses import dataclass

            @dataclass
            class Entry:
                value: int
            """
        )
        report = run_lint(root=tmp_path, rules=["R3"])
        assert len(report.diagnostics) == 1
        assert "dataclass Entry must pass slots=True" in report.diagnostics[0].message

    def test_module_level_mutable_state(self, tmp_path):
        _write(tmp_path, "src/repro/sim/helper.py", "CACHE = {}\n")
        report = run_lint(root=tmp_path, rules=["R3"])
        assert len(report.diagnostics) == 1
        assert "module-level mutable state 'CACHE'" in report.diagnostics[0].message

    def test_waived_lookup_table(self, tmp_path):
        _write(
            tmp_path, "src/repro/sim/helper.py",
            "TABLE = {1: 2}  # repro-lint: waive R3\n",
        )
        report = run_lint(root=tmp_path, rules=["R3"])
        assert report.ok
        assert len(report.waived) == 1

    def test_unseeded_randomness(self, tmp_path):
        _write(tmp_path, "src/repro/sim/noise.py",
            """\
            import random
            from random import choice

            def jitter():
                return random.random() + random.Random().random()

            def seeded(seed):
                return random.Random(seed).random()
            """
        )
        report = run_lint(root=tmp_path, rules=["R3"])
        messages = _messages(report)
        assert len(messages) == 3  # the import, random.random(), Random()
        assert any("from random import choice" in m for m in messages)
        assert any("random.random()" in m for m in messages)
        assert any("without a seed argument" in m for m in messages)

    def test_prefetchers_module_state_not_checked(self, tmp_path):
        # Module-state and randomness sub-checks are sim/-only.
        _write(tmp_path, "src/repro/prefetchers/tbl.py", "REGISTRY = {}\n")
        assert run_lint(root=tmp_path, rules=["R3"]).ok


# --------------------------------------------------------------------------- #
# R4 — golden-grid registry coverage
# --------------------------------------------------------------------------- #
class TestR4RegistryCoverage:
    def test_full_snapshot_is_clean(self, tmp_path):
        _write(
            tmp_path, "tests/goldens/spatial-s3.json",
            json.dumps(_full_grid_snapshot()),
        )
        assert run_lint(root=tmp_path, rules=["R4"]).ok

    def test_unpinned_prefetcher_is_flagged(self, tmp_path):
        snapshot = _full_grid_snapshot()
        snapshot.pop("gaze")
        _write(tmp_path, "tests/goldens/spatial-s3.json", json.dumps(snapshot))
        report = run_lint(root=tmp_path, rules=["R4"])
        assert len(report.diagnostics) == 1
        message = report.diagnostics[0].message
        assert "'gaze'" in message and "REFRESH_GOLDENS" in message

    def test_stale_snapshot_entry_is_flagged(self, tmp_path):
        snapshot = _full_grid_snapshot()
        snapshot["retired-design"] = {}
        _write(tmp_path, "tests/goldens/spatial-s3.json", json.dumps(snapshot))
        report = run_lint(root=tmp_path, rules=["R4"])
        assert len(report.diagnostics) == 1
        assert "stale golden-grid entry 'retired-design'" in report.diagnostics[0].message

    def test_missing_snapshot_is_flagged(self, tmp_path):
        report = run_lint(root=tmp_path, rules=["R4"])
        assert len(report.diagnostics) == 1
        assert "snapshot not found" in report.diagnostics[0].message

    def test_unparseable_snapshot_is_flagged(self, tmp_path):
        _write(tmp_path, "tests/goldens/spatial-s3.json", "{not json")
        report = run_lint(root=tmp_path, rules=["R4"])
        assert len(report.diagnostics) == 1
        assert "unparseable" in report.diagnostics[0].message


# --------------------------------------------------------------------------- #
# R5 — exhaustive decline reasons
# --------------------------------------------------------------------------- #
class TestR5DeclineReasons:
    def test_reasonless_declines_are_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/sim/driver.py",
            """\
            def try_attach(sim):
                if sim.bad:
                    return None, None
                if sim.worse:
                    return None, ""
                if sim.fine:
                    return None, "honest reason"
                if sim.dynamic:
                    return None, sim.reason
                return object(), None
            """
        )
        report = run_lint(root=tmp_path, rules=["R5"])
        messages = _messages(report)
        assert len(messages) == 2
        assert any("reason slot is None" in m for m in messages)
        assert any("empty string" in m for m in messages)

    def test_triple_decline_checks_last_slot(self, tmp_path):
        _write(tmp_path, "src/repro/sim/driver.py",
            """\
            def classify(p):
                if p is None:
                    return None, None, None
                return 1, p, None
            """
        )
        report = run_lint(root=tmp_path, rules=["R5"])
        # Only the first return declines (first element literal None).
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].line == 3


class TestR6SilentHandlers:
    def test_bare_except_without_reraise_is_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/experiments/cache.py",
            """\
            def load(path):
                try:
                    return path.read_bytes()
                except:
                    return None
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        messages = _messages(report)
        assert len(messages) == 1
        assert "bare except" in messages[0]
        assert "KeyboardInterrupt" in messages[0]

    def test_except_baseexception_counts_as_bare(self, tmp_path):
        _write(tmp_path, "src/repro/experiments/engine.py",
            """\
            def run(job):
                try:
                    job()
                except BaseException:
                    return 0
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        assert len(report.diagnostics) == 1

    def test_silent_pass_handler_is_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/experiments/executors.py",
            """\
            def cleanup(pool):
                try:
                    pool.shutdown()
                except OSError:
                    pass
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        messages = _messages(report)
        assert len(messages) == 1
        assert "silent exception handler" in messages[0]

    def test_handlers_that_reraise_or_record_pass(self, tmp_path):
        _write(tmp_path, "src/repro/experiments/executors.py",
            """\
            def run(job, failures):
                try:
                    return job()
                except ValueError:
                    failures.append("boom")
                    return None
                except OSError:
                    raise
                except BaseException:
                    job.abort()
                    raise
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        assert report.ok

    def test_waiver_with_reason_moves_diagnostic_aside(self, tmp_path):
        _write(tmp_path, "src/repro/experiments/cache.py",
            """\
            def sweep(path):
                try:
                    path.unlink()
                except OSError:  # repro-lint: waive R6 -- raced; gone either way
                    pass
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        assert report.ok
        assert len(report.waived) == 1
        assert report.waived[0].rule == "R6"

    def test_scope_is_experiments_only(self, tmp_path):
        _write(tmp_path, "src/repro/sim/driver.py",
            """\
            def poke(sim):
                try:
                    sim.step()
                except:
                    pass
            """
        )
        report = run_lint(root=tmp_path, rules=["R6"])
        assert report.ok


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestLintCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = main(["lint", "--root", str(tmp_path), "--rules", "R5"])
        assert code == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_problems_exit_one_with_diagnostics(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/sim/driver.py",
            "def f():\n    return None, None\n",
        )
        code = main(["lint", "--root", str(tmp_path), "--rules", "R5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "src/repro/sim/driver.py:2: R5:" in out
        assert "1 problem" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "R99"]) == 2

    def test_check_alias(self, tmp_path):
        assert main(["lint", "--check", "--root", str(tmp_path),
                     "--rules", "R5"]) == 0


# --------------------------------------------------------------------------- #
# The real repository ships lint-clean
# --------------------------------------------------------------------------- #
class TestRealRepository:
    def test_repo_is_clean(self):
        report = run_lint(root=REPO_ROOT)
        assert report.ok, "\n".join(_messages(report))
        assert report.rules_run == tuple(sorted(RULES))

    def test_known_waiver_is_routed_to_waived(self):
        # batch.py's init-once decode table carries the repo's one real
        # R3 waiver; it must surface as waived, not silently vanish.
        report = run_lint(root=REPO_ROOT, rules=["R3"])
        assert any(
            w.path == "src/repro/sim/batch.py" and w.rule == "R3"
            for w in report.waived
        )
