"""Runner edge cases: unreadable sources, RL meta rules, baseline CLI
plumbing, RA905 escalation and ``--strict``."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.exceptions import LintError
from repro.lint import lint_source_tree
from repro.lint.runner import main as lint_main

CLEAN = """\
__all__ = ["answer"]


def answer():
    return 42
"""


def write_tree(tmp_path, files):
    for relpath, content in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(textwrap.dedent(content))
    return tmp_path


# --------------------------------------------------------------------- #
# Files lint cannot vouch for → RL003, never a crash
# --------------------------------------------------------------------- #


class TestUnanalyzableFiles:
    def test_syntax_error_is_a_diagnostic(self, tmp_path):
        write_tree(tmp_path, {"ok.py": CLEAN, "broken.py": "def nope(:\n"})
        report = lint_source_tree([tmp_path])
        hits = [d for d in report if d.rule == "RL003"]
        assert len(hits) == 1
        assert hits[0].path.startswith("broken.py")
        assert "syntax error" in hits[0].message
        assert report.exit_code() == 1  # RL003 is an error

    def test_non_utf8_is_a_diagnostic(self, tmp_path):
        write_tree(tmp_path, {"latin.py": b"x = '\xe9'\n"})
        report = lint_source_tree([tmp_path])
        hits = [d for d in report if d.rule == "RL003"]
        assert len(hits) == 1
        assert "UTF-8" in hits[0].message

    def test_empty_file_is_fine(self, tmp_path):
        write_tree(tmp_path, {"empty.py": ""})
        report = lint_source_tree([tmp_path])
        assert "RL003" not in report.rule_ids()

    def test_broken_file_does_not_mask_the_rest(self, tmp_path):
        # the readable neighbour is still fully linted
        write_tree(
            tmp_path,
            {
                "broken.py": "def nope(:\n",
                "mod.py": "def visible():\n    return 1\n",  # no __all__
            },
        )
        report = lint_source_tree([tmp_path])
        assert {"RL003", "RA905"} <= report.rule_ids()

    def test_exit_code_is_deterministic(self, tmp_path):
        write_tree(tmp_path, {"broken.py": "def nope(:\n"})
        codes = {lint_source_tree([tmp_path]).exit_code() for _ in range(3)}
        assert codes == {1}

    def test_deep_run_survives_broken_files(self, tmp_path):
        write_tree(
            tmp_path,
            {"broken.py": "def nope(:\n", "service/ok.py": CLEAN},
        )
        report = lint_source_tree([tmp_path], deep=True)
        assert "RL003" in report.rule_ids()


# --------------------------------------------------------------------- #
# RL001 — pragma that never fires (deep runs only)
# --------------------------------------------------------------------- #


class TestUnusedSuppressions:
    def test_stale_pragma_reported_on_deep_runs(self, tmp_path):
        tree = write_tree(
            tmp_path,
            {
                "mod.py": """\
                __all__ = ["answer"]


                def answer():
                    return 42  # lint: ignore[RA901]
                """
            },
        )
        report = lint_source_tree([tree], deep=True)
        hits = [d for d in report if d.rule == "RL001"]
        assert len(hits) == 1
        assert "RA901" in hits[0].message

    def test_shallow_runs_stay_quiet(self, tmp_path):
        # flow-rule pragmas cannot be validated without the deep pass
        tree = write_tree(
            tmp_path,
            {
                "mod.py": """\
                __all__ = ["answer"]


                def answer():
                    return 42  # lint: ignore[RA901]
                """
            },
        )
        assert "RL001" not in lint_source_tree([tree]).rule_ids()

    def test_used_pragma_is_not_stale(self, tmp_path):
        tree = write_tree(
            tmp_path,
            {
                "mod.py": """\
                __all__ = ["same"]


                def same(total_cost, budget):
                    return total_cost == budget  # lint: ignore[RA901]
                """
            },
        )
        report = lint_source_tree([tree], deep=True)
        assert "RA901" not in report.rule_ids()
        assert "RL001" not in report.rule_ids()


# --------------------------------------------------------------------- #
# Baseline plumbing (RL002, --update-baseline, missing file)
# --------------------------------------------------------------------- #


class TestBaselinePlumbing:
    def test_update_then_apply_is_clean(self, tmp_path):
        tree = write_tree(
            tmp_path / "tree", {"mod.py": "def visible():\n    return 1\n"}
        )
        baseline = tmp_path / "baseline.json"
        first = lint_source_tree(
            [tree], baseline_path=baseline, update_baseline=True
        )
        assert len(first) == 0  # the fresh baseline absorbs its own findings
        entries = json.loads(baseline.read_text())["entries"]
        assert [e["rule"] for e in entries] == ["RA905"]
        second = lint_source_tree([tree], baseline_path=baseline)
        assert len(second) == 0
        assert second.exit_code() == 0

    def test_stale_entry_becomes_rl002(self, tmp_path):
        tree = write_tree(
            tmp_path / "tree", {"mod.py": "def visible():\n    return 1\n"}
        )
        baseline = tmp_path / "baseline.json"
        lint_source_tree([tree], baseline_path=baseline, update_baseline=True)
        (tree / "mod.py").write_text(CLEAN)  # the finding is fixed
        report = lint_source_tree([tree], baseline_path=baseline)
        hits = [d for d in report if d.rule == "RL002"]
        assert len(hits) == 1
        assert "RA905" in hits[0].message

    def test_flow_entries_survive_runs_without_deep(self, tmp_path):
        # The flow rules do not run without --deep, so their baseline
        # entries are neither stale (RL002) nor dropped on update.
        tree = write_tree(
            tmp_path / "tree",
            {
                "service/http.py": """\
                import time
                from http.server import BaseHTTPRequestHandler

                __all__ = ["Handler"]


                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        time.sleep(1.0)
                """
            },
        )
        baseline = tmp_path / "baseline.json"
        lint_source_tree(
            [tree], deep=True, baseline_path=baseline, update_baseline=True
        )
        payload = json.loads(baseline.read_text())
        assert [e["rule"] for e in payload["entries"]] == ["RT703"]
        payload["entries"][0]["justification"] = "accepted: test fixture"
        baseline.write_text(json.dumps(payload))

        assert lint_main([str(tree), "--strict", "--baseline", str(baseline)]) == 0
        assert (
            lint_main(
                [str(tree), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert json.loads(baseline.read_text()) == payload
        assert (
            lint_main(
                [str(tree), "--deep", "--strict", "--baseline", str(baseline)]
            )
            == 0
        )

    def test_missing_baseline_is_an_explicit_error(self, tmp_path):
        tree = write_tree(tmp_path / "tree", {"mod.py": CLEAN})
        with pytest.raises(LintError, match="--update-baseline"):
            lint_source_tree([tree], baseline_path=tmp_path / "nope.json")


# --------------------------------------------------------------------- #
# RA905 escalation + --strict (CLI level)
# --------------------------------------------------------------------- #


class TestSeverityAndStrict:
    def test_ra905_is_an_error_in_core_and_service(self, tmp_path):
        source = "def visible():\n    return 1\n"
        tree = write_tree(
            tmp_path,
            {"core/mod.py": source, "service/mod.py": source, "misc/mod.py": source},
        )
        report = lint_source_tree([tree])
        severities = {
            d.path.split(":")[0]: str(d.severity)
            for d in report
            if d.rule == "RA905"
        }
        assert severities["core/mod.py"] == "error"
        assert severities["service/mod.py"] == "error"
        assert severities["misc/mod.py"] == "warning"
        assert report.exit_code() == 1

    def test_cli_warning_only_exit_flips_under_strict(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "def visible():\n    return 1\n"})
        assert lint_main([str(tmp_path)]) == 0
        assert lint_main([str(tmp_path), "--strict"]) == 1

    def test_cli_rejects_baseline_without_source_target(self):
        assert lint_main(["--workload", "example", "--baseline", "x.json"]) == 2

    def test_cli_rejects_update_without_baseline(self, tmp_path):
        assert lint_main([str(tmp_path), "--update-baseline"]) == 2

    def test_cli_sarif_output_for_a_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"mod.py": CLEAN})
        assert lint_main([str(tmp_path), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
