"""Stale-waiver detection: a waiver comment that suppresses nothing is
itself a blocking finding — but only on full ``--all`` runs, where every
rule the comment could name has actually had its chance to fire."""

from __future__ import annotations

import pytest

from repro.analysis import run_analysis

from .flow.conftest import write_package


def analyze(tmp_path, files, rulesets=None):
    tree = write_package(tmp_path, files)
    kwargs = {} if rulesets is None else {"rulesets": rulesets}
    return run_analysis([str(tree)], **kwargs)


class TestStaleDetection:
    def test_stale_lint_waiver_is_reported(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/core/quiet.py": """
                def helper(x: int) -> int:  # lint: no-print
                    return x + 1
                """
            },
        )
        (stale,) = report.of("stale-waiver")
        assert stale.kind == "lint"
        assert stale.rule == "no-print"
        assert report.blocking_count == 1
        assert "suppresses nothing" in stale.format()

    def test_stale_flow_waiver_is_reported(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/core/quiet.py": """
                def helper(x: int) -> int:
                    # flow: waiver(worker-read-only)
                    return x + 1
                """
            },
        )
        (stale,) = report.of("stale-waiver")
        assert stale.kind == "flow"
        assert stale.rule == "worker-read-only"

    def test_live_lint_waiver_is_not_stale(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/core/noisy.py": """
                def debug(x: int) -> None:
                    print(x)  # lint: no-print
                """
            },
        )
        assert report.of("stale-waiver") == []
        assert report.blocking_count == 0
        assert [f.rule for f in report.of("lint") if f.waived] == ["no-print"]

    def test_live_taint_waiver_is_not_stale(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/core/stamp.py": """
                import time


                def persist(path: str) -> None:
                    # flow: waiver(taint-to-sink)
                    save_checked_json(path, {"at": time.time()}, version=2)
                """
            },
        )
        assert report.of("stale-waiver") == []
        assert report.blocking_count == 0
        assert [f.waived for f in report.of("taint")] == [True]

    def test_misspelled_rule_name_is_stale_even_next_to_finding(
        self, tmp_path
    ):
        # The waiver names the wrong rule, so the finding still blocks
        # AND the comment is reported stale: two findings, one line.
        report = analyze(
            tmp_path,
            {
                "repro/core/stamp.py": """
                import time


                def persist(path: str) -> None:
                    # flow: waiver(taint-to-skin)
                    save_checked_json(path, {"at": time.time()}, version=2)
                """
            },
        )
        assert len(report.of("stale-waiver")) == 1
        assert report.of("stale-waiver")[0].rule == "taint-to-skin"
        assert [f.waived for f in report.of("taint")] == [False]
        assert report.blocking_count == 2


class TestGating:
    def test_partial_runs_never_report_stale(self, tmp_path):
        files = {
            "repro/core/quiet.py": """
            def helper(x: int) -> int:  # lint: no-print
                # flow: waiver(worker-read-only)
                return x + 1
            """
        }
        for rulesets in (("lint",), ("flow",), ("taint", "lifetime")):
            report = analyze(tmp_path / "-".join(rulesets), files, rulesets)
            assert report.of("stale-waiver") == [], rulesets

    def test_wildcard_waiver_counts_as_used_when_it_suppresses(
        self, tmp_path
    ):
        report = analyze(
            tmp_path,
            {
                "repro/core/noisy.py": """
                def debug(x: int) -> None:
                    print(x)  # lint: *
                """
            },
        )
        assert report.of("stale-waiver") == []
        assert report.blocking_count == 0
