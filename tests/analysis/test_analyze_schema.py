"""Golden schema for ``analyze --json``: every ruleset's findings are
present with stable field names, and the seeded fixture trips at least
one finding per new rule class (the CI negative control in miniature)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

from .flow.conftest import SEEDED_REGRESSION

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "flow-baseline.json"

TAINT_LIFETIME_FIELDS = {
    "rule",
    "key",
    "function",
    "module",
    "path",
    "line",
    "message",
    "chain",
    "waived",
    "baselined",
}


@pytest.fixture(scope="module")
def seeded_payload():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["analyze", "--all", str(SEEDED_REGRESSION), "--json"])
    assert code == 1, "seeded fixture must block"
    return json.loads(buf.getvalue())


class TestTopLevelShape:
    def test_header_fields(self, seeded_payload):
        for field in (
            "rulesets",
            "modules",
            "functions",
            "blocking",
            "suppressed",
            "elapsed_seconds",
            "errors",
            "findings",
        ):
            assert field in seeded_payload, field
        assert seeded_payload["rulesets"] == [
            "lint",
            "flow",
            "taint",
            "lifetime",
        ]
        assert seeded_payload["errors"] == []
        assert seeded_payload["blocking"] > 0

    def test_findings_cover_every_ruleset(self, seeded_payload):
        assert set(seeded_payload["findings"]) == {
            "lint",
            "flow",
            "taint",
            "lifetime",
            "stale-waiver",
        }


class TestPerRulesetSchema:
    def test_lint_findings(self, seeded_payload):
        findings = seeded_payload["findings"]["lint"]
        assert findings, "seeded fixture must trip lint"
        for finding in findings:
            assert set(finding) == {
                "rule",
                "path",
                "line",
                "col",
                "message",
                "waived",
            }
        assert "bare-assert" in {f["rule"] for f in findings}

    def test_flow_findings_and_sidecar(self, seeded_payload):
        findings = seeded_payload["findings"]["flow"]
        assert {f["rule"] for f in findings} >= {
            "worker-read-only",
            "io-through-pool",
            "exception-safety",
        }
        # The flow sidecar keeps the counts but not the violation list.
        assert "violations" not in seeded_payload["flow"]
        assert seeded_payload["flow"]["functions"] == seeded_payload["functions"]

    def test_taint_findings(self, seeded_payload):
        findings = seeded_payload["findings"]["taint"]
        assert findings, "seeded fixture must trip taint"
        for finding in findings:
            assert set(finding) == TAINT_LIFETIME_FIELDS
            assert finding["rule"] == "taint-to-sink"
            assert finding["key"].startswith("taint::")
            assert finding["chain"], "taint findings carry a witness chain"
        kinds = {f["key"].rsplit("::", 1)[-1] for f in findings}
        assert {"unordered-iter", "time"} <= kinds

    def test_lifetime_findings(self, seeded_payload):
        findings = seeded_payload["findings"]["lifetime"]
        rules = {f["rule"] for f in findings}
        assert rules == {
            "lifetime-leak",
            "lifetime-double-release",
        }
        for finding in findings:
            assert set(finding) == TAINT_LIFETIME_FIELDS
            assert finding["key"].startswith("lifetime::")

    def test_stale_waiver_findings(self, seeded_payload):
        findings = seeded_payload["findings"]["stale-waiver"]
        assert {f["comment_kind"] for f in findings} == {"lint", "flow"}
        for finding in findings:
            assert set(finding) == {"comment_kind", "path", "line", "rule"}


class TestRepoIsClean:
    def test_repo_wide_all_rulesets_exit_zero(self, capsys):
        code = main(
            [
                "analyze",
                "--all",
                str(SRC),
                "--baseline",
                str(BASELINE),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out

    def test_taint_lifetime_only_exit_zero(self, capsys):
        code = main(
            [
                "analyze",
                "--rules",
                "taint,lifetime",
                str(SRC),
                "--baseline",
                str(BASELINE),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out

    def test_unknown_ruleset_exits_two(self, capsys):
        assert main(["analyze", "--rules", "nope", str(SRC)]) == 2
        capsys.readouterr()
