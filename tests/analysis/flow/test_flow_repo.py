"""Repo-wide invariants: the shipped library is contract-clean, fully
signed, and the CLI verb exposes the right exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import load_baseline, run_analysis
from repro.cli import main

from .conftest import SEEDED_REGRESSION

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "flow-baseline.json"


@pytest.fixture(scope="module")
def repo_flow():
    return run_analysis(
        [str(SRC)],
        rulesets=("flow",),
        baseline=load_baseline(str(BASELINE)),
    )


class TestRepoWide:
    def test_no_blocking_violations(self, repo_flow):
        assert not repo_flow.errors
        assert repo_flow.blocking == [], "\n" + repo_flow.format_text()

    def test_every_function_has_a_signature(self, repo_flow):
        assert repo_flow.n_functions > 0
        assert len(repo_flow.signatures) == repo_flow.n_functions

    def test_known_signatures(self, repo_flow):
        sigs = repo_flow.signatures
        # The sanctioned writer is lock-guarded: no shared-write escapes.
        record = sigs["repro.core.dominator_cache.DominatorCache.record_dominators"]
        assert "shared-write" not in record
        # BufferPool.fetch is the blessed I/O surface: the pager access
        # behind it never reaches the search layer.
        assert "raw-io" in sigs["repro.storage.buffer_pool.BufferPool.fetch"]
        assert "raw-io" not in sigs["repro.index.search.TopKSearcher.top_k"]
        # The parallel worker path stays read-only on shared state.
        worker_entry = "repro.core.parallel.ParallelAdvanced._evaluate_candidate"
        assert "shared-write" not in sigs[worker_entry]

    def test_checked_in_baseline_is_empty(self):
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert payload == {"version": 1, "violations": []}


class TestAnalyzeCli:
    def test_clean_repo_exits_zero(self):
        assert main(["analyze", str(SRC), "--baseline", str(BASELINE)]) == 0

    def test_seeded_fixture_exits_one_with_witness(self, capsys):
        code = main(["analyze", str(SEEDED_REGRESSION)])
        captured = capsys.readouterr()
        assert code == 1
        assert "[worker-read-only]" in captured.out
        assert "[io-through-pool]" in captured.out
        assert "[exception-safety]" in captured.out
        assert "-> repro.core.dominator_cache.DominatorCache.ingest_unguarded" in (
            captured.out
        )

    def test_json_output(self, capsys):
        code = main(["analyze", str(SEEDED_REGRESSION), "--json"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert {v["rule"] for v in payload["findings"]["flow"]} == {
            "worker-read-only",
            "io-through-pool",
            "exception-safety",
        }
        assert "signatures" not in payload["flow"]

    def test_json_with_signatures(self, capsys):
        code = main(["analyze", str(SEEDED_REGRESSION), "--json", "--signatures"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert "signatures" in payload["flow"]
        assert payload["flow"]["signatures"], "signature map must not be empty"

    def test_missing_path_exits_two(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        baseline_file = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "analyze",
                    str(SEEDED_REGRESSION),
                    "--write-baseline",
                    str(baseline_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # With the freshly written baseline, the same tree passes.
        assert (
            main(
                [
                    "analyze",
                    str(SEEDED_REGRESSION),
                    "--baseline",
                    str(baseline_file),
                ]
            )
            == 0
        )
