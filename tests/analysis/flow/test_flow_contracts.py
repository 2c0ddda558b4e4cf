"""Contract checking, waiver handling, and baseline ratchet semantics."""

from __future__ import annotations

import json

from repro.analysis import FlowConfig, load_baseline, run_analysis
from repro.analysis.callgraph import collect_waivers

from .conftest import SEEDED_REGRESSION


def run_flow(paths, config=None, baseline=None):
    """The flow ruleset alone, as ``analyze --rules flow`` runs it."""
    return run_analysis(
        paths, rulesets=("flow",), config=config, baseline=baseline
    )


def rules_of(report):
    return {violation.rule for violation in report.findings}


class TestSeededRegression:
    """The checked-in fixture must trip all three contracts."""

    def test_all_three_rules_fire(self):
        report = run_flow([str(SEEDED_REGRESSION)])
        assert rules_of(report) == {
            "worker-read-only",
            "io-through-pool",
            "exception-safety",
        }
        assert report.blocking == report.findings
        assert not report.errors

    def test_worker_chain_witness(self):
        report = run_flow([str(SEEDED_REGRESSION)])
        by_entry = {
            violation.entry: violation
            for violation in report.findings
            if violation.rule == "worker-read-only"
        }
        nested_worker = "repro.core.parallel.ParallelAdvanced._run_threads.worker"
        assert nested_worker in by_entry
        chain = by_entry[nested_worker].chain
        assert len(chain) == 3
        assert chain[0].startswith(nested_worker)
        assert chain[1].startswith(
            "repro.core.parallel.ParallelAdvanced._evaluate_candidate"
        )
        assert chain[2].startswith(
            "repro.core.dominator_cache.DominatorCache.ingest_unguarded"
        )

    def test_exception_safety_names_both_lines(self):
        report = run_flow([str(SEEDED_REGRESSION)])
        findings = [
            violation
            for violation in report.findings
            if violation.rule == "exception-safety"
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.function == "repro.core.engine.WhyNotEngine.run_top_k"
        assert "mutates" in finding.message
        assert "possibly-raising storage call" in finding.message

    def test_json_payload_roundtrips(self):
        report = run_flow([str(SEEDED_REGRESSION)])
        payload = json.loads(report.to_json())
        assert payload["functions"] == report.n_functions
        keys = {entry["key"] for entry in payload["findings"]["flow"]}
        assert keys == {violation.key for violation in report.findings}


PAGER_FIXTURE = {
    "repro/storage/pager.py": """
    class Pager:
        def read(self, record_id: int) -> bytes:
            return b""
    """,
    "repro/index/search.py": """
    from ..storage.pager import Pager


    class TopKSearcher:
        def top_k(self, query: object) -> list:
            pager = Pager()
            return [pager.read(0)]
    """,
}


def with_search_body(body: str) -> dict:
    files = dict(PAGER_FIXTURE)
    files["repro/index/search.py"] = body
    return files


class TestWaivers:
    def test_unwaived_fixture_blocks(self, make_tree):
        tree = make_tree(PAGER_FIXTURE)
        report = run_flow([str(tree)])
        assert any(v.rule == "io-through-pool" for v in report.blocking)

    def test_waiver_on_offending_line(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:
                        pager = Pager()  # flow: waiver(io-through-pool)
                        return [pager.read(0)]  # flow: waiver(io-through-pool)
                """
            )
        )
        report = run_flow([str(tree)])
        assert all(v.waived for v in report.findings)
        assert report.blocking == []

    def test_waiver_on_line_above(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:
                        # flow: waiver(io-through-pool)
                        pager = Pager()
                        # flow: waiver(io-through-pool)
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.blocking == []

    def test_waiver_on_def_line_covers_whole_function(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:  # flow: waiver(io-through-pool)
                        pager = Pager()
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.findings, "waived findings are still reported"
        assert report.blocking == []

    def test_star_waives_everything(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:  # flow: waiver(*)
                        pager = Pager()
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.blocking == []

    def test_wrong_rule_does_not_waive(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:  # flow: waiver(worker-read-only)
                        pager = Pager()
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.blocking, "unrelated waiver must not clear io-through-pool"

    def test_legacy_lint_comment_is_retired(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:  # lint: pager-access
                        pager = Pager()
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.blocking, (
            "the one-time '# lint: pager-access' alias no longer waives "
            "io-through-pool; use '# flow: waiver(io-through-pool)'"
        )

    def test_collect_waivers_parses_comments(self):
        source = "\n".join(
            [
                "x = 1  # flow: waiver(io-through-pool, worker-read-only)",
                "y = 2  # lint: pager-access",
                "z = 3  # unrelated comment",
            ]
        )
        waivers = collect_waivers(source)
        assert waivers["flow"] == {1: {"io-through-pool", "worker-read-only"}}
        assert waivers["lint"] == {2: {"pager-access"}}, (
            "lint comments are not flow waivers"
        )


class TestBaseline:
    def test_baselined_keys_stop_blocking(self, make_tree, tmp_path):
        tree = make_tree(PAGER_FIXTURE)
        first = run_flow([str(tree)])
        assert first.blocking

        baseline_file = tmp_path / "flow-baseline.json"
        baseline_file.write_text(
            json.dumps(first.baseline_payload()), encoding="utf-8"
        )
        baseline = load_baseline(str(baseline_file))
        assert baseline == {v.key for v in first.findings}

        second = run_flow([str(tree)], baseline=baseline)
        assert second.findings, "baselined findings remain visible"
        assert second.blocking == []

    def test_new_violation_still_blocks(self, make_tree, tmp_path):
        tree = make_tree(PAGER_FIXTURE)
        baseline = {v.key for v in run_flow([str(tree)]).findings}

        # A new offender appears in another module: the ratchet catches it.
        extra = tree / "index" / "scan.py"
        extra.write_text(
            "from ..storage.pager import Pager\n"
            "\n"
            "\n"
            "def scan() -> bytes:\n"
            "    return Pager().read(1)\n",
            encoding="utf-8",
        )
        report = run_flow([str(tree)], baseline=baseline)
        blocking = report.blocking
        assert blocking
        assert all("scan" in v.function for v in blocking)

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == set()

    def test_waived_findings_stay_out_of_baseline(self, make_tree):
        tree = make_tree(
            with_search_body(
                """
                from ..storage.pager import Pager


                class TopKSearcher:
                    def top_k(self, query: object) -> list:  # flow: waiver(io-through-pool)
                        pager = Pager()
                        return [pager.read(0)]
                """
            )
        )
        report = run_flow([str(tree)])
        assert report.baseline_payload() == {"version": 1, "violations": []}


class TestContractBoundaries:
    def test_guarded_worker_write_is_clean(self, make_tree):
        tree = make_tree(
            {
                "repro/core/dominator_cache.py": """
                class DominatorCache:
                    def record(self, oids: list) -> None:
                        with self._lock:
                            self._docs.extend(oids)
                """,
                "repro/core/parallel.py": """
                from .dominator_cache import DominatorCache


                class ParallelAdvanced:
                    def __init__(self, cache: DominatorCache) -> None:
                        self.cache = cache

                    def _evaluate_candidate(self, candidate: object) -> None:
                        self.cache.record([1, 2])
                """,
            }
        )
        report = run_flow([str(tree)])
        assert report.blocking == []

    def test_mutation_after_raise_is_safe(self, make_tree):
        tree = make_tree(
            {
                "repro/core/engine.py": """
                class StorageError(Exception):
                    pass


                class WhyNotEngine:
                    def _load_root(self) -> bytes:
                        raise StorageError("bad page")

                    def run_top_k(self) -> bytes:
                        data = self._load_root()
                        self._quarantined["ok"] = True
                        return data
                """
            }
        )
        report = run_flow([str(tree)])
        assert not any(
            v.rule == "exception-safety" for v in report.findings
        )

    def test_storage_module_may_touch_pager(self, make_tree):
        tree = make_tree(
            {
                "repro/storage/pager.py": """
                class Pager:
                    def read(self, record_id: int) -> bytes:
                        return b""
                """,
                "repro/storage/buffer_pool.py": """
                from .pager import Pager


                class BufferPool:
                    def fetch(self, record_id: int) -> bytes:
                        pager = Pager()
                        return pager.read(record_id)
                """,
            }
        )
        report = run_flow([str(tree)])
        assert not any(
            v.rule == "io-through-pool" for v in report.findings
        )

    def test_entry_patterns_scope_worker_rule(self, make_tree):
        # Same write, but no function matches an entry pattern: only the
        # worker contract stays quiet; nothing else applies either.
        tree = make_tree(
            {
                "repro/core/offline.py": """
                class Rebuilder:
                    def rebuild(self, index: object) -> None:
                        index.nodes = []
                """
            }
        )
        config = FlowConfig()
        report = run_flow([str(tree)], config=config)
        assert report.blocking == []
