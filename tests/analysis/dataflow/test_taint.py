"""Determinism-taint checker: one positive and one negative per rule
flavor, plus exemptions, sanitizers, and interprocedural witnesses."""

from __future__ import annotations

from repro.analysis.taint import check_taint


def findings_for(make_graph, body: str):
    return check_taint(make_graph({"repro/core/emit.py": body}))


def kinds(findings):
    return {f.kind for f in findings}


class TestSources:
    def test_time_reaches_checksummed_writer(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def persist(path):
                save_checked_json(path, {"at": time.time()}, version=2)
            """,
        )
        assert kinds(findings) == {"time"}
        assert findings[0].sink == "save_checked_json"

    def test_random_reaches_result_ctor(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import random


            def emit():
                return TopKOutcome(results=[random.random()])
            """,
        )
        assert kinds(findings) == {"random"}

    def test_seeded_generator_is_not_a_source(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import random


            def emit(seed):
                rng = random.Random(seed)
                return TopKOutcome(results=[rng])
            """,
        )
        assert findings == []

    def test_fs_order_reaches_sink(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import os


            def emit(path):
                names = os.listdir(path)
                return TopKOutcome(results=names)
            """,
        )
        assert kinds(findings) == {"fs-order"}

    def test_path_iterdir_is_fs_order(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def emit(root):
                names = [p.name for p in root.iterdir()]
                return TopKOutcome(results=names)
            """,
        )
        assert "fs-order" in kinds(findings)

    def test_set_iteration_taints_elements(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def emit():
                tags = {"b", "a"}
                order = [t for t in tags]
                return TopKOutcome(results=order)
            """,
        )
        assert kinds(findings) == {"unordered-iter"}

    def test_unordered_container_itself_is_clean(self, make_graph):
        # Holding a set is fine; only iteration order taints.
        findings = findings_for(
            make_graph,
            """
            def emit():
                tags = {"b", "a"}
                return TopKOutcome(results=len(tags))
            """,
        )
        assert findings == []

    def test_hash_id_reaches_sink(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def emit(obj):
                return TopKOutcome(results=[hash(obj)])
            """,
        )
        assert kinds(findings) == {"hash-id"}


class TestSanitizers:
    def test_sorted_clears_iteration_order(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def emit():
                tags = {"b", "a"}
                return TopKOutcome(results=sorted(tags))
            """,
        )
        assert findings == []

    def test_sorted_does_not_clear_time(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def persist(path):
                save_checked_json(path, sorted([time.time()]), version=2)
            """,
        )
        assert kinds(findings) == {"time"}

    def test_quantize_blesses_everything(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def persist(path):
                save_checked_json(path, quantize(time.time()), version=2)
            """,
        )
        assert findings == []


class TestSinkExemptions:
    def test_elapsed_seconds_accepts_time(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def answer(t0):
                return WhyNotAnswer(
                    refined=None, initial_rank=1, algorithm="x",
                    elapsed_seconds=time.perf_counter() - t0, io=None,
                )
            """,
        )
        assert findings == []

    def test_other_answer_fields_reject_time(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def answer():
                return WhyNotAnswer(
                    refined=None, initial_rank=1, algorithm="x",
                    elapsed_seconds=0.0, io=None,
                    counters=time.perf_counter(),
                )
            """,
        )
        assert kinds(findings) == {"time"}

    def test_bench_emitter_accepts_time_but_not_order(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import json
            import time


            def bench_ok(fh):
                json.dump({"p50": time.perf_counter()}, fh)


            def bench_bad(fh):
                tags = {"b", "a"}
                json.dump([t for t in tags], fh)
            """,
        )
        assert kinds(findings) == {"unordered-iter"}
        assert all(f.function.endswith("bench_bad") for f in findings)


class TestInterprocedural:
    def test_taint_flows_through_local_helper(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def stamp():
                return time.time()


            def persist(path):
                save_checked_json(path, {"at": stamp()}, version=2)
            """,
        )
        assert kinds(findings) == {"time"}
        chain = "\n".join(findings[0].chain)
        assert "stamp" in chain, "witness must name the helper hop"

    def test_param_to_sink_summary(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def write_out(path, payload):
                save_checked_json(path, payload, version=2)


            def persist(path):
                write_out(path, time.time())
            """,
        )
        assert kinds(findings) == {"time"}

    def test_tuple_return_keeps_halves_apart(self, make_graph):
        # The (payload, busy-time) convention: a time-tainted second
        # element must not contaminate the first.
        findings = findings_for(
            make_graph,
            """
            import time


            def measure(x):
                t0 = time.perf_counter()
                return x, time.perf_counter() - t0


            def emit(x):
                part, busy = measure(x)
                return TopKOutcome(results=part)
            """,
        )
        assert findings == []


class TestWaiversKeys:
    def test_finding_key_is_line_independent(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            import time


            def persist(path):
                save_checked_json(path, {"at": time.time()}, version=2)
            """,
        )
        (finding,) = findings
        assert finding.key == (
            "taint::taint-to-sink::repro.core.emit.persist"
            "::save_checked_json::time"
        )
