"""Resource-lifetime checker: leaks (normal and exception paths),
double release and escapes."""

from __future__ import annotations

import textwrap

from repro.analysis import run_analysis

RAISING_PRELUDE = """
class StorageError(Exception):
    pass


def risky_read(path):
    raise StorageError(path)
"""


def findings_for(
    make_graph,
    body: str,
    module: str = "repro/storage/sp.py",
    raising: bool = False,
):
    source = textwrap.dedent(body)
    if raising:
        source = RAISING_PRELUDE + source
    graph = make_graph({module: source})
    return run_analysis([], rulesets=("lifetime",), graph=graph).findings


def rules(findings):
    return {f.rule for f in findings}


class TestSpillFiles:
    def test_leak_on_normal_exit(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def spill(path, payload):
                fh = open(path, "w")
                fh.write(payload)
            """,
        )
        assert rules(findings) == {"lifetime-leak"}

    def test_leak_on_exception_edge_despite_trailing_close(self, make_graph):
        findings = findings_for(
            make_graph,
            raising=True,
            body="""
            def spill(path):
                fh = open(path, "w")
                fh.write(risky_read(path))
                fh.close()
            """,
        )
        assert rules(findings) == {"lifetime-leak"}
        (finding,) = findings
        assert "exception" in finding.message

    def test_try_finally_close_is_clean(self, make_graph):
        findings = findings_for(
            make_graph,
            raising=True,
            body="""
            def spill(path):
                fh = open(path, "w")
                try:
                    fh.write(risky_read(path))
                finally:
                    fh.close()
            """,
        )
        assert findings == []

    def test_with_block_auto_releases(self, make_graph):
        findings = findings_for(
            make_graph,
            raising=True,
            body="""
            def spill(path):
                with open(path, "w") as fh:
                    fh.write(risky_read(path))
            """,
        )
        assert findings == []

    def test_double_close(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def spill(path):
                fh = open(path, "w")
                fh.close()
                fh.close()
            """,
        )
        assert rules(findings) == {"lifetime-double-release"}

    def test_escaped_handle_is_not_tracked(self, make_graph):
        # Passing the handle to another function transfers ownership;
        # whoever received it is responsible for the close.
        findings = findings_for(
            make_graph,
            """
            def spill(path, registry):
                fh = open(path, "w")
                registry.adopt(fh)
            """,
        )
        assert findings == []

    def test_returned_handle_is_not_a_leak(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def make_spill(path):
                fh = open(path, "w")
                return fh
            """,
        )
        assert findings == []


class TestPipesAndWorkers:
    def test_pipe_tuple_leaks_unclosed_half(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def start(ctx):
                rx, tx = ctx.Pipe()
                tx.close()
            """,
        )
        assert rules(findings) == {"lifetime-leak"}
        assert findings[0].var == "rx"

    def test_worker_joined_is_clean(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def run(ctx, target):
                worker = ctx.Process(target=target)
                worker.start()
                worker.join()
            """,
        )
        assert findings == []

    def test_worker_never_joined_leaks(self, make_graph):
        findings = findings_for(
            make_graph,
            """
            def run(ctx, target):
                worker = ctx.Process(target=target)
                worker.start()
            """,
        )
        assert rules(findings) == {"lifetime-leak"}
