"""CFG construction: branch/loop/try/with shapes, exception targets and
edges, and the storage-mask mark on each node."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import build_cfg


def cfg_for(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def reachable(cfg, start, edges):
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for dst in edges.get(cur, ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


class TestShapes:
    def test_linear_body_chains_to_exit(self):
        cfg = cfg_for(
            """
            def f(x):
                a = x
                b = a
                return b
            """
        )
        assert cfg.exit in reachable(cfg, cfg.entry, cfg.succ)
        # No exception edges anywhere: nothing may raise.
        assert all(not dsts for dsts in cfg.exc_succ.values())

    def test_if_has_two_arms_that_rejoin(self):
        cfg = cfg_for(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        head = next(n for n in cfg.nodes if n.label == "head")
        assert len(cfg.succ[head.index]) == 2

    def test_loop_back_edge_and_break_exit(self):
        cfg = cfg_for(
            """
            def f(xs):
                for x in xs:
                    if x:
                        break
                return 1
            """
        )
        head = next(n for n in cfg.nodes if n.label == "head")
        # The body's dangling end loops back to the head.
        preds = {src for src, dsts in cfg.succ.items() if head.index in dsts}
        assert any(src != cfg.entry for src in preds)
        assert cfg.exit in reachable(cfg, cfg.entry, cfg.succ)

    def test_with_gets_synthetic_exit_node(self):
        cfg = cfg_for(
            """
            def f(path):
                with open(path) as fh:
                    fh.read()
                return 1
            """
        )
        exits = [n for n in cfg.nodes if n.label == "with-exit"]
        assert len(exits) == 1
        assert exits[0].with_stmt is not None

    def test_return_goes_straight_to_exit(self):
        cfg = cfg_for(
            """
            def f(x):
                return x
            """
        )
        ret = next(n for n in cfg.nodes if isinstance(n.stmt, ast.Return))
        assert cfg.succ[ret.index] == {cfg.exit}


class TestExceptionEdges:
    def test_may_raise_sprouts_edge_to_exc_exit(self):
        cfg = cfg_for(
            """
            def f(x):
                y = boom(x)
                return y
            """
        )
        assign = next(n for n in cfg.nodes if isinstance(n.stmt, ast.Assign))
        # The target is recorded; the solve decides whether the edge
        # exists, so the graph itself holds none.
        assert assign.exc_target == cfg.exc_exit
        assert cfg.exc_succ[assign.index] == set()

    def test_handler_intercepts_storage_family(self):
        cfg = cfg_for(
            """
            def f(x):
                try:
                    y = boom(x)
                except StorageError:
                    y = 0
                return y
            """
        )
        assign = next(n for n in cfg.nodes if isinstance(n.stmt, ast.Assign))
        # The raising statement's exception target is the dispatch
        # node, not the function's exceptional exit.
        dispatch = assign.exc_target
        assert cfg.nodes[dispatch].label == "except-dispatch"
        # A catching handler exists, so dispatch does NOT re-raise.
        assert cfg.exc_succ[dispatch] == set()
        # The handler masks the storage family for the try body only.
        masks = [n.masked for n in cfg.nodes if isinstance(n.stmt, ast.Assign)]
        assert masks == [True, False]

    def test_unrelated_handler_lets_storage_escape(self):
        cfg = cfg_for(
            """
            def f(x):
                try:
                    y = boom(x)
                except ValueError:
                    y = 0
                return y
            """
        )
        assign = next(n for n in cfg.nodes if isinstance(n.stmt, ast.Assign))
        assert cfg.exc_succ[assign.exc_target] == {cfg.exc_exit}

    def test_finally_reraise_carries_post_finally_state(self):
        cfg = cfg_for(
            """
            def f(path):
                fh = open(path)
                try:
                    fh.write(boom(path))
                finally:
                    fh.close()
            """
        )
        # The re-raise continuation is a synthetic node AFTER the
        # finally body — the close() transfer applies before the
        # exception leaves the frame (the clean_finally fix).
        reraise = [n for n in cfg.nodes if n.label == "reraise"]
        assert len(reraise) == 1
        assert cfg.exc_succ[reraise[0].index] == {cfg.exc_exit}
        close = next(
            n
            for n in cfg.nodes
            if n.stmt is not None
            and isinstance(n.stmt, ast.Expr)
            and "close" in ast.dump(n.stmt)
        )
        assert reraise[0].index in cfg.succ[close.index]
        # The close statement itself has no direct exception edge out.
        assert cfg.exc_exit not in cfg.exc_succ[close.index]
        # The finally body is built last: nodes stay in source order.
        lines = [n.line for n in cfg.nodes if n.stmt is not None]
        assert lines == sorted(lines)
