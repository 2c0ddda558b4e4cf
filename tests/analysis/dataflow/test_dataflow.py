"""Forward worklist solver: fixpoint, reachability, edge-state policy;
the interprocedural summary worklist: callers re-solve, the bound."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import build_cfg
from repro.analysis import dataflow
from repro.analysis.dataflow import solve_forward, solve_summaries


def solve(source, transfer, may_raise=None, entry_state=None):
    tree = ast.parse(textwrap.dedent(source))
    cfg = build_cfg(tree.body[0])
    raising = {n.index for n in cfg.nodes if may_raise and may_raise(n.stmt)}
    states = solve_forward(
        cfg,
        transfer,
        join=lambda a, b: a | b,
        initial=frozenset,
        entry_state=entry_state,
        raising=raising,
    )
    return cfg, states


def assigned_name(node):
    stmt = node.stmt
    if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


class TestSolver:
    def test_collects_facts_along_straight_line(self):
        def transfer(node, state):
            name = assigned_name(node)
            return state | {name} if name else state

        cfg, states = solve(
            """
            def f():
                a = 1
                b = 2
                return a + b
            """,
            transfer,
        )
        assert states[cfg.exit] == {"a", "b"}

    def test_branches_join_at_merge_point(self):
        def transfer(node, state):
            name = assigned_name(node)
            return state | {name} if name else state

        cfg, states = solve(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    b = 2
                return 0
            """,
            transfer,
        )
        # May-analysis: both arm facts survive the merge.
        assert states[cfg.exit] == {"a", "b"}

    def test_every_node_visited_even_with_empty_states(self):
        """The reached-set regression: with a bottom entry state and a
        transfer that never changes state, checks living inside the
        transfer must still run once per node."""
        visited = []

        def transfer(node, state):
            visited.append(node.index)
            return state

        cfg, _ = solve(
            """
            def f():
                a = 1
                b = 2
            """,
            transfer,
        )
        statement_nodes = {
            n.index for n in cfg.nodes if n.stmt is not None
        }
        assert statement_nodes <= set(visited)

    def test_exception_edge_carries_pre_state(self):
        """An exception may fire before the statement's effect lands, so
        exc-exit must see the PRE-state of the raising statement."""

        def transfer(node, state):
            name = assigned_name(node)
            return state | {name} if name else state

        def may_raise(stmt):
            return stmt is not None and any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "boom"
                for n in ast.walk(stmt)
            )

        cfg, states = solve(
            """
            def f(x):
                a = 1
                b = boom(x)
                return b
            """,
            transfer,
            may_raise=may_raise,
        )
        assert states[cfg.exc_exit] == {"a"}  # b's effect never landed
        assert states[cfg.exit] == {"a", "b"}

    def test_loop_reaches_fixpoint(self):
        def transfer(node, state):
            name = assigned_name(node)
            return state | {name} if name else state

        cfg, states = solve(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = 1
                return total
            """,
            transfer,
        )
        assert "total" in states[cfg.exit]

    def test_entry_state_seeds_the_solve(self):
        def transfer(node, state):
            return state

        cfg, states = solve(
            """
            def f():
                return 1
            """,
            transfer,
            entry_state=frozenset({"seed"}),
        )
        assert states[cfg.exit] == {"seed"}


class TestSummaryWorklist:
    """Summaries here are reachability sets: a function's own name plus
    every summary of its callees."""

    CALLS = {"a": ["b"], "b": ["c"], "c": ["b"], "d": []}

    def solve(self, calls):
        callers = {}
        for caller, callees in calls.items():
            for callee in callees:
                callers.setdefault(callee, []).append(caller)
        summaries = {key: {key} for key in calls}
        order = []

        def evaluate(key):
            order.append(key)
            before = set(summaries[key])
            for callee in calls[key]:
                summaries[key] |= summaries[callee]
            return summaries[key] != before

        converged = solve_summaries(calls, evaluate, callers)
        return converged, summaries, order

    def test_callers_reach_the_fixpoint_through_a_cycle(self):
        converged, summaries, order = self.solve(self.CALLS)
        assert converged
        assert summaries == {
            "a": {"a", "b", "c"},
            "b": {"b", "c"},
            "c": {"b", "c"},
            "d": {"d"},
        }
        # Every key starts dirty and the last sorted key goes first; a
        # re-dirtied caller goes on top of the stack.
        assert order == ["d", "c", "b", "c", "a"]

    def test_unchanged_summary_dirties_no_caller(self):
        _, _, order = self.solve({"a": ["b"], "b": []})
        assert order == ["b", "a"]

    def test_bound_stops_a_solve_that_never_settles(self, monkeypatch):
        monkeypatch.setattr(dataflow, "MAX_ROUNDS", 3)
        evaluations = []

        def evaluate(key):
            evaluations.append(key)
            return True

        assert not solve_summaries(["a", "b"], evaluate, {"a": ["b"], "b": ["a"]})
        assert len(evaluations) == 3 * 2
