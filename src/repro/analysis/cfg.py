"""Per-function control-flow graphs for the dataflow checkers.

Statement-level CFGs with branch, loop, ``try``/``except``/``finally``,
and ``with`` edges, plus **exception edges** from possibly-raising
statements (the caller decides what "possibly raising" means — the
production checkers feed it the ``raises-storage`` facts from
:mod:`repro.analysis.effects` / :mod:`repro.analysis.flow`, so a
``pool.fetch(...)`` call sprouts an edge to the enclosing handler or to
the function's exceptional exit).

Nodes are statements (compound statements contribute a *head* node for
their test/iterator/context expression; their bodies are flattened into
the graph).  Three synthetic nodes frame every function: ``entry``,
``exit`` (normal return / fall-off-end), and ``exc-exit`` (unhandled
exception leaves the frame).  Normal and exceptional successors are
kept in separate edge maps so clients can treat the two flavors
differently — the lifetime checker reports a resource held on an
edge into ``exc-exit`` as *leak-on-exception*.

``finally`` blocks are modeled once (not duplicated per path): the
normal path runs body → finally → after, and the exceptional path runs
handler-dispatch → finally → outer exception target.  This is the
standard may-analysis approximation — path-insensitive, but every real
execution order is covered by some graph path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ensure_not_none
from .callgraph import dotted_name
from .effects import MASKING_HANDLER_NAMES

__all__ = ["CFG", "CFGNode", "build_cfg"]


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic control point."""

    index: int
    stmt: Optional[ast.stmt]  # None for synthetic nodes
    label: str  # "entry" | "exit" | "exc-exit" | "stmt" | "head" | ...
    with_stmt: Optional[ast.With] = None  # set on "with-exit" nodes

    @property
    def line(self) -> int:
        if self.stmt is not None:
            return getattr(self.stmt, "lineno", 0)
        return 0


@dataclass
class CFG:
    """Statement-level CFG with separate normal/exception edge maps."""

    nodes: List[CFGNode] = field(default_factory=list)
    succ: Dict[int, Set[int]] = field(default_factory=dict)
    exc_succ: Dict[int, Set[int]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 0
    exc_exit: int = 0

    def add_node(
        self,
        stmt: Optional[ast.stmt],
        label: str,
        with_stmt: Optional[ast.With] = None,
    ) -> int:
        index = len(self.nodes)
        self.nodes.append(
            CFGNode(index=index, stmt=stmt, label=label, with_stmt=with_stmt)
        )
        self.succ[index] = set()
        self.exc_succ[index] = set()
        return index

    def add_edge(self, src: int, dst: int) -> None:
        self.succ[src].add(dst)

    def add_exc_edge(self, src: int, dst: int) -> None:
        self.exc_succ[src].add(dst)


def _handler_catches_storage(handler: ast.ExceptHandler) -> bool:
    """True when this handler can catch the storage-error family."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    from .effects import STORAGE_ERROR_NAMES

    catchable = STORAGE_ERROR_NAMES | MASKING_HANDLER_NAMES
    for node in types:
        dotted = dotted_name(node)
        if dotted is not None and dotted.split(".")[-1] in catchable:
            return True
    return False


class _Builder:
    """Recursive-descent CFG construction over a statement list.

    ``exc_target`` is the node unhandled exceptions flow to from the
    current context (an except-dispatch node, a finally head, or the
    function's exc-exit).  ``loop_stack`` holds (head, after) pairs for
    ``continue``/``break``.
    """

    def __init__(self, cfg: CFG, may_raise: Callable[[ast.stmt], bool]) -> None:
        self.cfg = cfg
        self.may_raise = may_raise
        self.loop_stack: List[Tuple[int, int]] = []

    def build_body(
        self, body: Sequence[ast.stmt], exc_target: int
    ) -> Tuple[Optional[int], List[int]]:
        """Wire a statement list; returns (first node, dangling ends).

        Dangling ends are nodes whose normal successor is "whatever
        comes after this block".  ``first`` is None for an empty body.
        """
        first: Optional[int] = None
        ends: List[int] = []
        for stmt in body:
            head, new_ends = self.build_stmt(stmt, exc_target)
            if head is None:
                continue
            if first is None:
                first = head
            else:
                for end in ends:
                    self.cfg.add_edge(end, head)
            ends = new_ends
        return first, ends

    # ------------------------------------------------------------------

    def build_stmt(
        self, stmt: ast.stmt, exc_target: int
    ) -> Tuple[Optional[int], List[int]]:
        cfg = self.cfg
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions are separate graph nodes elsewhere;
            # here the def is just a binding statement.
            node = cfg.add_node(stmt, "stmt")
            return node, [node]

        if isinstance(stmt, ast.Return):
            node = cfg.add_node(stmt, "stmt")
            cfg.add_edge(node, cfg.exit)
            self._maybe_exc(node, stmt, exc_target)
            return node, []

        if isinstance(stmt, ast.Raise):
            node = cfg.add_node(stmt, "stmt")
            cfg.add_exc_edge(node, exc_target)
            return node, []

        if isinstance(stmt, ast.Break):
            node = cfg.add_node(stmt, "stmt")
            if self.loop_stack:
                cfg.add_edge(node, self.loop_stack[-1][1])
            return node, []

        if isinstance(stmt, ast.Continue):
            node = cfg.add_node(stmt, "stmt")
            if self.loop_stack:
                cfg.add_edge(node, self.loop_stack[-1][0])
            return node, []

        if isinstance(stmt, ast.If):
            head = cfg.add_node(stmt, "head")
            self._maybe_exc(head, stmt, exc_target)
            ends: List[int] = []
            then_first, then_ends = self.build_body(stmt.body, exc_target)
            if then_first is not None:
                cfg.add_edge(head, then_first)
                ends.extend(then_ends)
            else:
                ends.append(head)
            else_first, else_ends = self.build_body(stmt.orelse, exc_target)
            if else_first is not None:
                cfg.add_edge(head, else_first)
                ends.extend(else_ends)
            else:
                ends.append(head)
            return head, ends

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg.add_node(stmt, "head")
            self._maybe_exc(head, stmt, exc_target)
            # "after" is represented by the dangling-ends contract: the
            # loop head itself dangles (condition false / iterator
            # exhausted).  break needs a concrete node, so synthesize
            # one only when the body contains a break.
            after = cfg.add_node(None, "loop-exit")
            self.loop_stack.append((head, after))
            body_first, body_ends = self.build_body(stmt.body, exc_target)
            self.loop_stack.pop()
            if body_first is not None:
                cfg.add_edge(head, body_first)
                for end in body_ends:
                    cfg.add_edge(end, head)
            else:
                cfg.add_edge(head, head)
            ends = [after]
            else_first, else_ends = self.build_body(stmt.orelse, exc_target)
            if else_first is not None:
                cfg.add_edge(head, else_first)
                ends.extend(else_ends)
            else:
                ends.append(head)
            return head, ends

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = cfg.add_node(stmt, "head")
            self._maybe_exc(head, stmt, exc_target)
            body_first, body_ends = self.build_body(stmt.body, exc_target)
            with_exit = cfg.add_node(
                None,
                "with-exit",
                with_stmt=stmt if isinstance(stmt, ast.With) else None,
            )
            if body_first is not None:
                cfg.add_edge(head, body_first)
                for end in body_ends:
                    cfg.add_edge(end, with_exit)
            else:
                cfg.add_edge(head, with_exit)
            return head, [with_exit]

        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, exc_target)

        # Simple statement.
        node = cfg.add_node(stmt, "stmt")
        self._maybe_exc(node, stmt, exc_target)
        return node, [node]

    # ------------------------------------------------------------------

    def _build_try(
        self, stmt: ast.Try, exc_target: int
    ) -> Tuple[Optional[int], List[int]]:
        cfg = self.cfg
        # Where does an exception escaping this try go?  Through the
        # finally block (if any), then to the outer target.
        if stmt.finalbody:
            fin_first, fin_ends = self.build_body(stmt.finalbody, exc_target)
            # Non-empty by grammar: ``finally:`` requires a suite.
            fin_head = ensure_not_none(fin_first, "empty finally suite")
            # Re-raise continuation: after the finally body completes,
            # a pending exception leaves through the outer target.  A
            # synthetic node keeps the *post*-finally state on that
            # edge (the exception predates the finally; its effects —
            # e.g. fh.close() — do not).
            reraise = cfg.add_node(None, "reraise")
            for end in fin_ends:
                cfg.add_edge(end, reraise)
            cfg.add_exc_edge(reraise, exc_target)
        else:
            fin_head, fin_ends = exc_target, []

        dispatch = cfg.add_node(None, "except-dispatch")
        ends: List[int] = []

        body_first, body_ends = self.build_body(stmt.body, dispatch)
        handled_storage = any(
            _handler_catches_storage(h) for h in stmt.handlers
        )
        for handler in stmt.handlers:
            h_first, h_ends = self.build_body(handler.body, fin_head)
            if h_first is not None:
                cfg.add_edge(dispatch, h_first)
                ends.extend(h_ends)
            else:
                ends.append(dispatch)
        if not stmt.handlers or not handled_storage:
            # No handler catches the storage family: the exception
            # continues through finally to the outer context.
            cfg.add_exc_edge(dispatch, fin_head)

        else_first, else_ends = self.build_body(stmt.orelse, fin_head)
        normal_ends = list(body_ends)
        if else_first is not None:
            for end in body_ends:
                cfg.add_edge(end, else_first)
            normal_ends = else_ends

        if stmt.finalbody:
            for end in normal_ends:
                cfg.add_edge(end, fin_head)
            ends.extend(fin_ends)
            # Handlers already route to fin_head as their exc target;
            # their normal ends must run finally too.
            handler_ends = [e for e in ends if e not in fin_ends]
            for end in handler_ends:
                cfg.add_edge(end, fin_head)
            ends = list(fin_ends)
        else:
            ends.extend(normal_ends)

        first = body_first if body_first is not None else dispatch
        return first, ends

    def _maybe_exc(self, node: int, stmt: ast.stmt, exc_target: int) -> None:
        if self.may_raise(stmt):
            self.cfg.add_exc_edge(node, exc_target)


def _never_raises(_stmt: ast.stmt) -> bool:
    return False


def build_cfg(
    func_node: ast.AST,
    may_raise: Optional[Callable[[ast.stmt], bool]] = None,
) -> CFG:
    """Build the CFG for one ``FunctionDef``/``AsyncFunctionDef``.

    ``may_raise(stmt)`` decides which statements get an exception edge
    to the active handler (or the exceptional exit).  Pass the
    storage-raise predicate from the flow analysis for the production
    checkers; the default never adds exception edges from plain
    statements (explicit ``raise`` always does).
    """
    cfg = CFG()
    cfg.entry = cfg.add_node(None, "entry")
    cfg.exit = cfg.add_node(None, "exit")
    cfg.exc_exit = cfg.add_node(None, "exc-exit")
    builder = _Builder(cfg, may_raise or _never_raises)
    body = getattr(func_node, "body", [])
    first, ends = builder.build_body(body, cfg.exc_exit)
    if first is not None:
        cfg.add_edge(cfg.entry, first)
        for end in ends:
            cfg.add_edge(end, cfg.exit)
    else:
        cfg.add_edge(cfg.entry, cfg.exit)
    return cfg
