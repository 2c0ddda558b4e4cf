"""Per-function control-flow graphs for every statement-level layer.

Statement-level CFGs with branch, loop, ``try``/``except``/``finally``,
and ``with`` edges.  :meth:`repro.analysis.callgraph.CodeGraph.cfg`
builds each function's graph once; the flow layer reads its effects
off the nodes, and the taint and lifetime checkers solve on it.

Nodes are statements (compound statements contribute a *head* node for
their test/iterator/context expression; their bodies are flattened into
the graph), created in source order.  Three synthetic nodes frame every
function: ``entry``, ``exit`` (normal return / fall-off-end), and
``exc-exit`` (unhandled exception leaves the frame).  Normal and
exceptional successors are kept in separate edge maps so clients can
treat the two flavors differently — the lifetime checker reports a
resource held on an edge into ``exc-exit`` as *leak-on-exception*.

**Exception edges.**  The graph holds the edges every client shares:
an explicit ``raise``, an except-dispatch no handler of which catches
the storage family, and the re-raise after a ``finally`` block.  Any
other statement only records its *exception target* (the enclosing
except-dispatch, the ``finally`` entry, or ``exc-exit``); whoever runs
a solve chooses which nodes sprout that edge
(:func:`repro.analysis.dataflow.solve_forward`'s ``raising``).  Taint
keeps explicit raises only; lifetime adds every statement that calls a
``raises-storage`` function.

Each node also records whether it sits inside a ``with <...lock...>:``
block and inside the body of a ``try`` whose handler masks the storage
family — the two contexts flow's effect masks read.

``finally`` blocks are modeled once (not duplicated per path): the
normal path runs body → finally → after, and the exceptional path runs
handler-dispatch → finally → outer exception target.  This is the
standard may-analysis approximation — path-insensitive, but every real
execution order is covered by some graph path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ensure_not_none
from .callgraph import dotted_name

__all__ = ["CFG", "CFGNode", "STORAGE_ERROR_NAMES", "build_cfg"]

STORAGE_ERROR_NAMES = frozenset(
    {
        "StorageError",
        "TransientIOError",
        "CorruptRecordError",
        "RecordNotFoundError",
        "PersistenceError",
    }
)

# Exception names whose handlers catch the whole storage family.
MASKING_HANDLER_NAMES = frozenset(
    {"StorageError", "ReproError", "Exception", "BaseException"}
)


def _handler_names(handler: ast.ExceptHandler) -> Set[str]:
    if handler.type is None:
        return {"BaseException"}
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = (dotted_name(node) for node in types)
    return {name.split(".")[-1] for name in names if name is not None}


def _handler_catches_storage(handler: ast.ExceptHandler) -> bool:
    """True when this handler can catch some storage error."""
    return bool(
        _handler_names(handler) & (STORAGE_ERROR_NAMES | MASKING_HANDLER_NAMES)
    )


def _handler_masks_storage(handler: ast.ExceptHandler) -> bool:
    """True when the handler catches the whole storage family and does
    not re-raise it (a bare ``raise`` in the handler keeps the error)."""
    if not _handler_names(handler) & MASKING_HANDLER_NAMES:
        return False
    return not any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _is_lock_context(item: ast.withitem) -> bool:
    dotted = dotted_name(item.context_expr)
    if dotted is None and isinstance(item.context_expr, ast.Call):
        dotted = dotted_name(item.context_expr.func)
    return dotted is not None and "lock" in dotted.lower()


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic control point."""

    index: int
    stmt: Optional[ast.stmt]  # None for synthetic nodes
    label: str  # "entry" | "exit" | "exc-exit" | "stmt" | "head" | ...
    with_stmt: Optional[ast.With] = None  # set on "with-exit" nodes
    # Where an exception raised by this statement goes; None where no
    # solve may add one (synthetic nodes, defs, raise, break, continue).
    exc_target: Optional[int] = None
    in_lock: bool = False  # inside a ``with <...lock...>:`` body
    masked: bool = False  # inside a try body whose handler masks storage

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

    def add_edge(self, src: int, dst: int) -> None:
        self.succ[src].add(dst)

    def add_exc_edge(self, src: int, dst: int) -> None:
        self.exc_succ[src].add(dst)


class _Builder:
    """Recursive-descent CFG construction over a statement list.

    ``exc_target`` is the node unhandled exceptions flow to from the
    current context (an except-dispatch node, a finally entry, or the
    function's exc-exit).  ``loop_stack`` holds (head, after) pairs for
    ``continue``/``break``; the two depths count the enclosing lock
    blocks and storage-masking try bodies.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.loop_stack: List[Tuple[int, int]] = []
        self.lock_depth = 0
        self.mask_depth = 0

    def node(
        self,
        stmt: Optional[ast.stmt],
        label: str = "stmt",
        exc_target: Optional[int] = None,
        with_stmt: Optional[ast.With] = None,
    ) -> int:
        index = len(self.cfg.nodes)
        self.cfg.nodes.append(
            CFGNode(
                index=index,
                stmt=stmt,
                label=label,
                with_stmt=with_stmt,
                exc_target=exc_target,
                in_lock=self.lock_depth > 0,
                masked=self.mask_depth > 0,
            )
        )
        self.cfg.succ[index] = set()
        self.cfg.exc_succ[index] = set()
        return index

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
            node = self.node(stmt)
            return node, [node]

        if isinstance(stmt, ast.Return):
            node = self.node(stmt, exc_target=exc_target)
            cfg.add_edge(node, cfg.exit)
            return node, []

        if isinstance(stmt, ast.Raise):
            node = self.node(stmt)
            cfg.add_exc_edge(node, exc_target)
            return node, []

        if isinstance(stmt, ast.Break):
            node = self.node(stmt)
            if self.loop_stack:
                cfg.add_edge(node, self.loop_stack[-1][1])
            return node, []

        if isinstance(stmt, ast.Continue):
            node = self.node(stmt)
            if self.loop_stack:
                cfg.add_edge(node, self.loop_stack[-1][0])
            return node, []

        if isinstance(stmt, ast.If):
            head = self.node(stmt, "head", exc_target)
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
            head = self.node(stmt, "head", exc_target)
            # "after" is represented by the dangling-ends contract: the
            # loop head itself dangles (condition false / iterator
            # exhausted).  break needs a concrete node to jump to.
            after = self.node(None, "loop-exit")
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
            head = self.node(stmt, "head", exc_target)
            locked = any(_is_lock_context(item) for item in stmt.items)
            self.lock_depth += locked
            body_first, body_ends = self.build_body(stmt.body, exc_target)
            self.lock_depth -= locked
            with_exit = self.node(
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
        node = self.node(stmt, exc_target=exc_target)
        return node, [node]

    # ------------------------------------------------------------------

    def _build_try(
        self, stmt: ast.Try, exc_target: int
    ) -> Tuple[Optional[int], List[int]]:
        cfg = self.cfg
        # Where does an exception escaping this try go?  Through the
        # finally block (if any), then to the outer target.  The
        # synthetic "finally" node is that block's entry; the block
        # itself is built last, so nodes stay in source order.
        fin = self.node(None, "finally") if stmt.finalbody else exc_target
        dispatch = self.node(None, "except-dispatch")
        ends: List[int] = []

        masks = any(_handler_masks_storage(h) for h in stmt.handlers)
        self.mask_depth += masks
        body_first, body_ends = self.build_body(stmt.body, dispatch)
        self.mask_depth -= masks
        for handler in stmt.handlers:
            h_first, h_ends = self.build_body(handler.body, fin)
            if h_first is not None:
                cfg.add_edge(dispatch, h_first)
                ends.extend(h_ends)
            else:
                ends.append(dispatch)
        if not any(_handler_catches_storage(h) for h in stmt.handlers):
            # No handler catches the storage family: the exception
            # continues through finally to the outer context.
            cfg.add_exc_edge(dispatch, fin)

        else_first, else_ends = self.build_body(stmt.orelse, fin)
        if else_first is not None:
            for end in body_ends:
                cfg.add_edge(end, else_first)
            ends.extend(else_ends)
        else:
            ends.extend(body_ends)

        if stmt.finalbody:
            fin_first, fin_ends = self.build_body(stmt.finalbody, exc_target)
            # Non-empty by grammar: ``finally:`` requires a suite.
            cfg.add_edge(fin, ensure_not_none(fin_first, "empty finally suite"))
            # Re-raise continuation: after the finally body completes,
            # a pending exception leaves through the outer target.  A
            # synthetic node keeps the *post*-finally state on that
            # edge (the exception predates the finally; its effects —
            # e.g. fh.close() — do not).
            reraise = self.node(None, "reraise")
            for end in fin_ends:
                cfg.add_edge(end, reraise)
            cfg.add_exc_edge(reraise, exc_target)
            # Handler and normal ends run the finally block too.
            for end in ends:
                cfg.add_edge(end, fin)
            ends = fin_ends

        first = body_first if body_first is not None else dispatch
        return first, ends


def build_cfg(func_node: ast.AST) -> CFG:
    """Build the CFG for one ``FunctionDef``/``AsyncFunctionDef``."""
    cfg = CFG()
    builder = _Builder(cfg)
    cfg.entry = builder.node(None, "entry")
    cfg.exit = builder.node(None, "exit")
    cfg.exc_exit = builder.node(None, "exc-exit")
    body = getattr(func_node, "body", [])
    first, ends = builder.build_body(body, cfg.exc_exit)
    if first is not None:
        cfg.add_edge(cfg.entry, first)
        for end in ends:
            cfg.add_edge(end, cfg.exit)
    else:
        cfg.add_edge(cfg.entry, cfg.exit)
    return cfg
