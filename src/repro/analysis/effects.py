"""Per-function local effect extraction, read off the CFG nodes.

For every function in a :class:`~repro.analysis.callgraph.CodeGraph`
this module reads the *local* (intraprocedural) facts the fixpoint in
:mod:`repro.analysis.flow` propagates from the function's cached
:mod:`.cfg` graph, one node at a time in source order (a compound
statement contributes only its head expression; its body statements are
nodes of their own):

* **mutations** — assignments, ``del``, augmented assignments, and
  known mutator-method calls (``append``/``update``/``pop``/…)
  classified by the root of the target chain (the function's
  :class:`~repro.analysis.callgraph.Scope`): ``self``, a parameter, a
  module-level name, a closed-over name, or a plain local.  Each
  mutation records its CFG node and whether that node is inside a
  ``with <...lock...>:`` block.
* **call sites** — resolved via the call graph, each with its node,
  lock-guard flag, and whether the node sits in a ``try`` that masks
  storage exceptions.  Callables passed as arguments (thread targets,
  ``pool.map(worker, …)``) produce reference edges so closures on the
  hot path are reachable.
* **raises** — explicit unmasked ``raise <StorageError-family>``.
* **I/O** — raw pager access (syntactic ``.pager.<m>()`` chains, a
  typed receiver whose class is the ``Pager``, or construction of a
  ``Pager``-named class) and file I/O (``open``/``read_text``/…).

Lambdas are inlined into their enclosing function; nested ``def``s are
separate graph nodes and only contribute through call/reference edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .callgraph import CallTarget, CodeGraph, FunctionInfo, dotted_name
from .cfg import STORAGE_ERROR_NAMES, CFGNode

__all__ = [
    "CallSite",
    "FunctionEffects",
    "IOSite",
    "Mutation",
    "extract_all_effects",
]

# Methods that mutate their receiver in-place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
        "move_to_end",
        "__setitem__",
        "__delitem__",
    }
)

# Module-level callables that mutate their first (or named) argument.
FUNC_ARG_MUTATORS: Dict[str, int] = {
    "heapq.heappush": 0,
    "heapq.heappop": 0,
    "heapq.heapreplace": 0,
    "heapq.heappushpop": 0,
    "heapq.heapify": 0,
    "setattr": 0,
    "delattr": 0,
}

FILE_IO_NAMES = frozenset({"open", "io.open", "os.open"})
FILE_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes", "unlink", "mkdir"}
)


@dataclass
class Mutation:
    """One write to state, classified by the root of the target chain."""

    kind: str  # "self" | "param" | "global" | "closure" | "local"
    root: Optional[str]  # root name of the target chain, e.g. "counters"
    attr: Optional[str]  # first attribute off the root, e.g. "_docs"
    line: int
    stmt_index: int  # the CFG node; node order is source order
    guarded: bool  # lexically inside a with-lock block


@dataclass
class CallSite:
    """One call (or callable reference) with its masking context."""

    target: CallTarget
    line: int
    stmt_index: int
    in_lock: bool
    storage_masked: bool
    receiver_kind: Optional[str]  # scope of the receiver root, if any
    is_reference: bool = False  # function passed as a value, not called


@dataclass
class IOSite:
    """A raw-pager or file access site."""

    kind: str  # "raw-io" | "file-io"
    line: int
    detail: str


@dataclass
class FunctionEffects:
    """All local facts for one function."""

    key: str
    mutations: List[Mutation] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    io_sites: List[IOSite] = field(default_factory=list)
    raises: List[Tuple[int, int]] = field(default_factory=list)  # (node, line)


def _chain_root(expr: ast.expr) -> Optional[ast.Name]:
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr
    return None


def _first_attr(expr: ast.expr) -> Optional[str]:
    """First attribute hanging off the root name: ``self.a.b`` -> ``a``."""
    attrs: List[str] = []
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and attrs:
        return attrs[-1]
    return None


def _chain_has_attr(expr: ast.expr, name: str) -> bool:
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


class _EffectVisitor:
    """Reads one function's CFG nodes into :class:`FunctionEffects`."""

    def __init__(self, graph: CodeGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.scope = graph.scope(func.key)
        self.effects = FunctionEffects(key=func.key)
        self.node = CFGNode(index=0, stmt=None, label="entry")

    # -- helpers -------------------------------------------------------

    def _receiver_kind(self, expr: Optional[ast.expr]) -> Optional[str]:
        root = _chain_root(expr) if expr is not None else None
        return self.scope.classify(root.id) if root is not None else None

    def _mutation(self, kind: str, root: str, attr: Optional[str], line: int) -> None:
        self.effects.mutations.append(
            Mutation(
                kind=kind,
                root=root,
                attr=attr,
                line=line,
                stmt_index=self.node.index,
                guarded=self.node.in_lock,
            )
        )

    def _call_site(
        self, target: CallTarget, line: int, is_reference: bool = False
    ) -> None:
        self.effects.calls.append(
            CallSite(
                target=target,
                line=line,
                stmt_index=self.node.index,
                in_lock=self.node.in_lock,
                storage_masked=self.node.masked,
                receiver_kind=self._receiver_kind(target.receiver),
                is_reference=is_reference,
            )
        )

    def _record_mutation(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_mutation(elt, line)
            return
        if isinstance(target, ast.Starred):
            self._record_mutation(target.value, line)
            return
        root = _chain_root(target)
        if root is None:
            return
        kind = self.scope.classify(root.id)
        if isinstance(target, ast.Name):
            if kind in ("param", "local", "self"):
                # Rebinding a local name is not a mutation of shared state.
                return
            attr: Optional[str] = target.id
        elif kind == "self":
            attr = _first_attr(target)
        else:
            attr = _first_attr(target) or root.id
        self._mutation(kind, root.id, attr, line)

    def _record_mutation_for_expr(self, expr: ast.expr, line: int) -> None:
        root = _chain_root(expr)
        if root is None:
            return
        kind = self.scope.classify(root.id)
        attr = _first_attr(expr) if kind == "self" else _first_attr(expr) or root.id
        if kind == "local" and not isinstance(expr, (ast.Attribute, ast.Subscript)):
            # Mutating a plain local container is invisible outside.
            if attr is None or attr == root.id:
                return
        self._mutation(kind, root.id, attr, line)

    def _classify_call(self, call: ast.Call) -> None:
        target = self.graph.resolve_call(self.func, call)
        line = call.lineno
        self._call_site(target, line)
        dotted = dotted_name(call.func)
        terminal = dotted.split(".")[-1] if dotted else None

        # Mutator-method calls on unresolved receivers.
        if (
            target.kind != "local"
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATOR_METHODS
        ):
            self._record_mutation_for_expr(call.func.value, line)

        # Known argument-mutating callables.
        if dotted is not None:
            mut_key = dotted if dotted in FUNC_ARG_MUTATORS else None
            if mut_key is None and terminal in FUNC_ARG_MUTATORS:
                mut_key = terminal
            if mut_key is not None and call.args:
                index = FUNC_ARG_MUTATORS[mut_key]
                if index < len(call.args):
                    self._record_mutation_for_expr(call.args[index], line)

        # Raw pager access: syntactic chain through a "pager" attribute,
        # a receiver typed as a Pager class, or Pager construction.
        raw = False
        if isinstance(call.func, ast.Attribute) and _chain_has_attr(
            call.func.value, "pager"
        ):
            raw = True
        elif terminal == "Pager" or (
            target.kind == "external" and target.key and target.key.endswith(".Pager")
        ):
            raw = True
        elif target.kind == "local" and target.key:
            callee = self.graph.functions.get(target.key)
            if (
                callee is not None
                and callee.class_key is not None
                and callee.class_key.split(".")[-1] == "Pager"
                and callee.name != "__init__"
            ):
                raw = True
        if raw:
            self.effects.io_sites.append(
                IOSite("raw-io", line, dotted or "pager access")
            )

        # File I/O.
        if dotted in FILE_IO_NAMES or (
            target.kind != "local" and terminal in FILE_IO_METHODS
        ):
            self.effects.io_sites.append(
                IOSite("file-io", line, dotted or str(terminal))
            )

        # Callable references passed as arguments (higher-order edges).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            ref = self._callable_reference(arg)
            if ref is not None:
                self._call_site(ref, line, is_reference=True)

    def _callable_reference(self, expr: ast.expr) -> Optional[CallTarget]:
        if isinstance(expr, ast.Name):
            target = self.graph.resolve_name_target(self.func, expr.id)
            if target is not None and target.kind == "local":
                return target
            return None
        if isinstance(expr, ast.Attribute):
            receiver_type = self.graph.expr_type(self.func, expr.value)
            if receiver_type is not None:
                found = self.graph.lookup_method(receiver_type, expr.attr)
                if found is not None:
                    return CallTarget(
                        kind="local", key=found, receiver=expr.value, attr=expr.attr
                    )
        return None

    # -- traversal -----------------------------------------------------

    def run(self) -> FunctionEffects:
        for node in self.graph.cfg(self.func.key).nodes:
            if node.stmt is not None:
                self.node = node
                self._visit_node(node.stmt)
        return self.effects

    def _visit_node(self, stmt: ast.stmt) -> None:
        """The facts of one node: a simple statement, or a compound
        statement's head (its body statements are nodes of their own)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate graph nodes
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._record_mutation(target, stmt.lineno)
            if stmt.value is not None:
                self._visit_expr(stmt.value)
            if isinstance(stmt, ast.AugAssign):
                self._visit_expr(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_mutation(target, stmt.lineno)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._visit_expr(stmt.exc)
                exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
                name = dotted_name(exc)
                if (
                    name is not None
                    and name.split(".")[-1] in STORAGE_ERROR_NAMES
                    and not self.node.masked
                ):
                    self.effects.raises.append((self.node.index, stmt.lineno))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._record_mutation(item.optional_vars, stmt.lineno)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_mutation(stmt.target, stmt.lineno)
            self._visit_expr(stmt.iter)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._visit_expr(stmt.test)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child)

    def _visit_expr(self, expr: ast.expr) -> None:
        """Classify every call in ``expr``, lambda bodies included."""
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                self._classify_call(node)
            if isinstance(node, ast.Lambda):
                stack.append(node.body)
            else:
                stack.extend(ast.iter_child_nodes(node))


def extract_all_effects(graph: CodeGraph) -> Dict[str, FunctionEffects]:
    return {
        key: _EffectVisitor(graph, func).run()
        for key, func in sorted(graph.functions.items())
    }
