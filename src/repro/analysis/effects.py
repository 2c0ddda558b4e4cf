"""Per-function local effect extraction.

For every function in a :class:`~repro.analysis.callgraph.CodeGraph`
this module computes the *local* (intraprocedural) facts the fixpoint
in :mod:`repro.analysis.flow` propagates:

* **mutations** — assignments, ``del``, augmented assignments, and
  known mutator-method calls (``append``/``update``/``pop``/…)
  classified by the root of the target chain: ``self``, a parameter, a
  module-level name, a closed-over name, or a plain local.  Each
  mutation records the statement index (pre-order within the function
  body) and whether it is lexically guarded by a ``with <...lock...>:``
  block.
* **call sites** — resolved via the call graph, each with its statement
  index, lock-guard flag, and whether the surrounding ``try`` masks
  storage exceptions.  Callables passed as arguments (thread targets,
  ``pool.map(worker, …)``) produce reference edges so closures on the
  hot path are reachable.
* **raises** — explicit unmasked ``raise <StorageError-family>``.
* **I/O** — raw pager access (syntactic ``.pager.<m>()`` chains, a
  typed receiver whose class is the ``Pager``, or construction of a
  ``Pager``-named class), file I/O (``open``/``read_text``/…), and
  buffer-pool access.
* **nondeterminism** — calls into ``random``/``time``/``uuid``/… name
  families (``time.sleep`` is excluded: it delays, it does not vary
  results).

Lambdas are inlined into their enclosing function; nested ``def``s are
separate graph nodes and only contribute through call/reference edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .callgraph import CallTarget, CodeGraph, FunctionInfo, dotted_name

__all__ = [
    "CallSite",
    "FunctionEffects",
    "IOSite",
    "Mutation",
    "extract_effects",
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

STORAGE_ERROR_NAMES = frozenset(
    {
        "StorageError",
        "TransientIOError",
        "CorruptRecordError",
        "RecordNotFoundError",
        "PersistenceError",
    }
)

# Exception names whose handlers mask the storage family entirely.
MASKING_HANDLER_NAMES = frozenset(
    {"StorageError", "ReproError", "Exception", "BaseException"}
)

# The nondeterminism taxonomy lives in repro.analysis.registry so the
# nondet effect and the determinism-taint checker share one source of
# truth (the time.sleep exclusion included).
from .registry import nondet_kind

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
    stmt_index: int
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
    """A raw-pager / file / buffer-pool access site."""

    kind: str  # "raw-io" | "file-io" | "buffer-io"
    line: int
    stmt_index: int
    detail: str


@dataclass
class FunctionEffects:
    """All local facts for one function."""

    key: str
    mutations: List[Mutation] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    io_sites: List[IOSite] = field(default_factory=list)
    raise_lines: List[int] = field(default_factory=list)
    raise_indexes: List[int] = field(default_factory=list)
    nondet_names: Set[str] = field(default_factory=set)


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


class _ScopeModel:
    """Name classification for one function (with enclosing chain)."""

    def __init__(self, graph: CodeGraph, func: FunctionInfo) -> None:
        self.params: Set[str] = set()
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()
        self.nonlocals_declared: Set[str] = set()
        self.enclosing: Set[str] = set()
        node = func.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.params.add(arg.arg)
            self._collect_bindings(node)
        scope = graph.functions.get(func.parent) if func.parent else None
        while scope is not None:
            outer = scope.node
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = outer.args
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                ):
                    self.enclosing.add(arg.arg)
                self.enclosing.update(_bound_names(outer))
            scope = graph.functions.get(scope.parent) if scope.parent else None

    def _collect_bindings(self, node: ast.AST) -> None:
        self.locals.update(_bound_names(node))
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self.globals_declared.update(child.names)
            elif isinstance(child, ast.Nonlocal):
                self.nonlocals_declared.update(child.names)

    def classify(self, name: str) -> str:
        if name in ("self", "cls"):
            return "self"
        if name in self.globals_declared:
            return "global"
        if name in self.nonlocals_declared:
            return "closure"
        if name in self.params:
            return "param"
        if name in self.locals:
            return "local"
        if name in self.enclosing:
            return "closure"
        return "global"


def _bound_names(node: ast.AST) -> Set[str]:
    """Names bound by assignment/for/with/except/def within ``node``,
    not descending into nested function or class bodies."""
    bound: Set[str] = set()

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(child.name)
                continue
            if isinstance(child, ast.ClassDef):
                bound.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                bound.add(child.id)
            if isinstance(child, ast.ExceptHandler) and child.name:
                bound.add(child.name)
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            visit(child)

    visit(node)
    return bound


def _is_lock_context(item: ast.withitem) -> bool:
    dotted = dotted_name(item.context_expr)
    if dotted is None and isinstance(item.context_expr, ast.Call):
        dotted = dotted_name(item.context_expr.func)
    return dotted is not None and "lock" in dotted.lower()


def _handler_masks_storage(handler: ast.ExceptHandler) -> bool:
    """True when the handler catches the storage family and does not
    re-raise it (a bare ``raise`` in the handler keeps the effect)."""
    names: List[str] = []
    if handler.type is None:
        names.append("BaseException")
    else:
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for node in types:
            dotted = dotted_name(node)
            if dotted is not None:
                names.append(dotted.split(".")[-1])
    if not any(n in MASKING_HANDLER_NAMES for n in names):
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return False
    return True


def _try_masks_storage(node: ast.Try) -> bool:
    return any(_handler_masks_storage(h) for h in node.handlers)


class _EffectVisitor:
    """Walks one function body, producing :class:`FunctionEffects`."""

    def __init__(self, graph: CodeGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.scope = _ScopeModel(graph, func)
        self.effects = FunctionEffects(key=func.key)
        self.stmt_index = 0
        self.lock_depth = 0
        self.mask_depth = 0

    # -- helpers -------------------------------------------------------

    def _receiver_kind(self, expr: Optional[ast.expr]) -> Optional[str]:
        if expr is None:
            return None
        root = _chain_root(expr)
        if root is None:
            return None
        return self.scope.classify(root.id)

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
        is_rebind = isinstance(target, ast.Name)
        if is_rebind and kind in ("param", "local", "self"):
            # Rebinding a local name is not a mutation of shared state.
            return
        attr: Optional[str] = None
        if kind == "self":
            attr = _first_attr(target)
        elif isinstance(target, ast.Name):
            attr = target.id
        else:
            attr = _first_attr(target) or root.id
        self.effects.mutations.append(
            Mutation(
                kind=kind,
                root=root.id,
                attr=attr,
                line=line,
                stmt_index=self.stmt_index,
                guarded=self.lock_depth > 0,
            )
        )

    def _record_io(self, kind: str, line: int, detail: str) -> None:
        self.effects.io_sites.append(
            IOSite(kind=kind, line=line, stmt_index=self.stmt_index, detail=detail)
        )

    def _classify_call(self, call: ast.Call) -> None:
        target = self.graph.resolve_call(self.func, call)
        receiver_kind = self._receiver_kind(target.receiver)
        line = call.lineno
        self.effects.calls.append(
            CallSite(
                target=target,
                line=line,
                stmt_index=self.stmt_index,
                in_lock=self.lock_depth > 0,
                storage_masked=self.mask_depth > 0,
                receiver_kind=receiver_kind,
            )
        )
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
            self._record_io("raw-io", line, dotted or "pager access")

        # File I/O.
        if dotted in FILE_IO_NAMES or (
            target.kind != "local" and terminal in FILE_IO_METHODS
        ):
            self._record_io("file-io", line, dotted or str(terminal))

        # Buffer-pool I/O.
        buffer_io = False
        if target.kind == "local" and target.key:
            callee = self.graph.functions.get(target.key)
            if (
                callee is not None
                and callee.class_key is not None
                and callee.class_key.split(".")[-1] == "BufferPool"
            ):
                buffer_io = True
        elif isinstance(call.func, ast.Attribute) and _chain_has_attr(
            call.func.value, "buffer"
        ):
            buffer_io = True
        if buffer_io:
            self._record_io("buffer-io", line, dotted or "buffer access")

        # Nondeterminism (shared registry decides; time.sleep excluded).
        ext = target.key if target.kind == "external" else dotted
        for candidate in (ext, dotted):
            if candidate is None:
                continue
            if nondet_kind(candidate) is not None:
                self.effects.nondet_names.add(candidate)
                break

        # Callable references passed as arguments (higher-order edges).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            ref = self._callable_reference(arg)
            if ref is not None:
                self.effects.calls.append(
                    CallSite(
                        target=ref,
                        line=line,
                        stmt_index=self.stmt_index,
                        in_lock=self.lock_depth > 0,
                        storage_masked=self.mask_depth > 0,
                        receiver_kind=self._receiver_kind(ref.receiver),
                        is_reference=True,
                    )
                )

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

    def _record_mutation_for_expr(self, expr: ast.expr, line: int) -> None:
        root = _chain_root(expr)
        if root is None:
            return
        kind = self.scope.classify(root.id)
        attr: Optional[str] = None
        if kind == "self":
            attr = _first_attr(expr)
        else:
            attr = _first_attr(expr) or root.id
        if kind == "local" and not isinstance(expr, (ast.Attribute, ast.Subscript)):
            # Mutating a plain local container is invisible outside.
            if attr is None or attr == root.id:
                return
        self.effects.mutations.append(
            Mutation(
                kind=kind,
                root=root.id,
                attr=attr,
                line=line,
                stmt_index=self.stmt_index,
                guarded=self.lock_depth > 0,
            )
        )

    # -- traversal -----------------------------------------------------

    def run(self) -> FunctionEffects:
        node = self.func.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                self._visit_stmt(stmt)
        return self.effects

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        self.stmt_index += 1
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate graph nodes
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._record_mutation(target, stmt.lineno)
            value = getattr(stmt, "value", None)
            if value is not None:
                self._visit_expr(value)
            if isinstance(stmt, ast.AugAssign):
                self._visit_expr(stmt.target)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_mutation(target, stmt.lineno)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._visit_expr(stmt.exc)
                name = None
                exc = stmt.exc
                if isinstance(exc, ast.Call):
                    name = dotted_name(exc.func)
                else:
                    name = dotted_name(exc)
                if (
                    name is not None
                    and name.split(".")[-1] in STORAGE_ERROR_NAMES
                    and self.mask_depth == 0
                ):
                    self.effects.raise_lines.append(stmt.lineno)
                    self.effects.raise_indexes.append(self.stmt_index)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            is_lock = any(_is_lock_context(item) for item in stmt.items)
            for item in stmt.items:
                self._visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._record_mutation(item.optional_vars, stmt.lineno)
            if is_lock:
                self.lock_depth += 1
            for child in stmt.body:
                self._visit_stmt(child)
            if is_lock:
                self.lock_depth -= 1
            return
        if isinstance(stmt, ast.Try):
            masks = _try_masks_storage(stmt)
            if masks:
                self.mask_depth += 1
            for child in stmt.body:
                self._visit_stmt(child)
            if masks:
                self.mask_depth -= 1
            for handler in stmt.handlers:
                for child in handler.body:
                    self._visit_stmt(child)
            for child in stmt.orelse:
                self._visit_stmt(child)
            for child in stmt.finalbody:
                self._visit_stmt(child)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_mutation(stmt.target, stmt.lineno)
            self._visit_expr(stmt.iter)
            for child in stmt.body:
                self._visit_stmt(child)
            for child in stmt.orelse:
                self._visit_stmt(child)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._visit_expr(stmt.test)
            for child in stmt.body:
                self._visit_stmt(child)
            for child in stmt.orelse:
                self._visit_stmt(child)
            return
        # Generic statements: walk contained expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(child)

    def _visit_expr(self, expr: ast.expr) -> None:
        for node in self._walk_expr(expr):
            if isinstance(node, ast.Call):
                self._classify_call(node)

    def _walk_expr(self, expr: ast.expr):
        """Walk an expression, inlining lambda bodies, skipping nested
        function definitions (there are none inside expressions)."""
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.Lambda):
                args = node.args
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                ):
                    self.scope.locals.add(arg.arg)
                stack.append(node.body)
                continue
            stack.extend(ast.iter_child_nodes(node))


def extract_effects(graph: CodeGraph, func: FunctionInfo) -> FunctionEffects:
    return _EffectVisitor(graph, func).run()


def extract_all_effects(graph: CodeGraph) -> Dict[str, FunctionEffects]:
    return {
        key: extract_effects(graph, func)
        for key, func in sorted(graph.functions.items())
    }
