"""Whole-package call-graph construction for the flow analyser.

This module parses every ``.py`` file under the analysed roots and
builds a best-effort static call graph: modules, classes (with resolved
base classes and inferred attribute types), and functions (with
resolved parameter types).  Resolution is intentionally conservative —
when a callee cannot be pinned to a function defined in the analysed
tree it is reported as an *external* dotted name and the effect
extractor falls back to name-based heuristics.

Resolution features, in rough order of how much repo code they unlock:

* import maps (absolute and relative, including function-local imports),
* ``self.``/``cls.`` method lookup with an MRO walk through resolved
  base classes,
* attribute-type inference from ``self.x = <annotated param>``,
  ``self.x = ClassName(...)``, ``self.x: T`` annotations, property
  return annotations, and chained ``self.x = self.y.z`` lookups
  (iterated to a small fixpoint so two-hop chains resolve),
* parameter-annotation receiver typing (``def f(tree: RTreeBase)``),
* local-variable typing from ``name = ClassName(...)`` /
  ``name = ClassName.create(...)`` assignments,
* instantiation edges (``ClassName(...)`` resolves to ``__init__``),
* nested functions and lambdas (qualnames keep the enclosing chain, so
  closures such as thread workers are first-class graph nodes).

Module names are anchored by walking up the directory tree while an
``__init__.py`` is present, so a fixture tree named ``repro/...`` under
a temporary directory lands in the same contract scopes as the shipped
library — fixtures are parsed, never imported.

Every analysis layer reads the source through this graph: each file is
parsed once and tokenized at most once, and its waiver comments are
kept on its :class:`ModuleInfo` — ``# lint: <rule>[, <rule>]`` for the
lint rules and ``# flow: waiver(<rule>[, <rule>])`` for the flow, taint
and lifetime rules.  Tokenizing waits for the first waiver lookup, so
a run whose findings never consult a module's waivers skips it.  Each
function's name scope (:meth:`CodeGraph.scope`) and control-flow graph
(:meth:`CodeGraph.cfg`) are likewise built once, on first use, and
shared by every layer.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Union

if TYPE_CHECKING:
    from .cfg import CFG

__all__ = [
    "CallTarget",
    "ClassInfo",
    "CodeGraph",
    "FunctionInfo",
    "ModuleInfo",
    "Scope",
    "build_graph",
    "collect_waivers",
    "iter_python_files",
    "module_name_for",
]

PathLike = Union[str, Path]

_OPTIONAL_WRAPPERS = frozenset({"Optional", "Final", "ClassVar"})


def iter_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    seen: Dict[Path, None] = {}
    for path in out:
        seen.setdefault(path.resolve(), None)
    return sorted(seen)


def module_name_for(path: PathLike) -> str:
    """Dotted module name anchored at the outermost package directory.

    Walks parent directories while they contain an ``__init__.py`` so
    both ``src/repro/core/engine.py`` and a test fixture written to
    ``tmp/repro/core/engine.py`` resolve to ``repro.core.engine``.
    """
    resolved = Path(path).resolve()
    names: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").exists():
        names.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(names) if names else resolved.stem


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return base + "." + node.attr
    return None


def _arg_names(node: ast.AST) -> List[str]:
    """Every parameter of a def or lambda, in signature order."""
    args = getattr(node, "args", None)
    if not isinstance(args, ast.arguments):
        return []
    named = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    extra = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return [arg.arg for arg in named + extra]


def _bound_names(node: ast.AST) -> Set[str]:
    """Names bound inside ``node`` — by assignment, ``for``, ``with``,
    ``except``, import, ``def``/``class``, or as a lambda parameter —
    not descending into nested function or class bodies."""
    bound: Set[str] = set()

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                bound.add(child.id)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                bound.add(child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(child, ast.Lambda):
                bound.update(_arg_names(child))
            visit(child)

    visit(node)
    return bound


class Scope:
    """Where each name of one function lives: ``self``, ``param``,
    ``local``, ``closure`` (an enclosing function's), or ``global``."""

    def __init__(self, func: "FunctionInfo", enclosing: Sequence["FunctionInfo"]) -> None:
        declared: Dict[type, Set[str]] = {ast.Global: set(), ast.Nonlocal: set()}
        for child in ast.walk(func.node):
            if isinstance(child, (ast.Global, ast.Nonlocal)):
                declared[type(child)].update(child.names)
        # Later updates take precedence over earlier ones.
        self.kinds: Dict[str, str] = {}
        for outer in enclosing:
            self.kinds.update(dict.fromkeys(outer.params, "closure"))
            self.kinds.update(dict.fromkeys(_bound_names(outer.node), "closure"))
        self.kinds.update(dict.fromkeys(_bound_names(func.node), "local"))
        self.kinds.update(dict.fromkeys(func.params, "param"))
        self.kinds.update(dict.fromkeys(declared[ast.Nonlocal], "closure"))
        self.kinds.update(dict.fromkeys(declared[ast.Global], "global"))
        self.kinds.update(self="self", cls="self")

    def classify(self, name: str) -> str:
        return self.kinds.get(name, "global")


Waivers = Dict[int, Set[str]]


def collect_waivers(source: str) -> Dict[str, Waivers]:
    """Waiver tables by comment form (``lint``, ``flow``): line -> the
    rule names a comment on that line names."""
    lint: Waivers = {}
    flow: Waivers = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if text.startswith("lint:"):
                table, names = lint, text[len("lint:"):]
            elif text.startswith("flow:"):
                body = text[len("flow:"):].strip()
                if not (body.startswith("waiver(") and body.endswith(")")):
                    continue
                table, names = flow, body[len("waiver("):-1]
            else:
                continue
            rules = {name.strip() for name in names.split(",") if name.strip()}
            if rules:
                table.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # only reached for sources ast.parse already accepted
    return {"lint": lint, "flow": flow}


@dataclass
class ModuleInfo:
    """One parsed source file and its waiver comments."""

    name: str
    path: str
    tree: ast.Module
    source: str = ""
    imports: Dict[str, str] = field(default_factory=dict)

    @cached_property
    def waivers(self) -> Dict[str, Waivers]:
        """:func:`collect_waivers` of the source, tokenized once."""
        return collect_waivers(self.source)


@dataclass
class ClassInfo:
    """A class definition with resolved bases and inferred attr types."""

    key: str
    name: str
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """A function, method, or nested function in the analysed tree."""

    key: str
    name: str
    module: str
    path: str
    node: ast.AST
    class_key: Optional[str] = None
    parent: Optional[str] = None
    children: Dict[str, str] = field(default_factory=dict)
    param_types: Dict[str, str] = field(default_factory=dict)
    local_types: Dict[str, str] = field(default_factory=dict)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)

    @cached_property
    def params(self) -> List[str]:
        """Parameter names in signature order."""
        return _arg_names(self.node)


@dataclass
class CallTarget:
    """Resolution result for one call expression.

    ``kind`` is ``"local"`` (a function in the graph, ``key`` is its
    function key), ``"external"`` (``key`` is the best-effort dotted
    name, e.g. ``time.perf_counter``), or ``"unknown"``.
    ``receiver`` is the object expression for method calls and
    ``attr`` the method name, when the call has that shape.
    """

    kind: str
    key: Optional[str] = None
    receiver: Optional[ast.expr] = None
    attr: Optional[str] = None


class CodeGraph:
    """Modules, classes, and functions of an analysed package tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.errors: List[str] = []
        self._scopes: Dict[str, Scope] = {}
        self._cfgs: Dict[str, "CFG"] = {}

    def scope(self, key: str) -> Scope:
        """The name scope of function ``key``, built once."""
        scope = self._scopes.get(key)
        if scope is None:
            func = self.functions[key]
            enclosing: List[FunctionInfo] = []
            parent = func.parent
            while parent is not None and parent in self.functions:
                enclosing.append(self.functions[parent])
                parent = self.functions[parent].parent
            scope = self._scopes[key] = Scope(func, enclosing)
        return scope

    def cfg(self, key: str) -> "CFG":
        """The control-flow graph of function ``key``, built once."""
        cfg = self._cfgs.get(key)
        if cfg is None:
            from .cfg import build_cfg  # cfg.py imports this module

            cfg = self._cfgs[key] = build_cfg(self.functions[key].node)
        return cfg

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_source(self, path: PathLike, source: Optional[str] = None) -> None:
        resolved = Path(path)
        name = module_name_for(resolved)
        if name in self.modules:
            # Every layer finds modules by name: a second file under the
            # same name would silently replace the first one.
            self.errors.append(
                f"{resolved}: module {name} already read from "
                f"{self.modules[name].path}"
            )
            return
        text = resolved.read_text(encoding="utf-8") if source is None else source
        try:
            tree = ast.parse(text, filename=str(resolved))
        except SyntaxError as exc:
            self.errors.append(f"{resolved}: {exc.msg} (line {exc.lineno})")
            return
        info = ModuleInfo(name=name, path=str(resolved), tree=tree, source=text)
        info.imports = self._collect_imports(info)
        self.modules[name] = info
        self._collect_definitions(info)

    def finalize(self) -> None:
        """Resolve class bases, attribute types, and parameter types."""
        for cls in self.classes.values():
            cls.bases = self._resolve_bases(cls)
        # Parameter types first: ``self.x = <annotated param>`` is the
        # main attr-type source and needs them.
        for func in self.functions.values():
            self._infer_param_types(func)
        for func in self.functions.values():
            self._infer_local_types(func)
        # Attribute types can chain through other attributes; a few
        # passes reach a fixpoint on everything the repo actually does.
        for _ in range(3):
            changed = False
            for cls in self.classes.values():
                if self._infer_attr_types(cls):
                    changed = True
            if not changed:
                break

    # ------------------------------------------------------------------
    # collection helpers
    # ------------------------------------------------------------------

    def _collect_imports(self, module: ModuleInfo) -> Dict[str, str]:
        imports: Dict[str, str] = {}
        parts = module.name.split(".")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = parts[: len(parts) - node.level]
                    base = ".".join(base_parts)
                else:
                    base = ""
                if node.module:
                    base = base + "." + node.module if base else node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports[local] = base + "." + alias.name if base else alias.name
        return imports

    def _collect_definitions(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            self._collect_node(module, node, prefix=module.name, class_info=None, parent=None)

    def _collect_node(
        self,
        module: ModuleInfo,
        node: ast.stmt,
        prefix: str,
        class_info: Optional[ClassInfo],
        parent: Optional[FunctionInfo],
    ) -> None:
        if isinstance(node, ast.ClassDef):
            key = prefix + "." + node.name
            cls = ClassInfo(key=key, name=node.name, module=module.name, node=node)
            self.classes[key] = cls
            for child in node.body:
                self._collect_node(module, child, prefix=key, class_info=cls, parent=None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = prefix + "." + node.name
            func = FunctionInfo(
                key=key,
                name=node.name,
                module=module.name,
                path=module.path,
                node=node,
                class_key=class_info.key if class_info is not None else (
                    parent.class_key if parent is not None else None
                ),
                parent=parent.key if parent is not None else None,
            )
            self.functions[key] = func
            if class_info is not None:
                class_info.methods[node.name] = key
            if parent is not None:
                parent.children[node.name] = key
            for child in node.body:
                self._collect_node(module, child, prefix=key, class_info=None, parent=func)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self._collect_node(module, child, prefix, class_info, parent)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve_symbol(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Absolute dotted name for a symbol referenced in ``module``."""
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            base = module.imports[head]
            return base + "." + rest if rest else base
        scoped = module.name + "." + dotted
        if scoped in self.classes or scoped in self.functions:
            return scoped
        local_head = module.name + "." + head
        if local_head in self.classes and rest:
            return local_head + "." + rest
        return None

    def _resolve_bases(self, cls: ClassInfo) -> List[str]:
        module = self.modules.get(cls.module)
        out: List[str] = []
        if module is None:
            return out
        for base in cls.node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            resolved = self.resolve_symbol(module, dotted)
            if resolved is not None and resolved in self.classes:
                out.append(resolved)
        return out

    def class_mro(self, class_key: str) -> List[str]:
        """Depth-first linearisation (good enough for lookup)."""
        order: List[str] = []
        stack = [class_key]
        seen: Dict[str, None] = {}
        while stack:
            key = stack.pop(0)
            if key in seen or key not in self.classes:
                continue
            seen[key] = None
            order.append(key)
            stack = self.classes[key].bases + stack
        return order

    def lookup_method(self, class_key: str, name: str) -> Optional[str]:
        for key in self.class_mro(class_key):
            method = self.classes[key].methods.get(name)
            if method is not None:
                return method
        return None

    def lookup_attr_type(self, class_key: str, attr: str) -> Optional[str]:
        for key in self.class_mro(class_key):
            found = self.classes[key].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def annotation_to_class(
        self, module: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            wrapper = dotted_name(annotation.value)
            if wrapper is not None and wrapper.split(".")[-1] in _OPTIONAL_WRAPPERS:
                inner = annotation.slice
                if isinstance(inner, ast.Tuple):
                    for elt in inner.elts:
                        found = self.annotation_to_class(module, elt)
                        if found is not None:
                            return found
                    return None
                return self.annotation_to_class(module, inner)
            return None
        dotted = dotted_name(annotation)
        if dotted is None:
            return None
        resolved = self.resolve_symbol(module, dotted)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def _infer_param_types(self, func: FunctionInfo) -> None:
        node = func.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        module = self.modules.get(func.module)
        if module is None:
            return
        args = list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs)
        for arg in args:
            if arg.arg in ("self", "cls") and func.class_key is not None:
                func.param_types[arg.arg] = func.class_key
                continue
            resolved = self.annotation_to_class(module, arg.annotation)
            if resolved is not None:
                func.param_types[arg.arg] = resolved

    def _value_class(self, module: ModuleInfo, value: ast.expr) -> Optional[str]:
        """Class key for the value of an assignment, best effort."""
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is None:
                return None
            resolved = self.resolve_symbol(module, dotted)
            if resolved is not None and resolved in self.classes:
                return resolved
            # ClassName.create(...) style factory: assume it returns an
            # instance of ClassName.
            head, _, _tail = dotted.rpartition(".")
            if head:
                resolved = self.resolve_symbol(module, head)
                if resolved is not None and resolved in self.classes:
                    return resolved
        return None

    def _infer_attr_types(self, cls: ClassInfo) -> bool:
        module = self.modules.get(cls.module)
        if module is None:
            return False
        changed = False

        def record(attr: str, type_key: Optional[str]) -> None:
            nonlocal changed
            if type_key is not None and cls.attr_types.get(attr) != type_key:
                cls.attr_types[attr] = type_key
                changed = True

        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                record(stmt.target.id, self.annotation_to_class(module, stmt.annotation))
        for method_key in cls.methods.values():
            func = self.functions.get(method_key)
            if func is None or not isinstance(
                func.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            decorators = [dotted_name(d) for d in func.node.decorator_list]
            if "property" in [d.split(".")[-1] for d in decorators if d]:
                record(func.name, self.annotation_to_class(module, func.node.returns))
            for node in ast.walk(func.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if annotation is not None:
                    record(attr, self.annotation_to_class(module, annotation))
                    continue
                if value is None:
                    continue
                if isinstance(value, ast.Name):
                    record(attr, func.param_types.get(value.id))
                elif isinstance(value, ast.Call):
                    record(attr, self._value_class(module, value))
                elif isinstance(value, ast.Attribute):
                    chain_type = self.expr_type(func, value)
                    record(attr, chain_type)
        return changed

    def _infer_local_types(self, func: FunctionInfo) -> None:
        node = func.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        module = self.modules.get(func.module)
        if module is None:
            return
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                inferred = self._value_class(module, stmt.value)
                if inferred is not None:
                    func.local_types[stmt.targets[0].id] = inferred

    # ------------------------------------------------------------------
    # typing of expressions and call resolution
    # ------------------------------------------------------------------

    def expr_type(self, func: FunctionInfo, expr: ast.expr) -> Optional[str]:
        """Class key for an expression in ``func``'s scope, best effort."""
        module = self.modules.get(func.module)
        if isinstance(expr, ast.Name):
            scope: Optional[FunctionInfo] = func
            while scope is not None:
                if expr.id in scope.param_types:
                    return scope.param_types[expr.id]
                if expr.id in scope.local_types:
                    return scope.local_types[expr.id]
                scope = self.functions.get(scope.parent) if scope.parent else None
            return None
        if isinstance(expr, ast.Attribute):
            base_type = self.expr_type(func, expr.value)
            if base_type is not None:
                return self.lookup_attr_type(base_type, expr.attr)
            return None
        if isinstance(expr, ast.Call) and module is not None:
            return self._value_class(module, expr)
        return None

    def resolve_name_target(self, func: FunctionInfo, name: str) -> Optional[CallTarget]:
        """Resolve a bare-name callable reference in ``func``'s scope."""
        scope: Optional[FunctionInfo] = func
        while scope is not None:
            if name in scope.children:
                return CallTarget(kind="local", key=scope.children[name])
            scope = self.functions.get(scope.parent) if scope.parent else None
        module = self.modules.get(func.module)
        if module is None:
            return None
        resolved = self.resolve_symbol(module, name)
        return self._symbol_target(resolved) if resolved is not None else None

    def _symbol_target(
        self,
        resolved: str,
        receiver: Optional[ast.expr] = None,
        attr: Optional[str] = None,
    ) -> CallTarget:
        """A graph function, a graph class's ``__init__``, or external."""
        if resolved in self.functions:
            return CallTarget(kind="local", key=resolved)
        if resolved in self.classes:
            init = self.lookup_method(resolved, "__init__")
            if init is not None:
                return CallTarget(kind="local", key=init)
        return CallTarget(kind="external", key=resolved, receiver=receiver, attr=attr)

    def resolve_call(self, func: FunctionInfo, call: ast.Call) -> CallTarget:
        target = call.func
        if isinstance(target, ast.Name):
            resolved = self.resolve_name_target(func, target.id)
            if resolved is not None:
                return resolved
            return CallTarget(kind="external", key=target.id)
        if isinstance(target, ast.Attribute):
            receiver = target.value
            method = target.attr
            receiver_type = self.expr_type(func, receiver)
            if receiver_type is not None:
                found = self.lookup_method(receiver_type, method)
                if found is not None:
                    return CallTarget(
                        kind="local", key=found, receiver=receiver, attr=method
                    )
                return CallTarget(
                    kind="external",
                    key=receiver_type + "." + method,
                    receiver=receiver,
                    attr=method,
                )
            dotted = dotted_name(target)
            module = self.modules.get(func.module)
            if dotted is not None and module is not None:
                resolved = self.resolve_symbol(module, dotted)
                if resolved is not None:
                    return self._symbol_target(resolved, receiver, method)
            return CallTarget(
                kind="external", key=dotted, receiver=receiver, attr=method
            )
        return CallTarget(kind="unknown")


def build_graph(
    paths: Sequence[PathLike],
    sources: Optional[Iterable[tuple]] = None,
) -> CodeGraph:
    """Build and finalize a :class:`CodeGraph` over ``paths``.

    ``sources`` optionally supplies ``(path, text)`` pairs for content
    not on disk (used by tests).
    """
    graph = CodeGraph()
    for path in iter_python_files(paths):
        graph.add_source(path)
    if sources is not None:
        for path, text in sources:
            graph.add_source(path, text)
    graph.finalize()
    return graph
