"""Custom AST lint rules for the ``repro`` codebase.

A small, dependency-free rule set that guards the reproduction's
correctness conventions.  Generic linters cannot know that
``lam == 0.0`` silently breaks the Eqn 6 early-stop bound, or that a
bare ``assert`` protecting a Theorem 1 precondition vanishes under
``python -O`` — these rules do.  (Raw pager access, which corrupts the
paper's VII-A1 I/O counters, is the call-graph-aware
``io-through-pool`` contract of :mod:`repro.analysis.flow`.)

Rules (names are what waiver comments reference):

``exact-float``
    No ``==``/``!=`` against float literals in scoring / penalty /
    geometry / index code.  Use :mod:`repro.model.numeric` helpers
    (``approx_eq`` / ``approx_zero``) or waive with
    ``# lint: exact-float`` when bit-exactness is intended.
``bare-assert``
    No ``assert`` statements anywhere under ``repro.*`` runtime code
    (stripped by ``python -O``); raise from :mod:`repro.errors`
    (``ensure`` / ``ensure_not_none``) instead.
``mutable-default``
    No mutable default argument values (lists, dicts, sets, comprehensions,
    ``Counter()``-style constructor calls).
``public-annotations``
    Public functions in ``repro.core`` / ``repro.index`` /
    ``repro.model`` must annotate every parameter and the return type.
``no-print``
    No ``print()`` in library code; only :mod:`repro.cli` and
    :mod:`repro.experiments.reporting` talk to stdout.

The rules check the trees :class:`~repro.analysis.callgraph.CodeGraph`
already parsed, scoped by the graph's module names.  **Waivers.**  A
finding is suppressed when the offending line — or a comment-only line
directly above it — carries ``# lint: <rule>`` (a comma-separated rule
list, or ``# lint: *`` for all rules); :mod:`repro.analysis.driver`
applies them.  Waivers are deliberate, reviewable markers; the CI
workflow fails on any unwaived finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Tuple

from .callgraph import CodeGraph, ModuleInfo
from .finding import Finding

__all__ = ["LintRule", "DEFAULT_RULES", "check_lint"]


def _in_package(module: ModuleInfo, *prefixes: str) -> bool:
    """True when the module lives under any of the dotted prefixes."""
    return any(
        module.name == p or module.name.startswith(p + ".") for p in prefixes
    )


class LintRule:
    """Base class: one named check over a parsed module."""

    name: str = "abstract"
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            ruleset="lint",
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            module=module.name,
        )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class FloatEqualityRule(LintRule):
    """No ``==``/``!=`` against float literals in numeric-critical code.

    ``score == 0.95`` is almost never what the author means once the
    operands are derived values; Eqn 4 penalties and Eqn 1 scores are
    sums of products of floats and differ by ulps across evaluation
    orders.  Compare through :func:`repro.model.numeric.approx_eq` /
    ``approx_zero``, or waive with ``# lint: exact-float`` when the
    compared value is provably bit-exact (e.g. assigned literally in
    the same scope).
    """

    name = "exact-float"
    description = "float-literal ==/!= comparison in scoring/penalty/geometry code"
    scopes = ("repro.model", "repro.core", "repro.index")
    exempt_modules = ("repro.model.numeric",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module, *self.scopes):
            return
        if module.name in self.exempt_modules:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    yield self.finding(
                        module,
                        node,
                        "float-literal equality comparison; use "
                        "repro.model.numeric.approx_eq/approx_zero or waive "
                        "with '# lint: exact-float' if exactness is intended",
                    )
                    break


class BareAssertRule(LintRule):
    """No ``assert`` in runtime library code.

    ``python -O`` strips asserts, so an invariant guarded by one simply
    disappears in optimised deployments.  Use
    :func:`repro.errors.ensure` / :func:`repro.errors.ensure_not_none`,
    which raise :class:`repro.errors.InvariantViolationError`.
    """

    name = "bare-assert"
    description = "assert statement in runtime code (stripped by python -O)"
    scopes = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module, *self.scopes):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module,
                    node,
                    "bare assert is stripped by 'python -O'; raise via "
                    "repro.errors.ensure/ensure_not_none instead",
                )


class MutableDefaultRule(LintRule):
    """No mutable default argument values."""

    name = "mutable-default"
    description = "mutable default argument value"
    scopes = ("repro",)
    _mutable_calls = {
        "list",
        "dict",
        "set",
        "bytearray",
        "Counter",
        "defaultdict",
        "OrderedDict",
        "deque",
    }

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module, *self.scopes):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default in {node.name}(); default to None "
                        "and materialise inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name in self._mutable_calls
        return False


class PublicAnnotationRule(LintRule):
    """Public API in core/index/model must be fully type-annotated.

    Covers module-level and class-level functions whose name does not
    start with ``_`` (plus ``__init__``): every parameter except
    ``self``/``cls`` needs an annotation, and so does the return type.
    Nested helper functions are implementation details and exempt.
    """

    name = "public-annotations"
    description = "missing type annotations on public repro.core/index/model API"
    scopes = ("repro.core", "repro.index", "repro.model")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module, *self.scopes):
            return
        yield from self._check_body(module, module.tree.body)

    def _check_body(
        self, module: ModuleInfo, body: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(module, node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and node.name != "__init__":
                    continue
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        args = node.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        missing = [
            p.arg
            for p in params
            if p.annotation is None and p.arg not in ("self", "cls")
        ]
        for vararg, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
            if vararg is not None and vararg.annotation is None:
                missing.append(prefix + vararg.arg)
        if missing:
            yield self.finding(
                module,
                node,
                f"public function {node.name}() lacks parameter annotations: "
                + ", ".join(missing),
            )
        if node.returns is None:
            yield self.finding(
                module,
                node,
                f"public function {node.name}() lacks a return annotation",
            )


class NoPrintRule(LintRule):
    """Library code must not print; only CLI/reporting surfaces do."""

    name = "no-print"
    description = "print() call outside repro.cli / repro.experiments.reporting"
    scopes = ("repro",)
    exempt_modules = ("repro.cli", "repro.experiments.reporting")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module, *self.scopes):
            return
        if module.name in self.exempt_modules:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in library code; return data or log through "
                    "repro.cli / repro.experiments.reporting",
                )


DEFAULT_RULES: Tuple[LintRule, ...] = (
    FloatEqualityRule(),
    BareAssertRule(),
    MutableDefaultRule(),
    PublicAnnotationRule(),
    NoPrintRule(),
)


def check_lint(graph: CodeGraph) -> List[Finding]:
    """Every default rule over every module of ``graph``; sorted."""
    findings = [
        finding
        for module in graph.modules.values()
        for rule in DEFAULT_RULES
        for finding in rule.check(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
