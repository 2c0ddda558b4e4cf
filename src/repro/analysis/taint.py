"""Determinism-taint: unsanitized nondeterminism reaching an emit sink.

PRs 4–5 made bit-exact parity the repo's correctness currency; this
checker is the static side of that bargain.  A *source* produces a
value whose bits depend on something outside the seeded computation —
``time.*``, ``random.*`` (unseeded), directory enumeration order,
``set`` iteration order, ``hash()``/``id()``.  A *sink* is where bytes
become externally visible: the result dataclasses, the v2 checksummed
persistence writers, and the ``BENCH_*`` emitters.  A source value
reaching a sink without passing a *sanitizer* (``sorted``,
``numeric.quantize``, the deterministic merge helpers) is a finding.

The taxonomy (kinds, sanitizers, sink specs with per-field exemptions)
lives in :mod:`repro.analysis.registry`.

Mechanics: each function is solved intraprocedurally on its cached
:mod:`.cfg` graph (exception edges from explicit raises only) with the
:mod:`.dataflow` worklist solver — the
abstract state maps local names to sets of :class:`Taint` facts plus
parameter markers.  Function *summaries* (return taint, param→return
passthrough, param→sink flows) compose with the
:mod:`repro.analysis.callgraph` resolution;
:func:`repro.analysis.dataflow.solve_summaries` re-solves callers until
no summary changes.  A function's findings come from its last solve,
and each carries the call-chain witness from the sink back to the
source expression.

Deliberate precision bounds (documented, tested):

* Mutation is not tracked — ``xs.append(tainted)`` does not taint
  ``xs``.  The flow checker's effect atoms cover mutation discipline.
* Attribute *stores* are not tracked; attribute *reads* propagate the
  receiver's taint but never the unordered-container flag (so the
  ubiquitous ``obj.doc`` frozensets do not flood — their
  order-independent consumption is the vectorized-parity suite's job).
* Tuple structure is tracked one level deep so ``part, busy =
  backend.request(...)`` keeps the ``time``-tainted busy measurement
  out of the result half.
"""

from __future__ import annotations

import ast
from functools import reduce
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .callgraph import CodeGraph, FunctionInfo, dotted_name
from .cfg import CFGNode
from .dataflow import solve_forward, solve_summaries
from .finding import Finding
from .registry import (
    FS_ORDER_METHODS,
    HASH_ID_NAMES,
    KIND_FS_ORDER,
    KIND_HASH_ID,
    KIND_UNORDERED,
    SEEDED_CTOR_NAMES,
    UNORDERED_CTOR_NAMES,
    SinkSpec,
    nondet_kind,
    sanitizer_clears,
    sink_for_call,
)

__all__ = ["Taint", "TaintChecker", "check_taint"]

TAINT_RULE = "taint-to-sink"

_MAX_HOPS = 6
_MAX_TAINTS = 24
_ORDER_ITER_NAMES = frozenset({"list", "tuple", "iter", "enumerate", "reversed", "sum"})


class Taint(NamedTuple):
    """One nondeterministic fact attached to a value."""

    kind: str
    origin: str  # function key where the source expression lives
    line: int
    desc: str  # e.g. "time.perf_counter" or "iteration over set"
    hops: Tuple[Tuple[str, int], ...] = ()  # call sites crossed, recent first


class Value(NamedTuple):
    """Abstract value: taints + parameter markers + container shape."""

    taints: FrozenSet[Taint] = frozenset()
    params: FrozenSet[int] = frozenset()
    unordered: bool = False
    elements: Optional[Tuple["Value", ...]] = None


EMPTY = Value()


def _merge(values: Sequence[Value], unordered: bool = False) -> Value:
    taints: Set[Taint] = set()
    params: Set[int] = set()
    disorder = unordered
    for value in values:
        taints.update(value.taints)
        params.update(value.params)
        disorder = disorder or value.unordered
    return Value(_cap(taints), frozenset(params), disorder, None)


def _cap(taints: Set[Taint]) -> FrozenSet[Taint]:
    if len(taints) <= _MAX_TAINTS:
        return frozenset(taints)
    return frozenset(sorted(taints)[:_MAX_TAINTS])


def _join_value(a: Value, b: Value) -> Value:
    if a == b:
        return a
    elements = None
    if (
        a.elements is not None
        and b.elements is not None
        and len(a.elements) == len(b.elements)
    ):
        elements = tuple(
            _join_value(x, y) for x, y in zip(a.elements, b.elements)
        )
    return Value(
        _cap(set(a.taints) | set(b.taints)),
        a.params | b.params,
        a.unordered or b.unordered,
        elements,
    )


class ParamSink(NamedTuple):
    """Summary fact: this function passes parameter N into a sink."""

    param: int
    sink: str
    field: Optional[str]
    line: int
    exempt: FrozenSet[str]
    hops: Tuple[Tuple[str, int], ...] = ()


class Summary(NamedTuple):
    """Interprocedural summary of one function: what its callers see."""

    returns: Value = EMPTY
    param_sinks: FrozenSet[ParamSink] = frozenset()


class _FunctionPass:
    """One intraprocedural solve of one function."""

    def __init__(self, checker: "TaintChecker", func: FunctionInfo) -> None:
        self.checker = checker
        self.graph = checker.graph
        self.func = func
        self.params = func.params
        self.returns: Value = EMPTY
        self.return_structs: List[Tuple[Value, ...]] = []
        self.param_sinks: Set[ParamSink] = set()
        self.callees: Set[str] = set()
        # Findings of this solve by key, the lowest line kept.
        self.findings: Dict[str, Finding] = {}

    # -- solve ----------------------------------------------------------

    def run(self) -> Summary:
        cfg = self.graph.cfg(self.func.key)
        entry_env = {
            name: Value(params=frozenset({i}))
            for i, name in enumerate(self.params)
        }
        solve_forward(
            cfg, self._transfer, self._join_env, dict, entry_state=entry_env
        )
        returns = self.returns
        if self.return_structs and all(
            len(s) == len(self.return_structs[0]) for s in self.return_structs
        ):
            width = len(self.return_structs[0])
            elements = tuple(
                reduce(_join_value, [s[i] for s in self.return_structs], EMPTY)
                for i in range(width)
            )
            returns = returns._replace(elements=elements)
        return Summary(returns=returns, param_sinks=frozenset(self.param_sinks))

    @staticmethod
    def _join_env(a: Dict[str, Value], b: Dict[str, Value]) -> Dict[str, Value]:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for name, value in b.items():
            if name in out:
                out[name] = _join_value(out[name], value)
            else:
                out[name] = value
        return out

    # -- transfer -------------------------------------------------------

    def _transfer(self, node: CFGNode, env: Dict[str, Value]) -> Dict[str, Value]:
        stmt = node.stmt
        if stmt is None:
            return env
        env = dict(env)
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                prior = env.get(stmt.target.id, EMPTY)
                env[stmt.target.id] = _join_value(prior, value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, env)
            self._bind(stmt.target, self._element_of(iterable, stmt), env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                self.returns = _join_value(self.returns, value)
                if (
                    isinstance(stmt.value, ast.Tuple)
                    and 1 < len(stmt.value.elts) <= 8
                ):
                    self.return_structs.append(
                        tuple(self._eval(e, env) for e in stmt.value.elts)
                    )
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
        return env

    def _element_of(self, iterable: Value, stmt: ast.stmt) -> Value:
        taints = set(iterable.taints)
        if iterable.unordered:
            taints.add(
                Taint(
                    kind=KIND_UNORDERED,
                    origin=self.func.key,
                    line=stmt.lineno,
                    desc="iteration over an unordered set",
                )
            )
        return Value(_cap(taints), iterable.params, False, None)

    def _bind(self, target: ast.expr, value: Value, env: Dict[str, Value]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if value.elements is not None and len(value.elements) == len(elts):
                for elt, sub in zip(elts, value.elements):
                    self._bind(elt, sub, env)
            else:
                flat = Value(value.taints, value.params, value.unordered, None)
                for elt in elts:
                    self._bind(elt, flat, env)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, value, env)
        # Attribute / subscript stores: out of scope (see module doc).

    # -- expression evaluation ------------------------------------------

    def _eval(self, expr: ast.expr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, EMPTY)
        if isinstance(expr, ast.Constant):
            return EMPTY
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Tuple):
            values = [self._eval(e, env) for e in expr.elts]
            merged = _merge(values)
            if 1 < len(values) <= 8 and not any(
                isinstance(e, ast.Starred) for e in expr.elts
            ):
                merged = merged._replace(elements=tuple(values))
            return merged
        if isinstance(expr, (ast.List, ast.Dict)):
            children: List[Value] = []
            if isinstance(expr, ast.List):
                children = [self._eval(e, env) for e in expr.elts]
            else:
                children = [
                    self._eval(e, env)
                    for e in list(expr.keys) + list(expr.values)
                    if e is not None
                ]
            return _merge(children)
        if isinstance(expr, ast.Set):
            return _merge([self._eval(e, env) for e in expr.elts], unordered=True)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(expr, env)
        if isinstance(expr, ast.Attribute):
            inner = self._eval(expr.value, env)
            # Taint rides along attribute reads; unordered-ness doesn't
            # (attribute-typed sets are out of scope, see module doc).
            return Value(inner.taints, inner.params, False, None)
        if isinstance(expr, ast.Subscript):
            inner = self._eval(expr.value, env)
            if (
                inner.elements is not None
                and isinstance(expr.slice, ast.Constant)
                and isinstance(expr.slice.value, int)
                and -len(inner.elements) <= expr.slice.value < len(inner.elements)
            ):
                return inner.elements[expr.slice.value]
            self._eval(expr.slice, env)
            return Value(inner.taints, inner.params, inner.unordered, None)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            # Container algebra (set | set) keeps the container shape.
            return _merge([left, right], unordered=left.unordered or right.unordered)
        if isinstance(expr, ast.BoolOp):
            return _merge([self._eval(v, env) for v in expr.values])
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, env)
        if isinstance(expr, ast.Compare):
            # Comparison results are booleans: order-independent for
            # membership/equality; taints still propagate (a time-vs-
            # time comparison is time-dependent).
            values = [self._eval(expr.left, env)] + [
                self._eval(c, env) for c in expr.comparators
            ]
            merged = _merge(values)
            return Value(merged.taints, merged.params, False, None)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            return _join_value(
                self._eval(expr.body, env), self._eval(expr.orelse, env)
            )
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            values = [
                self._eval(child, env)
                for child in ast.iter_child_nodes(expr)
                if isinstance(child, ast.expr)
            ]
            return _merge(values)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self._eval(expr.value, env)
            return EMPTY
        if isinstance(expr, ast.Lambda):
            return EMPTY
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value, env)
            self._bind(expr.target, value, env)
            return value
        # Anything else: conservatively merge child expressions.
        return _merge(
            [
                self._eval(child, env)
                for child in ast.iter_child_nodes(expr)
                if isinstance(child, ast.expr)
            ]
        )

    def _eval_comprehension(self, expr: ast.expr, env: Dict[str, Value]) -> Value:
        local = dict(env)
        for comp in expr.generators:  # type: ignore[attr-defined]
            iterable = self._eval(comp.iter, local)
            self._bind(comp.target, self._element_of(iterable, expr), local)
            for condition in comp.ifs:
                self._eval(condition, local)
        if isinstance(expr, ast.DictComp):
            merged = _merge(
                [self._eval(expr.key, local), self._eval(expr.value, local)]
            )
        else:
            merged = self._eval(expr.elt, local)  # type: ignore[attr-defined]
        unordered = isinstance(expr, ast.SetComp)
        return Value(merged.taints, merged.params, unordered, None)

    # -- calls ----------------------------------------------------------

    def _eval_call(self, call: ast.Call, env: Dict[str, Value]) -> Value:
        arg_values = [self._eval(a, env) for a in call.args]
        kw_values = [
            (kw.arg, self._eval(kw.value, env)) for kw in call.keywords
        ]
        all_values = arg_values + [v for _, v in kw_values]

        target = self.graph.resolve_call(self.func, call)
        dotted = dotted_name(call.func)
        name = target.key if target.kind == "external" else dotted
        if name is None:
            name = dotted

        # 1. Sinks.
        spec = sink_for_call(name)
        if spec is None and isinstance(call.func, ast.Name):
            spec = sink_for_call(call.func.id)
        if spec is not None and target.kind != "local":
            self._check_sink(spec, call, arg_values, kw_values)
            return EMPTY

        # 2. Sanitizers (never shadow a locally-defined function).
        if name is not None and target.kind != "local":
            clears = sanitizer_clears(name)
            if clears is not None:
                merged = _merge(all_values)
                kept = frozenset(
                    t for t in merged.taints if t.kind not in clears
                )
                return Value(kept, merged.params, False, None)
        if target.kind == "local" and target.key:
            callee = self.graph.functions.get(target.key)
            if (
                callee is not None
                and callee.name == "quantize"
                and callee.module.endswith("numeric")
            ):
                merged = _merge(all_values)
                return Value(frozenset(), merged.params, False, None)

        # 3. Sources.
        if name is not None and target.kind != "local":
            source = self._source_taint(name, call)
            if source is not None:
                return Value(frozenset({source}), frozenset(), False, None)
            if name in UNORDERED_CTOR_NAMES:
                merged = _merge(all_values)
                return Value(merged.taints, merged.params, True, None)
            if isinstance(call.func, ast.Attribute) and (
                call.func.attr in FS_ORDER_METHODS
            ):
                return Value(
                    frozenset(
                        {
                            Taint(
                                kind=KIND_FS_ORDER,
                                origin=self.func.key,
                                line=call.lineno,
                                desc=f".{call.func.attr}() enumeration",
                            )
                        }
                    ),
                    frozenset(),
                    True,
                    None,
                )

        # 4. Local calls: compose with the callee summary.
        if target.kind == "local" and target.key:
            return self._apply_summary(target.key, call, arg_values, kw_values)

        # 5. Unknown/external passthrough: result depends on inputs.
        merged = _merge(all_values)
        taints = set(merged.taints)
        if merged.unordered and name is not None and (
            name.split(".")[-1] in _ORDER_ITER_NAMES
        ):
            taints.add(
                Taint(
                    kind=KIND_UNORDERED,
                    origin=self.func.key,
                    line=call.lineno,
                    desc=f"{name}() over an unordered set",
                )
            )
        return Value(_cap(taints), merged.params, False, None)

    def _source_taint(self, name: str, call: ast.Call) -> Optional[Taint]:
        if name in SEEDED_CTOR_NAMES:
            if call.args or call.keywords:
                return None  # seeded construction is deterministic
            return Taint(
                kind="random",
                origin=self.func.key,
                line=call.lineno,
                desc=f"{name}() without a seed",
            )
        kind = nondet_kind(name)
        if kind is not None:
            return Taint(
                kind=kind, origin=self.func.key, line=call.lineno, desc=name
            )
        if name in HASH_ID_NAMES:
            return Taint(
                kind=KIND_HASH_ID,
                origin=self.func.key,
                line=call.lineno,
                desc=f"{name}()",
            )
        return None

    def _check_sink(
        self,
        spec: SinkSpec,
        call: ast.Call,
        arg_values: List[Value],
        kw_values: List[Tuple[Optional[str], Value]],
    ) -> None:
        labelled: List[Tuple[Optional[str], Value]] = []
        for i, value in enumerate(arg_values):
            fname = (
                spec.fields[i]
                if spec.kind == "ctor" and i < len(spec.fields)
                else None
            )
            labelled.append((fname, value))
        labelled.extend(kw_values)
        for fname, value in labelled:
            exempt = spec.exempt_kinds(fname)
            for taint in sorted(value.taints):
                if taint.kind in exempt:
                    continue
                self._record_finding(spec, fname, call.lineno, taint)
            for param in sorted(value.params):
                self.param_sinks.add(
                    ParamSink(
                        param=param,
                        sink=spec.name,
                        field=fname,
                        line=call.lineno,
                        exempt=exempt,
                    )
                )

    def _record_finding(
        self,
        spec: SinkSpec,
        fname: Optional[str],
        line: int,
        taint: Taint,
        extra_hops: Tuple[Tuple[str, int], ...] = (),
        anchor: Optional[FunctionInfo] = None,
    ) -> None:
        """Record a finding at ``line`` of ``anchor``, the function
        holding the sink (this one unless a callee's param→sink flow
        fired)."""
        anchor = anchor or self.func
        where = spec.name if fname is None else f"{spec.name}.{fname}"
        finding = Finding(
            ruleset="taint",
            rule=TAINT_RULE,
            function=anchor.key,
            module=anchor.module,
            path=anchor.path,
            line=line,
            kind=taint.kind,
            sink=where,
            message=(
                f"{taint.kind} value from {taint.desc} "
                f"(line {taint.line}) reaches {where} unsanitized"
            ),
            chain=self._render_chain(taint, extra_hops),
        )
        _keep_lowest_line(self.findings, finding)

    def _render_chain(
        self, taint: Taint, extra_hops: Tuple[Tuple[str, int], ...]
    ) -> List[str]:
        out = []
        for func_key, line in tuple(extra_hops) + taint.hops:
            func = self.graph.functions.get(func_key)
            where = f"{func.path}:{line}" if func is not None else f"?:{line}"
            out.append(f"{func_key} ({where})")
        origin = self.graph.functions.get(taint.origin)
        where = (
            f"{origin.path}:{taint.line}"
            if origin is not None
            else f"?:{taint.line}"
        )
        out.append(f"{taint.origin} ({where}) <- {taint.desc}")
        return out

    def _apply_summary(
        self,
        callee_key: str,
        call: ast.Call,
        arg_values: List[Value],
        kw_values: List[Tuple[Optional[str], Value]],
    ) -> Value:
        self.callees.add(callee_key)
        summary = self.checker.summaries.get(callee_key, Summary())
        callee = self.graph.functions.get(callee_key)
        callee_params = callee.params if callee is not None else []
        offset = 0
        if (
            callee_params
            and callee_params[0] in ("self", "cls")
            and isinstance(call.func, ast.Attribute)
        ):
            offset = 1
        by_index: Dict[int, Value] = {}
        for i, value in enumerate(arg_values):
            by_index[i + offset] = value
        for kw_name, value in kw_values:
            if kw_name is not None and kw_name in callee_params:
                by_index[callee_params.index(kw_name)] = value

        hop = (self.func.key, call.lineno)

        def surface(value: Value) -> Value:
            taints = frozenset(
                t._replace(hops=((hop,) + t.hops)[:_MAX_HOPS])
                for t in value.taints
            )
            passthrough = [
                by_index[i] for i in sorted(value.params) if i in by_index
            ]
            merged = _merge(passthrough) if passthrough else EMPTY
            return Value(
                _cap(set(taints) | set(merged.taints)),
                merged.params,
                value.unordered or merged.unordered,
                None,
            )

        # Param→sink flows instantiated at this call site.
        for ps in sorted(summary.param_sinks):
            value = by_index.get(ps.param)
            if value is None:
                continue
            spec = sink_for_call(ps.sink) or SinkSpec(name=ps.sink, kind="call")
            for taint in sorted(value.taints):
                if taint.kind in ps.exempt:
                    continue
                self._record_finding(
                    spec,
                    ps.field,
                    ps.line,
                    taint,
                    extra_hops=((hop,) + ps.hops)[:_MAX_HOPS],
                    anchor=callee,
                )
            for param in sorted(value.params):
                self.param_sinks.add(
                    ParamSink(
                        param=param,
                        sink=ps.sink,
                        field=ps.field,
                        line=ps.line,
                        exempt=ps.exempt,
                        hops=((hop,) + ps.hops)[:_MAX_HOPS],
                    )
                )

        returns = summary.returns
        result = surface(returns)
        if returns.elements is not None:
            result = result._replace(
                elements=tuple(surface(e) for e in returns.elements)
            )
        return result


def _keep_lowest_line(findings: Dict[str, Finding], finding: Finding) -> None:
    existing = findings.get(finding.key)
    if existing is None or finding.line < existing.line:
        findings[finding.key] = finding


class TaintChecker:
    """Interprocedural determinism-taint over a :class:`CodeGraph`."""

    def __init__(self, graph: CodeGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}
        self.converged = True
        self._callers: Dict[str, Set[str]] = {}
        # Each function's findings from its last solve.
        self._findings: Dict[str, Dict[str, Finding]] = {}

    def _solve(self, key: str) -> bool:
        """Re-solve one function; whether its summary changed."""
        solved = _FunctionPass(self, self.graph.functions[key])
        summary = solved.run()
        self._findings[key] = solved.findings
        for callee in solved.callees:
            self._callers.setdefault(callee, set()).add(key)
        if summary == self.summaries.get(key, Summary()):
            return False
        self.summaries[key] = summary
        return True

    def run(self) -> List[Finding]:
        self.converged = solve_summaries(
            self.graph.functions, self._solve, self._callers
        )
        merged: Dict[str, Finding] = {}
        for key in sorted(self._findings):
            for finding in self._findings[key].values():
                _keep_lowest_line(merged, finding)
        return sorted(merged.values(), key=lambda f: (f.path, f.line, f.key))


def check_taint(graph: CodeGraph) -> List[Finding]:
    """Run the determinism-taint checker over a built graph."""
    return TaintChecker(graph).run()
