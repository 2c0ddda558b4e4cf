"""Resource-lifetime checking: acquire/release automata on the CFG.

Three resource families matter to this repo (ROADMAP "Scale-out"):

* **spill files** — the streaming loader's per-tile spill handles
  (``path.open(...)`` / ``open(...)``), released by ``.close()``;
* **shard worker pipes/processes** — ``ctx.Pipe()`` connections and
  ``ctx.Process(...)`` workers (:mod:`repro.index.sharded`), released
  by ``.close()`` / ``.join()`` / ``.terminate()``.

A request routed to a quarantined shard is refused at runtime by
:meth:`repro.index.sharded.ShardedIndex.request`, not checked here.

Each family is a :class:`ResourceSpec` automaton run by the forward
solver over the function's cached :mod:`.cfg` graph.  A statement that
calls a function whose flow signature carries ``raises-storage``
sprouts an exception edge to its recorded exception target, so "leak
on exception edge" means precisely: a storage fault (or explicit raise)
between acquire and release escapes the frame with the resource still
held.

Rules:

``lifetime-leak``
    A may-acquired resource reaches the function's normal or
    exceptional exit unreleased.
``lifetime-double-release``
    A release on a path where the resource may already be released.

Precision bounds (deliberate, tested): only plain local names are
tracked — parameters, attributes (``self.conn``), and subscripts
(``handles[tid]``) are not, and any *escape* (returned, stored to an
attribute/container, passed as a call argument) ends tracking with no
reports.  ``with``-bound resources are auto-released by the context
manager and never reported as leaks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .callgraph import CodeGraph, FunctionInfo
from .cfg import CFGNode
from .dataflow import solve_forward
from .finding import Finding

__all__ = ["ResourceSpec", "RESOURCE_SPECS", "check_lifetime"]

RULE_LEAK = "lifetime-leak"
RULE_DOUBLE_RELEASE = "lifetime-double-release"

ACQUIRED = "A"
RELEASED = "R"


@dataclass(frozen=True)
class ResourceSpec:
    """One acquire/release automaton."""

    name: str
    # Acquisition by call result: `v = open(...)`, `a, b = ctx.Pipe()`.
    acquire_names: FrozenSet[str] = frozenset()  # plain / terminal names
    acquire_methods: FrozenSet[str] = frozenset()  # `.open(...)` style
    tuple_acquire: bool = False  # call yields a tuple of resources
    release_methods: FrozenSet[str] = frozenset()


RESOURCE_SPECS: Tuple[ResourceSpec, ...] = (
    ResourceSpec(
        name="spill-file",
        acquire_names=frozenset({"open"}),
        acquire_methods=frozenset({"open"}),
        release_methods=frozenset({"close"}),
    ),
    ResourceSpec(
        name="shard-pipe",
        acquire_names=frozenset({"Pipe"}),
        tuple_acquire=True,
        release_methods=frozenset({"close"}),
    ),
    ResourceSpec(
        name="shard-worker",
        acquire_names=frozenset({"Process"}),
        release_methods=frozenset({"join", "terminate", "kill", "close"}),
    ),
)

_SPEC_BY_NAME = {spec.name: spec for spec in RESOURCE_SPECS}
_SPEC_BY_ACQUIRE_METHOD: Dict[str, ResourceSpec] = {}
_SPEC_BY_ACQUIRE_NAME: Dict[str, ResourceSpec] = {}
for _spec in RESOURCE_SPECS:
    for _m in _spec.acquire_methods:
        _SPEC_BY_ACQUIRE_METHOD[_m] = _spec
    for _n in _spec.acquire_names:
        _SPEC_BY_ACQUIRE_NAME[_n] = _spec


class Res(NamedTuple):
    """Abstract state of one tracked local resource."""

    spec: str
    states: FrozenSet[str]
    line: int  # acquisition line (finding anchor)
    auto: bool = False  # with-bound: context manager releases it


Env = Dict[str, Res]


def _join_env(a: Env, b: Env) -> Env:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, res in b.items():
        prior = out.get(name)
        if prior is None:
            out[name] = res
        elif prior != res:
            if prior.spec != res.spec:
                # Conflicting reuse of one name: stop tracking it.
                out.pop(name, None)
            else:
                out[name] = Res(
                    spec=prior.spec,
                    states=prior.states | res.states,
                    line=min(prior.line, res.line),
                    auto=prior.auto or res.auto,
                )
    return out


class _FunctionPass:
    """Run every resource automaton over one function's CFG."""

    def __init__(
        self, graph: CodeGraph, raising: AbstractSet[str], func: FunctionInfo
    ) -> None:
        self.graph = graph
        self.raising = raising
        self.func = func
        self.scope = graph.scope(func.key)
        self.findings: Dict[str, Finding] = {}

    def run(self) -> List[Finding]:
        cfg = self.graph.cfg(self.func.key)
        raising = {node.index for node in cfg.nodes if self._may_raise(node)}
        states = solve_forward(
            cfg, self._transfer, _join_env, dict, entry_state={}, raising=raising
        )
        self._check_exit(states.get(cfg.exit, {}), exceptional=False)
        self._check_exit(states.get(cfg.exc_exit, {}), exceptional=True)
        return sorted(
            self.findings.values(), key=lambda f: (f.line, f.rule, f.var)
        )

    # -- exception edges ------------------------------------------------

    def _may_raise(self, cfg_node: CFGNode) -> bool:
        """Whether the node's statement — a compound one with its whole
        body — calls a function whose signature has ``raises-storage``."""
        if cfg_node.exc_target is None or cfg_node.stmt is None:
            return False
        for node in ast.walk(cfg_node.stmt):
            if isinstance(node, ast.Call):
                target = self.graph.resolve_call(self.func, node)
                if (
                    target.kind == "local"
                    and target.key in self.raising
                ):
                    return True
        return False

    # -- transfer -------------------------------------------------------

    def _transfer(self, node: CFGNode, env: Env) -> Env:
        stmt = node.stmt
        if stmt is None:
            if node.label == "with-exit" and node.with_stmt is not None:
                return self._close_with(node.with_stmt, env)
            return env
        env = dict(env)
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value, stmt.lineno, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._handle_assign([stmt.target], stmt.value, stmt.lineno, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                spec = self._acquire_spec(item.context_expr)
                self._process_calls(item.context_expr, env)
                self._escape_names(item.context_expr, env)
                if (
                    spec is not None
                    and isinstance(item.optional_vars, ast.Name)
                    and self._is_local(item.optional_vars.id)
                ):
                    env[item.optional_vars.id] = Res(
                        spec=spec.name,
                        states=frozenset({ACQUIRED}),
                        line=stmt.lineno,
                        auto=True,
                    )
        elif isinstance(stmt, ast.Expr):
            self._touch(stmt.value, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.If, ast.While)):
            # Head node only: the body statements are their own CFG
            # nodes, so touching the whole subtree here would process
            # their lifecycle events twice (and on the wrong paths).
            self._touch(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._touch(stmt.iter, env)
            for target in ast.walk(stmt.target):
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A closure capturing a tracked name escapes it; the body's
            # calls do NOT run at definition time, so no events.
            self._escape_names(stmt, env)
        else:
            self._touch(stmt, env)
        return env

    def _touch(self, node: ast.AST, env: Env) -> None:
        """Process lifecycle events, then escapes, for one expression."""
        self._process_calls(node, env)
        self._escape_names(node, env)

    def _close_with(self, stmt: ast.With, env: Env) -> Env:
        env = dict(env)
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                res = env.get(item.optional_vars.id)
                if res is not None and res.auto and res.line == stmt.lineno:
                    env[item.optional_vars.id] = res._replace(
                        states=frozenset({RELEASED})
                    )
        return env

    def _handle_assign(
        self,
        targets: List[ast.expr],
        value: ast.expr,
        line: int,
        env: Env,
    ) -> None:
        spec = self._acquire_spec(value)
        if spec is not None:
            # Anything referenced by the acquire expression itself
            # (e.g. the path object) is not the resource.
            if len(targets) == 1:
                target = targets[0]
                if isinstance(target, ast.Name) and self._is_local(target.id):
                    self._acquire(target.id, spec, line, env)
                    return
                if spec.tuple_acquire and isinstance(
                    target, (ast.Tuple, ast.List)
                ):
                    elements = [
                        e for e in target.elts if isinstance(e, ast.Name)
                    ]
                    if len(elements) == len(target.elts):
                        for elt in elements:
                            if self._is_local(elt.id):
                                self._acquire(elt.id, spec, line, env)
                        return
            # Acquired into a non-trackable shape: nothing to track.
            return
        # Not an acquisition: the RHS may carry lifecycle events
        # (``ok = fh.close()``) and may reference (escape) tracked
        # resources; a rebind of a tracked name ends tracking.
        self._process_calls(value, env)
        self._escape_names(value, env)
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    env.pop(name_node.id, None)

    def _acquire(self, name: str, spec: ResourceSpec, line: int, env: Env) -> None:
        env[name] = Res(
            spec=spec.name, states=frozenset({ACQUIRED}), line=line
        )

    def _acquire_spec(self, expr: ast.expr) -> Optional[ResourceSpec]:
        if not isinstance(expr, ast.Call):
            return None
        target = self.graph.resolve_call(self.func, expr)
        if target.kind == "local":
            return None  # locally-defined helper, not the raw primitive
        if isinstance(expr.func, ast.Name):
            return _SPEC_BY_ACQUIRE_NAME.get(expr.func.id)
        if isinstance(expr.func, ast.Attribute):
            terminal = expr.func.attr
            spec = _SPEC_BY_ACQUIRE_NAME.get(terminal)
            if spec is not None:
                return spec
            return _SPEC_BY_ACQUIRE_METHOD.get(terminal)
        return None

    def _process_calls(self, node: ast.AST, env: Env) -> None:
        """Apply every ``name.method(...)`` lifecycle event in ``node``.

        Works in any expression position (``Return`` / assignment RHS /
        condition), not just bare expression statements.  Argument
        escapes are handled by the follow-up :meth:`_escape_names`
        walk, which exempts method receivers.
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._method_event(child, env)

    def _method_event(self, call: ast.Call, env: Env) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        if not isinstance(func.value, ast.Name):
            return
        name = func.value.id
        res = env.get(name)
        if res is None:
            return
        spec = _SPEC_BY_NAME[res.spec]
        if method in spec.release_methods:
            if RELEASED in res.states:
                self._add(
                    RULE_DOUBLE_RELEASE,
                    call.lineno,
                    spec,
                    name,
                    f"{name}.{method}() may release an already-released "
                    f"{spec.name} (acquired line {res.line})",
                )
            env[name] = res._replace(states=frozenset({RELEASED}))

    def _escape_names(self, node: ast.AST, env: Env) -> None:
        """End tracking for any tracked name referenced inside ``node``.

        Receivers of method calls are exempt (``fh.write(...)`` is a
        use, not an escape); everything else — argument positions,
        container literals, returns, attribute stores — is an escape.
        """
        if not env:
            return
        skip: Set[int] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                receiver = child.func.value
                if isinstance(receiver, ast.Name):
                    skip.add(id(receiver))
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)
                and id(child) not in skip
                and child.id in env
            ):
                env.pop(child.id, None)

    def _is_local(self, name: str) -> bool:
        return self.scope.classify(name) == "local"

    # -- exits ----------------------------------------------------------

    def _check_exit(self, env: Env, exceptional: bool) -> None:
        for name in sorted(env):
            res = env[name]
            spec = _SPEC_BY_NAME[res.spec]
            if res.auto or ACQUIRED not in res.states:
                continue
            how = (
                "an exception edge leaves the frame"
                if exceptional
                else "the function returns"
            )
            self._add(
                RULE_LEAK,
                res.line,
                spec,
                name,
                f"{spec.name} '{name}' acquired at line {res.line} is "
                f"still held when {how}",
                exceptional=exceptional,
            )

    def _add(
        self,
        rule: str,
        line: int,
        spec: ResourceSpec,
        var: str,
        message: str,
        exceptional: bool = False,
    ) -> None:
        finding = Finding(
            ruleset="lifetime",
            rule=rule,
            function=self.func.key,
            module=self.func.module,
            path=self.func.path,
            line=line,
            resource=spec.name,
            var=var,
            message=message,
        )
        existing = self.findings.get(finding.key)
        # Exceptional-exit leaks carry strictly more signal than the
        # same resource's normal-exit leak; keep the richer message.
        if existing is None or (exceptional and "exception" not in existing.message):
            self.findings[finding.key] = finding


def check_lifetime(graph: CodeGraph, raising: AbstractSet[str]) -> List[Finding]:
    """Run every resource automaton over every function; ``raising`` is
    the set of function keys whose calls may raise a storage error (the
    flow signatures carrying ``raises-storage``)."""
    findings: List[Finding] = []
    for key in sorted(graph.functions):
        findings.extend(_FunctionPass(graph, raising, graph.functions[key]).run())
    findings.sort(key=lambda f: (f.path, f.line, f.key))
    return findings
