"""Interprocedural effect inference and concurrency-contract checking.

Built on :mod:`repro.analysis.callgraph` (whole-package call graph) and
:mod:`repro.analysis.effects` (per-function local facts), this module
propagates effects to a fixpoint and enforces the three concurrency
contracts the ROADMAP's parallel/serving work depends on:

1. **worker-read-only** — everything reachable from the parallel worker
   entry points and the top-k search surface must be read-only on
   shared tree/node/dataset state.  Dominator-cache writes are allowed
   only through the sanctioned lock-guarded surface
   (:meth:`DominatorCache.record_dominators`).
2. **io-through-pool** — all I/O flows through ``BufferPool``: raw
   pager access outside ``repro.storage`` is a violation wherever it
   syntactically occurs or wherever a receiver is *typed* as the pager,
   and file I/O reachable from a worker entry point is a violation with
   a call-chain witness.  This supersedes the old syntactic
   ``pager-access`` lint rule; waive with ``# flow:
   waiver(io-through-pool)``.
3. **exception-safety** — on the fault/quarantine path
   (``repro.core.engine`` / ``repro.core.degraded``) no shared-state
   mutation may precede a possibly-raising storage call, so a fault
   never leaves the engine half-updated.

Effect atoms
------------

``mutates-param``, ``mutates-self``, ``mutates-global``,
``mutates-closure``, ``shared-write`` (a derived atom: an unguarded
write to state classified as *shared* — anything in ``repro.index`` /
``repro.storage`` / ``repro.model`` plus the dominator cache),
``buffer-io``, ``raw-io``, ``file-io``, ``raises-storage``, ``nondet``.

Masking during propagation is per call site: a call lexically inside a
``with <...lock...>:`` block drops ``shared-write``; a call inside a
``try`` whose handler catches the storage family (and does not
re-raise) drops ``raises-storage``; calling into ``repro.storage``
drops ``raw-io``/``file-io`` (the storage layer is where raw I/O is
supposed to live); calling a sanctioned writer drops ``shared-write``.

Waivers and baseline
--------------------

A finding is waived by ``# flow: waiver(<rule>)`` on the finding line,
the line above, or the anchor function's ``def`` line.  A checked-in
baseline file (JSON list of violation keys) lets CI ratchet: only *new*
violations fail the build.
"""

from __future__ import annotations

import fnmatch
import io
import json
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CodeGraph, FunctionInfo, build_graph
from .effects import FunctionEffects, Mutation, extract_all_effects

__all__ = [
    "EFFECT_KINDS",
    "FlowAnalysis",
    "FlowConfig",
    "FlowReport",
    "Violation",
    "analyze_paths",
    "collect_waivers",
    "finding_is_waived",
    "load_baseline",
]

EFFECT_KINDS = (
    "mutates-param",
    "mutates-self",
    "mutates-global",
    "mutates-closure",
    "shared-write",
    "buffer-io",
    "raw-io",
    "file-io",
    "raises-storage",
    "nondet",
)

FLOW_RULES = ("worker-read-only", "io-through-pool", "exception-safety")

_INIT_NAMES = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass(frozen=True)
class FlowConfig:
    """Declarative contract configuration.

    The defaults encode this repo's contracts; tests override fields to
    exercise the engine against fixture packages.
    """

    shared_module_prefixes: Tuple[str, ...] = (
        "repro.index",
        "repro.storage",
        "repro.model",
        # The vectorized kernel substrate is read from worker entry
        # chains (parallel candidate evaluation); its classes must obey
        # the same read-only contract as the index/storage layers.
        "repro.core.vectorized",
    )
    shared_classes: Tuple[str, ...] = (
        "repro.core.dominator_cache.DominatorCache",
    )
    storage_prefix: str = "repro.storage"
    accounting_attrs: Tuple[str, ...] = ("stats",)
    sanctioned_writers: Tuple[str, ...] = (
        "repro.core.dominator_cache.DominatorCache.record_dominators",
        "repro.core.dominator_cache.DominatorCache.add",
    )
    entry_patterns: Tuple[str, ...] = (
        "repro.core.parallel.ParallelAdvanced._evaluate_candidate",
        "repro.core.parallel.*.worker",
        # The KcR walker: stepped in-process for the single tree and
        # inside each shard worker (reached there via _worker_execute).
        "repro.core.kcr_algorithm.KcRWalker.start",
        "repro.core.kcr_algorithm.KcRWalker.step",
        "repro.index.search.TopKSearcher.top_k",
        "repro.index.search.TopKSearcher.rank_of_missing",
        # The sharded execution path: every read-only shard operation
        # (bound / top_k / rank / kcr_init / kcr_step) funnels through
        # this single dispatcher, in-process in simulate mode and inside
        # the forked worker in process mode, so one entry covers both.
        "repro.index.sharded._worker_execute",
        # The serving layer's executor path: every admitted request runs
        # through this one method on a worker thread, against the shared
        # engine snapshot; it is held to the same read-only contract as
        # the shard workers (policy mutations live on the event loop).
        "repro.serve.server.WhyNotServer._execute",
    )
    exception_safe_modules: Tuple[str, ...] = (
        "repro.core.engine",
        "repro.core.degraded",
        # The server's promise is "never crash, classify instead":
        # its modules carry the same no-bare-raise discipline.
        "repro.serve.server",
        "repro.serve.breakers",
    )
    coverage_packages: Tuple[str, ...] = (
        "repro.core",
        "repro.index",
        "repro.storage",
        "repro.serve",
    )

    def is_shared_class(self, class_key: Optional[str]) -> bool:
        if class_key is None:
            return False
        if class_key in self.shared_classes:
            return True
        return any(
            class_key.startswith(prefix + ".")
            for prefix in self.shared_module_prefixes
        )

    def in_storage(self, module: str) -> bool:
        return module == self.storage_prefix or module.startswith(
            self.storage_prefix + "."
        )


@dataclass
class Violation:
    """One contract violation with its call-chain witness."""

    rule: str
    function: str  # anchor function (where the offending primitive is)
    entry: Optional[str]  # contract entry point, for chain-based rules
    module: str
    path: str
    line: int
    message: str
    chain: List[str] = field(default_factory=list)
    waived: bool = False
    baselined: bool = False

    @property
    def key(self) -> str:
        anchor = self.entry if self.entry is not None else self.function
        return f"{self.rule}::{anchor}::{self.function}"

    def format(self) -> str:
        header = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.chain:
            hops = "\n".join(f"    -> {hop}" for hop in self.chain)
            return header + "\n" + hops
        return header


class FlowAnalysis:
    """Fixpoint effect propagation over a :class:`CodeGraph`."""

    def __init__(self, graph: CodeGraph, config: Optional[FlowConfig] = None) -> None:
        self.graph = graph
        self.config = config or FlowConfig()
        self.effects: Dict[str, FunctionEffects] = {}
        self.signatures: Dict[str, Set[str]] = {}
        # (function, atom) -> ("local", line) | ("call", callee, line)
        self.sources: Dict[Tuple[str, str], Tuple] = {}

    # ------------------------------------------------------------------
    # fixpoint
    # ------------------------------------------------------------------

    def run(self) -> "FlowAnalysis":
        self.effects = extract_all_effects(self.graph)
        for key in self.graph.functions:
            self.signatures[key] = set()
        for key, eff in self.effects.items():
            self._seed_local_atoms(key, eff)
        self._propagate()
        return self

    def _mutation_is_exempt(self, func: FunctionInfo, mut: Mutation) -> bool:
        if mut.kind == "self" and func.name in _INIT_NAMES:
            return True
        if mut.kind == "self" and mut.attr in self.config.accounting_attrs:
            return True
        return False

    def _seed_local_atoms(self, key: str, eff: FunctionEffects) -> None:
        func = self.graph.functions[key]
        sig = self.signatures[key]

        def add(atom: str, line: int) -> None:
            if atom not in sig:
                sig.add(atom)
                self.sources[(key, atom)] = ("local", line)

        for mut in eff.mutations:
            if mut.guarded or mut.kind == "local":
                continue
            if self._mutation_is_exempt(func, mut):
                continue
            if mut.kind == "self":
                add("mutates-self", mut.line)
                if self.config.is_shared_class(func.class_key):
                    add("shared-write", mut.line)
            elif mut.kind == "param":
                add("mutates-param", mut.line)
                param_type = func.param_types.get(mut.root or "")
                if self.config.is_shared_class(param_type):
                    add("shared-write", mut.line)
            elif mut.kind == "global":
                add("mutates-global", mut.line)
                add("shared-write", mut.line)
            elif mut.kind == "closure":
                add("mutates-closure", mut.line)
        for site in eff.io_sites:
            add(site.kind, site.line)
        for line in eff.raise_lines:
            add("raises-storage", line)
        if eff.nondet_names:
            add("nondet", func.line)

    def _origin_mutation_kind(self, key: str, atom: str) -> Optional[str]:
        """Mutation kind ("self"/"param"/"global") at the atom's origin."""
        hops = self.chain(key, atom)
        if not hops:
            return None
        origin_key, origin_line = hops[-1]
        eff = self.effects.get(origin_key)
        if eff is None:
            return None
        for mut in eff.mutations:
            if mut.line == origin_line:
                return mut.kind
        return None

    def _masked_atoms(self, callee_key: str, site) -> Set[str]:
        """Atoms of ``callee_key`` that survive ``site``'s masks."""
        callee_sig = self.signatures.get(callee_key, set())
        callee = self.graph.functions.get(callee_key)
        # ``ClassName(...)`` instantiation: the new object is private to
        # the caller until published, so writes *to it* are not effects
        # of the caller (the standard escape assumption).  An explicit
        # ``obj.__init__()`` call keeps its receiver and is not masked.
        is_instantiation = (
            callee is not None
            and callee.name == "__init__"
            and site.target.receiver is None
        )
        out = set()
        for atom in callee_sig:
            if atom == "mutates-self" and is_instantiation:
                continue
            if atom == "shared-write":
                if site.in_lock:
                    continue
                if callee_key in self.config.sanctioned_writers:
                    continue
                if (
                    is_instantiation
                    and self._origin_mutation_kind(callee_key, atom) == "self"
                ):
                    continue
            if atom == "raises-storage" and site.storage_masked:
                continue
            if atom in ("raw-io", "file-io") and callee is not None:
                if self.config.in_storage(callee.module):
                    continue
            out.add(atom)
        return out

    def _propagate(self) -> None:
        callers: Dict[str, List[Tuple[str, object]]] = {}
        for key, eff in self.effects.items():
            for site in eff.calls:
                if site.target.kind == "local" and site.target.key:
                    callers.setdefault(site.target.key, []).append((key, site))
        worklist = sorted(self.signatures)
        pending = set(worklist)
        while worklist:
            callee_key = worklist.pop()
            pending.discard(callee_key)
            for caller_key, site in callers.get(callee_key, []):
                caller_sig = self.signatures[caller_key]
                incoming = self._masked_atoms(callee_key, site)
                new_atoms = incoming - caller_sig
                if not new_atoms:
                    continue
                for atom in sorted(new_atoms):
                    caller_sig.add(atom)
                    self.sources[(caller_key, atom)] = (
                        "call",
                        callee_key,
                        site.line,
                    )
                if caller_key not in pending:
                    pending.add(caller_key)
                    worklist.append(caller_key)

    # ------------------------------------------------------------------
    # witnesses
    # ------------------------------------------------------------------

    def chain(self, key: str, atom: str) -> List[Tuple[str, int]]:
        """Hops from ``key`` to the local origin of ``atom``."""
        hops: List[Tuple[str, int]] = []
        seen: Set[str] = set()
        current = key
        while current not in seen:
            seen.add(current)
            source = self.sources.get((current, atom))
            if source is None:
                break
            if source[0] == "local":
                hops.append((current, source[1]))
                break
            _, callee, line = source
            hops.append((current, line))
            current = callee
        return hops

    def render_chain(self, key: str, atom: str) -> List[str]:
        out = []
        for func_key, line in self.chain(key, atom):
            func = self.graph.functions.get(func_key)
            where = f"{func.path}:{line}" if func is not None else f"?:{line}"
            out.append(f"{func_key} ({where})")
        return out

    # ------------------------------------------------------------------
    # contracts
    # ------------------------------------------------------------------

    def entry_points(self) -> List[str]:
        out = []
        for key in sorted(self.graph.functions):
            if any(fnmatch.fnmatch(key, pat) for pat in self.config.entry_patterns):
                out.append(key)
        return out

    def check_contracts(self) -> List[Violation]:
        violations: List[Violation] = []
        violations.extend(self._check_worker_read_only())
        violations.extend(self._check_io_through_pool())
        violations.extend(self._check_exception_safety())
        return violations

    def _anchor_of(self, entry: str, atom: str) -> Tuple[str, int]:
        hops = self.chain(entry, atom)
        if hops:
            return hops[-1]
        func = self.graph.functions[entry]
        return entry, func.line

    def _check_worker_read_only(self) -> List[Violation]:
        out = []
        for entry in self.entry_points():
            if "shared-write" not in self.signatures.get(entry, set()):
                continue
            anchor_key, line = self._anchor_of(entry, "shared-write")
            anchor = self.graph.functions[anchor_key]
            out.append(
                Violation(
                    rule="worker-read-only",
                    function=anchor_key,
                    entry=entry,
                    module=anchor.module,
                    path=anchor.path,
                    line=line,
                    message=(
                        f"worker entry point {entry} reaches an unguarded "
                        f"write to shared state in {anchor_key}"
                    ),
                    chain=self.render_chain(entry, "shared-write"),
                )
            )
        return out

    def _check_io_through_pool(self) -> List[Violation]:
        out = []
        for key in sorted(self.graph.functions):
            func = self.graph.functions[key]
            if self.config.in_storage(func.module):
                continue
            eff = self.effects.get(key)
            if eff is None:
                continue
            seen_lines: Set[int] = set()
            for site in eff.io_sites:
                if site.kind != "raw-io" or site.line in seen_lines:
                    continue
                seen_lines.add(site.line)
                out.append(
                    Violation(
                        rule="io-through-pool",
                        function=key,
                        entry=None,
                        module=func.module,
                        path=func.path,
                        line=site.line,
                        message=(
                            f"{key} accesses the pager directly "
                            f"({site.detail}); all I/O must go through "
                            f"BufferPool"
                        ),
                    )
                )
        for entry in self.entry_points():
            if "file-io" not in self.signatures.get(entry, set()):
                continue
            anchor_key, line = self._anchor_of(entry, "file-io")
            anchor = self.graph.functions[anchor_key]
            out.append(
                Violation(
                    rule="io-through-pool",
                    function=anchor_key,
                    entry=entry,
                    module=anchor.module,
                    path=anchor.path,
                    line=line,
                    message=(
                        f"worker entry point {entry} reaches file I/O in "
                        f"{anchor_key}; the hot path must stay inside "
                        f"BufferPool"
                    ),
                    chain=self.render_chain(entry, "file-io"),
                )
            )
        return out

    def _callee_mutates_shared_locally(self, callee_key: str) -> Optional[Mutation]:
        callee = self.graph.functions.get(callee_key)
        eff = self.effects.get(callee_key)
        if callee is None or eff is None or callee.name in _INIT_NAMES:
            return None
        for mut in eff.mutations:
            if mut.guarded or mut.kind not in ("self", "global"):
                continue
            if self._mutation_is_exempt(callee, mut):
                continue
            return mut
        return None

    def _check_exception_safety(self) -> List[Violation]:
        out = []
        subject_modules = set(self.config.exception_safe_modules)
        for key in sorted(self.graph.functions):
            func = self.graph.functions[key]
            if func.module not in subject_modules or func.name in _INIT_NAMES:
                continue
            eff = self.effects[key]
            markers: List[Tuple[int, int, str]] = []
            for mut in eff.mutations:
                if mut.guarded or mut.kind not in ("self", "global"):
                    continue
                if self._mutation_is_exempt(func, mut):
                    continue
                markers.append(
                    (mut.stmt_index, mut.line, f"mutates {mut.kind}.{mut.attr}")
                )
            for site in eff.calls:
                if site.is_reference or site.target.kind != "local":
                    continue
                if site.receiver_kind not in ("self", "param", "global", "closure"):
                    continue
                mut = self._callee_mutates_shared_locally(site.target.key or "")
                if mut is not None:
                    markers.append(
                        (
                            site.stmt_index,
                            site.line,
                            f"call to {site.target.key} mutates shared state",
                        )
                    )
            if not markers:
                continue
            raising: List[Tuple[int, int, Optional[str]]] = []
            for site in eff.calls:
                if site.is_reference or site.storage_masked:
                    continue
                if site.target.kind != "local" or site.target.key is None:
                    continue
                if "raises-storage" in self.signatures.get(site.target.key, set()):
                    raising.append((site.stmt_index, site.line, site.target.key))
            for index, line in zip(eff.raise_indexes, eff.raise_lines):
                raising.append((index, line, None))
            for r_index, r_line, callee in sorted(raising):
                earlier = [m for m in markers if m[0] < r_index]
                if not earlier:
                    continue
                _, m_line, m_desc = earlier[0]
                chain = (
                    self.render_chain(callee, "raises-storage")
                    if callee is not None
                    else []
                )
                out.append(
                    Violation(
                        rule="exception-safety",
                        function=key,
                        entry=None,
                        module=func.module,
                        path=func.path,
                        line=r_line,
                        message=(
                            f"{key} mutates state at line {m_line} "
                            f"({m_desc}) before a possibly-raising storage "
                            f"call at line {r_line}; a fault would leave "
                            f"the engine half-updated"
                        ),
                        chain=chain,
                    )
                )
                break  # one finding per function keeps the report readable
        return out


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------


def collect_waivers(path: str, source: Optional[str] = None) -> Dict[int, Set[str]]:
    """Map line -> waived rule names for one file.

    Recognises ``# flow: waiver(rule[, rule])``.  (The one-time
    ``# lint: pager-access`` alias from the lint-era annotations was
    retired once every site migrated to the flow form.)
    """
    if source is None:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError:
            return {}
    waivers: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            line = token.start[0]
            if text.startswith("flow:"):
                body = text[len("flow:") :].strip()
                if body.startswith("waiver(") and body.endswith(")"):
                    names = {
                        n.strip() for n in body[len("waiver(") : -1].split(",")
                    }
                    waivers.setdefault(line, set()).update(n for n in names if n)
    except tokenize.TokenError:
        pass
    return waivers


def finding_is_waived(
    rule: str,
    path: str,
    line: int,
    function: Optional[str],
    graph: Optional[CodeGraph],
    waiver_cache: Dict[str, Dict[int, Set[str]]],
    used: Optional[Set[Tuple[str, int, str]]] = None,
) -> bool:
    """Shared waiver predicate for flow/taint/lifetime findings.

    A finding is waived by ``# flow: waiver(<rule>)`` (or ``waiver(*)``)
    on the finding line, the line above, or the anchor function's
    ``def`` line.  When ``used`` is given, every matching waiver's
    ``(path, line, rule-name)`` position is recorded — the stale-waiver
    detector reports inventory positions that never match anything.
    """
    if path not in waiver_cache:
        waiver_cache[path] = collect_waivers(path)
    waivers = waiver_cache[path]
    lines = {line, line - 1}
    anchor = graph.functions.get(function) if graph and function else None
    if anchor is not None:
        lines.update({anchor.line, anchor.line - 1})
    accepted = {rule, "*"}
    hit = False
    for cand in lines:
        matched = waivers.get(cand, set()) & accepted
        if matched:
            hit = True
            if used is not None:
                for name in matched:
                    used.add((path, cand, name))
    return hit


def _violation_is_waived(
    violation: Violation,
    graph: CodeGraph,
    waiver_cache: Dict[str, Dict[int, Set[str]]],
    used: Optional[Set[Tuple[str, int, str]]] = None,
) -> bool:
    return finding_is_waived(
        violation.rule,
        violation.path,
        violation.line,
        violation.function,
        graph,
        waiver_cache,
        used,
    )


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def load_baseline(path: str) -> Set[str]:
    """Violation keys recorded in a baseline file (empty if absent)."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return set()
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    return set(payload.get("violations", []))


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


@dataclass
class FlowReport:
    """Machine-readable result of one analysis run."""

    n_modules: int
    n_functions: int
    coverage: Dict[str, Dict[str, int]]
    signatures: Dict[str, List[str]]
    violations: List[Violation]
    errors: List[str]

    @property
    def blocking(self) -> List[Violation]:
        return [v for v in self.violations if not v.waived and not v.baselined]

    def baseline_payload(self) -> Dict:
        keys = sorted({v.key for v in self.violations if not v.waived})
        return {"version": 1, "violations": keys}

    def to_dict(self, include_signatures: bool = True) -> Dict:
        payload: Dict = {
            "modules": self.n_modules,
            "functions": self.n_functions,
            "coverage": self.coverage,
            "violations": [
                {
                    "rule": v.rule,
                    "key": v.key,
                    "function": v.function,
                    "entry": v.entry,
                    "module": v.module,
                    "path": v.path,
                    "line": v.line,
                    "message": v.message,
                    "chain": v.chain,
                    "waived": v.waived,
                    "baselined": v.baselined,
                }
                for v in self.violations
            ],
            "errors": list(self.errors),
        }
        if include_signatures:
            payload["signatures"] = self.signatures
        return payload

    def to_json(self, include_signatures: bool = True) -> str:
        return json.dumps(self.to_dict(include_signatures), indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = [
            f"flow: {self.n_functions} functions across "
            f"{self.n_modules} modules"
        ]
        for package in sorted(self.coverage):
            stats = self.coverage[package]
            lines.append(
                f"  {package}: {stats['signed']}/{stats['functions']} "
                f"functions signed"
            )
        blocking = self.blocking
        suppressed = len(self.violations) - len(blocking)
        if suppressed:
            lines.append(f"  {suppressed} finding(s) waived or baselined")
        for violation in blocking:
            lines.append(violation.format())
        if not blocking:
            lines.append("  no new contract violations")
        for error in self.errors:
            lines.append(f"  parse error: {error}")
        return "\n".join(lines)


def _coverage(graph: CodeGraph, signatures: Dict[str, Set[str]], config: FlowConfig):
    coverage: Dict[str, Dict[str, int]] = {}
    for package in config.coverage_packages:
        total = 0
        signed = 0
        for key, func in graph.functions.items():
            if func.module == package or func.module.startswith(package + "."):
                total += 1
                if key in signatures:
                    signed += 1
        coverage[package] = {"functions": total, "signed": signed}
    return coverage


def analyze_paths(
    paths: Sequence,
    config: Optional[FlowConfig] = None,
    baseline: Optional[Set[str]] = None,
    graph: Optional[CodeGraph] = None,
) -> FlowReport:
    """Run the full pipeline over ``paths`` and return a report.

    Pass a prebuilt ``graph`` to share one :func:`build_graph` result
    across the lint/flow/taint/lifetime layers (the unified driver
    does); otherwise the graph is built here.
    """
    config = config or FlowConfig()
    if graph is None:
        graph = build_graph(paths)
    analysis = FlowAnalysis(graph, config).run()
    violations = analysis.check_contracts()
    waiver_cache: Dict[str, Dict[int, Set[str]]] = {}
    for violation in violations:
        violation.waived = _violation_is_waived(violation, graph, waiver_cache)
        if baseline and violation.key in baseline:
            violation.baselined = True
    return FlowReport(
        n_modules=len(graph.modules),
        n_functions=len(graph.functions),
        coverage=_coverage(graph, analysis.signatures, config),
        signatures={
            key: sorted(atoms) for key, atoms in analysis.signatures.items()
        },
        violations=violations,
        errors=list(graph.errors),
    )
