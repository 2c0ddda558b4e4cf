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
   a call-chain witness.  Waive with ``# flow:
   waiver(io-through-pool)``.
3. **exception-safety** — on the fault/quarantine path
   (``repro.core.engine`` / ``repro.core.degraded``) no shared-state
   mutation may precede a possibly-raising storage call, so a fault
   never leaves the engine half-updated.

Effect atoms
------------

Four atoms, each read by a contract: ``shared-write`` (an unguarded
write to state classified as *shared* — anything in ``repro.index`` /
``repro.storage`` / ``repro.model`` plus the dominator cache),
``raw-io``, ``file-io``, and ``raises-storage``.  Exception-safety
reads the local mutations themselves.

Masking during propagation is per call site: a call lexically inside a
``with <...lock...>:`` block drops ``shared-write``; a call inside a
``try`` whose handler catches the storage family (and does not
re-raise) drops ``raises-storage``; calling into ``repro.storage``
drops ``raw-io``/``file-io`` (the storage layer is where raw I/O is
supposed to live); calling a sanctioned writer drops ``shared-write``;
instantiating a class (``ClassName(...)``) drops the shared writes
whose origin writes through ``self`` — the fresh object is private to
the caller until published.

Propagation runs on :func:`repro.analysis.dataflow.solve_summaries`:
a function's signature is its local atoms plus the masked atoms of its
callees.  Witnesses are fixed after the fixpoint, from the program
alone: an atom's source is its first local site, else the lowest
``(line, callee)`` call site into a function whose own witness is one
hop shorter, so :meth:`FlowAnalysis.chain` rebuilds a shortest chain
whatever order the worklist ran in.

Waivers (``# flow: waiver(<rule>)``) and the baseline ratchet are
applied by :mod:`repro.analysis.driver`.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CodeGraph, FunctionInfo
from .dataflow import solve_summaries
from .effects import CallSite, FunctionEffects, Mutation, extract_all_effects
from .finding import Finding

__all__ = ["EFFECT_KINDS", "FlowAnalysis", "FlowConfig"]

SHARED_WRITE = "shared-write"
RAW_IO = "raw-io"
FILE_IO = "file-io"
RAISES_STORAGE = "raises-storage"
EFFECT_KINDS = (SHARED_WRITE, RAW_IO, FILE_IO, RAISES_STORAGE)

# A shared write whose origin writes through ``self``: reported as
# ``shared-write``, but dropped where a call instantiates a fresh object.
_SELF_WRITE = "shared-write/self"


def _public(atom: str) -> str:
    return SHARED_WRITE if atom == _SELF_WRITE else atom


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


class FlowAnalysis:
    """Fixpoint effect propagation over a :class:`CodeGraph`."""

    def __init__(self, graph: CodeGraph, config: Optional[FlowConfig] = None) -> None:
        self.graph = graph
        self.config = config or FlowConfig()
        self.effects: Dict[str, FunctionEffects] = {}
        # The fixpoint's atoms, shared writes split by origin.
        self._atoms: Dict[str, Set[str]] = {}
        self.signatures: Dict[str, Set[str]] = {}
        # (function, atom) -> ("local", line) | ("call", callee, line)
        self.sources: Dict[Tuple[str, str], Tuple] = {}
        self.converged = True

    # ------------------------------------------------------------------
    # fixpoint
    # ------------------------------------------------------------------

    def run(self) -> "FlowAnalysis":
        self.effects = extract_all_effects(self.graph)
        callers: Dict[str, List[str]] = {}
        for key, eff in self.effects.items():
            self._seed_local_atoms(key, eff)
            for site in eff.calls:
                if site.target.kind == "local" and site.target.key:
                    callers.setdefault(site.target.key, []).append(key)
        self.converged = solve_summaries(self._atoms, self._evaluate, callers)
        self.signatures = {
            key: {_public(atom) for atom in atoms}
            for key, atoms in self._atoms.items()
        }
        self._choose_sources()
        return self

    def _evaluate(self, key: str) -> bool:
        """Pull the masked atoms of ``key``'s callees into its atoms."""
        atoms = self._atoms[key]
        size = len(atoms)
        for site in self.effects[key].calls:
            if site.target.kind == "local" and site.target.key:
                atoms |= self._masked_atoms(site.target.key, site)
        return len(atoms) != size

    def _mutation_is_exempt(self, func: FunctionInfo, mut: Mutation) -> bool:
        if mut.kind == "self" and func.name in _INIT_NAMES:
            return True
        if mut.kind == "self" and mut.attr in self.config.accounting_attrs:
            return True
        return False

    def _seed_local_atoms(self, key: str, eff: FunctionEffects) -> None:
        func = self.graph.functions[key]
        atoms = self._atoms[key] = set()

        def add(atom: str, line: int) -> None:
            atoms.add(atom)
            self.sources.setdefault((key, _public(atom)), ("local", line))

        for mut in eff.mutations:
            if mut.guarded or self._mutation_is_exempt(func, mut):
                continue
            if mut.kind == "self":
                if self.config.is_shared_class(func.class_key):
                    add(_SELF_WRITE, mut.line)
            elif mut.kind == "param":
                param_type = func.param_types.get(mut.root or "")
                if self.config.is_shared_class(param_type):
                    add(SHARED_WRITE, mut.line)
            elif mut.kind == "global":
                add(SHARED_WRITE, mut.line)
        for site in eff.io_sites:
            add(site.kind, site.line)
        for _, line in eff.raises:
            add(RAISES_STORAGE, line)

    def _masked_atoms(self, callee_key: str, site: CallSite) -> Set[str]:
        """Atoms of ``callee_key`` that survive ``site``'s masks."""
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
        for atom in self._atoms.get(callee_key, ()):
            if atom in (SHARED_WRITE, _SELF_WRITE):
                if site.in_lock or callee_key in self.config.sanctioned_writers:
                    continue
                if atom == _SELF_WRITE and is_instantiation:
                    continue
            elif atom == RAISES_STORAGE:
                if site.storage_masked:
                    continue
            elif callee is not None and self.config.in_storage(callee.module):
                continue  # raw-io / file-io inside the storage layer
            out.add(atom)
        return out

    # ------------------------------------------------------------------
    # witnesses
    # ------------------------------------------------------------------

    def _choose_sources(self) -> None:
        """Fix the call-site source of every propagated atom.

        Breadth-first from the local sources: a function one hop
        further out takes the lowest ``(line, callee)`` site into the
        previous layer that carries the atom.
        """
        sites: Dict[str, List[Tuple[str, int, Set[str]]]] = {}
        for key, eff in self.effects.items():
            for site in eff.calls:
                callee = site.target.key
                if site.target.kind == "local" and callee:
                    carried = {_public(a) for a in self._masked_atoms(callee, site)}
                    sites.setdefault(callee, []).append((key, site.line, carried))
        for atom in EFFECT_KINDS:
            layer = {key for key, source_atom in self.sources if source_atom == atom}
            while layer:
                best: Dict[str, Tuple[int, str]] = {}
                for callee in layer:
                    for key, line, carried in sites.get(callee, ()):
                        if atom in carried and (key, atom) not in self.sources:
                            best[key] = min(best.get(key, (line, callee)), (line, callee))
                for key, (line, callee) in best.items():
                    self.sources[(key, atom)] = ("call", callee, line)
                layer = set(best)

    def chain(self, key: str, atom: str) -> List[Tuple[str, int]]:
        """Hops from ``key`` to the local origin of ``atom``."""
        hops: List[Tuple[str, int]] = []
        current = key
        while True:
            source = self.sources.get((current, atom))
            if source is None:
                return hops
            if source[0] == "local":
                hops.append((current, source[1]))
                return hops
            _, callee, line = source
            hops.append((current, line))
            current = callee

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

    def check_contracts(self) -> List[Finding]:
        violations: List[Finding] = []
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

    def _check_worker_read_only(self) -> List[Finding]:
        out = []
        for entry in self.entry_points():
            if SHARED_WRITE not in self.signatures.get(entry, set()):
                continue
            anchor_key, line = self._anchor_of(entry, SHARED_WRITE)
            anchor = self.graph.functions[anchor_key]
            out.append(
                Finding(
                    ruleset="flow",
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
                    chain=self.render_chain(entry, SHARED_WRITE),
                )
            )
        return out

    def _check_io_through_pool(self) -> List[Finding]:
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
                if site.kind != RAW_IO or site.line in seen_lines:
                    continue
                seen_lines.add(site.line)
                out.append(
                    Finding(
                        ruleset="flow",
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
            if FILE_IO not in self.signatures.get(entry, set()):
                continue
            anchor_key, line = self._anchor_of(entry, FILE_IO)
            anchor = self.graph.functions[anchor_key]
            out.append(
                Finding(
                    ruleset="flow",
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
                    chain=self.render_chain(entry, FILE_IO),
                )
            )
        return out

    def _state_mutations(self, key: str) -> List[Mutation]:
        """The unguarded, non-exempt writes ``key`` makes to ``self`` or
        global state."""
        func = self.graph.functions[key]
        return [
            mut
            for mut in self.effects[key].mutations
            if not mut.guarded
            and mut.kind in ("self", "global")
            and not self._mutation_is_exempt(func, mut)
        ]

    def _check_exception_safety(self) -> List[Finding]:
        out = []
        subject_modules = set(self.config.exception_safe_modules)
        for key in sorted(self.graph.functions):
            func = self.graph.functions[key]
            if func.module not in subject_modules or func.name in _INIT_NAMES:
                continue
            eff = self.effects[key]
            markers: List[Tuple[int, int, str]] = [
                (mut.stmt_index, mut.line, f"mutates {mut.kind}.{mut.attr}")
                for mut in self._state_mutations(key)
            ]
            for site in eff.calls:
                target = self.graph.functions.get(site.target.key or "")
                if site.is_reference or target is None:
                    continue
                if site.receiver_kind not in ("self", "param", "global", "closure"):
                    continue
                if target.name not in _INIT_NAMES and self._state_mutations(target.key):
                    markers.append(
                        (
                            site.stmt_index,
                            site.line,
                            f"call to {site.target.key} mutates shared state",
                        )
                    )
            if not markers:
                continue
            raising: List[Tuple[int, int, Optional[str]]] = [
                (index, line, None) for index, line in eff.raises
            ]
            for site in eff.calls:
                callee = site.target.key
                if site.is_reference or site.storage_masked or callee is None:
                    continue
                if site.target.kind == "local" and RAISES_STORAGE in self.signatures[callee]:
                    raising.append((site.stmt_index, site.line, callee))
            # One finding per function keeps the report readable: the
            # first raise with a mutation before it.
            hit = next(
                ((r, m) for r in sorted(raising) for m in markers if m[0] < r[0]),
                None,
            )
            if hit is None:
                continue
            (_, r_line, callee), (_, m_line, m_desc) = hit
            out.append(
                Finding(
                    ruleset="flow",
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
                    chain=(
                        self.render_chain(callee, RAISES_STORAGE)
                        if callee is not None
                        else []
                    ),
                )
            )
        return out
