"""Unified analysis driver: lint → flow → taint → lifetime in one run.

The four layers compose over one parsed call graph — every file is
parsed once, and tokenized for its waiver comments at most once, by
:class:`~repro.analysis.callgraph.CodeGraph`:

* **lint** (:mod:`.lint`) — syntactic per-module rules over the
  graph's parsed trees;
* **flow** (:mod:`.flow`) — interprocedural effect signatures and the
  three concurrency contracts;
* **taint** (:mod:`.taint`) — determinism-taint dataflow over the CFG,
  reusing the shared source/sanitizer/sink registry;
* **lifetime** (:mod:`.lifetime`) — resource acquire/release automata,
  whose exception edges come from the flow layer's ``raises-storage``
  signatures.

Flow and taint reach their interprocedural fixpoints on the one
worklist, :func:`repro.analysis.dataflow.solve_summaries`; a solve that
hits its iteration bound is reported in ``errors``.

Waivers, read from the graph's per-module waiver tables: lint findings
use ``# lint: <rule>`` comments (the finding line or the line above);
flow, taint and lifetime findings use ``# flow: waiver(<rule>)`` (the
finding line, the line above, or the anchor function's ``def`` line or
the line above it).  When every ruleset runs, :func:`run_analysis` also
reports each waiver comment that suppressed nothing as a
``stale-waiver`` finding — a waiver that outlives its violation is a lie
in the margins.

Baseline: one checked-in ratchet file shared across rulesets, holding
finding keys (see :class:`~repro.analysis.finding.Finding`).  Lint and
stale-waiver findings are never baselined — they are cheap to fix and
the ratchet would invite rot.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CodeGraph, build_graph
from .finding import STALE_WAIVER, Finding
from .flow import FlowAnalysis, FlowConfig
from .lifetime import check_lifetime
from .lint import check_lint
from .taint import TaintChecker

__all__ = [
    "ALL_RULESETS",
    "AnalysisReport",
    "load_baseline",
    "run_analysis",
]

ALL_RULESETS: Tuple[str, ...] = ("lint", "flow", "taint", "lifetime")

BASELINED_RULESETS = frozenset({"flow", "taint", "lifetime"})

# The JSON fields of each ruleset's findings, as ``(json, attribute)``.
_CHAINED_FIELDS = (
    ("rule", "rule"),
    ("key", "key"),
    ("function", "function"),
    ("module", "module"),
    ("path", "path"),
    ("line", "line"),
    ("message", "message"),
    ("chain", "chain"),
    ("waived", "waived"),
    ("baselined", "baselined"),
)
_JSON_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lint": tuple(
        (name, name)
        for name in ("rule", "path", "line", "col", "message", "waived")
    ),
    "flow": _CHAINED_FIELDS + (("entry", "entry"),),
    "taint": _CHAINED_FIELDS,
    "lifetime": _CHAINED_FIELDS,
    STALE_WAIVER: (
        ("comment_kind", "kind"),
        ("path", "path"),
        ("line", "line"),
        ("rule", "rule"),
    ),
}

# A waiver position: (module path, line, rule name).
Used = Set[Tuple[str, int, str]]


def load_baseline(path: str) -> Set[str]:
    """Finding keys recorded in a baseline file (empty if absent)."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return set()
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    return set(payload.get("violations", []))


@dataclass
class AnalysisReport:
    """Combined result of one ``analyze`` run, and its only renderer."""

    rulesets: Tuple[str, ...]
    n_modules: int
    n_functions: int
    findings: List[Finding] = field(default_factory=list)
    # Per-function flow effect signatures (when ``flow`` ran).
    signatures: Dict[str, List[str]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def of(self, ruleset: str) -> List[Finding]:
        return [f for f in self.findings if f.ruleset == ruleset]

    @property
    def blocking(self) -> List[Finding]:
        return [f for f in self.findings if f.blocking]

    @property
    def blocking_count(self) -> int:
        return len(self.blocking)

    @property
    def suppressed_count(self) -> int:
        return len(self.findings) - self.blocking_count

    def baseline_payload(self) -> Dict:
        """Ratchet keys of every unwaived baselinable finding."""
        keys = {
            f.key
            for f in self.findings
            if f.ruleset in BASELINED_RULESETS and not f.waived
        }
        return {"version": 1, "violations": sorted(keys)}

    # -- serialization --------------------------------------------------

    def to_dict(self, include_signatures: bool = False) -> Dict:
        listed = list(self.rulesets)
        if len(self.rulesets) == len(ALL_RULESETS):
            listed.append(STALE_WAIVER)
        payload: Dict = {
            "rulesets": list(self.rulesets),
            "modules": self.n_modules,
            "functions": self.n_functions,
            "blocking": self.blocking_count,
            "suppressed": self.suppressed_count,
            "elapsed_seconds": self.elapsed_seconds,
            "errors": list(self.errors),
            "findings": {
                name: [
                    {key: getattr(f, attr) for key, attr in _JSON_FIELDS[name]}
                    for f in self.of(name)
                ]
                for name in listed
            },
        }
        if "flow" in self.rulesets:
            payload["flow"] = {
                "modules": self.n_modules,
                "functions": self.n_functions,
                "errors": list(self.errors),
            }
            if include_signatures:
                payload["flow"]["signatures"] = self.signatures
        return payload

    def to_json(self, include_signatures: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_signatures), indent=2, sort_keys=True
        )

    def format_text(self) -> str:
        lines = [
            f"analyze[{','.join(self.rulesets)}]: {self.n_functions} "
            f"functions across {self.n_modules} modules "
            f"({self.elapsed_seconds:.2f}s)"
        ]
        lines.extend(f.format() for f in self.blocking)
        if self.suppressed_count:
            lines.append(
                f"  {self.suppressed_count} finding(s) waived or baselined"
            )
        if not self.blocking_count:
            lines.append("  no new findings")
        lines.extend(f"  error: {error}" for error in self.errors)
        return "\n".join(lines)


def _apply_waivers(
    findings: Sequence[Finding], graph: CodeGraph, used: Used
) -> None:
    """Mark each finding waived when a matching comment covers it, and
    record every matching comment's position in ``used``."""
    for finding in findings:
        module = graph.modules.get(finding.module or "")
        if module is None:
            continue
        lines = {finding.line, finding.line - 1}
        if finding.ruleset == "lint":
            table = module.waivers["lint"]
        else:
            table = module.waivers["flow"]
            anchor = graph.functions.get(finding.function or "")
            if anchor is not None:
                lines.update({anchor.line, anchor.line - 1})
        accepted = {finding.rule, "*"}
        for line in lines:
            matched = table.get(line, set()) & accepted
            for name in matched:
                used.add((module.path, line, name))
            finding.waived = finding.waived or bool(matched)


def _stale_waivers(graph: CodeGraph, used: Used) -> List[Finding]:
    """Every waiver comment in the graph whose position ``used`` lacks.

    Only meaningful when every ruleset ran — a lifetime waiver looks
    unused to a lint-only run — so :func:`run_analysis` gates the call.
    """
    stale: List[Finding] = []
    for module in graph.modules.values():
        for kind, table in module.waivers.items():
            for line, names in table.items():
                for name in sorted(names):
                    if (module.path, line, name) in used:
                        continue
                    marker = (
                        f"# lint: {name}"
                        if kind == "lint"
                        else f"# flow: waiver({name})"
                    )
                    stale.append(
                        Finding(
                            ruleset=STALE_WAIVER,
                            rule=name,
                            path=module.path,
                            line=line,
                            message=(
                                f"'{marker}' suppresses nothing; delete it "
                                f"or fix the rule name"
                            ),
                            module=module.name,
                            kind=kind,
                        )
                    )
    stale.sort(key=lambda f: (f.path, f.line, f.rule))
    return stale


def run_analysis(
    paths: Sequence,
    rulesets: Sequence[str] = ALL_RULESETS,
    baseline: Optional[Set[str]] = None,
    config: Optional[FlowConfig] = None,
    graph: Optional[CodeGraph] = None,
) -> AnalysisReport:
    """Run the requested rulesets over ``paths`` and combine reports.

    One :func:`build_graph` parse, and one CFG per function, feed every
    layer; the flow layer's ``raises-storage`` signatures choose the
    lifetime checker's exception edges (computed here even when
    ``flow`` itself is not a requested ruleset, because the lifetime
    automaton needs them).
    """
    started = time.perf_counter()
    rulesets = tuple(r for r in ALL_RULESETS if r in set(rulesets))
    if not rulesets:
        raise ValueError("no known rulesets requested")
    if graph is None:
        graph = build_graph(paths)
    report = AnalysisReport(
        rulesets=rulesets,
        n_modules=len(graph.modules),
        n_functions=len(graph.functions),
        errors=list(graph.errors),
    )
    findings: List[Finding] = []

    if "lint" in rulesets:
        findings.extend(check_lint(graph))

    if "flow" in rulesets or "lifetime" in rulesets:
        analysis = FlowAnalysis(graph, config).run()
        if not analysis.converged:
            report.errors.append(
                "flow: effect signatures did not converge within the "
                "iteration bound"
            )
        if "flow" in rulesets:
            findings.extend(analysis.check_contracts())
            report.signatures = {
                key: sorted(atoms)
                for key, atoms in analysis.signatures.items()
            }

    if "taint" in rulesets:
        checker = TaintChecker(graph)
        findings.extend(checker.run())
        if not checker.converged:
            report.errors.append(
                "taint: summaries did not converge within the iteration "
                "bound"
            )

    if "lifetime" in rulesets:
        raising = {
            key
            for key, sig in analysis.signatures.items()
            if "raises-storage" in sig
        }
        findings.extend(check_lifetime(graph, raising=raising))

    used: Used = set()
    _apply_waivers(findings, graph, used)
    for finding in findings:
        if baseline and finding.ruleset in BASELINED_RULESETS:
            finding.baselined = finding.key in baseline
    if set(rulesets) == set(ALL_RULESETS):
        findings.extend(_stale_waivers(graph, used))

    report.findings = findings
    report.elapsed_seconds = time.perf_counter() - started
    return report
