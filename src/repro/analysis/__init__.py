"""Correctness tooling: custom static analysis + runtime invariant sanitizer.

The reproduction's guarantees rest on fragile invariants — Theorem 1's
SetR-tree bound needs every node's union/intersection sets and MBRs
maintained exactly, and the penalty model (Eqn 4) misbehaves silently
on float-equality edge cases.  This package guards both sides:

* :mod:`repro.analysis.callgraph` — the one front end: it parses and
  tokenizes every file once, keeps each module's waiver comments, and
  builds the whole-package call graph every layer below reads, with
  each function's name scope and CFG built once on first use.
* :mod:`repro.analysis.lint` — repo-specific syntactic rules
  (float-literal equality, bare asserts, mutable defaults, missing
  public annotations, stray ``print``) over the graph's parsed trees.
* :mod:`repro.analysis.flow` — interprocedural effect inference (local
  effects read off the CFG nodes by :mod:`repro.analysis.effects`)
  enforcing the three concurrency contracts: worker-read-only,
  io-through-pool (raw pager access outside the storage layer), and
  exception-safety on the quarantine path.
* :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` — the
  per-function control-flow graphs (each statement records its
  exception target; a solve chooses which statements raise), the
  forward worklist solver the dataflow checkers run on, and the one
  interprocedural worklist flow and taint both reach their fixpoints on.
* :mod:`repro.analysis.taint` — determinism-taint: unsanitized
  nondeterminism (time / random / fs-order / set-iteration / hash-id,
  from the shared :mod:`repro.analysis.registry` taxonomy) reaching a
  result dataclass, checksummed persistence, or a bench emitter.
* :mod:`repro.analysis.lifetime` — resource acquire/release automata:
  spill files and shard pipes/workers (leak-on-exception-edge,
  double-release).
* :mod:`repro.analysis.driver` — the ``analyze`` runner composing all
  of the above over one parsed call graph, with waiver, stale-waiver,
  and baseline-ratchet semantics; every layer reports the one
  :class:`~repro.analysis.finding.Finding` type.
  CLI: ``repro-whynot analyze [--rules ...|--all]``.
* :mod:`repro.analysis.sanitize` — structural walkers validating
  R-tree/SetR-tree/KcR-tree invariants and buffer-pool accounting.
  CLI: ``repro-whynot check-invariants``.
"""

from .driver import ALL_RULESETS, AnalysisReport, load_baseline, run_analysis
from .finding import Finding
from .flow import EFFECT_KINDS, FlowAnalysis, FlowConfig
from .lifetime import RESOURCE_SPECS, ResourceSpec, check_lifetime
from .lint import DEFAULT_RULES, LintRule, check_lint
from .sanitize import (
    CORRUPTION_KINDS,
    InvariantViolation,
    SanitizerReport,
    check_buffer_pool,
    check_tree,
    scan_corruption,
)
from .taint import check_taint

__all__ = [
    "Finding",
    "LintRule",
    "DEFAULT_RULES",
    "check_lint",
    "EFFECT_KINDS",
    "FlowAnalysis",
    "FlowConfig",
    "load_baseline",
    "ALL_RULESETS",
    "AnalysisReport",
    "run_analysis",
    "check_taint",
    "ResourceSpec",
    "RESOURCE_SPECS",
    "check_lifetime",
    "InvariantViolation",
    "SanitizerReport",
    "check_buffer_pool",
    "check_tree",
    "scan_corruption",
    "CORRUPTION_KINDS",
]
