"""Experiment execution: run algorithms over workloads, aggregate metrics.

The paper reports, for every data point, the **average query time**
and the **average number of I/Os** over its generated queries
(Section VII-A1).  :class:`Runner` reproduces that protocol: each
(case, method) execution starts from a cold buffer pool, and the two
metrics are averaged per method.  The runner also cross-checks that
every *exact* method returned the same penalty on every case — the
strongest end-to-end invariant the paper implies (all three algorithms
solve the same optimisation problem exactly).

The runner is the one run loop behind every consumer of a figure: the
``experiment`` tables average its records per method, and the ``bench``
emitters turn the same records into per-unit latency and I/O.  Each
record keeps the host wall time of every round and the last round's
answer (whose ``elapsed_seconds`` is the tables' clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.engine import WhyNotEngine
from ..core.result import WhyNotAnswer
from .workload import WorkloadCase

__all__ = ["MethodSpec", "MethodAggregate", "PointResult", "Record", "Runner"]

_EXACT_METHODS = {"basic", "advanced", "kcr"}


@dataclass(frozen=True)
class MethodSpec:
    """One algorithm configuration to run at a data point."""

    label: str  # display name, e.g. "AdvancedBS" or "KcRBased-P4"
    method: str  # WhyNotEngine.answer() method name
    options: Mapping[str, object] = field(default_factory=dict)
    key: str = ""  # BENCH unit-name suffix; defaults to ``method``

    @property
    def unit_key(self) -> str:
        return self.key or self.method

    def is_exact(self) -> bool:
        if self.method in ("approximate",):
            return False
        if self.method == "advanced":
            # Partial-optimization ablations are still exact.
            return True
        return self.method in _EXACT_METHODS or self.method.startswith("parallel")


@dataclass
class MethodAggregate:
    """Averaged metrics for one method at one data point."""

    label: str
    n_cases: int = 0
    total_time: float = 0.0
    total_ios: int = 0
    total_penalty: float = 0.0
    skipped: int = 0

    def add(self, elapsed: float, ios: int, penalty: float) -> None:
        self.n_cases += 1
        self.total_time += elapsed
        self.total_ios += ios
        self.total_penalty += penalty

    @property
    def mean_time(self) -> Optional[float]:
        return self.total_time / self.n_cases if self.n_cases else None

    @property
    def mean_ios(self) -> Optional[float]:
        return self.total_ios / self.n_cases if self.n_cases else None

    @property
    def mean_penalty(self) -> Optional[float]:
        return self.total_penalty / self.n_cases if self.n_cases else None


@dataclass
class Record:
    """One (case, spec) execution: per-round wall time, last answer."""

    case: WorkloadCase
    spec: MethodSpec
    answer: Optional[WhyNotAnswer]  # None: skipped by the BS cap
    wall: List[float] = field(default_factory=list)


@dataclass
class PointResult:
    """All method aggregates at one x-axis value."""

    x_label: str
    x_value: object
    methods: Dict[str, MethodAggregate]
    mismatches: int = 0  # exact methods disagreeing on penalty (should be 0)
    records: List[Record] = field(default_factory=list)

    def row(self) -> Dict[str, object]:
        """Flatten into a reporting row."""
        row: Dict[str, object] = {self.x_label: self.x_value}
        for label, agg in self.methods.items():
            row[f"{label}_time_s"] = agg.mean_time
            row[f"{label}_ios"] = agg.mean_ios
            row[f"{label}_penalty"] = agg.mean_penalty
        return row


class Runner:
    """Executes method specs over workload cases against one engine."""

    def __init__(
        self,
        engine: WhyNotEngine,
        *,
        bs_candidate_cap: Optional[int] = None,
        rounds: int = 1,
    ) -> None:
        self.engine = engine
        self.bs_candidate_cap = bs_candidate_cap
        self.rounds = rounds

    def run_case(self, case: WorkloadCase, spec: MethodSpec) -> Record:
        """Time ``rounds`` cold-buffer runs of one spec on one case.

        The basic algorithm is skipped on cases whose candidate space
        exceeds ``bs_candidate_cap`` (pure-Python BS on a 2^16 space
        takes hours; the cap and its rationale are in DESIGN.md) — the
        record then carries no answer, so skips are counted, never
        silently dropped.
        """
        record = Record(case, spec, None)
        if (
            spec.method == "basic"
            and self.bs_candidate_cap is not None
            and case.candidate_space > self.bs_candidate_cap
        ):
            return record
        for _ in range(self.rounds):
            self.engine.reset_buffers()
            start = time.perf_counter()
            record.answer = self.engine.answer(
                case.question, method=spec.method, **dict(spec.options)
            )
            record.wall.append(time.perf_counter() - start)
        return record

    def run_point(
        self,
        x_label: str,
        x_value: object,
        cases: Sequence[WorkloadCase],
        specs: Sequence[MethodSpec],
    ) -> PointResult:
        """Run every spec over every case; average per spec."""
        aggregates = {spec.label: MethodAggregate(spec.label) for spec in specs}
        result = PointResult(x_label, x_value, aggregates)
        for case in cases:
            exact_penalties: List[float] = []
            for spec in specs:
                record = self.run_case(case, spec)
                result.records.append(record)
                agg = result.methods[spec.label]
                answer = record.answer
                if answer is None:
                    agg.skipped += 1
                    continue
                agg.add(
                    answer.elapsed_seconds,
                    answer.io.page_reads,
                    answer.refined.penalty,
                )
                if spec.is_exact():
                    exact_penalties.append(answer.refined.penalty)
            if any(abs(p - exact_penalties[0]) > 1e-9 for p in exact_penalties[1:]):
                result.mismatches += 1
        return result
