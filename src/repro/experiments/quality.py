"""Result-quality profiling of optimal refinements.

The paper's evaluation measures *cost* (time, I/O).  This module
profiles the *answers themselves* — information a practitioner
deciding whether to deploy keyword adaption wants:

* how often does editing keywords strictly beat the basic "just
  enlarge k" refinement, and by how much;
* what do optimal edits look like (insertions vs deletions, Δdoc,
  residual Δk);
* how the λ preference shifts the optimum between the two axes.

All statistics come from exact (KcRBased) answers, so they describe
the true optima of Definition 2, not an algorithm's approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.engine import WhyNotEngine
from .config import SCALES, Defaults, Scale
from .figures import _point_seed, engine_for
from .workload import WorkloadCase, WorkloadGenerator

__all__ = ["QualityProfile", "profile_quality", "quality_report_rows"]

DEFAULTS = Defaults()


@dataclass
class QualityProfile:
    """Aggregated statistics of optimal refinements at one λ."""

    lam: float
    n_cases: int = 0
    keyword_edit_wins: int = 0  # Δdoc > 0 in the optimum
    total_penalty: float = 0.0
    total_basic_penalty: float = 0.0  # λ per case
    total_delta_doc: int = 0
    total_insertions: int = 0
    total_deletions: int = 0
    total_delta_k: int = 0

    def add(self, answer, question) -> None:
        refined = answer.refined
        self.n_cases += 1
        self.total_penalty += refined.penalty
        self.total_basic_penalty += question.lam
        if refined.delta_doc > 0:
            self.keyword_edit_wins += 1
        self.total_delta_doc += refined.delta_doc
        added = refined.keywords - question.query.doc
        removed = question.query.doc - refined.keywords
        self.total_insertions += len(added)
        self.total_deletions += len(removed)
        self.total_delta_k += max(0, refined.k - question.query.k)

    @property
    def win_rate(self) -> float:
        """Fraction of questions where a keyword edit is optimal."""
        return self.keyword_edit_wins / self.n_cases if self.n_cases else 0.0

    @property
    def mean_penalty(self) -> float:
        return self.total_penalty / self.n_cases if self.n_cases else 0.0

    @property
    def mean_saving(self) -> float:
        """Mean penalty saved versus the basic refinement (λ)."""
        if not self.n_cases:
            return 0.0
        return (self.total_basic_penalty - self.total_penalty) / self.n_cases

    def row(self) -> Dict[str, object]:
        n = max(1, self.n_cases)
        return {
            "lambda": self.lam,
            "n": self.n_cases,
            "keyword_edit_win_rate": round(self.win_rate, 4),
            "mean_penalty": round(self.mean_penalty, 4),
            "mean_saving_vs_basic": round(self.mean_saving, 4),
            "mean_delta_doc": round(self.total_delta_doc / n, 3),
            "mean_insertions": round(self.total_insertions / n, 3),
            "mean_deletions": round(self.total_deletions / n, 3),
            "mean_delta_k": round(self.total_delta_k / n, 3),
        }


def profile_quality(
    scale: Scale,
    lams: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    n_cases_per_lam: int | None = None,
) -> List[QualityProfile]:
    """Profile the optimal refinements across a λ sweep."""
    dataset, engine = engine_for("euro", scale.euro_size, DEFAULTS.seed)
    n_cases = n_cases_per_lam or max(3, scale.n_queries)
    profiles: List[QualityProfile] = []
    for lam in lams:
        generator = WorkloadGenerator(dataset, seed=_point_seed("quality", lam))
        cases = generator.generate(
            n_cases,
            k0=DEFAULTS.k0,
            n_keywords=DEFAULTS.n_keywords,
            alpha=DEFAULTS.alpha,
            lam=lam,
            max_extra_keywords=scale.max_extra_keywords,
        )
        profile = QualityProfile(lam=lam)
        for case in cases:
            engine.reset_buffers()
            answer = engine.answer(case.question, method="kcr")
            profile.add(answer, case.question)
        profiles.append(profile)
    return profiles


def quality_report_rows(profiles: Sequence[QualityProfile]) -> List[Dict[str, object]]:
    """Rows for :func:`repro.experiments.reporting.rows_to_table`."""
    return [profile.row() for profile in profiles]
