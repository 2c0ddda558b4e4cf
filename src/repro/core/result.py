"""Result types returned by the why-not algorithms.

Besides the refined query itself, results carry the fault-tolerance
verdict: :class:`FaultEvent` records one storage fault the engine
survived, and the ``degraded`` flag on :class:`WhyNotAnswer` /
:class:`TopKOutcome` marks answers produced by the index-free fallback
while an index is quarantined.  A degraded answer is still *exact*
(the fallback scans the authoritative in-memory dataset with the same
score arithmetic), but it no longer reflects the paper's I/O profile —
consumers comparing I/O metrics must skip flagged answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..data.vocabulary import Vocabulary
from ..model.query import SpatialKeywordQuery
from ..storage.stats import IOSnapshot

__all__ = [
    "RefinedQuery",
    "WhyNotAnswer",
    "SearchCounters",
    "FaultEvent",
    "TopKOutcome",
]

KeywordSet = FrozenSet[int]


@dataclass(frozen=True)
class RefinedQuery:
    """The answer to a why-not question: ``q' = (loc, doc', k', α')``.

    ``loc`` is always inherited from the initial query.  Keyword
    adaption (Definition 2) refines only ``doc`` and ``k`` and leaves
    ``alpha`` at ``None`` (= unchanged); the α-refinement extension
    leaves the keywords untouched and sets ``alpha`` instead.
    """

    keywords: KeywordSet
    k: int
    delta_doc: int
    rank: int  # R(M, q') under the refined keywords
    penalty: float
    alpha: Optional[float] = None  # None = keep the initial query's α

    def as_query(self, initial: SpatialKeywordQuery) -> SpatialKeywordQuery:
        """Materialise the refined query from the initial one."""
        refined = initial.with_keywords(self.keywords).with_k(self.k)
        if self.alpha is not None:
            refined = refined.with_alpha(self.alpha)
        return refined

    def describe(self, vocabulary: Optional[Vocabulary] = None) -> str:
        """Human-readable one-liner, decoding keywords when possible."""
        if vocabulary is not None:
            words = ", ".join(vocabulary.decode(self.keywords))
        else:
            words = ", ".join(str(t) for t in sorted(self.keywords))
        alpha_part = f" alpha={self.alpha:.3f}" if self.alpha is not None else ""
        return (
            f"refined query: keywords=[{words}] k={self.k}{alpha_part} "
            f"(Δdoc={self.delta_doc}, rank={self.rank}, "
            f"penalty={self.penalty:.4f})"
        )


@dataclass
class SearchCounters:
    """Algorithm-side work counters (I/O lives in :class:`IOSnapshot`).

    These feed the Fig 11 ablation analysis: how many candidates each
    optimization removed before (or during) query processing.
    """

    candidates_enumerated: int = 0
    candidates_evaluated: int = 0  # reached actual index search
    pruned_by_keyword_penalty: int = 0  # Opt2 / Alg 1 line 6-7
    pruned_by_cache: int = 0  # Opt3 / Alg 1 lines 10-13
    aborted_early: int = 0  # Opt1: searches stopped at the rank bound
    pruned_by_bounds: int = 0  # Alg 3 line 25-26
    nodes_expanded: int = 0  # Alg 3 queue pops

    def merge(self, other: "SearchCounters") -> None:
        """Accumulate another counter set (multi-phase algorithms)."""
        self.candidates_enumerated += other.candidates_enumerated
        self.candidates_evaluated += other.candidates_evaluated
        self.pruned_by_keyword_penalty += other.pruned_by_keyword_penalty
        self.pruned_by_cache += other.pruned_by_cache
        self.aborted_early += other.aborted_early
        self.pruned_by_bounds += other.pruned_by_bounds
        self.nodes_expanded += other.nodes_expanded


@dataclass(frozen=True)
class FaultEvent:
    """One storage fault the engine survived (and how).

    ``tree`` names the quarantined unit (``"shard-<tid>:<kind>"``),
    ``operation`` the engine call that hit the fault, ``error`` the
    exception class name, ``record_id`` the damaged record when the
    error carried one, and ``detail`` the human-readable message.
    """

    tree: str
    operation: str
    error: str
    record_id: Optional[int]
    detail: str

    def format(self) -> str:
        """One-line rendering for health reports and the chaos verb."""
        rec = f" record={self.record_id}" if self.record_id is not None else ""
        return f"[{self.tree}] {self.operation}: {self.error}{rec} — {self.detail}"


@dataclass
class TopKOutcome:
    """A top-k result plus its fault-tolerance verdict.

    ``results`` holds the usual ``(score, oid)`` pairs, best first.
    ``degraded`` is True when a SetR-tree was (or just became)
    quarantined, so its tile came from the index-free dataset scan;
    ``events`` then lists the faults that caused it.
    """

    results: List[Tuple[float, int]]
    degraded: bool = False
    events: Tuple[FaultEvent, ...] = ()


@dataclass
class WhyNotAnswer:
    """Full outcome of one why-not query.

    ``refined`` is the best refined query found; ``initial_rank`` is
    ``R(M, q)``; ``elapsed_seconds`` and ``io`` are the two metrics the
    paper's evaluation reports; ``counters`` carries the pruning
    telemetry; ``algorithm`` names the method that produced the answer.

    ``degraded`` marks an answer computed while a tree of the kind the
    method reads was quarantined after an unrecoverable storage fault
    (that tile, or for a raw-tree method the whole answer, came from
    the index-free fallback); ``fault_events`` then records the faults
    involved.  Degraded answers must not be mixed into the paper's I/O
    metrics.
    """

    refined: RefinedQuery
    initial_rank: int
    algorithm: str
    elapsed_seconds: float
    io: IOSnapshot
    counters: SearchCounters = field(default_factory=SearchCounters)
    degraded: bool = False
    fault_events: Tuple[FaultEvent, ...] = ()

    @property
    def is_basic_refinement(self) -> bool:
        """True when no keyword edit beat simply enlarging ``k``."""
        return self.refined.delta_doc == 0
