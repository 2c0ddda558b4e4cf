"""Answer checks against the brute-force oracle (outside the timed phase).

* top-k: the ids must equal the oracle's top-k (ties by id) and every
  score must equal the oracle's score of that object;
* why-not: the initial rank must equal ``Oracle.rank_of_set`` under the
  question's query, and the refined rank must equal it re-derived
  under the refined keywords;
* ``advanced`` and ``kcr`` answers to one question must carry the same
  penalty (compared per question by ``workloads.check_ops``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.model.objects import Dataset
from repro.model.oracle import Oracle
from repro.model.query import SpatialKeywordQuery, WhyNotQuestion


class Checker:
    """An oracle over one dataset state."""

    def __init__(self, dataset: Dataset) -> None:
        self.oracle = Oracle(dataset)
        self.rows: Dict[int, int] = {o.oid: i for i, o in enumerate(dataset.objects)}

    def top_k(self, query: SpatialKeywordQuery,
              results: Sequence[Tuple[float, int]]) -> Optional[str]:
        expected = self.oracle.top_k_ids(query)
        got = [oid for _, oid in results]
        if got != expected:
            return f"top-k ids {got} != oracle {expected}"
        scores = self.oracle.scores(query)
        for score, oid in results:
            if score != float(scores[self.rows[oid]]):
                return f"score of {oid}: {score!r} != oracle {float(scores[self.rows[oid]])!r}"
        return None

    def why_not(self, question: WhyNotQuestion, answer) -> Optional[str]:
        initial = self.oracle.rank_of_set(question.missing, question.query)
        if answer.initial_rank != initial:
            return f"initial rank {answer.initial_rank} != oracle {initial}"
        refined = answer.refined
        rank = self.oracle.rank_of_set(question.missing, question.query,
                                       keywords=refined.keywords)
        if refined.rank != rank:
            return f"refined rank {refined.rank} != oracle {rank}"
        if refined.k < rank:
            return f"refined k {refined.k} < rank {rank}"
        return None

