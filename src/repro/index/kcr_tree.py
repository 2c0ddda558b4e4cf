"""The KcR-tree (Section V-A).

An R-tree whose non-leaf entries point at a **keyword-count map**
(``kcm``) of the child node: for every keyword appearing anywhere in
the child's subtree, the number of objects in that subtree containing
it.  Each node additionally stores ``cnt``, the subtree cardinality.

The count map supports the bound-and-prune algorithm's
``MaxDom``/``MinDom`` estimation (Algorithm 2, Theorems 2–3) in
:mod:`repro.core.bounds`, and a coarse score upper bound used for the
initial rank determination in Algorithm 4 — an object's keywords in
``S`` all appear in the subtree's ``kcm``, so the similarity model's
node bound over ``kcm ∩ S`` (with an empty intersection) caps it; under
Jaccard that is ``|kcm ∩ S| / |S|``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..errors import IndexStructureError
from ..model.query import SpatialKeywordQuery
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.layout import keyword_count_map_bytes
from .entries import ChildEntry
from .rtree import RTreeBase, TextSummary

__all__ = ["KcRTree"]

KeywordSet = FrozenSet[int]
KcMap = Dict[int, int]


class KcRTree(RTreeBase):
    """R-tree whose nodes carry ``(cnt, keyword-count map)`` payloads."""

    def _summary_payload(self, summary: TextSummary):
        kcm: KcMap = dict(summary.counts)
        return (summary.cnt, kcm), keyword_count_map_bytes(len(kcm))

    def _augment_payload(self, payload, doc):
        cnt, kcm = payload
        new_kcm = dict(kcm)
        for term in doc:
            new_kcm[term] = new_kcm.get(term, 0) + 1
        return (cnt + 1, new_kcm), keyword_count_map_bytes(len(new_kcm))

    def _merge_payloads(self, payloads):
        total = 0
        merged: KcMap = {}
        for cnt, kcm in payloads:
            total += cnt
            for term, count in kcm.items():
                merged[term] = merged.get(term, 0) + count
        return (total, merged), keyword_count_map_bytes(len(merged))

    def fetch_kcm(self, aux_record: int) -> Tuple[int, KcMap]:
        """Load ``(cnt, kcm)`` for a node, I/O-accounted."""
        payload = self.buffer.fetch(aux_record)
        if not (isinstance(payload, tuple) and len(payload) == 2):
            raise IndexStructureError(
                f"record {aux_record} is not a KcR-tree count map"
            )
        return payload

    def entry_score_bound(
        self,
        entry: ChildEntry,
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
        model: SimilarityModel = JACCARD,
    ) -> float:
        """Admissible ``ST`` upper bound for any object under ``entry``.

        Any document below the node lies between the empty set and the
        keywords present in its ``kcm``, so ``model``'s node bound over
        that (union, intersection) pair caps ``TSim``; for Jaccard it
        is ``|kcm-keys ∩ S| / |S|``.
        """
        cnt, kcm = self.fetch_kcm(entry.aux_record)
        min_dist = entry.rect.min_dist(query.loc) / self.dataset.diagonal
        if min_dist > 1.0:
            min_dist = 1.0
        spatial = 1.0 - min_dist
        present = frozenset(t for t in keywords if t in kcm)
        textual = model.node_upper_bound(present, frozenset(), keywords)
        return query.alpha * spatial + (1.0 - query.alpha) * textual
