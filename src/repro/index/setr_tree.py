"""The SetR-tree (Section IV-B).

A variant of the IR-tree: each non-leaf entry points at the union and
the intersection of the keyword sets of all objects in the child's
subtree.  Theorem 1 turns the pair into an upper bound on the ranking
score of any object below the node:

``ST(o, q) <= α·(1 − MinDist(q.loc, N.mbr)) + (1 − α)·|N∪ ∩ q.doc| / |N∩ ∪ q.doc|``

The union and intersection ship as one pager record ("stored
sequentially on disk to reduce the number of disk seeks"), so reading a
node's textual summary costs the record's page span once.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from ..errors import IndexStructureError
from ..model.query import SpatialKeywordQuery
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.layout import set_pair_bytes
from .entries import ChildEntry
from .rtree import RTreeBase, TextSummary

__all__ = ["SetRTree"]

KeywordSet = FrozenSet[int]


class SetRTree(RTreeBase):
    """R-tree whose nodes carry (union, intersection) keyword sets."""

    def _summary_payload(self, summary: TextSummary):
        union = summary.union
        intersection = summary.intersection
        return (union, intersection), set_pair_bytes(
            len(union), len(intersection)
        )

    def _augment_payload(self, payload, doc):
        union, intersection = payload
        new_union = union | doc
        new_intersection = intersection & doc
        return (new_union, new_intersection), set_pair_bytes(
            len(new_union), len(new_intersection)
        )

    def _merge_payloads(self, payloads):
        union = frozenset().union(*(p[0] for p in payloads))
        intersection = frozenset.intersection(*(p[1] for p in payloads))
        return (union, intersection), set_pair_bytes(
            len(union), len(intersection)
        )

    def fetch_set_pair(self, aux_record: int) -> Tuple[KeywordSet, KeywordSet]:
        """Load a node's (union, intersection) pair, I/O-accounted."""
        payload = self.buffer.fetch(aux_record)
        if not (isinstance(payload, tuple) and len(payload) == 2):
            raise IndexStructureError(
                f"record {aux_record} is not a SetR-tree set pair"
            )
        return payload

    def entry_score_bound(
        self,
        entry: ChildEntry,
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
        model: SimilarityModel = JACCARD,
    ) -> float:
        """Theorem 1 upper bound on ``ST`` for any object under ``entry``.

        ``keywords`` overrides the query's own keyword set so why-not
        candidate sets can be bounded against the same index without
        materialising query objects.  ``model`` is the searcher's
        similarity model; its node bound is admissible for it alone.
        """
        union, intersection = self.fetch_set_pair(entry.aux_record)
        min_dist = entry.rect.min_dist(query.loc) / self.dataset.diagonal
        if min_dist > 1.0:
            min_dist = 1.0
        spatial = 1.0 - min_dist
        textual = model.node_upper_bound(union, intersection, keywords)
        return query.alpha * spatial + (1.0 - query.alpha) * textual
