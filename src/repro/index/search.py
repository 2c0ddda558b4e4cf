"""Best-first spatial keyword search over the hybrid indexes.

Two operations drive every why-not algorithm:

* **top-k retrieval** (Definition 1) — the classic IR-tree style
  best-first search: a max-heap ordered by score for objects and by
  the node score upper bound (Theorem 1 for the SetR-tree, the coarse
  count-map bound for the KcR-tree) for subtrees.  An object popped
  from the heap is guaranteed final because its exact score keys it.

* **rank determination** — "process the query until object m appears"
  (Section IV-B).  The rank of a missing-object set under a candidate
  keyword set is one plus the number of objects scoring strictly above
  the worst missing object (Eqn 3 / Section VI-A).  The search pops
  entries until the best remaining upper bound can no longer beat that
  threshold, optionally aborting early once more than ``stop_limit``
  dominators have been seen — the Opt1 early stop of Section IV-C1.

Both trees expose the same two methods the searcher needs
(``entry_score_bound`` and ``fetch_doc``), so one searcher serves both.

**Heap ordering.**  Heap items are ``(-key, kind, tiebreak, seq, node)``
with ``kind = 0`` for subtree entries and ``1`` for objects.  The
``kind`` level guarantees that a node whose upper bound ties an
object's exact score is expanded *before* that object is emitted — the
node may contain equal-scoring objects with smaller ids, and the oracle
(:meth:`repro.model.scoring.Scorer.top_k`) breaks score ties by
ascending id over the *whole* dataset.  (An oid-based tiebreak alone is
not enough: a sentinel like ``-1`` only sorts nodes first when every
object id is non-negative, which the dataset contract does not
require.)  Object-object ties then break by ascending id, matching the
oracle's stable sort exactly.

**Vectorized leaf expansion.**  When ``REPRO_VECTORIZE`` is on (the
default) and a leaf carries a packed columnar block, the whole leaf is
scored in one batched kernel call (:mod:`repro.core.vectorized`) —
bit-identical to the scalar loop, with the same per-entry accounted doc
fetches so I/O counters and injected-fault schedules replay
identically.  Any leaf without a healthy packed block silently falls
back to the scalar loop.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from ..model.objects import SpatialObject
from ..model.query import SpatialKeywordQuery
from ..model.similarity import JACCARD, SimilarityModel
from .rtree import RTreeBase

__all__ = ["TopKSearcher", "RankResult"]

KeywordSet = FrozenSet[int]


@dataclass(frozen=True)
class RankResult:
    """Outcome of a rank-determination search.

    ``rank`` is ``None`` when the search aborted early (Opt1): more
    than ``stop_limit`` dominators were found, so the candidate keyword
    set cannot beat the current best refined query.  ``dominators``
    always holds the ids of the strictly-better objects discovered
    before the search ended — the Opt3 dominator cache feeds on them.
    """

    rank: Optional[int]
    dominators: Tuple[int, ...]
    aborted: bool


# heap item: (-score_key, kind, tiebreak, seq, node_id or None)
_HeapItem = Tuple[float, int, int, int, Optional[int]]
_NODE_KIND = 0  # sorts before objects at equal score keys
_OBJECT_KIND = 1


class TopKSearcher:
    """Best-first search over a SetR-tree or KcR-tree.

    ``vectorize`` overrides the ``REPRO_VECTORIZE`` environment switch
    for this searcher (``None`` = follow the environment); results are
    bit-identical either way, only the leaf-scoring cost differs.
    """

    def __init__(
        self,
        tree: RTreeBase,
        model: SimilarityModel = JACCARD,
        *,
        vectorize: Optional[bool] = None,
    ) -> None:
        from ..core.vectorized import vectorize_enabled  # lazy: import cycle

        self.tree = tree
        self.model = model
        self.vectorize = vectorize_enabled(vectorize)
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # internal: score an object entry exactly
    # ------------------------------------------------------------------
    def _object_score(
        self,
        loc: Tuple[float, float],
        doc: KeywordSet,
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
    ) -> float:
        dist = self.tree.dataset.normalized_distance(loc, query.loc)
        textual = self.model.similarity(doc, keywords)
        return query.alpha * (1.0 - dist) + (1.0 - query.alpha) * textual

    def score_object(
        self,
        obj: SpatialObject,
        query: SpatialKeywordQuery,
        keywords: Optional[KeywordSet] = None,
    ) -> float:
        """Exact Eqn 1 score of a known object (no index I/O)."""
        doc = query.doc if keywords is None else keywords
        return self._object_score(obj.loc, obj.doc, query, doc)

    # ------------------------------------------------------------------
    # top-k retrieval
    # ------------------------------------------------------------------
    def top_k(
        self,
        query: SpatialKeywordQuery,
        k: Optional[int] = None,
        keywords: Optional[KeywordSet] = None,
    ) -> List[Tuple[float, int]]:
        """The ``k`` best ``(score, oid)`` pairs, best first.

        Ties are broken by object id so results are deterministic and
        comparable with the brute-force oracle.
        """
        limit = query.k if k is None else k
        doc = query.doc if keywords is None else keywords
        heap: List[_HeapItem] = []
        self._push_node(heap, self.tree.root_id, float("inf"))
        results: List[Tuple[float, int]] = []
        while heap and len(results) < limit:
            neg_key, _, tiebreak, _, node_id = heapq.heappop(heap)
            if node_id is None:
                results.append((-neg_key, tiebreak))
                continue
            self._expand(heap, node_id, query, doc)
        return results

    # ------------------------------------------------------------------
    # rank determination
    # ------------------------------------------------------------------
    def rank_of_missing(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        keywords: Optional[KeywordSet] = None,
        stop_limit: Optional[int] = None,
    ) -> RankResult:
        """``R(M, q')`` via best-first search with optional early stop.

        ``stop_limit`` is the largest rank that could still improve on
        the current best refined query (Eqn 6); once the dominator
        count reaches it the search aborts with ``rank=None``.
        """
        doc = query.doc if keywords is None else keywords
        threshold = min(
            self._object_score(m.loc, m.doc, query, doc) for m in missing
        )
        heap: List[_HeapItem] = []
        self._push_node(heap, self.tree.root_id, float("inf"))
        dominators: List[int] = []
        while heap:
            neg_key, _, tiebreak, _, node_id = heap[0]
            if -neg_key <= threshold:
                break  # nothing left can strictly beat the worst missing object
            heapq.heappop(heap)
            if node_id is None:
                # Every popped object scores strictly above the worst
                # missing object, so it dominates — including another
                # missing object (Eqn 3 counts all of D).
                dominators.append(tiebreak)
                if stop_limit is not None and len(dominators) >= stop_limit:
                    return RankResult(
                        rank=None, dominators=tuple(dominators), aborted=True
                    )
                continue
            self._expand(heap, node_id, query, doc)
        return RankResult(
            rank=len(dominators) + 1, dominators=tuple(dominators), aborted=False
        )

    # ------------------------------------------------------------------
    # heap plumbing
    # ------------------------------------------------------------------
    def _push_node(
        self,
        heap: List[_HeapItem],
        node_id: int,
        bound: float,
    ) -> None:
        heapq.heappush(
            heap, (-bound, _NODE_KIND, -1, next(self._counter), node_id)
        )

    def _expand(
        self,
        heap: List[_HeapItem],
        node_id: int,
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
    ) -> None:
        node = self.tree.fetch_node(node_id)
        if node.is_leaf:
            entries = node.object_entries
            scores = self._leaf_scores(node, entries, query, keywords)
            if scores is None:
                for entry in entries:
                    doc = self.tree.fetch_doc(entry.doc_record)
                    score = self._object_score(entry.loc, doc, query, keywords)
                    heapq.heappush(
                        heap,
                        (-score, _OBJECT_KIND, entry.oid,
                         next(self._counter), None),
                    )
            else:
                for entry, score in zip(entries, scores):
                    heapq.heappush(
                        heap,
                        (-score, _OBJECT_KIND, entry.oid,
                         next(self._counter), None),
                    )
        else:
            for entry in node.child_entries:
                bound = self.tree.entry_score_bound(
                    entry, query, keywords, self.model
                )
                self._push_node(heap, entry.child_id, bound)

    def _leaf_scores(
        self,
        node: Any,
        entries: Sequence[Any],
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
    ) -> Optional[List[float]]:
        """Batched leaf scoring; ``None`` requests the scalar fallback.

        The packed block mirrors data whose I/O the scalar loop charges
        per entry, so this path issues the *identical* accounted
        ``fetch_doc`` sequence (same counters, same injected-fault
        replay) and reads the packed block for free via ``peek``.
        """
        if not self.vectorize or not entries:
            return None
        packed = self.tree.packed_leaf(node)
        if packed is None or len(packed) != len(entries):
            return None
        from ..core.vectorized import leaf_scores  # lazy: import cycle

        for entry in entries:
            self.tree.fetch_doc(entry.doc_record)
        query_mask = self.tree.vocab.encode(keywords)
        return leaf_scores(
            packed,
            query.loc,
            query.alpha,
            query_mask,
            len(keywords),
            self.model.name,
            self.tree.dataset,
        )
