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
(``entry_score_bound`` and ``fetch_docs``), so one searcher serves both.

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

**Leaf expansion.**  A leaf's keyword sets are fetched with one
``fetch_docs`` call, which charges exactly what one ``fetch_doc`` per
entry would (one real fetch per packed doc page, the rest buffer hits)
in O(1) per page.  When ``REPRO_VECTORIZE`` is on (the default) and
the leaf carries a packed columnar block, the whole leaf is scored in
one batched kernel call (:mod:`repro.core.vectorized`), bit-identical
to the scalar loop; any leaf without a healthy packed block silently
falls back to the scalar loop.  Both paths fetch the same docs, so I/O
counters and injected-fault schedules replay identically.  Only the
objects the search can still pop are pushed: ``rank_of_missing``
drops those scoring at most its threshold, ``top_k`` all but the
leaf's best ``k - len(results)``.  The pop sequence is unchanged.
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
            self._expand(heap, node_id, query, doc, keep=limit - len(results))
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
            self._expand(heap, node_id, query, doc, floor=threshold)
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
        *,
        floor: Optional[float] = None,
        keep: Optional[int] = None,
    ) -> None:
        """Push a node's children, or the leaf objects that can pop.

        ``rank_of_missing`` stops once the heap top scores at most its
        threshold, so it passes that ``floor`` and only objects scoring
        strictly above it are pushed.  ``top_k`` needs ``keep`` more
        results, and any object of this leaf behind its ``keep`` best by
        ``(-score, oid)`` pops only after those, once the answer is
        full.  Objects that can never pop change no pop, so the pop
        sequence (and every node fetch and page read) is unchanged.
        """
        node = self.tree.fetch_node(node_id)
        if not node.is_leaf:
            for entry in node.child_entries:
                bound = self.tree.entry_score_bound(
                    entry, query, keywords, self.model
                )
                self._push_node(heap, entry.child_id, bound)
            return
        oids, scores = self._leaf_scores(node, query, keywords)
        if floor is None:
            rows = [(-score, oid) for score, oid in zip(scores, oids)]
        else:
            rows = [(-score, oid) for score, oid in zip(scores, oids) if score > floor]
        if keep is not None and keep < len(rows):
            rows = heapq.nsmallest(keep, rows)
        counter = self._counter
        for neg_score, oid in rows:
            heapq.heappush(heap, (neg_score, _OBJECT_KIND, oid, next(counter), None))

    def _leaf_scores(
        self,
        node: Any,
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
    ) -> Tuple[Sequence[int], Sequence[float]]:
        """Ids and exact scores of a leaf's objects, in entry order.

        The leaf's keyword sets are fetched with one accounted
        :meth:`~repro.index.rtree.RTreeBase.fetch_docs` call on either
        path, so I/O counters and injected-fault replay do not depend on
        the path.  With vectorization on and a healthy packed block the
        whole leaf is scored in one batched kernel call (the block is
        read for free via ``peek``); otherwise the scalar loop scores
        the fetched documents.
        """
        entries = node.object_entries
        packed = self.tree.packed_leaf(node) if self.vectorize and entries else None
        if packed is not None and len(packed) != len(entries):
            packed = None
        docs = self.tree.fetch_docs(entries)
        if packed is None:
            return [entry.oid for entry in entries], [
                self._object_score(entry.loc, doc, query, keywords)
                for entry, doc in zip(entries, docs)
            ]
        from ..core.vectorized import leaf_scores  # lazy: import cycle

        query_mask = self.tree.vocab.encode(keywords)
        return packed.oids.tolist(), leaf_scores(
            packed,
            query.loc,
            query.alpha,
            query_mask,
            len(keywords),
            self.model.name,
            self.tree.dataset,
        )
