"""Index-free exact fallback for quarantined indexes.

When an unrecoverable storage fault (checksum mismatch, lost record)
surfaces mid-query, the engine quarantines the damaged index and routes
queries through :class:`ScanFallback` instead of crashing; a sharded
index serves a down shard's tile through a ``ScanFallback`` over that
tile's dataset.  It is the repo's only index-free evaluator.  The
fallback evaluates queries directly over the authoritative in-memory
dataset — the tree never owns object data, so a broken index loses no
information, only the paper's I/O profile.

Correctness contract: the fallback uses *bit-identical* score
arithmetic to :class:`~repro.index.search.TopKSearcher`
(``α·(1−dist) + (1−α)·similarity``, evaluated in the same operation
order) and the same object-id tie-break, so a degraded top-k result
equals the fault-free index result exactly, and a degraded why-not
answer reaches the same optimal refined query as BS would.  The
``degraded`` flag exists because the *cost* semantics differ (no index
I/O is charged), not because the answers do.
"""

from __future__ import annotations

import time
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MissingObjectError
from ..index.search import RankResult
from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.stats import IOSnapshot
from .candidates import CandidateEnumerator
from .particularity import ParticularityIndex
from .penalty import PenaltyModel
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["ScanFallback"]

KeywordSet = FrozenSet[int]


class ScanFallback:
    """Exact query evaluation by scanning the in-memory dataset.

    When ``REPRO_VECTORIZE`` is on (``vectorize=None`` follows the
    environment) the scan packs the dataset into one columnar block and
    scores it with the shared batched kernels — bit-identical to the
    scalar loop per the :mod:`repro.core.vectorized` parity contract,
    so the degraded-path answers are unchanged either way.
    """

    name = "degraded-scan"

    def __init__(
        self,
        dataset: Dataset,
        model: SimilarityModel = JACCARD,
        *,
        vectorize: Optional[bool] = None,
    ) -> None:
        from .vectorized import vectorize_enabled

        self.dataset = dataset
        self.model = model
        self.vectorize = vectorize_enabled(vectorize)

    # ------------------------------------------------------------------
    # scoring (mirrors TopKSearcher._object_score exactly)
    # ------------------------------------------------------------------
    def score(
        self,
        obj: SpatialObject,
        query: SpatialKeywordQuery,
        keywords: Optional[KeywordSet] = None,
    ) -> float:
        """Exact Eqn 1 score — same arithmetic as the index searcher."""
        doc = query.doc if keywords is None else keywords
        dist = self.dataset.normalized_distance(obj.loc, query.loc)
        textual = self.model.similarity(obj.doc, doc)
        return query.alpha * (1.0 - dist) + (1.0 - query.alpha) * textual

    # ------------------------------------------------------------------
    # vectorized scan substrate
    # ------------------------------------------------------------------
    def _table(self) -> Optional[Tuple[Any, Any]]:
        """A ``(vocab, packed)`` columnar snapshot of the dataset.

        ``None`` when vectorization is off or the dataset is empty;
        callers fall back to the scalar scan.  Built fresh per public
        call (and once per :meth:`answer` sweep) so dataset mutations
        between calls are always reflected.
        """
        if not self.vectorize or not len(self.dataset):
            return None
        from .vectorized import PackedLeaf, VocabularyIndex

        vocab = VocabularyIndex.from_dataset(self.dataset)
        return vocab, PackedLeaf.of_dataset(self.dataset, vocab)

    def _scores(
        self,
        table: Optional[Tuple[Any, Any]],
        query: SpatialKeywordQuery,
        keywords: KeywordSet,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every object's Eqn 1 score and oid, in dataset order.

        Batched over ``table`` when there is one, else the scalar loop;
        the two agree bit for bit.
        """
        if table is not None:
            from .vectorized import leaf_scores

            vocab, packed = table
            scores = leaf_scores(
                packed,
                query.loc,
                query.alpha,
                vocab.encode(keywords),
                len(keywords),
                self.model.name,
                self.dataset,
            )
            return np.array(scores, dtype=np.float64), packed.oids
        objects = self.dataset.objects
        scores = [self.score(obj, query, keywords) for obj in objects]
        oids = [obj.oid for obj in objects]
        return np.array(scores, dtype=np.float64), np.array(oids, dtype=np.int64)

    def _dominating(
        self,
        table: Optional[Tuple[Any, Any]],
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        keywords: KeywordSet,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scores and oids of the objects strictly above the worst
        missing object (Eqn 3's dominators), in dataset order."""
        threshold = min(self.score(m, query, keywords) for m in missing)
        scores, oids = self._scores(table, query, keywords)
        above = scores > threshold
        return scores[above], oids[above]

    # ------------------------------------------------------------------
    # query evaluation (the TopKSearcher contract)
    # ------------------------------------------------------------------
    def top_k(
        self,
        query: SpatialKeywordQuery,
        k: Optional[int] = None,
        keywords: Optional[KeywordSet] = None,
    ) -> List[Tuple[float, int]]:
        """The ``k`` best ``(score, oid)`` pairs, best first.

        Ties break by object id, matching
        :meth:`repro.index.search.TopKSearcher.top_k`.
        """
        limit = query.k if k is None else k
        doc = query.doc if keywords is None else keywords
        scores, oids = self._scores(self._table(), query, doc)
        # lexsort keys ascend, last key is primary: score desc, oid asc
        order = np.lexsort((oids, -scores))[:limit]
        return list(zip(scores[order].tolist(), oids[order].tolist()))

    def rank_of_missing(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        keywords: Optional[KeywordSet] = None,
        stop_limit: Optional[int] = None,
    ) -> RankResult:
        """``R(M, q')`` with the :meth:`TopKSearcher.rank_of_missing`
        result: dominators in score-descending, oid-ascending order,
        capped at ``max(stop_limit, 1)`` when the search aborts."""
        doc = query.doc if keywords is None else keywords
        scores, oids = self._dominating(self._table(), query, missing, doc)
        order = np.lexsort((oids, -scores))
        dominators = tuple(oids[order].tolist())
        cap = None if stop_limit is None else max(stop_limit, 1)
        if cap is not None and len(dominators) >= cap:
            return RankResult(rank=None, dominators=dominators[:cap], aborted=True)
        return RankResult(
            rank=len(dominators) + 1, dominators=dominators, aborted=False
        )

    def dominator_counts(
        self,
        query: SpatialKeywordQuery,
        batch: Sequence[Tuple[KeywordSet, Sequence[float]]],
    ) -> List[List[int]]:
        """For each ``(keywords, thresholds)`` pair, how many objects
        score strictly above each threshold — one packed table for the
        whole batch."""
        table = self._table()
        counts: List[List[int]] = []
        for keywords, thresholds in batch:
            scores, _ = self._scores(table, query, keywords)
            counts.append(
                [int(np.count_nonzero(scores > bar)) for bar in thresholds]
            )
        return counts

    # ------------------------------------------------------------------
    # why-not answering (BS semantics over the scan)
    # ------------------------------------------------------------------
    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Answer a why-not question with the BS candidate sweep.

        Same prologue, candidate enumeration order, and penalty model
        as :class:`~repro.core.basic.BasicAlgorithm`, so the optimal
        refined query is identical to the fault-free one; only the cost
        profile differs (no index I/O is charged).
        """
        started = time.perf_counter()
        query = question.query
        missing = tuple(self.dataset.get(oid) for oid in question.missing)
        table = self._table()  # one packed snapshot for the whole sweep
        initial_rank = 1 + len(self._dominating(table, query, missing, query.doc)[1])
        if initial_rank <= query.k:
            raise MissingObjectError(
                f"missing objects already rank {initial_rank} <= k={query.k} "
                "under the initial query; nothing to explain"
            )
        missing_doc = frozenset().union(*(m.doc for m in missing))
        particularity = ParticularityIndex(self.dataset, missing)
        enumerator = CandidateEnumerator(
            query.doc, missing_doc, particularity=particularity
        )
        penalty_model = PenaltyModel(
            k0=query.k,
            initial_rank=initial_rank,
            doc_universe_size=len(query.doc | missing_doc),
            lam=question.lam,
        )
        counters = SearchCounters()
        best = RefinedQuery(
            keywords=query.doc,
            k=initial_rank,
            delta_doc=0,
            rank=initial_rank,
            penalty=penalty_model.basic_penalty,
        )
        for candidate in enumerator.iter_naive():
            counters.candidates_enumerated += 1
            counters.candidates_evaluated += 1
            rank = 1 + len(
                self._dominating(table, query, missing, candidate.keywords)[1]
            )
            penalty = penalty_model.penalty(candidate.delta_doc, rank)
            if penalty < best.penalty:
                best = RefinedQuery(
                    keywords=candidate.keywords,
                    k=penalty_model.refined_k(rank),
                    delta_doc=candidate.delta_doc,
                    rank=rank,
                    penalty=penalty,
                )
        return WhyNotAnswer(
            refined=best,
            initial_rank=initial_rank,
            algorithm=self.name,
            elapsed_seconds=time.perf_counter() - started,
            io=IOSnapshot(0, 0, 0, 0),
            counters=counters,
            degraded=True,
        )
