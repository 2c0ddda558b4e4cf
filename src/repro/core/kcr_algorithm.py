"""The KcR-tree bound-and-prune algorithm (**KcRBased**, Section V).

Algorithm 3 evaluates a whole batch of candidate keyword sets in a
single traversal of the KcR-tree.  For every candidate ``S`` it
maintains, per missing object, lower and upper bounds on the number of
dominators (from :mod:`repro.core.bounds`); unfolding a node replaces
that node's contribution with the sum of its children's, monotonically
tightening both rank bounds and therefore both penalty bounds.  A
candidate whose penalty lower bound exceeds the incumbent penalty is
pruned; a candidate whose penalty upper bound improves on the
incumbent becomes the new incumbent.  Children that can no longer
tighten any alive candidate are not enqueued, and the traversal ends
when the queue or the candidate set empties — at which point all
surviving bounds are exact (leaf children are objects with known
documents).

Algorithm 3 is split in two halves.  A :class:`KcRWalker` lives where
one tree lives and expands one node per :meth:`~KcRWalker.step`,
reporting contribution deltas; the round driver
(:meth:`KcRAlgorithm._bound_and_prune`) owns the candidates' global
bounds, applies every walker's deltas and runs one incumbent/prune
sweep per round.  The single tree is the one-walker case, stepped
in-process; a sharded index runs one walker per shard
(:mod:`repro.core.kcr_sharded`).

Algorithm 4 drives Algorithm 3 strategically: candidates are batched
by edit distance, batches are visited in ascending distance, and the
whole process stops as soon as the next batch's keyword penalty alone
cannot beat the incumbent — the same early-termination licence the
enumeration order gives AdvancedBS.
"""

from __future__ import annotations

import time
from collections import deque
from functools import cached_property
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ensure_not_none
from ..index.kcr_tree import KcRTree
from ..model.objects import SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from .bounds import DomBatch, NodeTextStats, keyword_incidence, max_dom, min_dom
from .candidates import Candidate
from .context import QuestionContext
from .penalty import PenaltyModel
from .result import RefinedQuery, SearchCounters, WhyNotAnswer
from .vectorized import PackedLeaf, batch_distances, batch_membership, vectorize_enabled

__all__ = ["KcRAlgorithm", "KcRWalker", "sweep_candidates"]

#: Per-candidate contribution (or delta): ``{s_index: (dmax, dmin)}``
#: with one integer per missing object in each list.
Contribution = Dict[int, Tuple[List[int], List[int]]]

#: One walker's reply to a round: ``(walker key, deltas, has_more)``;
#: ``deltas`` is ``None`` when the step expanded no node.
Reply = Tuple[Any, Optional[Contribution], bool]

#: Most (child, candidate, missing object) elements one batched
#: MaxDom/MinDom call holds; a branch's children are sliced to fit, so
#: the kernel's temporaries stay bounded whatever the children's size.
_SLICE_ELEMENTS = 4096


class _CandidateState:
    """Bound-tracking state for one candidate inside Algorithm 3."""

    __slots__ = (
        "candidate",
        "m_tsim",
        "m_score",
        "dmax",
        "dmin",
        "alive",
    )

    def __init__(self, candidate: Candidate, n_missing: int) -> None:
        self.candidate = candidate
        self.m_tsim: List[float] = [0.0] * n_missing  # TSim(m_i, S)
        self.m_score: List[float] = [0.0] * n_missing  # ST(m_i, q_S)
        self.dmax: List[int] = [0] * n_missing  # running Σ MaxDom
        self.dmin: List[int] = [0] * n_missing  # running Σ MinDom
        self.alive = True

    def rank_upper(self) -> int:
        """Upper bound on ``R(M, q_S)`` = max over missing objects."""
        return max(self.dmax) + 1

    def rank_lower(self) -> int:
        """Lower bound on ``R(M, q_S)``.

        The paper aggregates MinDom with a ``min`` over the missing
        objects; since ``R(M, ·)`` is a max of per-object ranks, the
        max of per-object lower bounds is also valid and tighter, so we
        use it (noted in DESIGN.md).
        """
        return max(self.dmin) + 1


def scored_states(
    model: SimilarityModel,
    query: SpatialKeywordQuery,
    missing: Sequence[SpatialObject],
    batch: Sequence[Candidate],
    m_sdist: Sequence[float],
) -> List[_CandidateState]:
    """Candidate states carrying ``TSim(m_i, S)`` and ``ST(m_i, q_S)``."""
    alpha = query.alpha
    beta = 1.0 - alpha
    m_spatial = [alpha * (1.0 - d) for d in m_sdist]
    states = [_CandidateState(c, len(missing)) for c in batch]
    for state in states:
        for i, m in enumerate(missing):
            tsim = model.similarity(m.doc, state.candidate.keywords)
            state.m_tsim[i] = tsim
            state.m_score[i] = m_spatial[i] + beta * tsim
    return states


def apply_deltas(states: Sequence[_CandidateState], deltas: Contribution) -> None:
    """Add one walker's contribution deltas to the global bounds."""
    for s_index, (delta_max, delta_min) in deltas.items():
        state = states[s_index]
        for i in range(len(delta_max)):
            state.dmax[i] += delta_max[i]
            state.dmin[i] += delta_min[i]


class KcRAlgorithm:
    """KcRBased: Algorithms 3 + 4 over the KcR-tree."""

    name = "KcRBased"

    def __init__(
        self,
        tree: KcRTree,
        model: SimilarityModel = JACCARD,
        *,
        vectorize: Optional[bool] = None,
    ) -> None:
        if model.name != "jaccard":
            raise ValueError(
                "the KcR-tree bounds (Theorems 2-3) are Jaccard-specific; "
                f"got model {model.name!r}"
            )
        self.tree = tree
        self.model = model
        self.vectorize = vectorize_enabled(vectorize)

    @cached_property
    def walker(self) -> "KcRWalker":
        """The single tree's walker, reused by every batch (and so its
        NodeTextStats memo lives as long as this algorithm)."""
        return KcRWalker(self.tree, self.vectorize)

    # ------------------------------------------------------------------
    # Algorithm 4: the strategic driver
    # ------------------------------------------------------------------
    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Return the best refined query for ``question``."""
        started = time.perf_counter()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        penalty_model = context.penalty_model

        best = context.basic_refined()
        for distance in range(1, context.enumerator.edit_universe + 1):
            if penalty_model.keyword_penalty(distance) >= best.penalty:
                break
            batch = context.enumerator.at_distance(distance)
            counters.candidates_enumerated += len(batch)
            if batch:
                best = self._bound_and_prune(context, batch, best, counters)

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=time.perf_counter() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Algorithm 3: the round driver over one batch
    # ------------------------------------------------------------------
    def _bound_and_prune(
        self,
        context: QuestionContext,
        batch: Sequence[Candidate],
        best: RefinedQuery,
        counters: SearchCounters,
    ) -> RefinedQuery:
        """Evaluate ``batch`` in one traversal per walker (Algorithm 3).

        Each round steps every walker that has work left, applies the
        deltas they report and runs one incumbent/prune sweep; the
        walkers see the sweep's alive flags on their next step.
        """
        states = [_CandidateState(c, len(context.missing)) for c in batch]
        counters.candidates_evaluated += len(states)
        replies = self._start(context, batch, states)
        best_owner: Optional[_CandidateState] = None
        while True:
            pending = []
            for key, deltas, more in replies:
                if deltas is not None:
                    apply_deltas(states, deltas)
                if more:
                    pending.append(key)
            best, best_owner = sweep_candidates(
                states, context.penalty_model, best, best_owner, counters
            )
            if not pending or not any(state.alive for state in states):
                return best
            alive = tuple(state.alive for state in states)
            replies = self._step(pending, alive)
            counters.nodes_expanded += sum(
                1 for _, deltas, _ in replies if deltas is not None
            )

    # ------------------------------------------------------------------
    # round transport: one in-process walker over the single tree
    # ------------------------------------------------------------------
    def _start(
        self,
        context: QuestionContext,
        batch: Sequence[Candidate],
        states: Sequence[_CandidateState],
    ) -> List[Reply]:
        """Open every walker on ``batch``; replies carry root bounds."""
        walker = self.walker
        deltas = walker.start(self.model, context.query, context.missing, batch)
        return [(walker, deltas, walker.has_more())]

    def _step(self, pending: Sequence[Any], alive: Sequence[bool]) -> List[Reply]:
        """Step every ``pending`` walker once under the ``alive`` flags."""
        walker = self.walker
        return [(walker, walker.step(alive), walker.has_more())]


class KcRWalker:
    """One KcR-tree's half of Algorithm 3, advanced one node per step.

    Lives where its tree lives — in-process for the single tree, inside
    the shard's worker for a sharded index — so per-node I/O and
    arithmetic are the same either way.  The round driver owns the
    *global* candidate bounds; the walker only reports contribution
    deltas and honours the ``alive`` flags it is handed.

    Children of an expanded branch are enqueued at the start of the
    *next* step, under the flags of the sweep that followed the
    expansion — the single-tree rule (Algorithm 3 lines 29-30).
    :meth:`has_more` is judged on the pre-sweep flags, so it may promise
    a step that ends up expanding nothing (``step`` returns ``None``).
    """

    def __init__(self, tree: KcRTree, vectorize: Optional[bool] = None) -> None:
        self.tree = tree
        self.vectorize = vectorize_enabled(vectorize)
        # NodeTextStats is O(|kcm| log |kcm|) to build; cache per aux
        # record for the lifetime of the walker.  Purely an in-memory
        # artefact: the underlying kcm fetch that feeds it is still
        # I/O-accounted on every traversal.
        self._stats_cache: Dict[int, NodeTextStats] = {}
        self.states: List[_CandidateState] = []
        self.queue: Deque[Tuple[int, Contribution]] = deque()
        self._children: List[Tuple[Any, Contribution]] = []

    def start(
        self,
        model: SimilarityModel,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        batch: Sequence[Candidate],
    ) -> Contribution:
        """Begin ``batch``: the root-level bounds (Algorithm 3 lines
        2-6) as deltas against all-zero."""
        tree = self.tree
        self.query = query
        self.alpha = query.alpha
        self.beta = 1.0 - query.alpha
        self.m_sdist = [
            tree.dataset.normalized_distance(m.loc, query.loc) for m in missing
        ]
        self.states = scored_states(model, query, missing, batch, self.m_sdist)
        if self.vectorize:
            self.universe, self.incidence = keyword_incidence(
                [state.candidate.keywords for state in self.states]
            )
            self.m_tsim = np.array([state.m_tsim for state in self.states])
            self.m_score = np.array([state.m_score for state in self.states])
        root_stats = self._node_stats(tree.root_summary_record)
        root_rect = ensure_not_none(tree.root_rect, "tree has no root MBR")
        root_geo = self._geo_offsets(root_rect, query.loc, self.alpha, self.m_sdist)
        root: Contribution = {
            s_index: self._node_bounds(root_stats, *root_geo, state)
            for s_index, state in enumerate(self.states)
        }
        self.queue = deque([(tree.root_id, root)])
        self._children = []
        return root

    def has_more(self) -> bool:
        return bool(self.queue) or bool(self._children)

    def step(self, alive: Sequence[bool]) -> Optional[Contribution]:
        """Expand one node; return the contribution deltas it caused.

        The node's contribution is replaced with its children's sums
        (Algorithm 3 lines 18-19), per alive candidate.
        """
        for state, flag in zip(self.states, alive):
            state.alive = flag
        for entry, per_candidate in self._children:
            if self._useful(per_candidate):
                self.queue.append((entry.child_id, per_candidate))
        self._children = []
        if not self.queue:
            return None
        node_id, node_contrib = self.queue.popleft()
        node = self.tree.fetch_node(node_id)
        if node.is_leaf:
            child_sums = self._leaf_exact_sums(node)
        else:
            child_sums, child_infos = self._branch_child_bounds(node)
            # Pre-filter on this step's flags: the sweep only kills.
            self._children = [
                (entry, per_candidate)
                for entry, per_candidate in child_infos
                if self._useful(per_candidate)
            ]

        n_missing = len(self.m_sdist)
        deltas: Contribution = {}
        for s_index, state in enumerate(self.states):
            if not state.alive:
                continue
            old_max, old_min = node_contrib[s_index]
            new_max, new_min = child_sums[s_index]
            deltas[s_index] = (
                [new_max[i] - old_max[i] for i in range(n_missing)],
                [new_min[i] - old_min[i] for i in range(n_missing)],
            )
        return deltas

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _useful(self, per_candidate: Contribution) -> bool:
        """Lines 29-30: a child is worth expanding while its bounds
        are not yet exact for some alive candidate."""
        return any(
            state.alive and per_candidate[s_index][0] != per_candidate[s_index][1]
            for s_index, state in enumerate(self.states)
        )

    def _node_stats(self, aux_record: int) -> NodeTextStats:
        stats = self._stats_cache.get(aux_record)
        if stats is None:
            cnt, kcm = self.tree.fetch_kcm(aux_record)
            stats = NodeTextStats(cnt, kcm)
            self._stats_cache[aux_record] = stats
        else:
            # Still charge the fetch so I/O accounting matches a real
            # traversal; the buffer pool decides hit or miss.
            self.tree.fetch_kcm(aux_record)
        return stats

    def _geo_offsets(
        self, rect, query_loc, alpha: float, m_sdist: Sequence[float]
    ) -> Tuple[List[float], List[float]]:
        """Geometric halves of the Theorem-2 thresholds for one node.

        ``L_i = geo_lower[i] + TSim(m_i, S)`` and likewise for ``U_i``;
        computing the rectangle distances once per node (instead of
        once per node × candidate × missing object) is the dominant
        saving for large candidate batches.
        """
        diagonal = self.tree.dataset.diagonal
        min_d = min(1.0, rect.min_dist(query_loc) / diagonal)
        max_d = min(1.0, rect.max_dist(query_loc) / diagonal)
        ratio = alpha / (1.0 - alpha)
        geo_lower = [ratio * (min_d - sdist) for sdist in m_sdist]
        geo_upper = [ratio * (max_d - sdist) for sdist in m_sdist]
        return geo_lower, geo_upper

    def _node_bounds(
        self,
        stats: NodeTextStats,
        geo_lower: Sequence[float],
        geo_upper: Sequence[float],
        state: _CandidateState,
    ) -> Tuple[List[int], List[int]]:
        """(MaxDom, MinDom) per missing object for one node/candidate.

        Results are memoised per distinct threshold within the call:
        missing objects frequently share ``TSim(m_i, S)`` and therefore
        thresholds, and MinDom is skipped outright when MaxDom is
        already zero (``0 <= dmin <= dmax``).
        """
        keywords = state.candidate.keywords
        dmax: List[int] = []
        dmin: List[int] = []
        max_cache: Dict[float, int] = {}
        min_cache: Dict[float, int] = {}
        for i in range(len(geo_lower)):
            lower = geo_lower[i] + state.m_tsim[i]
            upper = geo_upper[i] + state.m_tsim[i]
            d_hi = max_cache.get(lower)
            if d_hi is None:
                d_hi = max_dom(stats, keywords, lower)
                max_cache[lower] = d_hi
            if d_hi == 0:
                d_lo = 0
            else:
                d_lo = min_cache.get(upper)
                if d_lo is None:
                    d_lo = min_dom(stats, keywords, upper)
                    min_cache[upper] = d_lo
            dmax.append(d_hi)
            dmin.append(d_lo)
        return dmax, dmin

    def _branch_child_bounds(
        self, node
    ) -> Tuple[Contribution, List[Tuple[Any, Contribution]]]:
        """Bounds for every child of a branch node, per candidate.

        Returns ``(child_sums, child_infos)`` where ``child_sums`` maps
        candidate index to summed (dmax, dmin) vectors and
        ``child_infos`` pairs each child entry with its per-candidate
        bounds for contribution bookkeeping.  Vectorized, every alive
        candidate is bounded against the children by :class:`DomBatch`
        in slices of at most ``_SLICE_ELEMENTS`` elements; the scalar
        per-candidate loop is the parity reference.
        """
        if self.vectorize:
            return self._branch_child_bounds_batched(node)
        states = self.states
        n_missing = len(self.m_sdist)
        child_infos = []
        child_sums: Contribution = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(states))
        }
        for entry in node.child_entries:
            stats = self._node_stats(entry.aux_record)
            geo_lower, geo_upper = self._geo_offsets(
                entry.rect, self.query.loc, self.alpha, self.m_sdist
            )
            per_candidate: Contribution = {}
            for s_index, state in enumerate(states):
                if not state.alive:
                    per_candidate[s_index] = (
                        [0] * n_missing,
                        [0] * n_missing,
                    )
                    continue
                dmax, dmin = self._node_bounds(stats, geo_lower, geo_upper, state)
                per_candidate[s_index] = (dmax, dmin)
                sums = child_sums[s_index]
                for i in range(n_missing):
                    sums[0][i] += dmax[i]
                    sums[1][i] += dmin[i]
            child_infos.append((entry, per_candidate))
        return child_sums, child_infos

    def _branch_child_bounds_batched(
        self, node
    ) -> Tuple[Contribution, List[Tuple[Any, Contribution]]]:
        """:meth:`_branch_child_bounds` through :class:`DomBatch`.

        The children's count maps are fetched in entry order first, so
        the accounted I/O sequence is the scalar loop's.
        """
        entries = node.child_entries
        stats = [self._node_stats(entry.aux_record) for entry in entries]
        n_missing = len(self.m_sdist)
        geo = [
            self._geo_offsets(entry.rect, self.query.loc, self.alpha, self.m_sdist)
            for entry in entries
        ]
        shape = (len(entries), n_missing)
        geo_lower = np.array([lower for lower, _ in geo]).reshape(shape)
        geo_upper = np.array([upper for _, upper in geo]).reshape(shape)
        alive = [s_index for s_index, state in enumerate(self.states) if state.alive]
        incidence = self.incidence[alive]
        m_tsim = self.m_tsim[alive][np.newaxis, :, :]
        dmax = np.zeros((len(entries), len(alive), n_missing), dtype=np.int64)
        dmin = np.zeros_like(dmax)
        step = max(1, _SLICE_ELEMENTS // max(1, len(alive) * n_missing))
        for first in range(0, len(entries), step):
            part = slice(first, first + step)
            kernel = DomBatch(stats[part], self.universe, incidence, n_missing)
            dmax[part] = kernel.max_dom(geo_lower[part, np.newaxis, :] + m_tsim)
            dmin[part] = kernel.min_dom(
                geo_upper[part, np.newaxis, :] + m_tsim, only=dmax[part] != 0
            )

        zeros = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(self.states))
        }
        child_sums: Contribution = dict(zeros)
        child_sums.update(
            zip(alive, zip(dmax.sum(axis=0).tolist(), dmin.sum(axis=0).tolist()))
        )
        max_rows = dmax.tolist()
        min_rows = dmin.tolist()
        child_infos = []
        for child, entry in enumerate(entries):
            per_candidate: Contribution = dict(zeros)
            per_candidate.update(zip(alive, zip(max_rows[child], min_rows[child])))
            child_infos.append((entry, per_candidate))
        return child_sums, child_infos

    def _leaf_exact_sums(self, node) -> Contribution:
        """Exact dominator counts for the objects of a leaf node.

        Vectorised over the leaf's objects with a term-incidence
        matrix: one boolean column per keyword occurring in the leaf,
        so each candidate's Jaccard similarities for the whole leaf
        reduce to a column-slice sum.  When the leaf carries a healthy
        packed columnar block (:mod:`repro.core.vectorized`) and
        vectorization is on, :meth:`_leaf_sums_packed` scores the leaf
        against every alive candidate at once instead.  Either way the
        leaf's docs come from one
        :meth:`~repro.index.rtree.RTreeBase.fetch_docs` call, charged
        as one accounted fetch per object; only the arithmetic is
        batched.
        """
        tree = self.tree
        states = self.states
        alpha = self.alpha
        beta = self.beta
        n_missing = len(self.m_sdist)
        entries = node.object_entries
        docs = tree.fetch_docs(entries)
        doc_lengths = np.array([len(doc) for doc in docs], dtype=np.float64)
        packed = tree.packed_leaf(node) if self.vectorize else None
        if packed is not None and len(packed) == len(entries):
            return self._leaf_sums_packed(packed, doc_lengths)
        term_index: Dict[int, int] = {}
        for doc in docs:
            for term in doc:
                if term not in term_index:
                    term_index[term] = len(term_index)
        incidence = np.zeros(
            (len(entries), max(1, len(term_index))), dtype=np.float64
        )
        for row, doc in enumerate(docs):
            for term in doc:
                incidence[row, term_index[term]] = 1.0
        spatial = np.array(
            [
                alpha * (1.0 - tree.dataset.normalized_distance(e.loc, self.query.loc))
                for e in entries
            ],
            dtype=np.float64,
        )

        sums: Contribution = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(states))
        }
        for s_index, state in enumerate(states):
            if not state.alive:
                continue
            keywords = state.candidate.keywords
            columns = [term_index[t] for t in keywords if t in term_index]
            if columns:
                inter = incidence[:, columns].sum(axis=1)
            else:
                inter = np.zeros(len(entries))
            union = doc_lengths + float(len(keywords)) - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                tsim = np.where(union > 0.0, inter / union, 0.0)
            scores = spatial + beta * tsim
            dmax, dmin = sums[s_index]
            for i in range(n_missing):
                count = int(np.count_nonzero(scores > state.m_score[i]))
                dmax[i] += count
                dmin[i] += count
        return sums

    def _leaf_sums_packed(
        self, packed: PackedLeaf, doc_lengths: np.ndarray
    ) -> Contribution:
        """:meth:`_leaf_exact_sums` for every alive candidate at once.

        Intersections are the leaf's (objects × universe) membership
        bits times the candidates' incidence — exact small integers in
        float64, as are the scalar column sums — and each score column
        is compared against the candidate's ``m_score`` row in one
        broadcast, so every count equals the scalar loop's.
        """
        tree = self.tree
        n_missing = len(self.m_sdist)
        alive = [s_index for s_index, state in enumerate(self.states) if state.alive]
        incidence = self.incidence[alive]
        dist = batch_distances(packed.xs, packed.ys, self.query.loc, tree.dataset)
        spatial = self.alpha * (1.0 - dist)
        member = batch_membership(packed.masks, tree.vocab, self.universe)
        inter = member @ incidence.T.astype(np.float64)
        n_keywords = incidence.sum(axis=1).astype(np.float64)
        union = doc_lengths[:, np.newaxis] + n_keywords - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            tsim = np.where(union > 0.0, inter / union, 0.0)
        scores = spatial[:, np.newaxis] + self.beta * tsim
        beaten = scores[:, :, np.newaxis] > self.m_score[alive][np.newaxis, :, :]
        counts = np.count_nonzero(beaten, axis=0).tolist()
        sums: Contribution = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(self.states))
        }
        sums.update((s_index, (row, list(row))) for s_index, row in zip(alive, counts))
        return sums


def sweep_candidates(
    states: Sequence[_CandidateState],
    penalty_model: PenaltyModel,
    best: RefinedQuery,
    best_owner: Optional[_CandidateState],
    counters: SearchCounters,
) -> Tuple[RefinedQuery, Optional[_CandidateState]]:
    """Lines 20-26: update the incumbent and prune candidates.

    The round driver runs it once per round.  With one walker a round
    is one node, as in the paper; over N shards a round expands up to N
    nodes, so the bound trajectory differs from the single tree's — the
    sweep must therefore be *schedule-independent* so both report the
    identical incumbent.

    The incumbent snapshot is refreshed not only when another
    candidate strictly improves the penalty, but also when the
    snapshot's *own* rank bound tightens at an unchanged penalty —
    the penalty is flat for ranks at or below ``k₀``, and without
    the refresh the reported rank/k' would freeze at the first
    (loose) bound instead of converging to the exact value.

    **Equal-penalty tie-break.**  When a candidate's penalty upper
    bound *ties* the incumbent and the incumbent's owner sits later in
    the same batch, ownership moves to the earlier candidate.  Penalty
    upper bounds only tighten, so the final owner is always the
    lowest-batch-index candidate among those reaching the minimal
    penalty — a property of the batch alone, not of the order in which
    tree nodes refined the bounds.  (An owner from an earlier distance
    batch is not in ``states`` and keeps the tie, matching AdvancedBS's
    first-in-enumeration-order rule.)  Pruning is unaffected: it
    compares against ``best.penalty``, which a tie cannot change.
    """
    owner_index: Optional[int] = None
    if best_owner is not None:
        for s_index, state in enumerate(states):
            if state is best_owner:
                owner_index = s_index
                break
    for s_index, state in enumerate(states):
        if not state.alive:
            continue
        rank_upper = state.rank_upper()
        pn_upper = penalty_model.penalty(state.candidate.delta_doc, rank_upper)
        improves = pn_upper < best.penalty
        displaces = (
            pn_upper == best.penalty  # bit-equal tie, not approx compare
            and owner_index is not None
            and s_index < owner_index
        )
        owner_refresh = state is best_owner and rank_upper != best.rank
        if improves or displaces or owner_refresh:
            best = RefinedQuery(
                keywords=state.candidate.keywords,
                k=penalty_model.refined_k(rank_upper),
                delta_doc=state.candidate.delta_doc,
                rank=rank_upper,
                penalty=pn_upper,
            )
            best_owner = state
            owner_index = s_index
    for state in states:
        if not state.alive:
            continue
        pn_lower = penalty_model.penalty(
            state.candidate.delta_doc, state.rank_lower()
        )
        if pn_lower > best.penalty:
            state.alive = False
            counters.pruned_by_bounds += 1
    return best, best_owner
