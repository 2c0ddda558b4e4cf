"""KcRBased over the shard set: the round transport and fault swap-in.

The engine's ``kcr`` method runs here at every shard count; the default
engine is one tile.

The round driver, Algorithm 4 and the per-tree walker all live in
:mod:`repro.core.kcr_algorithm`; this module only supplies what is
specific to shards.  Each shard runs one
:class:`~repro.core.kcr_algorithm.KcRWalker` (in-process in
``simulate`` mode, inside the forked worker in ``process`` mode), and
each round is one :meth:`~repro.index.sharded.ShardedIndex.request_many`
broadcast that steps every shard with work left.  That broadcast books
the round's makespan discount itself (round wall minus the slowest
shard's CPU busy) following :mod:`repro.core.parallel`'s simulation
convention — so the recorded elapsed means "driver time plus one
worker's work per round" on any host.

The final answer is bit-identical to a raw-tree run even though a
round over N shards expands up to N nodes, so the bound trajectory
(and the number of nodes expanded) differs from the single tree's:

* every object lives in exactly one shard and shards share the global
  diagonal, so leaf-level exact sums are the same floats;
* the incumbent's owner is never pruned (its penalty lower bound never
  exceeds its own upper bound, which *is* the incumbent penalty), and
  children are only skipped once exact for every alive candidate — so
  when all shards exhaust their queues every surviving bound is exact,
  and :func:`~repro.core.kcr_algorithm.sweep_candidates`'s
  schedule-independent tie-break picks the same winner, rank and
  penalty as the single tree;
* a shard that dies mid-batch is swapped for its exact index-free
  contribution (``exact − cumulative-so-far``), which only *tightens*
  bounds toward the same exact values.

With one shard a round is one node and the walker enqueues under the
same post-sweep flags as the single tree, so the I/O ledger and the
counters match a raw-tree :class:`KcRAlgorithm` run exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import StorageError, ensure_not_none
from ..index.sharded import Shard, ShardedIndex
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from .candidates import Candidate
from .context import QuestionContext
from .degraded import ScanFallback
from .kcr_algorithm import (
    Contribution,
    KcRAlgorithm,
    Reply,
    _CandidateState,
    apply_deltas,
    scored_states,
)
from .result import WhyNotAnswer

__all__ = ["ShardedKcRAlgorithm"]


class ShardedKcRAlgorithm(KcRAlgorithm):
    """KcRBased with one walker per shard, one broadcast per round.

    Accrued fan-out busy time lands in the index runtime's discount;
    the engine (not this class) subtracts it from the answer's elapsed
    seconds, exactly as for the sharded BS searchers.
    """

    def __init__(
        self, index: ShardedIndex, model: SimilarityModel = JACCARD
    ) -> None:
        index.ensure_built("kcr", model)
        super().__init__(index.view("kcr"), model)  # type: ignore[arg-type]
        self.index = index
        self._context: Optional[QuestionContext] = None

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Algorithm 4 over the shards, one question at a time: each
        shard's walker belongs to the question driving it."""
        with self.index.kcr_lock:
            return super().answer(question)

    def _start(
        self,
        context: QuestionContext,
        batch: Sequence[Candidate],
        states: Sequence[_CandidateState],
    ) -> List[Reply]:
        """Open a walker on every healthy shard (a fresh one for a new
        question); down shards are swapped in at their exact
        contribution straight away."""
        fresh = self._context is not context
        self._context = context
        self._batch = batch
        self._states = states
        self._cumulative: Dict[int, Contribution] = {}
        live: List[Shard] = []
        for shard in self.index.shards:
            if shard.is_empty:
                continue
            if (shard.tid, "kcr") in self.index.runtime.down:
                self._swap_in_exact(shard)
            else:
                live.append(shard)
        init = (
            "kcr_init", context.query, context.missing, tuple(batch), self.model, fresh
        )
        return self._broadcast(live, init)

    def _step(self, pending: Sequence[Any], alive: Sequence[bool]) -> List[Reply]:
        return self._broadcast(pending, ("kcr_step", tuple(alive)))

    def _broadcast(self, shards: Sequence[Shard], message: tuple) -> List[Reply]:
        """One ``request_many`` round; a failed shard is marked down
        and swapped in (it sends no reply and is not pending)."""
        replies: List[Reply] = []
        results = self.index.request_many([(shard, message) for shard in shards])
        for shard, result in zip(shards, results):
            if isinstance(result, StorageError):
                self.index.mark_down(shard, "kcr", message[0], result)
                self._swap_in_exact(shard)
                continue
            (deltas, more), _busy = result
            if deltas is not None:
                self._accumulate(shard.tid, deltas)
            replies.append((shard, deltas, more))
        return replies

    def _accumulate(self, tid: int, deltas: Contribution) -> None:
        total = self._cumulative.setdefault(tid, {})
        for s_index, (delta_max, delta_min) in deltas.items():
            pair = total.get(s_index)
            if pair is None:
                total[s_index] = (list(delta_max), list(delta_min))
                continue
            for i in range(len(delta_max)):
                pair[0][i] += delta_max[i]
                pair[1][i] += delta_min[i]

    def _swap_in_exact(self, shard: Shard) -> None:
        """Replace a shard's bound contribution with its exact counts.

        ``delta = exact − cumulative`` keeps the driver's running sums
        consistent whether the shard failed before contributing, mid
        batch, or was down from the start.
        """
        exact = self._scan_contribution(shard)
        previous = self._cumulative.get(shard.tid, {})
        deltas: Contribution = {}
        for s_index, (exact_max, exact_min) in exact.items():
            prev_max, prev_min = previous.get(
                s_index, ([0] * len(exact_max), [0] * len(exact_min))
            )
            deltas[s_index] = (
                [exact_max[i] - prev_max[i] for i in range(len(exact_max))],
                [exact_min[i] - prev_min[i] for i in range(len(exact_min))],
            )
        apply_deltas(self._states, deltas)
        self._cumulative[shard.tid] = exact

    def _scan_contribution(self, shard: Shard) -> Contribution:
        """Exact per-candidate dominator counts for one shard, from
        ``ScanFallback`` scores — the same arithmetic as the leaf-exact
        path, so the swapped-in bounds equal what a healthy traversal
        converges to.
        """
        context = ensure_not_none(self._context, "swap-in before _start")
        query, missing = context.query, context.missing
        m_sdist = [
            self.index.dataset.normalized_distance(m.loc, query.loc)
            for m in missing
        ]
        states = scored_states(self.model, query, missing, self._batch, m_sdist)
        counts = ScanFallback(shard.dataset, self.model).dominator_counts(
            query, [(state.candidate.keywords, state.m_score) for state in states]
        )
        # Exact counts bound MaxDom and MinDom alike.
        return {s_index: (c, list(c)) for s_index, c in enumerate(counts)}
