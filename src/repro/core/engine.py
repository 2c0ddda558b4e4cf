"""High-level facade: one object that answers why-not questions.

:class:`WhyNotEngine` owns the dataset and a
:class:`~repro.index.sharded.ShardedIndex` built lazily over it (one
STR tile unless ``shards=N`` asks for more; each tile holds a
SetR-tree for BS/AdvancedBS and a KcR-tree for KcRBased), and
dispatches a :class:`~repro.model.query.WhyNotQuestion` to any of the
paper's methods by name.  It is the recommended entry point:

>>> engine = WhyNotEngine(dataset)
>>> answer = engine.answer(question, method="kcr")
>>> answer.refined.describe(vocabulary)

The default engine is the one-tile case of the sharded index, so there
is one execution path: ``basic``, ``advanced`` and ``kcr`` fan out over
the tiles, and writes (``insert``/``remove``/``update_keywords``) go to
the owning tile.  The remaining methods run on the one tile's raw tree
and exist only on a one-shard ``simulate`` engine.

**Fault tolerance.**  Pass ``faults=FaultInjector(...)`` to attach a
deterministic fault schedule to the storage layer (each tree gets an
independent fork, so injection replays identically regardless of build
order).  Transient faults are absorbed by the buffer pool's retry
loop; an *unrecoverable* fault (checksum mismatch, lost record,
exhausted retries) quarantines the damaged tree, the unit
``"shard-<tid>:<kind>"``, and that tile is served by the index-free
:class:`~repro.core.degraded.ScanFallback` — the caller gets an exact
answer flagged ``degraded`` instead of an exception.
:meth:`WhyNotEngine.recover` rebuilds quarantined trees from the
authoritative in-memory dataset; :meth:`WhyNotEngine.health` reports
quarantine state and scans live trees for corruption.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, StorageError
from ..index.kcr_tree import KcRTree
from ..index.rtree import DEFAULT_CAPACITY
from ..index.setr_tree import SetRTree
from ..index.sharded import Shard, ShardedIndex
from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import SimilarityModel, get_model
from ..storage.faults import FaultInjector
from .advanced import AdvancedAlgorithm
from .alpha_refinement import AlphaRefinementAlgorithm, IntegratedAlgorithm
from .approximate import ApproximateAlgorithm
from .basic import BasicAlgorithm
from .degraded import ScanFallback
from .kcr_sharded import ShardedKcRAlgorithm
from .location_refinement import LocationRefinementAlgorithm
from .parallel import ParallelAdvanced, ParallelKcR
from .result import FaultEvent, TopKOutcome, WhyNotAnswer

__all__ = ["WhyNotEngine"]

METHODS = (
    "basic",
    "advanced",
    "kcr",
    "approximate",
    "parallel-advanced",
    "parallel-kcr",
    "alpha",
    "location",
    "integrated",
)

#: Methods that fan out over every tile; the rest run on one raw tree.
FANOUT_METHODS = ("basic", "advanced", "kcr")

#: Which tree kind each method reads — the degradation unit.
#: ``approximate`` is strategy-dependent; see
#: :meth:`WhyNotEngine._method_tree`.
TREE_OF_METHOD: Dict[str, str] = {
    "basic": "setr",
    "advanced": "setr",
    "alpha": "setr",
    "location": "setr",
    "parallel-advanced": "setr",
    "kcr": "kcr",
    "parallel-kcr": "kcr",
    "integrated": "kcr",
    "approximate": "kcr",
}


class WhyNotEngine:
    """Facade over the dataset, the shard set, and the algorithms."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        capacity: int = DEFAULT_CAPACITY,
        similarity: str = "jaccard",
        buffer_fraction: Optional[float] = 0.25,
        faults: Optional[FaultInjector] = None,
        shards: Optional[int] = None,
        shard_mode: str = "simulate",
        fault_shards: Optional[Sequence[int]] = None,
    ) -> None:
        """``buffer_fraction`` re-sizes each tree's buffer pool to that
        fraction of the tree's on-disk pages (min 32), preserving the
        paper's buffer-pressure ratio on scaled-down datasets; pass
        ``None`` to keep the paper's absolute 4 MB buffer.
        ``faults`` attaches a deterministic fault schedule: each tree
        gets an independent fork, and rebuilt trees (after
        :meth:`recover`) get fresh forks so recovery does not replay
        the exact faults that broke them.

        ``shards=N`` partitions the dataset across ``N`` STR tiles
        (``None`` means one) with bit-identical results;
        ``shard_mode`` picks between the deterministic makespan
        simulation (``"simulate"``) and real forked workers
        (``"process"``).  With faults attached, ``fault_shards``
        restricts injection to those shard ids — the containment story:
        only the faulted shard degrades."""
        if shards is not None and shards < 1:
            raise InvalidParameterError(
                f"shards must be >= 1 when set, got {shards}"
            )
        self.dataset = dataset
        self.capacity = capacity
        self.model: SimilarityModel = get_model(similarity)
        self.buffer_fraction = buffer_fraction
        self.faults = faults
        self.shards = 1 if shards is None else shards
        self.shard_mode = shard_mode
        self.fault_shards = (
            None if fault_shards is None else tuple(fault_shards)
        )
        self._index: Optional[ShardedIndex] = None
        self._scan: Optional[ScanFallback] = None

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    @property
    def sharded_index(self) -> ShardedIndex:
        """The shard set, built on first use (trees build lazily)."""
        if self._index is None:
            self._index = ShardedIndex.build(
                self.dataset,
                self.shards,
                mode=self.shard_mode,
                capacity=self.capacity,
                buffer_fraction=self.buffer_fraction,
                faults=self.faults,
                fault_shards=self.fault_shards,
            )
        return self._index

    def attach_sharded_index(self, index: ShardedIndex) -> None:
        """Adopt a pre-built shard set (e.g. from ``build_streaming``).

        Saves a redundant in-memory rebuild when the caller already
        paid for a streaming bulk load.  The index must match this
        engine's configuration exactly — answers are served from it.
        """
        if len(index.shards) != self.shards or index.mode != self.shard_mode:
            raise InvalidParameterError(
                f"shard set ({len(index.shards)} shards, {index.mode!r} mode)"
                f" does not match engine (shards={self.shards},"
                f" shard_mode={self.shard_mode!r})"
            )
        if index.dataset is not self.dataset:
            raise InvalidParameterError(
                "shard set was built over a different dataset object"
            )
        self._index = index

    def _one_tile(self, kind: str) -> Shard:
        """The tile of a one-shard ``simulate`` engine, with its
        ``kind`` tree built (unless the build faulted it down)."""
        index = self.sharded_index
        if len(index.shards) != 1 or index.mode != "simulate":
            raise InvalidParameterError(
                "raw trees, and methods other than "
                f"{FANOUT_METHODS}, need a one-shard 'simulate' engine; "
                f"this one has {len(index.shards)} shard(s) in "
                f"{index.mode!r} mode"
            )
        index.ensure_built(kind, self.model)
        return index.shards[0]

    @property
    def setr_tree(self) -> SetRTree:
        """The SetR-tree of a one-shard engine, built on first use."""
        return self._one_tile("setr").built_tree("setr")  # type: ignore[return-value]

    @property
    def kcr_tree(self) -> KcRTree:
        """The KcR-tree of a one-shard engine, built on first use."""
        return self._one_tile("kcr").built_tree("kcr")  # type: ignore[return-value]

    @property
    def scan_fallback(self) -> ScanFallback:
        """The index-free exact fallback (shared, stateless)."""
        if self._scan is None:
            self._scan = ScanFallback(self.dataset, self.model)
        return self._scan

    # ------------------------------------------------------------------
    # quarantine and recovery
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> Dict[str, Tuple[FaultEvent, ...]]:
        """Quarantined trees (``"shard-<tid>:<kind>"``) mapped to the
        faults that broke them; every other tree stays live."""
        grouped: Dict[str, List[FaultEvent]] = {}
        if self._index is not None:
            for event in self._index.runtime.fault_events:
                grouped.setdefault(event.tree, []).append(event)
        return {name: tuple(events) for name, events in grouped.items()}

    def recover(
        self, only: Optional[Iterable[str]] = None
    ) -> Tuple[FaultEvent, ...]:
        """Drop quarantined trees for rebuild from the dataset.

        The dataset is authoritative (trees never own object data),
        so recovery is a rebuild: quarantined trees are discarded and
        lazily reconstructed on next use, with a *fresh* fault-injector
        fork so the rebuilt tree does not replay the exact schedule
        that broke it.  Returns the fault events that were cleared.

        ``only`` limits recovery to the named quarantine units.  The
        serving layer's circuit breakers rely on this to half-open one
        unit at a time instead of resurrecting everything.
        """
        if self._index is None:
            return ()
        selected = None if only is None else set(only)
        cleared = tuple(
            event
            for event in self._index.runtime.fault_events
            if selected is None or event.tree in selected
        )
        self._index.recover(only=selected)
        return cleared

    def health(self) -> Dict[str, Any]:
        """Fault-tolerance status report.

        Returns a dict with ``quarantined`` (unit -> fault events),
        ``corruption`` (unit ->
        :class:`~repro.analysis.sanitize.SanitizerReport`: one
        ``quarantined-subtree`` violation per quarantine event, or a
        corruption scan of each live tree built in this process), and
        ``injector`` (the schedule's injection ledger, if any).
        """
        from ..analysis.sanitize import SanitizerReport, scan_corruption

        quarantined = self.quarantined
        corruption: Dict[str, Any] = {}
        for name, events in quarantined.items():
            report = SanitizerReport()
            for event in events:
                report.add("quarantined-subtree", f"tree {name}", event.format())
            corruption[name] = report
        if self._index is not None:
            for shard in self._index.shards:
                for kind, tree in shard.trees():
                    name = f"shard-{shard.tid}:{kind}"
                    if name not in corruption:
                        corruption[name] = scan_corruption(tree)
        return {
            "quarantined": quarantined,
            "corruption": corruption,
            "injector": None if self.faults is None else self.faults.summary(),
        }

    def reset_buffers(self) -> None:
        """Cold-start every tree's buffer pool (between experiments)."""
        if self._index is not None:
            self._index.reset_buffers()

    def close(self) -> None:
        """Release shard workers (a no-op in ``simulate`` mode)."""
        if self._index is not None:
            self._index.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Add an object to the dataset, its tile and the tile's trees.

        Trees not built yet pick the object up when they are built;
        already-built trees receive a dynamic R-tree insertion with
        summary maintenance.  Brute-force oracles constructed from the
        dataset before the insert are snapshots and must be rebuilt.

        An unrecoverable storage fault mid-insertion leaves that tree
        half-updated, so it is quarantined (the dataset, which is
        authoritative, still gains the object); its tile is served by
        the fallback until :meth:`recover` rebuilds the tree.
        """
        self.sharded_index.insert(obj)

    def remove(self, oid: int) -> None:
        """Remove an object from its tile's trees and the dataset.

        Like :meth:`insert`, a storage fault mid-deletion quarantines
        the affected tree instead of propagating.
        """
        self.sharded_index.remove(oid)

    def update_keywords(self, oid: int, keywords: Iterable[int]) -> None:
        """Replace an object's document (delete + reinsert).

        This is the merchant loop closed: answer a why-not question
        about your own listing, then apply the suggested keywords.
        The object keeps its id and location; document frequencies,
        node summaries, and count maps all update.
        """
        old = self.dataset.get(oid)
        updated = SpatialObject(oid=oid, loc=old.loc, doc=frozenset(keywords))
        self.remove(oid)
        self.insert(updated)

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def top_k(self, query: SpatialKeywordQuery) -> List[Tuple[float, int]]:
        """Run a plain spatial keyword top-k query (Definition 1).

        Degradation-transparent: see :meth:`run_top_k` for the variant
        that also reports whether the answer came from the fallback.
        """
        return self.run_top_k(query).results

    def run_top_k(self, query: SpatialKeywordQuery) -> TopKOutcome:
        """Top-k with an explicit fault-tolerance verdict.

        Runs over the SetR-trees of every tile; a faulted tile's
        partition is served by the exact scan, so the merged answer is
        still bit-identical, flagged ``degraded`` while any SetR-tree
        is down.
        """
        index = self.sharded_index
        results = index.searcher("setr", self.model).top_k(query)
        index.runtime.consume_discount()
        events = index.runtime.events_of("setr")
        return TopKOutcome(results=results, degraded=bool(events), events=events)

    def _method_tree(self, method: str, options: Dict[str, Any]) -> str:
        """Which tree kind a method call will read."""
        if method == "approximate":
            return "kcr" if options.get("strategy", "kcr") == "kcr" else "setr"
        return TREE_OF_METHOD.get(method, "setr")

    def answer(
        self,
        question: WhyNotQuestion,
        method: str = "kcr",
        *,
        sample_size: int = 200,
        n_threads: int = 4,
        **options: Any,
    ) -> WhyNotAnswer:
        """Answer a why-not question with the chosen method.

        ``method`` selects among ``basic`` (BS), ``advanced``
        (AdvancedBS; accepts ``early_stop``/``ordering``/``filtering``
        toggles via ``options``), ``kcr`` (KcRBased), ``approximate``
        (accepts ``strategy``), and the two ``parallel-*`` variants.

        Storage faults never propagate.  The fan-out methods serve a
        quarantined tile from the exact scan; the raw-tree methods
        recompute the whole answer with the index-free fallback.  Either
        way the answer is exact and flagged ``degraded`` while a tree of
        the kind the method reads is down.
        """
        if method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        kind = self._method_tree(method, options)
        if method in FANOUT_METHODS:
            answer = self._fanout_answer(question, method, options)
        else:
            answer = self._raw_answer(
                question, method, kind, sample_size, n_threads, options
            )
        # Degraded exactly while a tree of the kind it read is down.
        events = self.sharded_index.runtime.events_of(kind)
        if events:
            answer.degraded = True
            answer.fault_events = events
        return answer

    def _fanout_answer(
        self, question: WhyNotQuestion, method: str, options: Dict[str, Any]
    ) -> WhyNotAnswer:
        """Run BS, AdvancedBS or KcRBased across every tile.

        The accrued fan-out discount (``Σ busy − max busy`` per
        parallel region) is subtracted here, reporting the
        makespan-simulated elapsed time.
        """
        index = self.sharded_index
        if method == "kcr":
            answer = ShardedKcRAlgorithm(index, self.model).answer(question)
        else:
            index.ensure_built("setr", self.model)
            view: Any = index.view("setr")  # duck-typed SetR-tree
            if method == "basic":
                answer = BasicAlgorithm(view, self.model).answer(question)
            else:
                answer = AdvancedAlgorithm(view, self.model, **options).answer(
                    question
                )
        answer.elapsed_seconds = max(
            0.0, answer.elapsed_seconds - index.runtime.consume_discount()
        )
        return answer

    def _raw_answer(
        self,
        question: WhyNotQuestion,
        method: str,
        kind: str,
        sample_size: int,
        n_threads: int,
        options: Dict[str, Any],
    ) -> WhyNotAnswer:
        """Run a raw-tree method; on a fault, the whole-answer fallback."""
        shard = self._one_tile(kind)
        index = self.sharded_index
        if (shard.tid, kind) not in index.runtime.down:
            try:
                return self._dispatch(
                    question,
                    method,
                    shard.built_tree(kind),
                    sample_size,
                    n_threads,
                    options,
                )
            except StorageError as exc:
                index.mark_down(shard, kind, f"answer:{method}", exc)
        answer = self.scan_fallback.answer(question)
        answer.algorithm = f"{method}/{ScanFallback.name}"
        return answer

    def _dispatch(
        self,
        question: WhyNotQuestion,
        method: str,
        tree: Any,
        sample_size: int,
        n_threads: int,
        options: Dict[str, Any],
    ) -> WhyNotAnswer:
        """Route one question to a raw-tree algorithm over ``tree``."""
        if method == "approximate":
            strategy = options.pop("strategy", "kcr")
            return ApproximateAlgorithm(
                tree, sample_size, strategy=strategy, model=self.model, **options
            ).answer(question)
        if method == "parallel-advanced":
            return ParallelAdvanced(
                tree, n_threads, model=self.model, **options
            ).answer(question)
        if method == "parallel-kcr":
            return ParallelKcR(tree, n_threads, model=self.model).answer(question)
        if method == "alpha":
            return AlphaRefinementAlgorithm(tree, self.model, **options).answer(
                question
            )
        if method == "location":
            return LocationRefinementAlgorithm(
                tree, self.model, **options
            ).answer(question)
        return IntegratedAlgorithm(tree, self.model, **options).answer(question)
