"""Sharded spatial index: STR tiles, per-shard trees, merged execution.

The monolithic SetR/KcR trees bulk-load the whole dataset in memory and
serve every query from one structure.  This module partitions the data
across ``N`` spatially coherent shards (STR tiles planned from a
reservoir sample), each shard owning its own pager / buffer pool /
fault-injector fork and its own pair of trees.  Three properties are
contractual:

* **Bit-identical results.**  Every object lives in exactly one shard
  and every shard normalises distances with the *global* diagonal, so
  per-object scores are the same floats for any shard count (the
  engine's default is one tile).
  Top-k merges per-shard results under the usual ``(-score, oid)``
  order; rank determination sums per-shard dominator counts (each shard
  runs the same early-stop cap, so the global abort verdict matches the
  single tree's — see :meth:`ShardedSearcher.rank_of_missing`).

* **Deterministic I/O ledger.**  Each shard's trees write into the
  shard's own :class:`~repro.storage.stats.IOStatistics` ledger; the
  per-query total is the sum over shards.  Both execution modes issue
  the identical per-shard fetch sequence — ``simulate`` runs shards
  in-process in tile order, ``process`` runs each shard in a forked
  worker and ships the ledger delta back with every reply — so the
  summed ledger is mode-invariant.

* **Failure containment.**  An unrecoverable storage fault inside one
  shard marks only that shard tree down; its partition is served by a
  :class:`~repro.core.degraded.ScanFallback` over the shard's tile
  (exact answers, ``degraded``-flagged) while every other shard keeps
  its tree and its buffer state.  :meth:`ShardedIndex.request` and
  :meth:`ShardedIndex.request_many` refuse any tree op aimed at a down
  shard tree, so a routing bug fails loudly instead of being absorbed.

* **Writes go to the owning tile.**  :meth:`ShardedIndex.insert` and
  :meth:`ShardedIndex.remove` route by :meth:`TilePlan.tile_of`; the
  tile's built trees mutate through ``RTreeBase.insert``/``delete``,
  a down tree is skipped, and a :class:`StorageError` mid-write marks
  that tree down.

Parallelism follows :mod:`repro.core.parallel`'s two-mode convention:
the default ``simulate`` mode measures per-shard busy time and reports
the fan-out's makespan by accumulating ``Σ busy − max busy`` into a
discount the engine subtracts from the answer's elapsed time; the
``process`` mode runs real forked workers, which own their shard's
trees from the fork on.  Queries are read-only (the flow checker's
worker-read-only contract covers :func:`_worker_execute`); builds,
resets and writes are admin ops (:func:`_worker_admin`), and the parent
keeps its tile datasets in step with every write.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..errors import (
    IndexStructureError,
    InvalidParameterError,
    PersistenceError,
    StorageError,
    ensure,
)
from ..model.geometry import Point, Rect
from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.faults import FaultInjector
from ..storage.stats import IOSnapshot, IOStatistics
from .entries import ChildEntry
from .kcr_tree import KcRTree
from .persistence import load_index, save_index
from .rtree import DEFAULT_CAPACITY, RTreeBase
from .search import RankResult, TopKSearcher
from .setr_tree import SetRTree

if TYPE_CHECKING:  # import cycle: repro.core.* imports repro.index.*
    from ..core.degraded import ScanFallback

__all__ = [
    "LoadStats",
    "Shard",
    "ShardedIndex",
    "ShardedSearcher",
    "ShardedTreeView",
    "TilePlan",
    "load_sharded",
    "save_sharded",
]

KeywordSet = FrozenSet[int]

KINDS = ("setr", "kcr")

DEFAULT_SAMPLE_SIZE = 2048
DEFAULT_FLUSH_EVERY = 512

MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 2


# ----------------------------------------------------------------------
# tile planning
# ----------------------------------------------------------------------
class TilePlan:
    """STR tiling of the plane: x-slices, then y-tiles within a slice.

    ``x_cuts`` are the slice boundaries (``bisect_right`` semantics: a
    point with ``x`` equal to a cut routes to the *right* slice) and
    ``y_cuts[s]`` the boundaries within slice ``s``, so routing is a
    pair of binary searches — deterministic, order-free, and cheap
    enough to re-derive shard membership from a manifest.
    """

    def __init__(
        self,
        x_cuts: Sequence[float],
        y_cuts: Sequence[Sequence[float]],
    ) -> None:
        if len(y_cuts) != len(x_cuts) + 1:
            raise InvalidParameterError(
                f"need {len(x_cuts) + 1} y-cut rows for {len(x_cuts)} x-cuts, "
                f"got {len(y_cuts)}"
            )
        self.x_cuts: Tuple[float, ...] = tuple(float(c) for c in x_cuts)
        self.y_cuts: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(float(c) for c in row) for row in y_cuts
        )
        offsets: List[int] = []
        total = 0
        for row in self.y_cuts:
            offsets.append(total)
            total += len(row) + 1
        self._offsets = tuple(offsets)
        self.n_tiles = total

    @property
    def n_slices(self) -> int:
        return len(self.y_cuts)

    def tile_of(self, loc: Point) -> int:
        """The tile id owning ``loc`` (two binary searches)."""
        s = bisect_right(self.x_cuts, loc[0])
        return self._offsets[s] + bisect_right(self.y_cuts[s], loc[1])

    def tile_slot(self, tid: int) -> Tuple[int, int]:
        """Decompose a tile id into ``(slice, index-within-slice)``."""
        if not 0 <= tid < self.n_tiles:
            raise InvalidParameterError(f"tile id {tid} out of range")
        s = bisect_right(self._offsets, tid) - 1
        return s, tid - self._offsets[s]

    def tile_rect(self, tid: int, bounds: Rect) -> Rect:
        """The tile's rectangle, outer edges taken from ``bounds``."""
        s, j = self.tile_slot(tid)
        x_lo = bounds.min_x if s == 0 else self.x_cuts[s - 1]
        x_hi = bounds.max_x if s == self.n_slices - 1 else self.x_cuts[s]
        row = self.y_cuts[s]
        y_lo = bounds.min_y if j == 0 else row[j - 1]
        y_hi = bounds.max_y if j == len(row) else row[j]
        return Rect(
            min(x_lo, x_hi), min(y_lo, y_hi), max(x_lo, x_hi), max(y_lo, y_hi)
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "x_cuts": list(self.x_cuts),
            "y_cuts": [list(row) for row in self.y_cuts],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TilePlan":
        return cls(payload["x_cuts"], payload["y_cuts"])

    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Sequence[Point], n_tiles: int) -> "TilePlan":
        """Plan ``n_tiles`` STR tiles from a point sample.

        Slices take ``ceil(sqrt(n_tiles))`` x-quantile bands with tile
        counts balanced across them, then y-quantiles within each band
        — the classic Sort-Tile-Recursive sweep, run on the sample
        instead of the full dataset so one bounded pass suffices.
        """
        if n_tiles <= 0:
            raise InvalidParameterError(
                f"need at least one tile, got {n_tiles}"
            )
        if n_tiles == 1 or not points:
            return cls((), tuple(() for _ in range(1)))
        n_slices = min(n_tiles, int(math.ceil(math.sqrt(n_tiles))))
        base, extra = divmod(n_tiles, n_slices)
        tiles_per_slice = [
            base + (1 if s < extra else 0) for s in range(n_slices)
        ]
        pts = sorted((float(p[0]), float(p[1])) for p in points)
        total = len(pts)
        x_cuts: List[float] = []
        slice_points: List[List[Tuple[float, float]]] = []
        start = 0
        quota = 0
        for s in range(n_slices):
            quota += tiles_per_slice[s]
            if s == n_slices - 1:
                end = total
            else:
                end = max(start, int(round(total * quota / n_tiles)))
                end = min(end, total)
            slice_points.append(pts[start:end])
            if s < n_slices - 1:
                left = pts[end - 1][0] if end > start else (
                    x_cuts[-1] if x_cuts else pts[0][0]
                )
                right = pts[end][0] if end < total else left
                x_cuts.append((left + right) / 2.0)
            start = end
        y_cuts: List[Tuple[float, ...]] = []
        for s in range(n_slices):
            band = sorted(slice_points[s], key=lambda p: (p[1], p[0]))
            t = tiles_per_slice[s]
            cuts: List[float] = []
            m = len(band)
            for j in range(1, t):
                if m == 0:
                    cuts.append(cuts[-1] if cuts else 0.0)
                    continue
                e = min(max(1, int(round(m * j / t))), m - 1) if m > 1 else 0
                if m == 1:
                    cuts.append(band[0][1])
                else:
                    cuts.append((band[e - 1][1] + band[e][1]) / 2.0)
            y_cuts.append(tuple(cuts))
        return cls(tuple(x_cuts), tuple(y_cuts))


# ----------------------------------------------------------------------
# streaming STR bulk load
# ----------------------------------------------------------------------
@dataclass
class LoadStats:
    """Accounting for one sharded bulk load.

    ``peak_resident`` counts the most objects the *loader* ever held at
    once: the plan sample, the per-tile routing buffers (bounded by
    ``flush_every`` each), and the single tile being materialised.  It
    is the quantity the streaming-load test bounds by
    ``max_tile_objects + sample + n_tiles * flush_every``.
    """

    n_objects: int = 0
    sample_size: int = 0
    n_tiles: int = 0
    max_tile_objects: int = 0
    spilled_objects: int = 0
    peak_resident: int = 0
    passes: int = 0


def _plan_pass(
    stream: Iterator[SpatialObject],
    n_tiles: int,
    sample_size: int,
    seed: int,
) -> Tuple[TilePlan, int, Optional[Rect]]:
    """Pass 1: reservoir-sample locations, count, track the global MBR."""
    rng = np.random.default_rng(seed)
    reservoir: List[Point] = []
    count = 0
    min_x = min_y = math.inf
    max_x = max_y = -math.inf
    for obj in stream:
        x, y = obj.loc
        min_x = x if x < min_x else min_x
        max_x = x if x > max_x else max_x
        min_y = y if y < min_y else min_y
        max_y = y if y > max_y else max_y
        if count < sample_size:
            reservoir.append(obj.loc)
        else:
            j = int(rng.integers(0, count + 1))
            if j < sample_size:
                reservoir[j] = obj.loc
        count += 1
    bounds = None
    if count:
        bounds = Rect(min_x, min_y, max_x, max_y)
    return TilePlan.from_points(reservoir, n_tiles), count, bounds


def _spill_line(obj: SpatialObject) -> str:
    return json.dumps(
        [obj.oid, obj.loc[0], obj.loc[1], sorted(obj.doc)],
        separators=(",", ":"),
    )


def _parse_line(line: str) -> SpatialObject:
    oid, x, y, terms = json.loads(line)
    return SpatialObject(
        oid=int(oid), loc=(float(x), float(y)), doc=frozenset(terms)
    )


def load_tile_datasets(
    stream_factory: Callable[[], Iterator[SpatialObject]],
    n_tiles: int,
    *,
    name: str,
    diagonal: Optional[float] = None,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    flush_every: int = DEFAULT_FLUSH_EVERY,
    seed: int = 0,
    spill_dir: Optional[Union[str, Path]] = None,
    in_memory: bool = False,
) -> Tuple[TilePlan, List[Dataset], LoadStats, Rect]:
    """Two-pass streaming STR bulk load into per-tile datasets.

    Pass 1 reservoir-samples the stream to plan the tiles; pass 2
    routes every object to its tile's spill file with a bounded
    buffer, then materialises one tile at a time.  ``in_memory=True``
    keeps the tile buckets in RAM instead of spilling (identical plan,
    routing, and object order — the round-trip-equality contract the
    tests assert) for callers that already hold the dataset.
    """
    if sample_size <= 0 or flush_every <= 0:
        raise InvalidParameterError(
            "sample_size and flush_every must be positive"
        )
    stats = LoadStats(sample_size=0, n_tiles=n_tiles)
    plan, count, bounds = _plan_pass(
        stream_factory(), n_tiles, sample_size, seed
    )
    stats.passes += 1
    if count == 0 or bounds is None:
        raise IndexStructureError("cannot shard an empty object stream")
    stats.n_objects = count
    stats.sample_size = min(sample_size, count)
    if diagonal is None:
        diagonal = math.hypot(
            bounds.max_x - bounds.min_x, bounds.max_y - bounds.min_y
        )
        if diagonal <= 0.0:
            diagonal = 1.0

    resident_sample = stats.sample_size
    tile_counts = [0] * plan.n_tiles
    datasets: List[Dataset] = []

    if in_memory:
        buckets: List[List[SpatialObject]] = [[] for _ in range(plan.n_tiles)]
        for obj in stream_factory():
            buckets[plan.tile_of(obj.loc)].append(obj)
        stats.passes += 1
        for tid, bucket in enumerate(buckets):
            tile_counts[tid] = len(bucket)
            datasets.append(
                Dataset(bucket, diagonal=diagonal, name=f"{name}/shard-{tid}")
            )
        stats.max_tile_objects = max(tile_counts) if tile_counts else 0
        stats.peak_resident = count + resident_sample
        return plan, datasets, stats, bounds

    own_dir = spill_dir is None
    directory = Path(
        tempfile.mkdtemp(prefix="repro-shard-") if own_dir else spill_dir
    )
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"tile-{tid}.jsonl" for tid in range(plan.n_tiles)]
    buffers: List[List[str]] = [[] for _ in range(plan.n_tiles)]
    handles: List[Optional[Any]] = [None] * plan.n_tiles

    def flush(tid: int) -> None:
        if not buffers[tid]:
            return
        if handles[tid] is None:
            handles[tid] = paths[tid].open("w", encoding="utf-8")
        handles[tid].write("\n".join(buffers[tid]) + "\n")
        buffers[tid].clear()

    try:
        buffered = 0
        for obj in stream_factory():
            tid = plan.tile_of(obj.loc)
            buffers[tid].append(_spill_line(obj))
            tile_counts[tid] += 1
            buffered += 1
            resident = resident_sample + buffered
            if resident > stats.peak_resident:
                stats.peak_resident = resident
            if len(buffers[tid]) >= flush_every:
                buffered -= len(buffers[tid])
                stats.spilled_objects += len(buffers[tid])
                flush(tid)
        stats.passes += 1
        for tid in range(plan.n_tiles):
            stats.spilled_objects += len(buffers[tid])
            flush(tid)
            if handles[tid] is not None:
                handles[tid].close()
                handles[tid] = None
        stats.max_tile_objects = max(tile_counts) if tile_counts else 0
        for tid in range(plan.n_tiles):
            objects: List[SpatialObject] = []
            if paths[tid].exists():
                with paths[tid].open("r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if line:
                            objects.append(_parse_line(line))
            resident = resident_sample + len(objects)
            if resident > stats.peak_resident:
                stats.peak_resident = resident
            datasets.append(
                Dataset(objects, diagonal=diagonal, name=f"{name}/shard-{tid}")
            )
    finally:
        for handle in handles:
            if handle is not None:
                handle.close()
        for path in paths:
            if path.exists():
                path.unlink()
        if own_dir:
            try:
                directory.rmdir()
            except OSError:
                pass
    return plan, datasets, stats, bounds


# ----------------------------------------------------------------------
# one shard
# ----------------------------------------------------------------------
def _shard_faults(
    faults: Optional[FaultInjector],
    fault_shards: Optional[Sequence[int]],
    tid: int,
    n_tiles: int,
) -> Optional[FaultInjector]:
    """The injector one tile's trees fork from.

    Tiles outside ``fault_shards`` get none.  A one-tile index uses
    ``faults`` itself, so its trees fork ``"setr"``/``"kcr"`` straight
    from it and a seeded schedule replays the same faults at any
    index shape that has one tree per kind; larger indexes fork one
    ``"shard-<tid>"`` injector per tile.
    """
    if faults is None or (fault_shards is not None and tid not in fault_shards):
        return None
    return faults if n_tiles == 1 else faults.fork(f"shard-{tid}")


class Shard:
    """One tile's datasets, trees, fault fork, and I/O ledger.

    The shard's two trees write into ``stats["setr"]`` /
    ``stats["kcr"]`` — the per-shard ledgers whose sum is the sharded
    engine's deterministic I/O total.  ``faults`` (when present) is the
    shard-level injector; each tree gets a per-kind fork with a fresh
    label per rebuild.
    """

    def __init__(
        self,
        tid: int,
        rect: Rect,
        dataset: Dataset,
        *,
        capacity: int = DEFAULT_CAPACITY,
        buffer_fraction: Optional[float] = 0.25,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.tid = tid
        self.rect = rect
        self.dataset = dataset
        self.capacity = capacity
        self.buffer_fraction = buffer_fraction
        self.faults = faults
        self.stats: Dict[str, IOStatistics] = {
            "setr": IOStatistics(),
            "kcr": IOStatistics(),
        }
        self._trees: Dict[str, RTreeBase] = {}
        self._rebuilds: Dict[str, int] = {"setr": 0, "kcr": 0}

    @property
    def is_empty(self) -> bool:
        return len(self.dataset) == 0

    def _tree_faults(self, kind: str) -> Optional[FaultInjector]:
        if self.faults is None:
            return None
        generation = self._rebuilds[kind]
        label = kind if generation == 0 else f"{kind}:rebuild-{generation}"
        return self.faults.fork(label)

    def _apply_buffer_policy(self, tree: RTreeBase) -> RTreeBase:
        if self.buffer_fraction is not None:
            pages = max(32, int(tree.buffer.total_pages * self.buffer_fraction))
            tree.resize_buffer(min(pages, tree.buffer.capacity_pages or pages))
        return tree

    def ensure_tree(self, kind: str) -> RTreeBase:
        """The shard's tree of ``kind``, built on first use."""
        tree = self._trees.get(kind)
        if tree is None:
            if self.is_empty:
                raise IndexStructureError(
                    f"shard {self.tid} is empty; it has no {kind} tree"
                )
            cls = SetRTree if kind == "setr" else KcRTree
            tree = self._apply_buffer_policy(
                cls(
                    self.dataset,
                    capacity=self.capacity,
                    stats=self.stats[kind],
                    faults=self._tree_faults(kind),
                )
            )
            self._trees[kind] = tree
        return tree

    def built_tree(self, kind: str) -> RTreeBase:
        """The already-built tree (read-only paths never build)."""
        tree = self._trees.get(kind)
        if tree is None:
            raise IndexStructureError(
                f"shard {self.tid} has no built {kind} tree; warm it first"
            )
        return tree

    def has_tree(self, kind: str) -> bool:
        return kind in self._trees

    def trees(self) -> List[Tuple[str, RTreeBase]]:
        """The ``(kind, tree)`` pairs built in this process."""
        return sorted(self._trees.items())

    def attach_tree(self, kind: str, tree: RTreeBase) -> None:
        """Adopt a persisted tree (see :func:`load_sharded`)."""
        self._trees[kind] = self._apply_buffer_policy(tree)

    def drop_tree(self, kind: str) -> None:
        """Discard a (possibly damaged) tree; the next build gets a
        fresh fault-fork label so recovery does not replay the exact
        schedule that broke it."""
        if kind in self._trees:
            del self._trees[kind]
        self._rebuilds[kind] += 1

    def reset_buffer(self) -> None:
        for tree in self._trees.values():
            tree.reset_buffer()

    def write(
        self, action: str, obj: SpatialObject, kinds: Sequence[str]
    ) -> Dict[str, Tuple]:
        """Apply one ``insert``/``remove`` to the tile and its trees.

        Only built trees of ``kinds`` mutate.  A tree whose write
        raises a :class:`StorageError` is left half-updated and
        reported (marshalled, see :func:`_marshal_storage_error`), so
        the other kind still lands.  Removing a tile's last object
        drops its trees: an R-tree cannot hold zero objects, and the
        next insert builds them afresh.
        """
        if action == "insert":
            self.dataset.add(obj)
        elif len(self.dataset) == 1:
            self._trees.clear()
        failed: Dict[str, Tuple] = {}
        for kind in kinds:
            tree = self._trees.get(kind)
            if tree is None:
                continue
            try:
                if action == "insert":
                    tree.insert(obj)
                else:
                    tree.delete(obj)
            except StorageError as exc:
                failed[kind] = _marshal_storage_error(exc)
        if action == "remove":
            self.dataset.remove(obj.oid)
        return failed

    def ledger(self, kind: str) -> IOSnapshot:
        return self.stats[kind].snapshot()


# ----------------------------------------------------------------------
# execution backends (simulate in-process / forked worker)
# ----------------------------------------------------------------------
def _worker_admin(shard: Shard, state: Dict[str, Any], message: Tuple) -> Any:
    """Build/maintenance operations (not part of the read-only chain)."""
    op = message[0]
    if op == "warm":
        _, kinds, model = message
        for kind in kinds:
            tree = shard.ensure_tree(kind)
            state[("searcher", kind)] = TopKSearcher(tree, model)
        return True
    if op == "rebuild":
        _, kind, model = message
        state.pop("kcr_walker", None)
        state.pop(("searcher", kind), None)
        shard.drop_tree(kind)
        tree = shard.ensure_tree(kind)
        state[("searcher", kind)] = TopKSearcher(tree, model)
        return True
    if op == "reset":
        shard.reset_buffer()
        return True
    if op == "write":
        _, action, obj, kinds = message
        state.pop("kcr_walker", None)
        return shard.write(action, obj, kinds)
    raise InvalidParameterError(f"unknown shard admin op {op!r}")


def _worker_execute(shard: Shard, state: Dict[str, Any], message: Tuple) -> Any:
    """One read-only shard operation (the worker-contract entry point).

    Runs in-process in ``simulate`` mode and inside the forked worker
    in ``process`` mode — one code path, so the per-shard fetch
    sequence (and therefore the ledger) is mode-invariant.  Everything
    reachable from here must treat the shard as read-only apart from
    I/O accounting; the flow checker enforces this.
    """
    op = message[0]
    if op == "bound":
        _, kind, query, keywords, model = message
        tree = shard.built_tree(kind)
        entry = ChildEntry(
            child_id=tree.root_id,
            rect=tree.root_rect,
            aux_record=tree.root_summary_record,
        )
        return tree.entry_score_bound(entry, query, keywords, model)
    if op == "top_k":
        _, kind, query, limit, keywords = message
        searcher = state[("searcher", kind)]
        return searcher.top_k(query, k=limit, keywords=keywords)
    if op == "rank":
        _, kind, query, missing, keywords, stop_limit = message
        searcher = state[("searcher", kind)]
        return searcher.rank_of_missing(
            query, missing, keywords=keywords, stop_limit=stop_limit
        )
    if op == "kcr_init":
        from ..core.kcr_algorithm import KcRWalker  # lazy: import cycle

        _, query, missing, batch, model, fresh = message
        walker = state.get("kcr_walker")
        if fresh or walker is None:
            # One walker per question, as on a raw tree, so its
            # NodeTextStats memo spans the question's batches.
            walker = KcRWalker(shard.built_tree("kcr"))
            state["kcr_walker"] = walker
        return walker.start(model, query, missing, batch), walker.has_more()
    if op == "kcr_step":
        _, alive = message
        walker = state["kcr_walker"]
        return walker.step(alive), walker.has_more()
    raise InvalidParameterError(f"unknown shard op {op!r}")


_ADMIN_OPS = ("warm", "rebuild", "reset", "write")


def _dispatch_op(shard: Shard, state: Dict[str, Any], message: Tuple) -> Any:
    if message[0] in _ADMIN_OPS:
        return _worker_admin(shard, state, message)
    return _worker_execute(shard, state, message)


class _SimulateBackend:
    """Runs shard ops in-process, timing each as that shard's busy."""

    def __init__(self, shard: Shard) -> None:
        self.shard = shard
        self.state: Dict[str, Any] = {}

    def request(self, message: Tuple) -> Tuple[Any, float]:
        started = time.perf_counter()
        payload = _dispatch_op(self.shard, self.state, message)
        return payload, time.perf_counter() - started

    def close(self) -> None:
        self.state.clear()


def _injected(shard: Shard) -> Dict[str, int]:
    return {} if shard.faults is None else shard.faults.summary()


def _shard_worker_main(conn: Any, shard: Shard) -> None:
    """Forked worker loop: run ops, reply (status, payload, deltas,
    injected, busy).

    All tree I/O and fault injection happen here; every reply carries
    the ledger delta of both kinds and the injection-ledger delta of
    the shard's injector, so the parent's ledgers stay the
    authoritative, mode-invariant account.
    """
    state: Dict[str, Any] = {}
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] == "close":
            break
        before = {kind: shard.stats[kind].snapshot() for kind in KINDS}
        injected_before = _injected(shard)
        # CPU time, not wall: concurrent workers on fewer cores get
        # time-sliced, and a wall-clock "busy" would count the slices
        # spent running *other* shards.  The makespan discount needs
        # the work this shard actually did.
        started = time.process_time()
        try:
            payload = _dispatch_op(shard, state, message)
            status = "ok"
        except StorageError as exc:
            status = "storage-error"
            payload = _marshal_storage_error(exc)
        except Exception as exc:  # pragma: no cover - defensive marshalling
            status = "fatal"
            payload = repr(exc)
        busy = time.process_time() - started
        deltas = {
            kind: shard.stats[kind].snapshot() - before[kind] for kind in KINDS
        }
        injected = {
            key: value - injected_before[key]
            for key, value in _injected(shard).items()
        }
        conn.send((status, payload, deltas, injected, busy))
    conn.close()


def _marshal_storage_error(exc: StorageError) -> Tuple:
    """A picklable stand-in for a StorageError (custom constructors
    need not round-trip through pickle)."""
    return type(exc).__name__, str(exc), getattr(exc, "record_id", None)


def _rebuild_storage_error(payload: Tuple) -> StorageError:
    """Reconstruct a marshalled worker-side StorageError in the parent."""
    from .. import errors as errors_module

    name, detail, record_id = payload
    cls = getattr(errors_module, name, StorageError)
    try:
        exc = cls(detail)
    except TypeError:  # record-id-first constructors
        exc = cls(record_id, detail)
    if record_id is not None and getattr(exc, "record_id", None) is None:
        exc.record_id = record_id
    return exc


class _ProcessBackend:
    """One forked worker per shard; the parent absorbs ledger deltas."""

    def __init__(self, shard: Shard) -> None:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise InvalidParameterError(
                "shard_mode='process' requires the fork start method"
            ) from exc
        self.shard = shard
        self.stats = shard.stats  # ledger alias; deltas land here
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main, args=(child_conn, shard), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        # The worker owns the trees from here on; a parent copy (a
        # loaded index's) would go stale with the first write.
        shard._trees.clear()

    def submit(self, message: Tuple) -> None:
        """Write a request to the worker pipe without waiting for the
        reply — the broadcast half of a concurrent fan-out."""
        self.conn.send(message)

    def collect(self) -> Tuple[Any, float]:
        """Read one reply (blocking) and absorb its ledger deltas."""
        try:
            status, payload, deltas, injected, busy = self.conn.recv()
        except EOFError as exc:
            raise IndexStructureError(
                f"shard {self.shard.tid} worker died mid-request"
            ) from exc
        for kind in KINDS:
            self._absorb(kind, deltas[kind])
        if self.shard.faults is not None:
            self.shard.faults.absorb(injected)
        if status == "storage-error":
            raise _rebuild_storage_error(payload)
        if status == "fatal":
            raise IndexStructureError(
                f"shard {self.shard.tid} worker failed: {payload}"
            )
        return payload, busy

    def request(self, message: Tuple) -> Tuple[Any, float]:
        self.submit(message)
        return self.collect()

    def _absorb(self, kind: str, delta: IOSnapshot) -> None:
        self.stats[kind].page_reads += delta.page_reads
        self.stats[kind].page_writes += delta.page_writes
        self.stats[kind].buffer_hits += delta.buffer_hits
        self.stats[kind].node_fetches += delta.node_fetches
        self.stats[kind].read_retries += delta.read_retries
        self.stats[kind].write_retries += delta.write_retries
        self.stats[kind].transient_faults += delta.transient_faults
        self.stats[kind].checksum_failures += delta.checksum_failures
        self.stats[kind].lost_records += delta.lost_records
        self.stats[kind].deadline_aborts += delta.deadline_aborts

    def close(self) -> None:
        try:
            self.conn.send(("close",))
        except (BrokenPipeError, OSError):  # pragma: no cover - defensive
            pass
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5.0)


# ----------------------------------------------------------------------
# runtime accounting and the tree-like views
# ----------------------------------------------------------------------
class _ShardRuntime:
    """Mutable cross-query accounting for one sharded index.

    ``discount_seconds`` accumulates ``Σ busy − max busy`` per parallel
    fan-out region (the makespan-simulation convention of
    :mod:`repro.core.parallel`); the engine subtracts and resets it per
    answer.  ``down`` holds ``(tid, kind)`` pairs of quarantined shard
    trees and ``fault_events`` the storage faults that caused them.
    """

    def __init__(self) -> None:
        self.discount_seconds = 0.0
        self.fault_events: List[Any] = []
        self.down: set = set()

    def consume_discount(self) -> float:
        discount = self.discount_seconds
        self.discount_seconds = 0.0
        return discount

    def events_of(self, kind: str) -> Tuple[Any, ...]:
        """The fault events of every down tree of ``kind``."""
        return tuple(
            event for event in self.fault_events
            if event.tree.endswith(f":{kind}")
        )


class _AggregateStats:
    """The summed per-shard ledgers behind a tree's ``stats`` surface.

    Only :meth:`snapshot` is offered — the algorithms' accounting reads
    snapshots and differences them; all *writes* happen in the shards'
    own ledgers.
    """

    def __init__(self, index: "ShardedIndex", kind: str) -> None:
        self.index = index
        self.kind = kind

    def snapshot(self) -> IOSnapshot:
        total: Optional[IOSnapshot] = None
        for shard in self.index.shards:
            snap = shard.ledger(self.kind)
            total = snap if total is None else total + snap
        if total is None:  # pragma: no cover - index always has shards
            raise IndexStructureError("sharded index has no shards")
        return total


class ShardedTreeView:
    """Duck-typed stand-in for one tree kind over all shards.

    Exposes exactly the surface the why-not algorithms touch on a tree
    — ``dataset``, ``stats.snapshot()`` and ``searcher_for(model)`` (the
    hook :meth:`QuestionContext.prepare` uses to obtain the sharded
    searcher) — so BS/AdvancedBS run unchanged over N shards.
    """

    def __init__(self, index: "ShardedIndex", kind: str) -> None:
        self.index = index
        self.kind = kind
        self.stats = _AggregateStats(index, kind)

    @property
    def dataset(self) -> Dataset:
        return self.index.dataset

    def searcher_for(self, model: SimilarityModel) -> "ShardedSearcher":
        return ShardedSearcher(self.index, self.kind, model)


class ShardedSearcher:
    """Fan-out/merge searcher with the single-tree result contract.

    ``top_k`` queries shards in root-bound order, skipping any shard
    whose bound falls strictly below the current k-th score (an equal
    bound must still be searched: an equal-scoring object with a
    smaller id displaces the incumbent under the global tie-break).
    ``rank_of_missing`` runs every shard under the caller's
    ``stop_limit`` and sums the capped dominator counts — the global
    abort verdict (``Σ counts ≥ max(stop_limit, 1)``) then matches the
    single tree's, which aborts exactly when the global dominator count
    reaches the cap.  Down shards are served by a ``ScanFallback`` over
    their tile, so answers stay bit-identical while degraded.
    """

    def __init__(
        self,
        index: "ShardedIndex",
        kind: str,
        model: SimilarityModel,
    ) -> None:
        self.index = index
        self.kind = kind
        self.model = model
        self.stats = index.runtime  # busy-discount / fault accounting bag
        self._exact = self._scan(index.dataset)

    # -- helpers -------------------------------------------------------
    def _shards(self) -> List[Shard]:
        return [shard for shard in self.index.shards if not shard.is_empty]

    def _is_down(self, shard: Shard) -> bool:
        return (shard.tid, self.kind) in self.stats.down

    def _mark_down(self, shard: Shard, operation: str, exc: StorageError) -> None:
        self.index.mark_down(shard, self.kind, operation, exc)

    def _discount(self, busys: Sequence[float]) -> None:
        if len(busys) > 1:
            self.stats.discount_seconds += sum(busys) - max(busys)

    def _scan(self, dataset: Dataset) -> "ScanFallback":
        """The index-free evaluator over ``dataset`` (a down shard's
        tile, or the whole dataset for exact re-scoring)."""
        # Imported lazily: repro.core's package init imports the
        # engine, which reaches back into this module.
        from ..core.degraded import ScanFallback

        return ScanFallback(dataset, self.model)

    def score_object(
        self,
        obj: SpatialObject,
        query: SpatialKeywordQuery,
        keywords: Optional[KeywordSet] = None,
    ) -> float:
        """Exact Eqn 1 score of a known object (no index I/O)."""
        return self._exact.score(obj, query, keywords)

    # -- top-k ---------------------------------------------------------
    def top_k(
        self,
        query: SpatialKeywordQuery,
        k: Optional[int] = None,
        keywords: Optional[KeywordSet] = None,
    ) -> List[Tuple[float, int]]:
        limit = query.k if k is None else k
        doc = query.doc if keywords is None else keywords
        self.index.ensure_built(self.kind, self.model)
        ordered: List[Tuple[float, int, Shard]] = []
        shards = self._shards()
        # With one shard there is nothing to order, so no bound round.
        live = [s for s in shards if not self._is_down(s)] if len(shards) > 1 else []
        for shard in shards:
            if shard not in live:
                # A down (or lone) shard has no root bound; it is
                # always scanned.
                ordered.append((math.inf, shard.tid, shard))
        replies = self.index.request_many(
            [(shard, ("bound", self.kind, query, doc, self.model)) for shard in live]
        )
        for shard, reply in zip(live, replies):
            if isinstance(reply, StorageError):
                self._mark_down(shard, "top_k:bound", reply)
                ordered.append((math.inf, shard.tid, shard))
                continue
            ordered.append((reply[0], shard.tid, shard))
        ordered.sort(key=lambda item: (-item[0], item[1]))

        search_busys: List[float] = []
        merged: List[Tuple[float, int]] = []
        for bound, _, shard in ordered:
            if len(merged) >= limit and bound < merged[-1][0]:
                continue  # cannot contribute: every score <= bound < kth
            if not self._is_down(shard):
                try:
                    part, busy = self.index.request(
                        shard, ("top_k", self.kind, query, limit, doc)
                    )
                except StorageError as exc:
                    self._mark_down(shard, "top_k", exc)
            if self._is_down(shard):
                started = time.perf_counter()
                part = self._scan(shard.dataset).top_k(query, limit, doc)
                busy = time.perf_counter() - started
            search_busys.append(busy)
            merged.extend(part)
            merged.sort(key=lambda pair: (-pair[0], pair[1]))
            del merged[limit:]
        self._discount(search_busys)
        return merged

    # -- rank determination --------------------------------------------
    def rank_of_missing(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        keywords: Optional[KeywordSet] = None,
        stop_limit: Optional[int] = None,
    ) -> RankResult:
        self.index.ensure_built(self.kind, self.model)
        total = 0
        dominator_ids: List[int] = []
        missing_tuple = tuple(missing)
        # Every shard runs the same capped dominator search with no
        # inter-shard dependency, so the fan-out broadcasts: in process
        # mode the shards genuinely compute concurrently, and
        # ``request_many`` books the round's makespan discount.
        live = [s for s in self._shards() if not self._is_down(s)]
        message = ("rank", self.kind, query, missing_tuple, keywords, stop_limit)
        replies = self.index.request_many(
            [(shard, message) for shard in live]
        )
        by_tid: Dict[int, RankResult] = {}
        for shard, reply in zip(live, replies):
            if isinstance(reply, StorageError):
                self._mark_down(shard, "rank_of_missing", reply)
                continue
            by_tid[shard.tid] = reply[0]
        for shard in self._shards():
            result = by_tid.get(shard.tid)
            if result is None:
                result = self._scan(shard.dataset).rank_of_missing(
                    query, missing_tuple, keywords, stop_limit
                )
            total += len(result.dominators)
            dominator_ids.extend(result.dominators)

        # Re-emit the merged dominators in the single tree's pop order
        # (score descending, then oid) — pure arithmetic, no index I/O.
        doc = query.doc if keywords is None else keywords
        dataset = self.index.dataset
        score = self._exact.score
        scored = sorted(
            (-score(dataset.get(oid), query, doc), oid) for oid in dominator_ids
        )
        dominators = tuple(oid for _, oid in scored)
        if stop_limit is not None and total >= max(stop_limit, 1):
            # An aborted sharded search keeps the whole merged prefix
            # union (a deterministic superset of the single tree's
            # cap-length prefix); rank is unknown either way.
            return RankResult(rank=None, dominators=dominators, aborted=True)
        return RankResult(
            rank=total + 1, dominators=dominators, aborted=False
        )


# ----------------------------------------------------------------------
# the sharded index facade
# ----------------------------------------------------------------------
class ShardedIndex:
    """N spatial shards behind a single-tree-shaped surface.

    ``view(kind)`` returns the duck-typed tree the why-not algorithms
    run over; ``searcher(kind, model)`` the merged searcher.  Shards
    execute either in-process (``mode="simulate"``) or in forked
    workers (``mode="process"``); both modes issue the identical
    per-shard fetch sequence, so the summed I/O ledger is
    mode-invariant.
    """

    MODES = ("simulate", "process")

    def __init__(
        self,
        dataset: Dataset,
        plan: TilePlan,
        bounds: Rect,
        shards: Sequence[Shard],
        *,
        mode: str = "simulate",
        capacity: int = DEFAULT_CAPACITY,
        buffer_fraction: Optional[float] = 0.25,
    ) -> None:
        if mode not in self.MODES:
            raise InvalidParameterError(
                f"unknown shard mode {mode!r}; expected one of {self.MODES}"
            )
        if not shards:
            raise InvalidParameterError("a sharded index needs >= 1 shard")
        self.dataset = dataset
        self.plan = plan
        self.bounds = bounds
        self.shards: List[Shard] = list(shards)
        self.mode = mode
        self.capacity = capacity
        self.buffer_fraction = buffer_fraction
        self.runtime = _ShardRuntime()
        self._backends: Dict[int, Any] = {}
        self._views: Dict[str, ShardedTreeView] = {}
        # Serving threads reach view() concurrently; the lazy cache
        # write must be guarded (views are stateless wrappers, so a
        # lost race would be benign, but the read-only contract wants
        # the guard explicit).
        self._views_lock = threading.Lock()
        # Serializes lazy warm-on-query: concurrent serving threads
        # must not race the per-shard build bookkeeping.
        self._build_lock = threading.Lock()
        # Each shard keeps one KcR walker, so one question at a time
        # may drive them (see ShardedKcRAlgorithm.answer).
        self.kcr_lock = threading.Lock()
        self._warmed: set = set()
        self._model: SimilarityModel = JACCARD

    # -- construction --------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        n_shards: int,
        *,
        mode: str = "simulate",
        capacity: int = DEFAULT_CAPACITY,
        buffer_fraction: Optional[float] = 0.25,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = 0,
        faults: Optional[FaultInjector] = None,
        fault_shards: Optional[Sequence[int]] = None,
    ) -> "ShardedIndex":
        """Shard an in-memory dataset (plan/route shared with the
        streaming path, so both build identical shard sets)."""
        plan, tile_datasets, _, bounds = load_tile_datasets(
            lambda: iter(dataset.objects),
            n_shards,
            name=dataset.name,
            diagonal=dataset.diagonal,
            sample_size=sample_size,
            seed=seed,
            in_memory=True,
        )
        return cls._assemble(
            dataset,
            plan,
            bounds,
            tile_datasets,
            mode=mode,
            capacity=capacity,
            buffer_fraction=buffer_fraction,
            faults=faults,
            fault_shards=fault_shards,
        )

    @classmethod
    def build_streaming(
        cls,
        stream_factory: Callable[[], Iterator[SpatialObject]],
        n_shards: int,
        *,
        name: str = "stream",
        mode: str = "simulate",
        capacity: int = DEFAULT_CAPACITY,
        buffer_fraction: Optional[float] = 0.25,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        seed: int = 0,
        spill_dir: Optional[Union[str, Path]] = None,
        faults: Optional[FaultInjector] = None,
        fault_shards: Optional[Sequence[int]] = None,
    ) -> Tuple["ShardedIndex", LoadStats]:
        """Shard a stream without ever holding it whole in the loader.

        The global :class:`Dataset` facade is assembled from the tile
        datasets' object tuples (pointers, not copies), so the loader's
        working set above the final product stays bounded by
        ``LoadStats.peak_resident``.
        """
        plan, tile_datasets, stats, bounds = load_tile_datasets(
            stream_factory,
            n_shards,
            name=name,
            sample_size=sample_size,
            flush_every=flush_every,
            seed=seed,
            spill_dir=spill_dir,
        )
        objects: List[SpatialObject] = []
        for tile_ds in tile_datasets:
            objects.extend(tile_ds.objects)
        objects.sort(key=lambda obj: obj.oid)
        dataset = Dataset(
            objects, diagonal=tile_datasets[0].diagonal, name=name
        )
        index = cls._assemble(
            dataset,
            plan,
            bounds,
            tile_datasets,
            mode=mode,
            capacity=capacity,
            buffer_fraction=buffer_fraction,
            faults=faults,
            fault_shards=fault_shards,
        )
        return index, stats

    @classmethod
    def _assemble(
        cls,
        dataset: Dataset,
        plan: TilePlan,
        bounds: Rect,
        tile_datasets: Sequence[Dataset],
        *,
        mode: str,
        capacity: int,
        buffer_fraction: Optional[float],
        faults: Optional[FaultInjector],
        fault_shards: Optional[Sequence[int]],
    ) -> "ShardedIndex":
        shards = [
            Shard(
                tid,
                plan.tile_rect(tid, bounds),
                tile_ds,
                capacity=capacity,
                buffer_fraction=buffer_fraction,
                faults=_shard_faults(faults, fault_shards, tid, plan.n_tiles),
            )
            for tid, tile_ds in enumerate(tile_datasets)
        ]
        return cls(
            dataset,
            plan,
            bounds,
            shards,
            mode=mode,
            capacity=capacity,
            buffer_fraction=buffer_fraction,
        )

    # -- views ---------------------------------------------------------
    def view(self, kind: str) -> ShardedTreeView:
        if kind not in KINDS:
            raise InvalidParameterError(f"unknown tree kind {kind!r}")
        with self._views_lock:
            view = self._views.get(kind)
            if view is None:
                view = ShardedTreeView(self, kind)
                self._views[kind] = view
            return view

    def searcher(
        self, kind: str, model: SimilarityModel = JACCARD
    ) -> ShardedSearcher:
        return ShardedSearcher(self, kind, model)

    # -- execution -----------------------------------------------------
    def _backend(self, shard: Shard) -> Any:
        backend = self._backends.get(shard.tid)
        if backend is None:
            if self.mode == "process":
                backend = _ProcessBackend(shard)
            else:
                backend = _SimulateBackend(shard)
            self._backends[shard.tid] = backend
        return backend

    def _refuse_down(self, batch: Sequence[Tuple[Shard, Tuple]]) -> None:
        """The quarantine guard: no tree op reaches a down shard tree.

        A down tree's partition is served by a ``ScanFallback`` over
        the shard's tile, so a ``bound``/``top_k``/``rank``/``kcr_*``
        op aimed at it is a routing bug.  It raises
        :class:`~repro.errors.InvariantViolationError`, never a
        :class:`StorageError`, so no fault handler can absorb it.
        Admin ops (warm, rebuild, reset, write) pass.
        """
        down = self.runtime.down
        if not down:
            return
        for shard, message in batch:
            op = message[0]
            if op in _ADMIN_OPS:
                continue
            kind = "kcr" if op.startswith("kcr_") else message[1]
            ensure(
                (shard.tid, kind) not in down,
                f"{op!r} sent to quarantined shard-{shard.tid}:{kind}",
            )

    def request(self, shard: Shard, message: Tuple) -> Tuple[Any, float]:
        """One operation on one shard via its mode's backend."""
        self._refuse_down(((shard, message),))
        return self._backend(shard).request(message)

    def request_many(
        self, batch: Sequence[Tuple[Shard, Tuple]]
    ) -> List[Union[Tuple[Any, float], StorageError]]:
        """Fan independent requests out across shards, one round.

        In process mode every message is written to its worker pipe
        *before* any reply is read, so the shards compute concurrently;
        simulate mode runs them sequentially in-process.  Either way
        the round's makespan discount is accounted here: the reported
        busy values are per-shard CPU time, so ``round wall − max(busy)``
        is exactly the portion an N-worker deployment overlaps, and the
        recorded elapsed converges to ``driver time + Σ max-per-round``
        regardless of the host's core count.  A per-shard
        :class:`StorageError` is returned in place instead of raised,
        so one failed shard cannot discard its siblings' replies;
        non-storage failures (a dead worker) still propagate.
        """
        # Before any submit: process mode writes straight to the pipes.
        self._refuse_down(batch)
        started = time.perf_counter()
        results: List[Union[Tuple[Any, float], StorageError]] = []
        if self.mode == "process":
            backends = [self._backend(shard) for shard, _ in batch]
            for backend, (_, message) in zip(backends, batch):
                backend.submit(message)
            for backend in backends:
                try:
                    results.append(backend.collect())
                except StorageError as exc:
                    results.append(exc)
        else:
            for shard, message in batch:
                try:
                    results.append(self.request(shard, message))
                except StorageError as exc:
                    results.append(exc)
        if len(batch) > 1:
            busys = [reply[1] for reply in results if not isinstance(reply, StorageError)]
            if busys:
                round_wall = time.perf_counter() - started
                self.runtime.discount_seconds += max(
                    0.0, round_wall - max(busys)
                )
        return results

    # -- writes ----------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Add ``obj`` to the dataset, its tile, and the tile's trees."""
        shard = self.shards[self.plan.tile_of(obj.loc)]
        self.dataset.add(obj)
        shard.rect = shard.rect.union(Rect.from_point(obj.loc))
        self._write(shard, "insert", obj)

    def remove(self, oid: int) -> None:
        """Remove object ``oid`` from its tile's trees, its tile, and
        the dataset."""
        obj = self.dataset.get(oid)
        shard = self.shards[self.plan.tile_of(obj.loc)]
        if len(shard.dataset) == 1:
            # The tile empties and drops its trees (Shard.write).
            self._warmed -= {(shard.tid, kind) for kind in KINDS}
        self._write(shard, "remove", obj)
        self.dataset.remove(oid)

    def _write(self, shard: Shard, action: str, obj: SpatialObject) -> None:
        """One write on the owning tile's live trees.

        A tree that is down is skipped (:meth:`recover` rebuilds it
        from the dataset); a :class:`StorageError` mid-write marks that
        tree down.  In process mode the worker applies the write to
        its copy and the parent keeps its tile dataset in step.
        """
        down = self.runtime.down
        kinds = tuple(kind for kind in KINDS if (shard.tid, kind) not in down)
        failed, _ = self.request(shard, ("write", action, obj, kinds))
        if self.mode == "process":
            shard.write(action, obj, ())
        for kind, payload in failed.items():
            self.mark_down(
                shard, kind, f"{action}:{obj.oid}", _rebuild_storage_error(payload)
            )

    def mark_down(
        self, shard: Shard, kind: str, operation: str, exc: StorageError
    ) -> None:
        """Quarantine one shard tree after an unrecoverable fault."""
        key = (shard.tid, kind)
        if key in self.runtime.down:
            return
        self.runtime.down.add(key)
        # Imported lazily: repro.core's package init imports the engine,
        # which reaches back into this module.
        from ..core.result import FaultEvent

        self.runtime.fault_events.append(
            FaultEvent(
                tree=f"shard-{shard.tid}:{kind}",
                operation=operation,
                error=type(exc).__name__,
                record_id=getattr(exc, "record_id", None),
                detail=str(exc),
            )
        )

    def ensure_built(
        self, kind: str, model: SimilarityModel = JACCARD
    ) -> None:
        """Warm every healthy shard's ``kind`` tree (and searcher).

        A build-time storage fault quarantines only that shard; queries
        then serve its partition from the exact index-free scan.
        """
        with self._build_lock:
            self._model = model
            for shard in self.shards:
                key = (shard.tid, kind)
                if (
                    shard.is_empty
                    or key in self.runtime.down
                    or key in self._warmed
                ):
                    continue
                try:
                    self.request(shard, ("warm", (kind,), model))
                except StorageError as exc:
                    self.mark_down(shard, kind, f"build:{kind}", exc)
                    continue
                self._warmed.add(key)

    # -- accounting ----------------------------------------------------
    def ledgers(self, kind: str) -> Dict[int, IOSnapshot]:
        """Per-shard I/O snapshots (the deterministic ledger parts)."""
        return {shard.tid: shard.ledger(kind) for shard in self.shards}

    def ledger_total(self, kind: str) -> IOSnapshot:
        total: Optional[IOSnapshot] = None
        for shard in self.shards:
            snap = shard.ledger(kind)
            total = snap if total is None else total + snap
        if total is None:  # pragma: no cover - constructor requires shards
            raise IndexStructureError("sharded index has no shards")
        return total

    def reset_buffers(self) -> None:
        if self.mode == "process":
            for backend in self._backends.values():
                backend.request(("reset",))
        else:
            for shard in self.shards:
                shard.reset_buffer()

    # -- recovery ------------------------------------------------------
    def recover(self, only: Optional[Iterable[str]] = None) -> List[str]:
        """Clear quarantines and drop damaged trees for lazy rebuild.

        Each cleared tree gets a fresh fault-fork label (the rebuild
        generation bump in :meth:`Shard.drop_tree`), so recovery does
        not replay the schedule that broke it.  In process mode the
        shard's worker is retired — it may hold the damaged tree — and
        a fresh one is forked on next use.

        ``only`` restricts recovery to the named units
        (``"shard-<tid>:<kind>"``), leaving other quarantines in place —
        the serving layer's circuit breakers use this for half-open
        probes that must not resurrect every down shard at once.
        """
        selected = None if only is None else set(only)
        cleared: List[str] = []
        remaining: Set[Tuple[int, str]] = set()
        for key in sorted(self.runtime.down):
            tid, kind = key
            if selected is not None and f"shard-{tid}:{kind}" not in selected:
                remaining.add(key)
                continue
            shard = self.shards[tid]
            if self.mode == "process":
                backend = self._backends.pop(tid, None)
                if backend is not None:
                    backend.close()
                # The retired worker held every warm tree for this
                # shard, not just the broken one.
                for other in KINDS:
                    self._warmed.discard((tid, other))
            else:
                self._warmed.discard(key)
            # Always bump the rebuild generation — even when the failed
            # build never attached a tree — so the rebuild draws a fresh
            # fault-fork label instead of replaying the broken schedule.
            shard.drop_tree(kind)
            cleared.append(f"shard-{tid}:{kind}")
        if selected is None:
            self.runtime.down.clear()
            self.runtime.fault_events.clear()
        else:
            self.runtime.down.clear()
            self.runtime.down.update(remaining)
            recovered = set(cleared)
            self.runtime.fault_events[:] = [
                event
                for event in self.runtime.fault_events
                if event.tree not in recovered
            ]
        return cleared

    def close(self) -> None:
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()

    # -- persistence ---------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        save_sharded(self, directory)

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        dataset: Dataset,
        **kwargs: Any,
    ) -> "ShardedIndex":
        return load_sharded(directory, dataset, **kwargs)


# ----------------------------------------------------------------------
# persistence v2: shard manifest + per-shard tree files
# ----------------------------------------------------------------------
def _rect_payload(rect: Rect) -> List[float]:
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def _ledger_payload(snapshot: IOSnapshot) -> Dict[str, int]:
    return asdict(snapshot)


def save_sharded(index: ShardedIndex, directory: Union[str, Path]) -> None:
    """Persist the shard layout: a checksummed ``manifest.json`` plus
    one index file per shard tree.

    The manifest stores no objects — membership is re-derived by
    routing the dataset through the tile plan on load, and the stored
    per-shard counts cross-check the result.  Per-shard ledgers and
    their sum are persisted so :mod:`repro.analysis.sanitize` can
    verify the ledger-sum invariant offline.
    """
    from ..storage.integrity import save_checked_json

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    shard_entries: List[Dict[str, Any]] = []
    for shard in index.shards:
        files: Dict[str, str] = {}
        if not shard.is_empty:
            for kind in KINDS:
                filename = f"shard-{shard.tid}-{kind}.json"
                save_index(shard.ensure_tree(kind), path / filename)
                files[kind] = filename
        shard_entries.append(
            {
                "tid": shard.tid,
                "rect": _rect_payload(shard.rect),
                "n_objects": len(shard.dataset),
                "files": files,
                "ledger": {
                    kind: _ledger_payload(shard.ledger(kind))
                    for kind in KINDS
                },
            }
        )
    body = {
        "plan": index.plan.to_payload(),
        "bounds": _rect_payload(index.bounds),
        "diagonal": index.dataset.diagonal,
        "dataset_name": index.dataset.name,
        "n_objects": len(index.dataset),
        "capacity": index.capacity,
        "n_shards": len(index.shards),
        "shards": shard_entries,
        "ledger_total": {
            kind: _ledger_payload(index.ledger_total(kind)) for kind in KINDS
        },
    }
    save_checked_json(path / MANIFEST_NAME, body, version=_MANIFEST_VERSION)


def load_sharded(
    directory: Union[str, Path],
    dataset: Dataset,
    *,
    mode: str = "simulate",
    buffer_fraction: Optional[float] = 0.25,
    faults: Optional[FaultInjector] = None,
    fault_shards: Optional[Sequence[int]] = None,
) -> ShardedIndex:
    """Rebuild a :class:`ShardedIndex` from a manifest directory.

    ``dataset`` must be the same dataset the index was saved from; the
    loader routes it through the persisted tile plan and refuses
    (:class:`PersistenceError`) when any shard's membership count
    disagrees with the manifest.
    """
    from ..storage.integrity import load_checked_json

    path = Path(directory)
    body = load_checked_json(
        path / MANIFEST_NAME,
        kind="sharded index",
        supported_versions=(_MANIFEST_VERSION,),
        checksum_required_from=_MANIFEST_VERSION,
    )
    if body["n_objects"] != len(dataset):
        raise PersistenceError(
            f"manifest covers {body['n_objects']} objects but the dataset "
            f"has {len(dataset)}"
        )
    plan = TilePlan.from_payload(body["plan"])
    bounds = Rect(*body["bounds"])
    buckets: List[List[SpatialObject]] = [[] for _ in range(plan.n_tiles)]
    for obj in dataset.objects:
        buckets[plan.tile_of(obj.loc)].append(obj)

    shards: List[Shard] = []
    entries = sorted(body["shards"], key=lambda entry: entry["tid"])
    if len(entries) != plan.n_tiles:
        raise PersistenceError(
            f"manifest lists {len(entries)} shards for a "
            f"{plan.n_tiles}-tile plan"
        )
    for entry in entries:
        tid = entry["tid"]
        bucket = buckets[tid]
        if len(bucket) != entry["n_objects"]:
            raise PersistenceError(
                f"shard {tid} routed {len(bucket)} objects but the "
                f"manifest recorded {entry['n_objects']}"
            )
        tile_ds = Dataset(
            bucket,
            diagonal=dataset.diagonal,
            name=f"{dataset.name}/shard-{tid}",
        )
        shard = Shard(
            tid,
            Rect(*entry["rect"]),
            tile_ds,
            capacity=body["capacity"],
            buffer_fraction=buffer_fraction,
            faults=_shard_faults(faults, fault_shards, tid, plan.n_tiles),
        )
        for kind, filename in entry["files"].items():
            tree = load_index(
                path / filename,
                tile_ds,
                stats=shard.stats[kind],
                faults=shard._tree_faults(kind),
            )
            shard.attach_tree(kind, tree)
        shards.append(shard)
    return ShardedIndex(
        dataset,
        plan,
        bounds,
        shards,
        mode=mode,
        capacity=body["capacity"],
        buffer_fraction=buffer_fraction,
    )
