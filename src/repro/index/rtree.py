"""Disk-resident R-tree base with STR bulk loading.

The SetR-tree (Section IV-B) and the KcR-tree (Section V-A) share
everything except the textual summary attached to each node.  This
module owns the shared machinery:

* Sort-Tile-Recursive (STR) bulk loading with a configurable node
  capacity (the paper uses 100);
* the bottom-up :class:`TextSummary` aggregation from which both
  subclasses derive their payloads — the keyword-count map *is* the
  general summary, the union is its key set, and the intersection is
  the keys whose count equals the subtree cardinality;
* Guttman insertion and deletion with the summaries kept exact: every
  ancestor of an insert absorbs the object's document, and CondenseTree
  reinserts an underflowing node's entries at their own level — a
  branch's children move as whole subtrees whose new ancestors merge
  their stored summaries (the bottom-up merge, applied to one path);
* pager/buffer-pool plumbing and the node-fetch accounting.

Subclasses implement three payload hooks: :meth:`RTreeBase._summary_payload`
serialises a bottom-up summary, :meth:`RTreeBase._augment_payload` adds
one document to a payload and :meth:`RTreeBase._merge_payloads` merges
sibling payloads.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import chain, groupby
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import IndexStructureError, StorageError
from ..model.geometry import Rect, bounding_rect
from ..model.objects import Dataset, SpatialObject
from ..storage.buffer_pool import DEFAULT_BUFFER_BYTES, BufferPool
from ..storage.faults import FaultInjector
from ..storage.layout import keyword_set_bytes, node_bytes, packed_leaf_bytes
from ..storage.packing import PackedWriter, SlotRef, fetch_slot, slot_payload
from ..storage.pager import PAGE_SIZE
from ..storage.stats import IOStatistics
from .entries import ChildEntry, Entry, Node, ObjectEntry

if TYPE_CHECKING:  # import cycle: repro.core.* imports repro.index.*
    from ..core.vectorized import PackedLeaf, VocabularyIndex

__all__ = ["TextSummary", "RTreeBase", "DEFAULT_CAPACITY"]


def _quadratic_split(entries, rect_of, min_fill):
    """Guttman's quadratic split: seed with the pair wasting the most
    area together, then assign each remaining entry to the group whose
    MBR it enlarges least, forcing assignment once a group must absorb
    everything left to reach ``min_fill``."""
    best_pair = (0, 1)
    worst_waste = -math.inf
    for i in range(len(entries)):
        rect_i = rect_of(entries[i])
        for j in range(i + 1, len(entries)):
            rect_j = rect_of(entries[j])
            waste = rect_i.union(rect_j).area() - rect_i.area() - rect_j.area()
            if waste > worst_waste:
                worst_waste = waste
                best_pair = (i, j)
    seed_a, seed_b = best_pair
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    rect_a = rect_of(entries[seed_a])
    rect_b = rect_of(entries[seed_b])
    remaining = [
        e for index, e in enumerate(entries) if index not in (seed_a, seed_b)
    ]
    while remaining:
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            break
        entry = remaining.pop()
        rect = rect_of(entry)
        growth_a = rect_a.union(rect).area() - rect_a.area()
        growth_b = rect_b.union(rect).area() - rect_b.area()
        if growth_a < growth_b or (
            growth_a == growth_b and len(group_a) <= len(group_b)
        ):
            group_a.append(entry)
            rect_a = rect_a.union(rect)
        else:
            group_b.append(entry)
            rect_b = rect_b.union(rect)
    return group_a, group_b


def _take_docs(
    page: Any, refs: Sequence[SlotRef], docs: List[FrozenSet[int]]
) -> int:
    """Append the keyword sets in ``refs``' slots of ``page`` to ``docs``
    up to the first bad slot; return how many per-slot fetches that is
    (the bad slot's own fetch included)."""
    for index, ref in enumerate(refs):
        try:
            doc = page[ref.slot]
        except (TypeError, IndexError):
            return index + 1
        if not isinstance(doc, frozenset):
            return index + 1
        docs.append(doc)
    return len(refs)


DEFAULT_CAPACITY = 100
"""Node capacity used throughout the paper's experiments."""

_BuildItem = Tuple[Rect, Any, Any]
"""A bulk-load item: ``(mbr, object or child entry, summary)``.  At the
leaf level the summary is ``None``: a leaf's summary is built from its
run's documents in one pass."""


class TextSummary:
    """Bottom-up textual aggregate of a subtree.

    Holds the keyword-count multiset (``t -> number of objects in the
    subtree containing t``) and the subtree cardinality.  From it:

    * the SetR-tree union set is ``counts.keys()``;
    * the SetR-tree intersection set is ``{t : counts[t] == cnt}``;
    * the KcR-tree payload is ``(cnt, counts)`` verbatim.
    """

    __slots__ = ("counts", "cnt")

    def __init__(self, counts: Optional[Counter] = None, cnt: int = 0) -> None:
        self.counts: Counter = counts if counts is not None else Counter()
        self.cnt = cnt

    @classmethod
    def of_object(cls, obj: SpatialObject) -> "TextSummary":
        return cls(Counter(obj.doc), 1)

    @classmethod
    def of_docs(cls, docs: Sequence[FrozenSet[int]]) -> "TextSummary":
        """Summary of a leaf's objects, from their keyword sets.

        One ``Counter`` over all the docs: the same counts, in the same
        key order, as merging one :meth:`of_object` summary per doc.
        """
        return cls(Counter(chain.from_iterable(docs)), len(docs))

    @classmethod
    def merged(cls, summaries: Iterable["TextSummary"]) -> "TextSummary":
        total = Counter()
        cnt = 0
        for summary in summaries:
            total.update(summary.counts)
            cnt += summary.cnt
        return cls(total, cnt)

    @property
    def union(self) -> FrozenSet[int]:
        return frozenset(self.counts)

    @property
    def intersection(self) -> FrozenSet[int]:
        return frozenset(t for t, c in self.counts.items() if c == self.cnt)


class RTreeBase:
    """Shared construction and access plumbing for both hybrid indexes.

    Parameters
    ----------
    dataset:
        The objects to index.  Must be non-empty.
    capacity:
        Maximum entries per node (fanout); the paper uses 100.
    page_size, buffer_bytes:
        Storage-substrate knobs; defaults match the paper (4 KB / 4 MB).
    stats:
        Optional shared :class:`IOStatistics`; a fresh one is created
        when omitted.
    faults:
        Optional seeded :class:`~repro.storage.faults.FaultInjector`
        attached to this tree's pager; ``None`` disables injection.
    """

    def __init__(
        self,
        dataset: Dataset,
        capacity: int = DEFAULT_CAPACITY,
        *,
        page_size: int = PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: Optional[IOStatistics] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if len(dataset) == 0:
            raise IndexStructureError("cannot build an index over an empty dataset")
        self._init_state(
            dataset,
            capacity,
            page_size=page_size,
            buffer_bytes=buffer_bytes,
            stats=stats,
            faults=faults,
        )
        self._build()

    def _init_state(
        self,
        dataset: Dataset,
        capacity: int,
        *,
        page_size: int = PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: Optional[IOStatistics] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        """Initialise storage and bookkeeping without bulk loading.

        Shared by the constructor and by index persistence, which
        rebuilds the node records from a saved structure instead of
        running STR.
        """
        if capacity < 2:
            raise IndexStructureError(f"capacity must be at least 2, got {capacity}")
        self.dataset = dataset
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStatistics()
        self.buffer = BufferPool.create(
            page_size=page_size,
            capacity_bytes=buffer_bytes,
            stats=self.stats,
            faults=faults,
        )
        self.pager = self.buffer.pager  # storage-internal; I/O goes via buffer
        self.root_id: int = -1
        self.root_rect: Optional[Rect] = None
        self.root_summary_record: int = -1
        self.height = 0
        self.node_count = 0
        # Deterministic keyword -> bit-position interning for the packed
        # columnar leaf blocks; extended in place by dynamic inserts.
        from ..core.vectorized import VocabularyIndex  # lazy: import cycle

        self.vocab: "VocabularyIndex" = VocabularyIndex.from_dataset(dataset)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _allocate_summary(self, summary: TextSummary) -> int:
        """Serialise a node summary into a pager record; return its id."""
        payload, nbytes = self._summary_payload(summary)
        return self.buffer.allocate(payload, nbytes)

    def _summary_payload(self, summary: TextSummary) -> Tuple[Any, int]:
        """Serialise a bottom-up summary into ``(payload, nbytes)``."""
        raise NotImplementedError

    def _augment_payload(self, payload: Any, doc: FrozenSet[int]) -> Tuple[Any, int]:
        """Add one object's document to an existing summary payload."""
        raise NotImplementedError

    def _merge_payloads(self, payloads: Sequence[Any]) -> Tuple[Any, int]:
        """Merge sibling summary payloads (splits and root growth)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # construction (STR bulk load)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        # Leaf level: items are the objects themselves; their keyword
        # sets are packed into shared pages per leaf node (the paper's
        # sequential on-disk keyword payload layout).  A leaf's summary
        # is built from its run's docs, so leaf items carry none.
        items: List[_BuildItem] = [
            (Rect.from_point(obj.loc), obj, None) for obj in self.dataset
        ]
        doc_writer = PackedWriter(self.buffer)
        level = 0
        is_leaf = True
        while True:
            runs = self._str_runs(items)
            next_items: List[_BuildItem] = []
            for run in runs:
                node_info = self._build_node(run, is_leaf, level, doc_writer)
                next_items.append(node_info)
            self.height = level + 1
            if len(next_items) == 1:
                rect, child_entry, summary = next_items[0]
                self.root_id = child_entry.child_id
                self.root_rect = rect
                self.root_summary_record = child_entry.aux_record
                return
            items = next_items
            is_leaf = False
            level += 1

    def _build_node(
        self,
        run: Sequence[_BuildItem],
        is_leaf: bool,
        level: int,
        doc_writer: PackedWriter,
    ) -> Tuple[Rect, ChildEntry, TextSummary]:
        rect = bounding_rect(item[0] for item in run)
        if is_leaf:
            summary = TextSummary.of_docs([obj.doc for _, obj, _ in run])
            # Pack this leaf's keyword sets together, then seal the
            # page so the next leaf starts fresh (locality per leaf).
            indexes = [
                doc_writer.add(obj.doc, keyword_set_bytes(len(obj.doc)))
                for _, obj, _ in run
            ]
            doc_writer.flush()
            entries: List[Any] = [
                ObjectEntry(
                    oid=obj.oid, loc=obj.loc, doc_record=doc_writer.ref(index)
                )
                for (_, obj, _), index in zip(run, indexes)
            ]
        else:
            summary = TextSummary.merged(item[2] for item in run)
            entries = [item[1] for item in run]
        node = Node(
            node_id=-1, is_leaf=is_leaf, rect=rect, entries=entries, level=level
        )
        node_id = self.buffer.allocate(node, node_bytes(len(entries)))
        node.node_id = node_id
        summary_record = self._allocate_summary(summary)
        node.aux_record = summary_record
        if is_leaf:
            # Columnar mirror for the vectorized scoring kernels; built
            # unconditionally so the on-disk layout is identical whether
            # or not REPRO_VECTORIZE later reads it.
            node.packed_record = self._allocate_packed(
                [(obj.oid, obj.loc, obj.doc) for _, obj, _ in run]
            )
        self.node_count += 1
        return rect, ChildEntry(child_id=node_id, rect=rect, aux_record=summary_record), summary

    def _str_runs(
        self, items: Sequence[_BuildItem]
    ) -> List[Sequence[_BuildItem]]:
        """Sort-Tile-Recursive grouping of items into capacity-sized runs."""
        n = len(items)
        n_nodes = math.ceil(n / self.capacity)
        n_slices = math.ceil(math.sqrt(n_nodes))
        slice_size = n_slices * self.capacity
        by_x = sorted(items, key=lambda item: (item[0].center[0], item[0].center[1]))
        runs: List[Sequence[_BuildItem]] = []
        for start in range(0, n, slice_size):
            vertical_slice = sorted(
                by_x[start : start + slice_size],
                key=lambda item: (item[0].center[1], item[0].center[0]),
            )
            for run_start in range(0, len(vertical_slice), self.capacity):
                runs.append(vertical_slice[run_start : run_start + self.capacity])
        return runs

    # ------------------------------------------------------------------
    # access (all I/O-accounted)
    # ------------------------------------------------------------------
    def fetch_node(self, node_id: int) -> Node:
        """Load a node through the buffer pool (counts a node fetch)."""
        self.stats.node_fetches += 1
        node = self.buffer.fetch(node_id)
        if not isinstance(node, Node):
            raise IndexStructureError(f"record {node_id} is not a tree node")
        return node

    def fetch_doc(self, doc_record: SlotRef) -> FrozenSet[int]:
        """Load an object's keyword set through the buffer pool.

        Keyword sets are packed several-per-page, so the first fetch of
        a leaf's doc page is one I/O and its siblings are buffer hits.
        """
        doc = fetch_slot(self.buffer, doc_record)
        if not isinstance(doc, frozenset):
            raise IndexStructureError(f"record {doc_record} is not a keyword set")
        return doc

    def fetch_docs(self, entries: Sequence[ObjectEntry]) -> List[FrozenSet[int]]:
        """Keyword sets of ``entries``, charged as per-entry :meth:`fetch_doc`.

        Consecutive entries whose keyword sets share a packed page form
        a run.  A per-entry loop fetches that page once per entry, every
        fetch after the first a buffer hit; one
        :meth:`BufferPool.fetch_run` per run charges the same fetches,
        hits and LRU order in O(1).  The run's slots are checked before
        its hits are charged, so a bad slot raises what :meth:`fetch_doc`
        raises, after the same charges.
        """
        docs: List[FrozenSet[int]] = []
        for record, run in groupby(entries, key=lambda entry: entry.doc_record.record):
            refs = [entry.doc_record for entry in run]
            first = len(docs)
            page = self.buffer.fetch_run(
                record,
                len(refs),
                consumed=lambda page: _take_docs(page, refs, docs),
            )
            taken = len(docs) - first
            if taken < len(refs):
                slot_payload(page, refs[taken])  # raises on a bad slot
                raise IndexStructureError(
                    f"record {refs[taken]} is not a keyword set"
                )
        return docs

    # ------------------------------------------------------------------
    # packed columnar leaf blocks (vectorized scoring substrate)
    # ------------------------------------------------------------------
    def _allocate_packed(
        self, items: List[Tuple[int, Any, FrozenSet[int]]]
    ) -> int:
        """Build and store a leaf's packed columnar block."""
        from ..core.vectorized import PackedLeaf  # lazy: import cycle

        packed = PackedLeaf.build(items, self.vocab)
        return self.buffer.allocate(
            packed, packed_leaf_bytes(len(items), self.vocab.n_blocks)
        )

    def _repack_leaf(self, node: Node) -> None:
        """Rebuild a mutated leaf's packed block from its entries.

        Documents are re-read through the buffer pool (accounted, fault
        surface exercised) — the same way the summary recompute reads
        them — so the storage-operation sequence stays identical whether
        the vectorized path is on or off.
        """
        from ..core.vectorized import PackedLeaf  # lazy: import cycle

        if not node.entries:
            return
        entries = node.object_entries
        items = [
            (entry.oid, entry.loc, doc)
            for entry, doc in zip(entries, self.fetch_docs(entries))
        ]
        packed = PackedLeaf.build(items, self.vocab)
        nbytes = packed_leaf_bytes(len(items), self.vocab.n_blocks)
        if node.packed_record >= 0:
            self.buffer.update(node.packed_record, packed, nbytes)
        else:
            node.packed_record = self.buffer.allocate(packed, nbytes)

    def packed_leaf(self, node: Node) -> Optional["PackedLeaf"]:
        """The leaf's packed block, or ``None`` when unavailable.

        Read with :meth:`BufferPool.peek` — the block mirrors data whose
        I/O both paths already charge (locations live in the node
        record, keyword sets in the packed doc pages), so charging it
        again would double-count; the caller fetches the docs itself
        with :meth:`fetch_docs`.  A missing or corrupt block (e.g.
        rotted by an injected fault) degrades to ``None`` and the caller
        falls back to the bit-identical scalar loop for this leaf.
        """
        from ..core.vectorized import PackedLeaf  # lazy: import cycle

        if node.packed_record < 0:
            return None
        try:
            payload = self.buffer.peek(node.packed_record)
        except StorageError:
            return None
        if not isinstance(payload, PackedLeaf):
            return None
        return payload

    def resize_buffer(self, capacity_pages: int) -> None:
        """Re-size the buffer pool (in pages) and cold-start it.

        Experiments use this to keep the paper's buffer-pressure ratio
        on scaled-down datasets: a 4 MB buffer that dwarfs a 4,000
        object index would hide all I/O differences.
        """
        if capacity_pages <= 0:
            raise IndexStructureError(
                f"buffer capacity must be positive, got {capacity_pages}"
            )
        self.buffer.capacity_pages = capacity_pages
        self.buffer.clear()

    def root(self) -> Node:
        if self.root_id < 0:
            raise IndexStructureError("index has no root (build failed?)")
        return self.fetch_node(self.root_id)

    def reset_buffer(self) -> None:
        """Cold-start the cache (between experiment repetitions)."""
        self.buffer.clear()

    @property
    def min_fill(self) -> int:
        """Guttman's ``m``: 40% of capacity, capped at half.

        Used both as the split distribution floor and the condense-tree
        underflow threshold; a floor of at least 2 (when capacity
        allows) is what lets single-child chains collapse after mass
        deletions.
        """
        return max(1, min(self.capacity // 2, math.ceil(0.4 * self.capacity)))

    # ------------------------------------------------------------------
    # dynamic insertion
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Insert one object into the built tree.

        Classic Guttman R-tree insertion — ChooseLeaf by minimum area
        enlargement, quadratic split on overflow, root growth — with
        the textual summaries maintained along the insertion path:
        union/count summaries grow additively and intersections can
        only shrink, so each node on the path updates in place; split
        halves recompute their summaries from their members.

        The object must already be part of ``self.dataset`` (use
        :meth:`repro.model.objects.Dataset.add` first, or go through
        ``WhyNotEngine.insert`` which does both).
        """
        if obj.oid not in self.dataset:
            raise IndexStructureError(
                f"object {obj.oid} must be added to the dataset before "
                "being inserted into the index"
            )
        self.vocab.extend(obj.doc)  # widen the bitmask vocabulary first
        writer = PackedWriter(self.buffer)
        index = writer.add(obj.doc, keyword_set_bytes(len(obj.doc)))
        writer.flush()
        entry = ObjectEntry(oid=obj.oid, loc=obj.loc, doc_record=writer.ref(index))
        self._insert_entry(0, entry, obj.doc)

    def _insert_entry(self, level: int, entry: Entry, payload: Any) -> None:
        """Insert an entry into a node at ``level`` (0 = a leaf).

        ``payload`` is what every ancestor on the path absorbs: the
        object's document for an :class:`ObjectEntry`, the child's
        stored summary payload for a :class:`ChildEntry` (inserts and
        condense-tree reinserts).
        """
        sibling = self._insert_into(self.root_id, level, entry, payload)
        root = self.buffer.fetch(self.root_id)
        if sibling is None:
            self.root_rect = root.rect
            return
        # Root split: grow the tree by one level.
        old_entry = ChildEntry(
            child_id=self.root_id, rect=root.rect, aux_record=root.aux_record
        )
        entries: List[Any] = [old_entry, sibling]
        rect = old_entry.rect.union(sibling.rect)
        payload, nbytes = self._merge_payloads(
            [self.buffer.fetch(old_entry.aux_record),
             self.buffer.fetch(sibling.aux_record)]
        )
        aux_record = self.buffer.allocate(payload, nbytes)
        new_root = Node(
            node_id=-1,
            is_leaf=False,
            rect=rect,
            entries=entries,
            level=root.level + 1,
            aux_record=aux_record,
        )
        new_root.node_id = self.buffer.allocate(new_root, node_bytes(len(entries)))
        self.node_count += 1
        self.height += 1
        self.root_id = new_root.node_id
        self.root_rect = rect
        self.root_summary_record = aux_record

    def _insert_into(
        self, node_id: int, level: int, entry: Entry, payload: Any
    ) -> Optional[ChildEntry]:
        """Recursive insert; returns the split sibling's entry, if any."""
        node = self.buffer.fetch(node_id)
        self._absorb_summary(node.aux_record, level, payload)
        if node.level == level:
            node.entries.append(entry)
        else:
            target = (
                Rect.from_point(entry.loc)
                if isinstance(entry, ObjectEntry)
                else entry.rect
            )
            index = self._choose_subtree(node, target)
            child = node.entries[index]
            sibling = self._insert_into(child.child_id, level, entry, payload)
            child_node = self.buffer.fetch(child.child_id)
            node.entries[index] = ChildEntry(
                child_id=child.child_id,
                rect=child_node.rect,
                aux_record=child.aux_record,
            )
            if sibling is not None:
                node.entries.append(sibling)
        node.rect = bounding_rect(self._entry_rect(node, e) for e in node.entries)
        split_entry: Optional[ChildEntry] = None
        if len(node.entries) > self.capacity:
            split_entry = self._split_node(node)  # repacks both leaf halves
        elif node.is_leaf:
            self._repack_leaf(node)
        self._write_node(node)
        return split_entry

    @staticmethod
    def _entry_rect(node: Node, entry: Any) -> Rect:
        return Rect.from_point(entry.loc) if node.is_leaf else entry.rect

    def _choose_subtree(self, node: Node, target: Rect) -> int:
        """Guttman ChooseSubtree: minimum area enlargement, ties by area."""
        best_index = 0
        best_key = (math.inf, math.inf)
        for index, entry in enumerate(node.entries):
            enlarged = entry.rect.union(target)
            key = (enlarged.area() - entry.rect.area(), entry.rect.area())
            if key < best_key:
                best_key = key
                best_index = index
        return best_index

    def _split_node(self, node: Node) -> ChildEntry:
        """Quadratic split; ``node`` keeps one half, returns the other."""
        rect_of = lambda e: self._entry_rect(node, e)  # noqa: E731
        group_a, group_b = _quadratic_split(node.entries, rect_of, self.min_fill)
        node.entries = group_a
        node.rect = bounding_rect(rect_of(e) for e in group_a)
        payload, nbytes = self._payload_of_entries(node)
        self.buffer.update(node.aux_record, payload, nbytes)
        if node.is_leaf:
            self._repack_leaf(node)

        sibling = Node(
            node_id=-1,
            is_leaf=node.is_leaf,
            rect=bounding_rect(rect_of(e) for e in group_b),
            entries=group_b,
            level=node.level,
        )
        sibling.node_id = self.buffer.allocate(
            sibling, node_bytes(len(group_b))
        )
        payload, nbytes = self._payload_of_entries(sibling)
        sibling.aux_record = self.buffer.allocate(payload, nbytes)
        if sibling.is_leaf:
            self._repack_leaf(sibling)
        self.node_count += 1
        return ChildEntry(
            child_id=sibling.node_id, rect=sibling.rect, aux_record=sibling.aux_record
        )

    def _payload_of_entries(self, node: Node) -> Tuple[Any, int]:
        """Recompute a node's summary payload from its members."""
        if node.is_leaf:
            summary = TextSummary.of_docs(self.fetch_docs(node.object_entries))
            return self._summary_payload(summary)
        return self._merge_payloads(
            [self.buffer.fetch(e.aux_record) for e in node.entries]
        )

    # ------------------------------------------------------------------
    # dynamic deletion
    # ------------------------------------------------------------------
    def delete(self, obj: SpatialObject) -> None:
        """Remove one object from the tree (Guttman delete).

        FindLeaf locates the entry by containment on the object's
        point; CondenseTree removes underflowing nodes (below 40% of
        capacity) and reinserts their entries at their own level — an
        underflowing leaf's objects as objects, an underflowing branch's
        child entries as whole subtrees whose records stay untouched;
        a single-child root is collapsed.  Textual summaries cannot be
        decremented (unions and intersections are not invertible), so
        every node on the deletion path that survives recomputes its
        summary from its members, once its parent has decided it does
        not underflow; a reinserted subtree's ancestors merge its stored
        summary in.

        Deleting the last indexed object is refused — an empty R-tree
        has no valid MBR and the library's datasets are non-empty by
        contract.  Call with the object still present in the dataset;
        remove it from the dataset afterwards (or use
        ``WhyNotEngine.remove`` which orders both).
        """
        root = self.buffer.fetch(self.root_id)
        if root.is_leaf and len(root.entries) <= 1:
            raise IndexStructureError(
                "refusing to delete the last indexed object"
            )
        orphans: Deque[Tuple[int, Entry, Any]] = deque()
        root = self._delete_rec(self.root_id, obj, orphans)
        if root is None:
            raise IndexStructureError(f"object {obj.oid} is not indexed")
        if root.is_leaf or len(root.entries) > 1:
            self._refresh_node(root)
        # Collapse a single-child branch root (tree shrinks).  The
        # freed root is never refreshed; the child taking its place was
        # refreshed by it if the delete passed through that child.
        while not root.is_leaf and len(root.entries) == 1:
            only = root.entries[0]
            self._free_node(root)
            self.height -= 1
            self.root_id = only.child_id
            self.root_summary_record = only.aux_record
            root = self.buffer.fetch(self.root_id)
        self.root_rect = root.rect
        while orphans:
            level, entry, payload = orphans.popleft()
            if isinstance(entry, ChildEntry) and level >= self.height:
                # The root collapsed below this entry's level: dissolve
                # the orphaned node and reinsert its entries one down.
                self._orphan_entries(self.buffer.fetch(entry.child_id), orphans)
            else:
                self._insert_entry(level, entry, payload)

    def _delete_rec(
        self,
        node_id: int,
        obj: SpatialObject,
        orphans: Deque[Tuple[int, Entry, Any]],
    ) -> Optional[Node]:
        """Remove ``obj``'s entry below ``node_id``; the changed node,
        or ``None`` when ``obj`` is not below it.

        The returned node is not yet refreshed: its parent first decides
        whether it underflows, so a node that is condensed away is freed
        without being rewritten.
        """
        node = self.buffer.fetch(node_id)
        if node.is_leaf:
            for index, entry in enumerate(node.entries):
                if entry.oid == obj.oid:
                    node.entries.pop(index)
                    return node
            return None
        for index, child_entry in enumerate(node.entries):
            if not child_entry.rect.contains_point(obj.loc):
                continue
            child_node = self._delete_rec(child_entry.child_id, obj, orphans)
            if child_node is None:
                continue
            if len(child_node.entries) < self.min_fill:
                node.entries.pop(index)
                self._orphan_entries(child_node, orphans)
            else:
                self._refresh_node(child_node)
                node.entries[index] = ChildEntry(
                    child_id=child_entry.child_id,
                    rect=child_node.rect,
                    aux_record=child_entry.aux_record,
                )
            return node
        return None

    def _orphan_entries(
        self, node: Node, orphans: Deque[Tuple[int, Entry, Any]]
    ) -> None:
        """Queue a condensed-away node's entries for reinsertion at its
        level, each with the payload its new ancestors absorb (an
        object's document, a child's stored summary), and release the
        node's own records; its children's records are kept."""
        if node.is_leaf:
            payloads: List[Any] = self.fetch_docs(node.object_entries)
        else:
            payloads = [self.buffer.fetch(entry.aux_record) for entry in node.entries]
        for entry, payload in zip(node.entries, payloads):
            orphans.append((node.level, entry, payload))
        self._free_node(node)

    def _free_node(self, node: Node) -> None:
        self.buffer.free(node.node_id)
        self.buffer.free(node.aux_record)
        if node.packed_record >= 0:
            self.buffer.free(node.packed_record)
        self.node_count -= 1

    def _refresh_node(self, node: Node) -> None:
        """Recompute a node's MBR and summary after member changes."""
        if node.entries:
            node.rect = bounding_rect(
                self._entry_rect(node, e) for e in node.entries
            )
            payload, nbytes = self._payload_of_entries(node)
            self.buffer.update(node.aux_record, payload, nbytes)
            if node.is_leaf:
                self._repack_leaf(node)
        self._write_node(node)

    def _absorb_summary(self, aux_record: int, level: int, payload: Any) -> None:
        """Grow an ancestor's summary by an entry inserted at ``level``."""
        current = self.buffer.fetch(aux_record)
        if level == 0:
            new_payload, nbytes = self._augment_payload(current, payload)
        else:
            new_payload, nbytes = self._merge_payloads([current, payload])
        self.buffer.update(aux_record, new_payload, nbytes)

    def _write_node(self, node: Node) -> None:
        self.buffer.update(node.node_id, node, node_bytes(len(node.entries)))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Walk the whole tree checking structural invariants.

        Raises :class:`IndexStructureError` on the first violation:
        child MBRs must be contained in the parent entry's MBR, every
        child must sit one level below its parent, leaves at level 0
        and the root at ``height - 1``, every object must appear
        exactly once.
        """
        root = self.buffer.fetch(self.root_id)
        if root.level + 1 != self.height:
            raise IndexStructureError(
                f"root at level {root.level} but height is {self.height}"
            )
        seen_objects: List[int] = []
        stack: List[Tuple[int, Optional[Rect], int]] = [
            (self.root_id, None, root.level)
        ]
        while stack:
            node_id, parent_rect, level = stack.pop()
            node = self.buffer.fetch(node_id)
            if node.level != level:
                raise IndexStructureError(
                    f"node {node_id} at level {node.level}, parent implies {level}"
                )
            actual = bounding_rect(
                Rect.from_point(e.loc) if node.is_leaf else e.rect
                for e in node.entries
            )
            if actual != node.rect:
                raise IndexStructureError(f"node {node_id}: stored MBR != entry MBR")
            if parent_rect is not None and not parent_rect.contains_rect(node.rect):
                raise IndexStructureError(f"node {node_id}: escapes parent MBR")
            if node.is_leaf:
                if node.level != 0:
                    raise IndexStructureError(f"leaf {node_id} at level {node.level}")
                seen_objects.extend(e.oid for e in node.entries)
            else:
                for entry in node.entries:
                    stack.append((entry.child_id, entry.rect, node.level - 1))
        if sorted(seen_objects) != sorted(o.oid for o in self.dataset):
            raise IndexStructureError("tree does not index the dataset exactly once")
