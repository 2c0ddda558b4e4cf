"""Index persistence: save and reload tree structure.

Bulk loading is cheap, but a *dynamically grown* tree's shape is the
product of its insertion history — rebuilding loses it (and with it
any benchmark comparing grown against bulk-loaded structure).  This
module persists the logical structure of a SetR-tree or KcR-tree to a
JSON document and reconstructs an equivalent tree:

* node topology (levels, entry grouping) is preserved exactly;
* object documents are re-read from the dataset (the tree never owns
  object data) and re-packed per leaf, so the storage layout follows
  the same deterministic rules as construction;
* textual summaries are recomputed bottom-up from the preserved
  grouping — they are pure functions of the subtree membership, so
  equality with the saved tree's summaries is guaranteed;
* each leaf's packed columnar block
  (:class:`repro.core.vectorized.PackedLeaf`) is rebuilt under the
  loaded tree's (deterministic) vocabulary interning, so the vectorized
  scoring substrate round-trips with the structure.

The dataset itself is persisted separately
(:func:`repro.data.io.save_dataset`); a saved index references objects
by id and refuses to load against a dataset that is missing any.

Index files share the crash-safe, checksummed persistence substrate
(:mod:`repro.storage.integrity`): atomic temp-file + rename on save,
CRC-32 body checksum from format version 2 on, and
:class:`repro.errors.PersistenceError` with recovery hints on
truncation, corruption, or unknown versions.  Version-1 files (no
checksum) remain loadable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Type, Union

from ..errors import IndexStructureError
from ..model.geometry import Rect, bounding_rect
from ..model.objects import Dataset
from ..storage.integrity import load_checked_json, save_checked_json
from ..storage.layout import keyword_set_bytes, node_bytes
from ..storage.packing import PackedWriter
from .entries import ChildEntry, Node, ObjectEntry
from .kcr_tree import KcRTree
from .rtree import RTreeBase, TextSummary
from .setr_tree import SetRTree

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)  # v1 predates checksums; still loadable
_CHECKSUM_REQUIRED_FROM = 2

_TREE_TYPES: Dict[str, Type[RTreeBase]] = {
    "setr": SetRTree,
    "kcr": KcRTree,
}


def _type_name(tree: RTreeBase) -> str:
    for name, cls in _TREE_TYPES.items():
        if type(tree) is cls:
            return name
    raise IndexStructureError(
        f"cannot persist index of type {type(tree).__name__}; "
        f"supported: {sorted(_TREE_TYPES)}"
    )


def _serialise_node(tree: RTreeBase, node_id: int) -> Dict[str, Any]:
    node = tree.buffer.fetch(node_id)
    if node.is_leaf:
        return {
            "leaf": True,
            "level": node.level,
            "objects": [entry.oid for entry in node.entries],
        }
    return {
        "leaf": False,
        "level": node.level,
        "children": [
            _serialise_node(tree, entry.child_id) for entry in node.entries
        ],
    }


def save_index(tree: RTreeBase, path: Union[str, Path]) -> None:
    """Atomically write a tree's logical structure to ``path``.

    The file carries ``format_version`` and a CRC-32 ``checksum``; the
    atomic replace means a crash mid-save can never leave a torn index
    file behind.
    """
    body = {
        "tree_type": _type_name(tree),
        "capacity": tree.capacity,
        "dataset_name": tree.dataset.name,
        "n_objects": len(tree.dataset),
        "root": _serialise_node(tree, tree.root_id),
    }
    save_checked_json(path, body, version=_FORMAT_VERSION)


class _StructureLoader:
    """Rebuilds pager records for a deserialised tree structure."""

    def __init__(self, tree: RTreeBase, dataset: Dataset) -> None:
        self.tree = tree
        self.dataset = dataset
        self.doc_writer = PackedWriter(tree.buffer)

    def build(self, spec: Dict[str, Any]) -> Tuple[Rect, ChildEntry, TextSummary]:
        if spec["leaf"]:
            return self._build_leaf(spec)
        child_items = [self.build(child) for child in spec["children"]]
        entries: List[Any] = [item[1] for item in child_items]
        rect = bounding_rect(item[0] for item in child_items)
        summary = TextSummary.merged(item[2] for item in child_items)
        return self._allocate(spec, rect, entries, summary, is_leaf=False)

    def _build_leaf(self, spec: Dict[str, Any]) -> Tuple[Rect, ChildEntry, TextSummary]:
        objects = [self.dataset.get(oid) for oid in spec["objects"]]
        indexes = [
            self.doc_writer.add(obj.doc, keyword_set_bytes(len(obj.doc)))
            for obj in objects
        ]
        self.doc_writer.flush()
        entries: List[Any] = [
            ObjectEntry(
                oid=obj.oid, loc=obj.loc, doc_record=self.doc_writer.ref(index)
            )
            for obj, index in zip(objects, indexes)
        ]
        rect = bounding_rect(Rect.from_point(obj.loc) for obj in objects)
        summary = TextSummary.of_docs([obj.doc for obj in objects])
        return self._allocate(
            spec,
            rect,
            entries,
            summary,
            is_leaf=True,
            packed_items=[(obj.oid, obj.loc, obj.doc) for obj in objects],
        )

    def _allocate(
        self,
        spec: Dict[str, Any],
        rect: Rect,
        entries: List[Any],
        summary: TextSummary,
        is_leaf: bool,
        packed_items: Any = None,
    ) -> Tuple[Rect, ChildEntry, TextSummary]:
        tree = self.tree
        if len(entries) > tree.capacity:
            raise IndexStructureError(
                f"saved node holds {len(entries)} entries, above the "
                f"declared capacity {tree.capacity}"
            )
        node = Node(
            node_id=-1,
            is_leaf=is_leaf,
            rect=rect,
            entries=entries,
            level=spec["level"],
        )
        node.node_id = tree.buffer.allocate(node, node_bytes(len(entries)))
        node.aux_record = tree._allocate_summary(summary)
        if packed_items is not None:
            # Rebuild the packed columnar block exactly as bulk loading
            # would: same vocabulary interning, same record contents.
            node.packed_record = tree._allocate_packed(packed_items)
        tree.node_count += 1
        return rect, ChildEntry(
            child_id=node.node_id, rect=rect, aux_record=node.aux_record
        ), summary


def load_index(
    path: Union[str, Path], dataset: Dataset, **tree_kwargs: Any
) -> RTreeBase:
    """Reconstruct a tree saved with :func:`save_index`.

    ``dataset`` must contain every object id the saved structure
    references (it may contain more — e.g. objects added after the
    save; those are simply not indexed and can be :meth:`inserted
    <repro.index.rtree.RTreeBase.insert>` afterwards).
    """
    payload = load_checked_json(
        path,
        kind="index",
        supported_versions=_SUPPORTED_VERSIONS,
        checksum_required_from=_CHECKSUM_REQUIRED_FROM,
    )
    tree_cls = _TREE_TYPES.get(payload["tree_type"])
    if tree_cls is None:
        raise IndexStructureError(
            f"unknown tree type {payload['tree_type']!r} in saved index; "
            f"this build reads {sorted(_TREE_TYPES)}. Re-save the index "
            "with a supported tree type or upgrade the library."
        )

    tree = tree_cls.__new__(tree_cls)  # bypass __init__'s bulk load
    tree._init_state(dataset, int(payload["capacity"]), **tree_kwargs)

    loader = _StructureLoader(tree, dataset)
    rect, root_entry, _ = loader.build(payload["root"])
    tree.root_id = root_entry.child_id
    tree.root_rect = rect
    tree.root_summary_record = root_entry.aux_record
    tree.height = payload["root"]["level"] + 1
    return tree
