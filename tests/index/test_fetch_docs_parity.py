"""``RTreeBase.fetch_docs`` charges exactly what per-entry ``fetch_doc`` does.

Two trees are built identically, each over its own seeded
:class:`FaultInjector`.  For every leaf, one tree reads the docs with
one ``fetch_docs`` call and the other with a ``fetch_doc`` loop; after
each leaf the two must agree on:

* the docs, or the error class and message when a read fails;
* the ``IOStatistics`` counters;
* the pool's ``fetch_count`` / ``hit_count`` / ``miss_count``;
* the pool's LRU order (``cached_records()``);
* the injector's ledger and its random state, so every later fault
  decision replays identically.

The reads run under transient read faults (absorbed by the pool's
retries) and rare rot and lost records (which surface as errors).
Worlds: a bulk-loaded euro-like tree, the same tree after 50 seeded
inserts (an inserted object's doc sits on its own page, so leaves
interleave doc pages), and a zero-capacity pool (every fetch a miss).
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro import KcRTree, SetRTree, make_euro_like
from repro.errors import IndexStructureError, StorageError
from repro.index.entries import ObjectEntry
from repro.storage.faults import FaultInjector, FaultSchedule
from repro.storage.packing import SlotRef

BUILD_SCHEDULE = FaultSchedule(transient_read_rate=0.15)
SCHEDULE = BUILD_SCHEDULE | FaultSchedule(bit_rot_rate=0.01, lost_record_rate=0.01)
N_OBJECTS = 800
N_INSERTS = 50


def _dataset():
    dataset, _ = make_euro_like(N_OBJECTS, seed=31)
    return dataset


def _build(tree_cls, world: str):
    """One tree of ``world`` and the injector its pager consults.

    The build sees transient faults only, so every tree gets built;
    the reads afterwards run under the full schedule."""
    dataset = _dataset()
    injector = FaultInjector(BUILD_SCHEDULE, seed=11)
    buffer_bytes = 0 if world == "zero-capacity" else 8 * 4096
    late = []
    if world == "inserted":
        rng = np.random.default_rng(5)
        objects = list(dataset)
        late = [objects[i] for i in rng.choice(len(objects), size=N_INSERTS, replace=False)]
        for obj in late:
            dataset.remove(obj.oid)
    tree = tree_cls(dataset, capacity=60, buffer_bytes=buffer_bytes, faults=injector)
    for obj in late:
        dataset.add(obj)
        tree.insert(obj)
    injector.schedule = SCHEDULE
    return tree, injector


def _leaves(tree) -> List[Any]:
    """Every leaf, found by an uncharged walk."""
    leaves, stack = [], [tree.root_id]
    while stack:
        node = tree.buffer.peek(stack.pop())
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(entry.child_id for entry in reversed(node.child_entries))
    return leaves


def _state(tree, injector) -> Dict[str, Any]:
    pool = tree.buffer
    return {
        "io": tree.stats.snapshot(),
        "pool": (pool.fetch_count, pool.hit_count, pool.miss_count),
        "lru": list(pool.cached_records().items()),
        "ledger": injector.summary(),
        "rng": injector._rng.getstate(),
    }


def _outcome(read: Callable[[], List[frozenset]]) -> Tuple[str, Any]:
    try:
        return "ok", read()
    except StorageError as exc:
        return type(exc).__name__, str(exc)


def _per_entry(tree, entries: Sequence[ObjectEntry]) -> List[frozenset]:
    return [tree.fetch_doc(entry.doc_record) for entry in entries]


WORLDS = ["bulk", "inserted", "zero-capacity"]


@pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
@pytest.mark.parametrize("world", WORLDS)
def test_fetch_docs_charges_like_per_entry_fetch_doc(tree_cls, world):
    batched, batched_faults = _build(tree_cls, world)
    looped, looped_faults = _build(tree_cls, world)
    assert _state(batched, batched_faults) == _state(looped, looped_faults)
    leaves = _leaves(batched)
    assert [leaf.node_id for leaf in leaves] == [leaf.node_id for leaf in _leaves(looped)]

    for _ in range(2):  # the second sweep reads through the first's LRU state
        for leaf in leaves:
            entries = leaf.object_entries
            got = _outcome(lambda: batched.fetch_docs(entries))
            want = _outcome(lambda: _per_entry(looped, entries))
            assert got == want, f"leaf {leaf.node_id}"
            assert _state(batched, batched_faults) == _state(looped, looped_faults)
    assert batched_faults.transients_injected > 0
    pages = [entry.doc_record.record for leaf in leaves for entry in leaf.object_entries]
    runs = [page for page, _ in groupby(pages)]
    if world == "inserted":
        assert len(runs) > len(set(runs))  # a page's entries are split apart
    if world == "zero-capacity":
        assert batched.buffer.hit_count == 0


def _bad_runs(tree) -> List[List[ObjectEntry]]:
    """Entry lists that fail in the middle of a run, with good slots of
    the same page after the bad one: a non-doc slot, and a slot past
    the end of a real doc page."""
    record = tree.buffer.allocate((frozenset({1}), "not a doc", frozenset({2})), 64)
    good = list(_leaves(tree)[0].object_entries)[:3]
    page, loc = good[0].doc_record.record, good[0].loc
    return [
        good + [
            ObjectEntry(oid=-1 - slot, loc=loc, doc_record=SlotRef(record, slot))
            for slot in range(3)
        ],
        good[:1]
        + [ObjectEntry(oid=-4, loc=loc, doc_record=SlotRef(page, 10_000))]
        + good[1:],
    ]


@pytest.mark.parametrize("world", ["bulk", "zero-capacity"])
def test_bad_slot_fails_after_the_same_charges(world):
    batched, batched_faults = _build(SetRTree, world)
    looped, looped_faults = _build(SetRTree, world)
    cases = zip(_bad_runs(batched), _bad_runs(looped), (IndexStructureError, StorageError))
    for got_entries, want_entries, error in cases:
        with pytest.raises(error) as got:
            batched.fetch_docs(got_entries)
        with pytest.raises(error) as want:
            _per_entry(looped, want_entries)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert _state(batched, batched_faults) == _state(looped, looped_faults)
