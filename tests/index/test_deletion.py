"""Tests for dynamic R-tree deletion (condense tree + reinsertion)."""

import numpy as np
import pytest

from repro import (
    Dataset,
    DatasetError,
    IndexStructureError,
    KcRTree,
    Oracle,
    SetRTree,
    SpatialKeywordQuery,
    SpatialObject,
    TopKSearcher,
    WhyNotEngine,
    make_euro_like,
)
from repro.analysis import check_tree


def _score_multiset(oracle, dataset, query, oids):
    scores = oracle.scores(query)
    row = {o.oid: i for i, o in enumerate(dataset.objects)}
    return sorted(round(scores[row[oid]], 10) for oid in oids)


class TestDatasetRemove:
    def test_remove_updates_statistics(self):
        ds = Dataset(
            [
                SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1, 2})),
                SpatialObject(oid=1, loc=(0.2, 0.2), doc=frozenset({1})),
            ],
            diagonal=1.0,
        )
        removed = ds.remove(0)
        assert removed.oid == 0
        assert len(ds) == 1
        assert ds.frequency(1) == 1
        assert ds.frequency(2) == 0
        assert 2 not in ds.doc_frequency

    def test_remove_unknown(self):
        ds = Dataset(
            [SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1}))],
            diagonal=1.0,
        )
        with pytest.raises(DatasetError):
            ds.remove(9)


class TestTreeDeletion:
    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_structure_valid_after_deletes(self, tree_cls):
        full, _ = make_euro_like(250, seed=53)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = tree_cls(dataset, capacity=6)
        rng = np.random.default_rng(1)
        victims = list(rng.choice([o.oid for o in dataset.objects], 120, replace=False))
        for oid in victims:
            obj = dataset.get(oid)
            tree.delete(obj)
            dataset.remove(oid)
        tree.validate()

    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_queries_correct_after_deletes(self, tree_cls):
        full, _ = make_euro_like(200, seed=57)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = tree_cls(dataset, capacity=6)
        rng = np.random.default_rng(2)
        victims = list(rng.choice([o.oid for o in dataset.objects], 80, replace=False))
        for oid in victims:
            tree.delete(dataset.get(oid))
            dataset.remove(oid)
        oracle = Oracle(dataset)
        searcher = TopKSearcher(tree)
        for _ in range(3):
            obj = dataset.objects[int(rng.integers(0, len(dataset)))]
            doc = frozenset(list(obj.doc)[:3])
            query = SpatialKeywordQuery(loc=obj.loc, doc=doc, k=10)
            got = [oid for _, oid in searcher.top_k(query)]
            expected = oracle.top_k_ids(query)
            assert _score_multiset(oracle, dataset, query, got) == _score_multiset(
                oracle, dataset, query, expected
            )

    def test_deleted_object_unfindable(self):
        full, _ = make_euro_like(120, seed=59)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = SetRTree(dataset, capacity=6)
        victim = dataset.objects[7]
        tree.delete(victim)
        dataset.remove(victim.oid)
        seen = []
        stack = [tree.root_id]
        while stack:
            node = tree.buffer.fetch(stack.pop())
            if node.is_leaf:
                seen.extend(e.oid for e in node.entries)
            else:
                stack.extend(e.child_id for e in node.entries)
        assert victim.oid not in seen
        assert sorted(seen) == sorted(o.oid for o in dataset)

    def test_summaries_consistent_after_churn(self):
        """Insert/delete interleaving must keep KcR counts exact."""
        full, _ = make_euro_like(150, seed=61)
        objects = list(full.objects)
        dataset = Dataset(objects[:100], diagonal=full.diagonal)
        tree = KcRTree(dataset, capacity=5)
        rng = np.random.default_rng(3)
        pool = objects[100:]
        for step in range(60):
            if pool and (step % 2 == 0 or len(dataset) < 60):
                obj = pool.pop()
                dataset.add(obj)
                tree.insert(obj)
            else:
                victim_oid = dataset.objects[
                    int(rng.integers(0, len(dataset)))
                ].oid
                tree.delete(dataset.get(victim_oid))
                dataset.remove(victim_oid)
        tree.validate()
        cnt, kcm = tree.fetch_kcm(tree.root_summary_record)
        assert cnt == len(dataset)
        expected = {}
        for obj in dataset:
            for term in obj.doc:
                expected[term] = expected.get(term, 0) + 1
        assert kcm == expected

    def test_delete_unknown_object(self):
        full, _ = make_euro_like(50, seed=63)
        tree = SetRTree(full, capacity=6)
        ghost = SpatialObject(oid=10**6, loc=(0.5, 0.5), doc=frozenset({1}))
        with pytest.raises(IndexStructureError):
            tree.delete(ghost)

    def test_delete_last_object_refused(self):
        ds = Dataset(
            [SpatialObject(oid=0, loc=(0.5, 0.5), doc=frozenset({1}))],
            diagonal=1.0,
        )
        tree = SetRTree(ds, capacity=4)
        with pytest.raises(IndexStructureError):
            tree.delete(ds.get(0))

    def test_height_shrinks_after_mass_deletion(self):
        full, _ = make_euro_like(400, seed=65)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = SetRTree(dataset, capacity=4)
        initial_height = tree.height
        rng = np.random.default_rng(4)
        victims = list(
            rng.choice([o.oid for o in dataset.objects], 380, replace=False)
        )
        for oid in victims:
            tree.delete(dataset.get(oid))
            dataset.remove(oid)
        tree.validate()
        assert tree.height < initial_height


def _leaf_ids(tree, node_id):
    node = tree.buffer.peek(node_id)
    if node.is_leaf:
        return [node.node_id]
    return [leaf for e in node.entries for leaf in _leaf_ids(tree, e.child_id)]


def _record_orphaned(tree):
    """Wrap the tree's condense hook; return the list of nodes it
    orphans as ``(level, ids of the leaves below, height at the call)``."""
    orphaned = []
    orphan_entries = tree._orphan_entries

    def recording(node, orphans):
        leaves = [] if node.is_leaf else _leaf_ids(tree, node.node_id)
        orphaned.append((node.level, leaves, tree.height))
        orphan_entries(node, orphans)

    tree._orphan_entries = recording
    return orphaned


def _objects_under(tree, node_id):
    node = tree.buffer.peek(node_id)
    if node.is_leaf:
        return [e.oid for e in node.entries]
    return [oid for e in node.entries for oid in _objects_under(tree, e.child_id)]


class TestCondenseTree:
    """An underflowing branch's children go back in at their own level
    (Guttman's CondenseTree); only the branch's own records go."""

    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_internal_condense_moves_subtrees(self, tree_cls):
        full, _ = make_euro_like(600, seed=7)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = tree_cls(dataset, capacity=8)
        orphaned = _record_orphaned(tree)
        first, second = dataset.objects[0], dataset.objects[1]
        tree.delete(first)
        dataset.remove(first.oid)
        assert not any(level > 0 for level, _, _ in orphaned)

        writes = tree.stats.page_writes
        tree.delete(second)
        dataset.remove(second.oid)
        written = tree.stats.page_writes - writes
        moved = [leaves for level, leaves, _ in orphaned if level > 0]
        assert moved, "the second delete must condense a branch node"
        assert written <= 4 * tree.height * tree.capacity
        surviving = set(_leaf_ids(tree, tree.root_id))
        for leaves in moved:
            assert leaves and set(leaves) <= surviving
        assert check_tree(tree).ok
        tree.validate()

    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_condensed_records_are_freed_not_rewritten(self, tree_cls):
        # The second delete condenses a branch node and collapses the
        # root (reinsertion then grows a new one): both are freed, so
        # neither may be refreshed first.
        full, _ = make_euro_like(600, seed=7)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = tree_cls(dataset, capacity=8)
        first, second = dataset.objects[0], dataset.objects[1]
        tree.delete(first)
        dataset.remove(first.oid)
        updated, freed = [], []
        buffer_update, buffer_free = tree.buffer.update, tree.buffer.free

        def update(record_id, *args, **kwargs):
            updated.append(record_id)
            return buffer_update(record_id, *args, **kwargs)

        def free(record_id):
            freed.append(record_id)
            return buffer_free(record_id)

        tree.buffer.update, tree.buffer.free = update, free
        root_id = tree.root_id
        tree.delete(second)
        dataset.remove(second.oid)
        assert root_id in freed, "the second delete collapses the root"
        assert len(freed) == 4, "and condenses one branch node"
        assert set(updated).isdisjoint(freed)
        assert check_tree(tree).ok
        tree.validate()

    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_root_collapse_dissolves_orphaned_node(self, tree_cls):
        # The root has two children: one over four leaves, the other
        # over a single leaf.  Emptying the first condenses it while the
        # root collapses two levels, below the orphan's level, so the
        # orphaned node is dissolved into its leaf's objects.
        full, _ = make_euro_like(17, seed=3)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        tree = tree_cls(dataset, capacity=4)
        root = tree.buffer.peek(tree.root_id)
        sizes = sorted(
            len(tree.buffer.peek(e.child_id).entries) for e in root.entries
        )
        assert (tree.height, sizes) == (3, [1, 4])
        fat = max(
            root.entries, key=lambda e: len(tree.buffer.peek(e.child_id).entries)
        )
        victims = _objects_under(tree, fat.child_id)
        orphaned = _record_orphaned(tree)
        # A node condensed off the delete path sits at most at
        # height - 2; a higher one is a dissolve after the collapse.
        dissolves = lambda: [  # noqa: E731
            level for level, _, height in orphaned if level >= height - 1
        ]
        for oid in victims:
            tree.delete(dataset.get(oid))
            dataset.remove(oid)
            assert check_tree(tree).ok
            if dissolves():
                break
        assert dissolves() == [0]
        tree.validate()


class TestValidateLevels:
    def _tree(self):
        full, _ = make_euro_like(120, seed=11)
        return SetRTree(full, capacity=4)

    def test_child_one_level_too_high(self):
        tree = self._tree()
        root = tree.buffer.fetch(tree.root_id)
        child = tree.buffer.fetch(root.entries[0].child_id)
        child.level += 1
        with pytest.raises(IndexStructureError, match="level"):
            tree.validate()

    def test_stale_height(self):
        tree = self._tree()
        tree.height += 1
        with pytest.raises(IndexStructureError, match="height"):
            tree.validate()


class TestEngineRemove:
    def test_remove_keeps_answers_fresh(self):
        full, _ = make_euro_like(400, seed=67)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        engine = WhyNotEngine(dataset)
        _ = engine.setr_tree, engine.kcr_tree
        rng = np.random.default_rng(5)
        for _ in range(30):
            victim = dataset.objects[int(rng.integers(0, len(dataset)))].oid
            engine.remove(victim)

        fresh = WhyNotEngine(
            Dataset(list(dataset.objects), diagonal=dataset.diagonal)
        )
        oracle = Oracle(dataset)
        from repro import WhyNotQuestion

        checked = 0
        attempts = 0
        while checked < 2 and attempts < 60:
            attempts += 1
            obj = dataset.objects[int(rng.integers(0, len(dataset)))]
            doc = frozenset(list(obj.doc)[:3])
            if len(doc) < 2:
                continue
            query = SpatialKeywordQuery(loc=obj.loc, doc=doc, k=5)
            try:
                missing = oracle.object_at_rank(query, 16)
            except ValueError:
                continue
            if len(dataset.get(missing).doc - query.doc) > 5:
                continue
            question = WhyNotQuestion(query, (missing,), lam=0.5)
            a = engine.answer(question, method="kcr")
            b = fresh.answer(question, method="kcr")
            assert a.refined.penalty == pytest.approx(b.refined.penalty)
            checked += 1
        assert checked == 2
