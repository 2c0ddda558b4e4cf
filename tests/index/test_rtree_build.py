"""Unit tests for R-tree construction (STR bulk load, shared plumbing)."""

import pytest

from repro import Dataset, IndexStructureError, SetRTree, SpatialObject
from repro.index.rtree import TextSummary


def _dataset(n=250, terms=7):
    objects = [
        SpatialObject(
            oid=i,
            loc=(float(i % 17) / 17.0, float(i % 13) / 13.0),
            doc=frozenset({i % terms, (i * 3) % terms}),
        )
        for i in range(n)
    ]
    return Dataset(objects, diagonal=2.0**0.5)


class TestTextSummary:
    def test_of_object(self):
        obj = SpatialObject(oid=1, loc=(0.0, 0.0), doc=frozenset({1, 2}))
        summary = TextSummary.of_object(obj)
        assert summary.cnt == 1
        assert summary.union == {1, 2}
        assert summary.intersection == {1, 2}

    def test_merged(self):
        a = SpatialObject(oid=1, loc=(0.0, 0.0), doc=frozenset({1, 2}))
        b = SpatialObject(oid=2, loc=(0.0, 0.0), doc=frozenset({2, 3}))
        merged = TextSummary.merged(
            [TextSummary.of_object(a), TextSummary.of_object(b)]
        )
        assert merged.cnt == 2
        assert merged.union == {1, 2, 3}
        assert merged.intersection == {2}
        assert merged.counts[2] == 2

    def test_of_docs_equals_merged_object_summaries(self):
        objects = list(_dataset(n=60, terms=11))
        one_pass = TextSummary.of_docs([obj.doc for obj in objects])
        merged = TextSummary.merged(TextSummary.of_object(obj) for obj in objects)
        assert one_pass.cnt == merged.cnt == 60
        assert list(one_pass.counts.items()) == list(merged.counts.items())


class TestBuild:
    def test_empty_dataset_rejected(self):
        with pytest.raises(IndexStructureError):
            SetRTree(Dataset([]))

    def test_tiny_capacity_rejected(self):
        with pytest.raises(IndexStructureError):
            SetRTree(_dataset(10), capacity=1)

    def test_single_object_tree(self):
        ds = Dataset([SpatialObject(oid=0, loc=(0.5, 0.5), doc=frozenset({1}))])
        tree = SetRTree(ds, capacity=4)
        assert tree.height == 1
        root = tree.root()
        assert root.is_leaf
        assert len(root) == 1

    def test_structure_validates(self):
        tree = SetRTree(_dataset(300), capacity=8)
        tree.validate()  # raises on any invariant violation

    @pytest.mark.parametrize("capacity", [4, 10, 64])
    def test_all_objects_indexed_once(self, capacity):
        ds = _dataset(123)
        tree = SetRTree(ds, capacity=capacity)
        seen = []
        stack = [tree.root_id]
        while stack:
            node = tree.buffer.fetch(stack.pop())
            if node.is_leaf:
                seen.extend(e.oid for e in node.entries)
            else:
                stack.extend(e.child_id for e in node.entries)
        assert sorted(seen) == list(range(123))

    def test_capacity_respected(self):
        tree = SetRTree(_dataset(500), capacity=10)
        stack = [tree.root_id]
        while stack:
            node = tree.buffer.fetch(stack.pop())
            assert len(node.entries) <= 10
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.entries)

    def test_height_grows_with_size(self):
        small = SetRTree(_dataset(9), capacity=10)
        large = SetRTree(_dataset(500), capacity=10)
        assert small.height == 1
        assert large.height >= 3

    def test_node_count(self):
        tree = SetRTree(_dataset(100), capacity=10)
        # 10 leaves + 1 root
        assert tree.node_count == 11


class TestAccessAccounting:
    def test_fetch_node_counts(self):
        tree = SetRTree(_dataset(100), capacity=10)
        before = tree.stats.node_fetches
        tree.root()
        assert tree.stats.node_fetches == before + 1

    def test_reset_buffer_forces_cold_reads(self):
        tree = SetRTree(_dataset(100), capacity=10)
        tree.root()
        tree.reset_buffer()
        before = tree.stats.page_reads
        tree.root()
        assert tree.stats.page_reads > before

    def test_resize_buffer_validation(self):
        tree = SetRTree(_dataset(50), capacity=10)
        with pytest.raises(IndexStructureError):
            tree.resize_buffer(0)
        tree.resize_buffer(8)
        assert tree.buffer.capacity_pages == 8
