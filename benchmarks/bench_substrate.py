"""Substrate micro-benchmarks: index construction, top-k search, rank
determination, and the MaxDom/MinDom bound estimators.

Not paper figures — these track the building blocks whose costs the
figures aggregate, so a regression here localises a regression there.

The ``substrate`` emitter of :mod:`repro.experiments.benchflows`
(``repro-whynot bench --emit --figures substrate``) writes the same
units to ``BENCH_substrate.json`` with seeded p50/p99 latencies and
buffer-pool I/O counters, both under the CI bench gate.
"""

import pytest

from repro import KcRTree, SetRTree, SpatialKeywordQuery, TopKSearcher, make_euro_like
from repro.core.bounds import NodeTextStats, max_dom, min_dom
from repro.experiments.benchflows import BENCH_SEED


@pytest.fixture(scope="module")
def dataset():
    return make_euro_like(2000, seed=BENCH_SEED)[0]


@pytest.fixture(scope="module")
def setr(dataset):
    return SetRTree(dataset, capacity=100)


@pytest.fixture(scope="module")
def kcr(dataset):
    return KcRTree(dataset, capacity=100)


def _query(dataset, k=10):
    obj = dataset.objects[17]
    return SpatialKeywordQuery(
        loc=obj.loc, doc=frozenset(list(obj.doc)[:3]), k=k, alpha=0.5
    )


class TestIndexConstruction:
    def test_build_setr_tree(self, benchmark, dataset):
        benchmark.group = "substrate build"
        benchmark.pedantic(
            lambda: SetRTree(dataset, capacity=100), rounds=3, iterations=1
        )

    def test_build_kcr_tree(self, benchmark, dataset):
        benchmark.group = "substrate build"
        benchmark.pedantic(
            lambda: KcRTree(dataset, capacity=100), rounds=3, iterations=1
        )


class TestSearch:
    def test_top_k_setr(self, benchmark, dataset, setr):
        benchmark.group = "substrate search"
        searcher = TopKSearcher(setr)
        query = _query(dataset)
        benchmark(lambda: searcher.top_k(query))

    def test_top_k_kcr(self, benchmark, dataset, kcr):
        benchmark.group = "substrate search"
        searcher = TopKSearcher(kcr)
        query = _query(dataset)
        benchmark(lambda: searcher.top_k(query))

    def test_rank_determination(self, benchmark, dataset, setr):
        benchmark.group = "substrate search"
        searcher = TopKSearcher(setr)
        query = _query(dataset)
        missing = [dataset.objects[900]]
        benchmark(lambda: searcher.rank_of_missing(query, missing))


class TestInsertion:
    def test_incremental_insert_setr(self, benchmark, dataset):
        """Per-object dynamic insertion cost (capacity 100 tree)."""
        from repro import Dataset, SetRTree, SpatialObject

        objects = list(dataset.objects)
        base = Dataset(objects[:1500], diagonal=dataset.diagonal)
        tree = SetRTree(base, capacity=100)
        remaining = iter(objects[1500:])
        benchmark.group = "substrate insert"

        def unit():
            obj = next(remaining)
            base.add(obj)
            tree.insert(obj)

        benchmark.pedantic(unit, rounds=100, iterations=1)


class TestBounds:
    def test_max_dom_root_scale(self, benchmark, kcr):
        benchmark.group = "substrate bounds"
        cnt, kcm = kcr.fetch_kcm(kcr.root_summary_record)
        stats = NodeTextStats(cnt, kcm)
        keywords = frozenset(list(kcm)[:4])
        benchmark(lambda: max_dom(stats, keywords, 0.3))

    def test_min_dom_root_scale(self, benchmark, kcr):
        benchmark.group = "substrate bounds"
        cnt, kcm = kcr.fetch_kcm(kcr.root_summary_record)
        stats = NodeTextStats(cnt, kcm)
        keywords = frozenset(list(kcm)[:4])
        benchmark(lambda: min_dom(stats, keywords, 0.7))
