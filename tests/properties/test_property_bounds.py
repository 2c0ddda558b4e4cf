"""Property-based soundness tests for MaxDom / MinDom.

The strongest invariant in the paper's Section V: for *any* world
(assignment of keywords to objects) consistent with a node's
keyword-count map, the true dominator count under a threshold pair
lies between MinDom and MaxDom.  Hypothesis draws the world first and
derives the count map from it, so consistency is by construction.

The batched kernel (:class:`DomBatch`) is held to the scalar functions
element by element, with ``==`` on every integer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    DomBatch,
    NodeTextStats,
    keyword_incidence,
    max_dom,
    max_dom_scan,
    min_dom,
    min_dom_scan,
)


def _jaccard(a, b):
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@st.composite
def worlds(draw):
    n_objects = draw(st.integers(min_value=1, max_value=7))
    docs = [
        draw(st.frozensets(st.integers(0, 8), max_size=5))
        for _ in range(n_objects)
    ]
    keywords = draw(st.frozensets(st.integers(0, 8), min_size=1, max_size=4))
    threshold = draw(
        st.floats(min_value=-0.2, max_value=1.2, allow_nan=False)
    )
    return docs, keywords, threshold


def _stats_of(docs):
    kcm = {}
    for doc in docs:
        for term in doc:
            kcm[term] = kcm.get(term, 0) + 1
    return NodeTextStats(len(docs), kcm)


class TestBoundsSoundness:
    @given(worlds())
    @settings(max_examples=500)
    def test_max_dom_upper_bounds_truth(self, world):
        docs, keywords, threshold = world
        stats = _stats_of(docs)
        # Theorem 2 semantics: an object *can* dominate only if
        # TSim > L, so the true count of potential dominators is the
        # number of objects with TSim > L in this world.
        truth = sum(1 for d in docs if _jaccard(d, keywords) > threshold)
        assert max_dom(stats, keywords, threshold) >= truth

    @given(worlds())
    @settings(max_examples=500)
    def test_min_dom_lower_bounds_truth(self, world):
        docs, keywords, threshold = world
        stats = _stats_of(docs)
        # Dual semantics: objects with TSim > U surely dominate; the
        # world's count of sure dominators must be >= MinDom.
        truth = sum(1 for d in docs if _jaccard(d, keywords) > threshold)
        assert min_dom(stats, keywords, threshold) <= truth

    @given(worlds())
    @settings(max_examples=300)
    def test_min_never_exceeds_max(self, world):
        docs, keywords, threshold = world
        stats = _stats_of(docs)
        assert min_dom(stats, keywords, threshold) <= max_dom(
            stats, keywords, threshold
        )

    @given(worlds())
    @settings(max_examples=500)
    def test_fast_search_matches_literal_scan(self, world):
        """The ternary/binary-search implementation must return exactly
        what the paper's literal downward scan returns (the concavity
        argument in bounds.py is what this test exercises)."""
        docs, keywords, threshold = world
        stats = _stats_of(docs)
        assert max_dom(stats, keywords, threshold) == max_dom_scan(
            stats, keywords, threshold
        )
        assert min_dom(stats, keywords, threshold) == min_dom_scan(
            stats, keywords, threshold
        )

    @given(worlds())
    @settings(max_examples=300)
    def test_bounds_within_cnt(self, world):
        docs, keywords, threshold = world
        stats = _stats_of(docs)
        for bound in (
            max_dom(stats, keywords, threshold),
            min_dom(stats, keywords, threshold),
        ):
            assert 0 <= bound <= len(docs)


@st.composite
def node_stats(draw):
    """Count maps of nodes up to a few thousand objects, so the lockstep
    search runs many ternary and bisection rounds."""
    cnt = draw(st.integers(min_value=0, max_value=3000))
    kcm = draw(
        st.dictionaries(
            st.integers(0, 12), st.integers(min_value=0, max_value=cnt), max_size=10
        )
    )
    return NodeTextStats(cnt, kcm)


def _crossing(stats, keywords, a, of_max):
    """A threshold on the zero crossing of MaxDom's ``f`` (or MinDom's
    ``g``) at ``ans = a``: ``N(a) / D(a)``."""
    rel = stats.rel_stats(keywords)
    cnt = stats.cnt
    if of_max:
        numerator = rel.capped_sum(a)
        denominator = len(keywords) * a + (
            stats.excess(cnt - a) - rel.excess(cnt - a)
        )
    else:
        numerator = rel.excess(cnt - a)
        denominator = len(keywords) * a + (
            stats.total - rel.total - (stats.excess(a) - rel.excess(a))
        )
    return numerator / denominator if denominator else 0.0


@st.composite
def threshold_for(draw, stats, keywords):
    kind = draw(st.sampled_from(["edge", "float", "max_crossing", "min_crossing"]))
    if kind == "edge":
        return draw(st.sampled_from([-0.25, 0.0, 1.0, 1.25]))
    if kind == "float":
        return draw(st.floats(min_value=-0.2, max_value=1.2, allow_nan=False))
    a = draw(st.integers(min_value=1, max_value=max(1, stats.cnt)))
    return _crossing(stats, keywords, a, kind == "max_crossing")


@st.composite
def bound_grids(draw):
    nodes = draw(st.lists(node_stats(), min_size=1, max_size=3))
    # Terms 13-15 are in no count map; an empty set is allowed.
    keyword_sets = draw(
        st.lists(st.frozensets(st.integers(0, 15), max_size=5), min_size=1, max_size=4)
    )
    n_thresholds = draw(st.integers(min_value=1, max_value=3))
    thresholds = np.array(
        [
            [
                [draw(threshold_for(stats, keywords)) for _ in range(n_thresholds)]
                for keywords in keyword_sets
            ]
            for stats in nodes
        ]
    )
    return nodes, keyword_sets, thresholds


class TestBatchedBounds:
    @given(bound_grids())
    @settings(max_examples=300, deadline=None)
    def test_batched_equals_scalar(self, grid):
        nodes, keyword_sets, thresholds = grid
        universe, incidence = keyword_incidence(keyword_sets)
        kernel = DomBatch(nodes, universe, incidence, thresholds.shape[2])
        dmax = kernel.max_dom(thresholds)
        dmin = kernel.min_dom(thresholds)
        only = dmax != 0
        dmin_only = kernel.min_dom(thresholds, only=only)
        for (c, k, i), threshold in np.ndenumerate(thresholds):
            stats, keywords = nodes[c], keyword_sets[k]
            assert dmax[c, k, i] == max_dom(stats, keywords, threshold)
            assert dmin[c, k, i] == min_dom(stats, keywords, threshold)
            assert dmin_only[c, k, i] == (dmin[c, k, i] if only[c, k, i] else 0)
