"""Unit tests for MaxDom / MinDom (Algorithm 2 and its dual)."""

import itertools

import numpy as np
import pytest

from repro.core.bounds import (
    DomBatch,
    DominationThresholds,
    NodeTextStats,
    keyword_incidence,
    max_dom,
    min_dom,
)
from repro.errors import InvariantViolationError
from repro.model.geometry import Rect


class TestNodeTextStats:
    def test_excess(self):
        stats = NodeTextStats(8, {1: 8, 2: 3, 3: 7, 4: 2, 5: 1})
        assert stats.excess(0) == 21
        assert stats.excess(2) == 6 + 1 + 5  # (8-2)+(3-2)+(7-2)
        assert stats.excess(100) == 0

    def test_rel_counts(self):
        stats = NodeTextStats(8, {1: 8, 3: 7})
        assert sorted(stats.rel_counts(frozenset({1, 3, 9}))) == [7, 8]


class TestAlgorithm2PaperExample:
    """Example 5 of the paper: kcm={(t1,8),(t2,3),(t3,7),(t4,2),(t5,1)},
    cnt=8, S={t3,t4}, L=0.395 -> MaxDom = 6."""

    def test_example5(self):
        stats = NodeTextStats(8, {1: 8, 2: 3, 3: 7, 4: 2, 5: 1})
        assert max_dom(stats, frozenset({3, 4}), 0.395) == 6


class TestMaxDomEdgeCases:
    def test_vacuous_threshold_returns_cnt(self):
        stats = NodeTextStats(5, {1: 5})
        assert max_dom(stats, frozenset({1}), -0.1) == 5
        assert max_dom(stats, frozenset({1}), 0.0) == 5

    def test_impossible_threshold_returns_zero(self):
        stats = NodeTextStats(5, {1: 5})
        assert max_dom(stats, frozenset({1}), 1.0001) == 0

    def test_no_relevant_keywords(self):
        stats = NodeTextStats(5, {1: 5})
        assert max_dom(stats, frozenset({99}), 0.2) == 0

    def test_empty_keywords(self):
        stats = NodeTextStats(5, {1: 5})
        assert max_dom(stats, frozenset(), 0.2) == 0

    def test_all_objects_fully_relevant(self):
        # every object's doc == S -> TSim = 1 for all
        stats = NodeTextStats(4, {1: 4, 2: 4})
        assert max_dom(stats, frozenset({1, 2}), 0.9) == 4


def _enumerate_worlds(cnt, kcm):
    """All keyword->object assignments consistent with a count map."""
    terms = sorted(kcm)
    choices = [
        itertools.combinations(range(cnt), kcm[t]) for t in terms
    ]
    for combo in itertools.product(*choices):
        docs = [set() for _ in range(cnt)]
        for term, owners in zip(terms, combo):
            for owner in owners:
                docs[owner].add(term)
        yield [frozenset(d) for d in docs]


def _jaccard(a, b):
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class TestBoundsSoundnessExhaustive:
    """For small nodes, enumerate every world consistent with the count
    map and verify MinDom <= true dominators <= MaxDom in each."""

    @pytest.mark.parametrize(
        "cnt,kcm,keywords",
        [
            (3, {1: 2, 2: 1}, frozenset({1})),
            (3, {1: 3, 2: 2, 3: 1}, frozenset({1, 3})),
            (4, {1: 2, 2: 2}, frozenset({1, 2})),
            (4, {1: 4, 2: 1, 3: 2}, frozenset({2, 3})),
        ],
    )
    @pytest.mark.parametrize("lower", [0.05, 0.24, 0.5, 0.74])
    def test_bounds_bracket_truth(self, cnt, kcm, keywords, lower):
        stats = NodeTextStats(cnt, kcm)
        upper = lower  # one threshold world: L == U (point rectangle)
        dmax = max_dom(stats, keywords, lower)
        dmin = min_dom(stats, keywords, upper)
        worst_hi, worst_lo = 0, cnt
        for docs in _enumerate_worlds(cnt, kcm):
            # dominators under the Theorem 2 equivalence at L == U:
            # object dominates iff TSim > L.
            dominators = sum(1 for d in docs if _jaccard(d, keywords) > lower)
            worst_hi = max(worst_hi, dominators)
            worst_lo = min(worst_lo, dominators)
        assert dmax >= worst_hi
        assert dmin <= worst_lo


class TestMinDomEdgeCases:
    def test_negative_upper_all_dominate(self):
        stats = NodeTextStats(5, {1: 5})
        assert min_dom(stats, frozenset({1}), -0.01) == 5

    def test_upper_at_one_no_guarantee(self):
        stats = NodeTextStats(5, {1: 5})
        assert min_dom(stats, frozenset({1}), 1.0) == 0

    def test_empty_keywords_no_guarantee(self):
        stats = NodeTextStats(5, {1: 5})
        assert min_dom(stats, frozenset(), 0.5) == 0

    def test_forced_relevance_guarantees_domination(self):
        # Every object contains both keywords of S and nothing else:
        # TSim = 1 for all, so any U < 1 guarantees all dominate.
        stats = NodeTextStats(3, {1: 3, 2: 3})
        assert min_dom(stats, frozenset({1, 2}), 0.8) == 3

    def test_min_never_exceeds_max(self):
        stats = NodeTextStats(6, {1: 4, 2: 3, 3: 1})
        for threshold in (0.1, 0.3, 0.6, 0.9):
            keywords = frozenset({1, 3})
            assert min_dom(stats, keywords, threshold) <= max_dom(
                stats, keywords, threshold
            )


class TestDomBatch:
    def test_example5_through_the_kernel(self):
        stats = NodeTextStats(8, {1: 8, 2: 3, 3: 7, 4: 2, 5: 1})
        universe, incidence = keyword_incidence([frozenset({3, 4})])
        kernel = DomBatch([stats], universe, incidence, 1)
        assert kernel.max_dom(np.array([[[0.395]]])).tolist() == [[[6]]]

    def test_threshold_grid_must_match(self):
        stats = NodeTextStats(8, {1: 8, 2: 3})
        universe, incidence = keyword_incidence([frozenset({1}), frozenset({2})])
        kernel = DomBatch([stats], universe, incidence, 3)
        with pytest.raises(InvariantViolationError):
            kernel.max_dom(np.zeros((1, 2, 2)))
        with pytest.raises(InvariantViolationError):
            kernel.min_dom(np.zeros((2, 2, 3)))


class TestThresholds:
    def test_lower_below_upper(self):
        rect = Rect(0.2, 0.2, 0.6, 0.6)
        t = DominationThresholds(rect, (0.0, 0.0), 1.414, 0.5, 0.3, 0.4)
        assert t.lower <= t.upper

    def test_point_rect_thresholds_equal(self):
        rect = Rect.from_point((0.5, 0.5))
        t = DominationThresholds(rect, (0.0, 0.0), 1.414, 0.5, 0.3, 0.4)
        assert t.lower == pytest.approx(t.upper)

    def test_alpha_ratio_scaling(self):
        rect = Rect(0.4, 0.4, 0.8, 0.8)
        near = DominationThresholds(rect, (0.0, 0.0), 1.414, 0.1, 0.3, 0.4)
        far = DominationThresholds(rect, (0.0, 0.0), 1.414, 0.9, 0.3, 0.4)
        # higher alpha weights distance more strongly in the threshold
        assert abs(far.lower - 0.4) > abs(near.lower - 0.4)
