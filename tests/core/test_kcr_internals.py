"""White-box tests for the bound-and-prune machinery (Algorithm 3)."""

import pytest

from repro import KcRTree, make_micro_example
from repro.core.candidates import Candidate
from repro.core.kcr_algorithm import KcRWalker, _CandidateState


class TestCandidateState:
    def _state(self, n_missing=2):
        candidate = Candidate(
            keywords=frozenset({1, 2}),
            added=frozenset({2}),
            removed=frozenset(),
        )
        return _CandidateState(candidate, n_missing)

    def test_initial_bounds(self):
        state = self._state()
        assert state.rank_upper() == 1
        assert state.rank_lower() == 1
        assert state.alive

    def test_rank_bounds_take_worst_missing(self):
        state = self._state(n_missing=3)
        state.dmax = [5, 2, 9]
        state.dmin = [1, 4, 0]
        assert state.rank_upper() == 10  # max dmax + 1
        assert state.rank_lower() == 5  # max dmin + 1 (tighter than paper's min)

    def test_rank_lower_never_exceeds_upper_when_consistent(self):
        state = self._state(n_missing=2)
        state.dmax = [7, 3]
        state.dmin = [2, 3]
        assert state.rank_lower() <= state.rank_upper()


class TestAlgorithmPlumbing:
    def test_stats_cache_still_charges_io(self, micro):
        """The NodeTextStats cache is a CPU shortcut, not an I/O
        shortcut: every kcm access must still go through the buffer."""
        dataset, vocab = micro
        tree = KcRTree(dataset, capacity=2)
        walker = KcRWalker(tree)
        record = tree.root_summary_record
        tree.reset_buffer()
        before = tree.stats.snapshot()
        walker._node_stats(record)
        first = tree.stats.snapshot() - before
        assert first.page_reads > 0
        before = tree.stats.snapshot()
        walker._node_stats(record)  # cached stats, buffered page
        second = tree.stats.snapshot() - before
        assert second.buffer_hits == 1
        assert second.page_reads == 0
        tree.reset_buffer()
        before = tree.stats.snapshot()
        walker._node_stats(record)  # cached stats, cold buffer
        third = tree.stats.snapshot() - before
        assert third.page_reads > 0  # the fetch is still charged

    def test_counters_report_pruning(self, euro_engine, euro_cases):
        answer = euro_engine.answer(euro_cases[0], method="kcr")
        counters = answer.counters
        assert counters.candidates_enumerated >= counters.candidates_evaluated
        assert counters.nodes_expanded > 0

    def test_geo_offsets_ordering(self, micro):
        """geo_lower <= geo_upper componentwise (MinDist <= MaxDist)."""
        dataset, _ = micro
        tree = KcRTree(dataset, capacity=2)
        walker = KcRWalker(tree)
        rect = tree.root_rect
        lower, upper = walker._geo_offsets(
            rect, (0.0, 0.0), 0.5, [0.2, 0.7]
        )
        for lo, hi in zip(lower, upper):
            assert lo <= hi + 1e-12
