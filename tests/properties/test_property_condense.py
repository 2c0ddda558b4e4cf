"""Stateful condense-tree test: engine mutations over small-fanout trees.

A hypothesis rule-based machine bulk-loads a ``WhyNotEngine`` at
capacity 4 (so deletes condense branch nodes, not only leaves) and
interleaves ``insert``, ``remove`` and ``update_keywords``.  After
every step both hybrid indexes must pass the sanitizer — which
recomputes every node's summary from its members and checks levels,
``node_count`` and MBRs — the top-k must match the brute-force oracle,
and a small why-not question must get the same penalty from AdvancedBS
and the KcR algorithm.  The machine runs once with the vectorized
kernels off and once with them on.
"""

import os

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    Dataset,
    Oracle,
    SpatialKeywordQuery,
    SpatialObject,
    WhyNotEngine,
    WhyNotQuestion,
)
from repro.analysis import check_tree
from repro.core.vectorized import VECTORIZE_ENV

_COORD = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_DOC = st.frozensets(st.integers(0, 7), min_size=1, max_size=3)
_OBJECT = st.tuples(_COORD, _COORD, _DOC)

_K = 3


class CondenseMachine(RuleBasedStateMachine):
    vectorize = "1"

    @initialize(objects=st.lists(_OBJECT, min_size=30, max_size=60))
    def setup(self, objects):
        self._saved_env = os.environ.get(VECTORIZE_ENV)
        os.environ[VECTORIZE_ENV] = self.vectorize
        dataset = Dataset(
            [
                SpatialObject(oid=oid, loc=(x, y), doc=doc)
                for oid, (x, y, doc) in enumerate(objects)
            ],
            diagonal=2.0**0.5,
        )
        self.engine = WhyNotEngine(dataset, capacity=4)
        self.trees = (self.engine.setr_tree, self.engine.kcr_tree)
        for tree in self.trees:
            self._report_branch_condense(tree)
        self.next_oid = len(objects)
        self.focus = dataset.objects[0]

    def teardown(self):
        if not hasattr(self, "_saved_env"):
            return
        if self._saved_env is None:
            os.environ.pop(VECTORIZE_ENV, None)
        else:
            os.environ[VECTORIZE_ENV] = self._saved_env

    @staticmethod
    def _report_branch_condense(tree):
        orphan_entries = tree._orphan_entries

        def reporting(node, orphans):
            if not node.is_leaf:
                event("branch node orphaned")
            orphan_entries(node, orphans)

        tree._orphan_entries = reporting

    def _draw_live_oid(self, data):
        return data.draw(
            st.sampled_from(sorted(o.oid for o in self.engine.dataset.objects))
        )

    @rule(x=_COORD, y=_COORD, doc=_DOC)
    def insert(self, x, y, doc):
        obj = SpatialObject(oid=self.next_oid, loc=(x, y), doc=doc)
        self.next_oid += 1
        self.engine.insert(obj)
        self.focus = obj

    @rule(data=st.data())
    def remove(self, data):
        if len(self.engine.dataset) <= _K + 4:
            return
        oid = self._draw_live_oid(data)
        self.focus = self.engine.dataset.get(oid)
        self.engine.remove(oid)

    @rule(data=st.data(), doc=_DOC)
    def update_keywords(self, data, doc):
        oid = self._draw_live_oid(data)
        self.engine.update_keywords(oid, doc)
        self.focus = self.engine.dataset.get(oid)

    @invariant()
    def trees_sane(self):
        for tree in self.trees:
            report = check_tree(tree)
            assert report.ok, report.format()

    @invariant()
    def answers_match_oracle(self):
        dataset = self.engine.dataset
        oracle = Oracle(dataset)
        query = SpatialKeywordQuery(loc=self.focus.loc, doc=self.focus.doc, k=_K)
        got = [oid for _, oid in self.engine.top_k(query)]
        scores = oracle.scores(query)
        row = {o.oid: i for i, o in enumerate(dataset.objects)}
        assert sorted(round(scores[row[i]], 10) for i in got) == sorted(
            round(scores[row[i]], 10) for i in oracle.top_k_ids(query)
        )
        try:
            missing = oracle.object_at_rank(query, _K + 3)
        except ValueError:
            return  # a tie group straddles the rank
        question = WhyNotQuestion(query, (missing,), lam=0.5)
        advanced = self.engine.answer(question, method="advanced")
        kcr = self.engine.answer(question, method="kcr")
        assert kcr.refined.penalty == pytest.approx(advanced.refined.penalty)


class ScalarCondenseMachine(CondenseMachine):
    vectorize = "0"


_SETTINGS = settings(max_examples=20, stateful_step_count=30, deadline=None)
CondenseMachine.TestCase.settings = _SETTINGS
ScalarCondenseMachine.TestCase.settings = _SETTINGS
TestCondenseVectorized = CondenseMachine.TestCase
TestCondenseScalar = ScalarCondenseMachine.TestCase
