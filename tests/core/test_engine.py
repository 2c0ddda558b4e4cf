"""Unit tests for the WhyNotEngine facade."""

import pytest

from repro import (
    InvalidParameterError,
    KcRAlgorithm,
    WhyNotEngine,
    make_micro_example,
)
from repro.model.similarity import DICE


class TestConstruction:
    def test_lazy_index_build(self):
        dataset, _ = make_micro_example()
        engine = WhyNotEngine(dataset, capacity=4)
        shard = engine.sharded_index.shards[0]
        assert not shard.has_tree("setr") and not shard.has_tree("kcr")
        _ = engine.setr_tree
        assert shard.has_tree("setr") and not shard.has_tree("kcr")

    def test_buffer_fraction_resizes(self, euro_small):
        dataset, _ = euro_small
        engine = WhyNotEngine(dataset, buffer_fraction=0.1)
        tree = engine.setr_tree
        assert tree.buffer.capacity_pages <= max(
            32, int(tree.pager.total_pages * 0.1)
        )

    def test_buffer_fraction_none_keeps_default(self):
        dataset, _ = make_micro_example()
        engine = WhyNotEngine(dataset, capacity=4, buffer_fraction=None)
        assert engine.setr_tree.buffer.capacity_pages == (4 * 1024 * 1024) // 4096

    def test_unknown_similarity_rejected(self):
        dataset, _ = make_micro_example()
        with pytest.raises(ValueError):
            WhyNotEngine(dataset, similarity="bm25")


class TestDispatch:
    def test_unknown_method(self, euro_engine, euro_cases):
        with pytest.raises(InvalidParameterError):
            euro_engine.answer(euro_cases[0], method="quantum")

    def test_method_names_propagate(self, euro_engine, euro_cases):
        question = euro_cases[0]
        assert euro_engine.answer(question, method="basic").algorithm == "BS"
        assert (
            euro_engine.answer(question, method="advanced").algorithm
            == "AdvancedBS"
        )
        assert euro_engine.answer(question, method="kcr").algorithm == "KcRBased"

    def test_reset_buffers_touches_built_trees(self, euro_engine, euro_cases):
        _ = euro_engine.answer(euro_cases[0], method="kcr")
        euro_engine.reset_buffers()
        assert euro_engine.kcr_tree.buffer.used_pages == 0


class TestAlternativeSimilarity:
    def test_dice_engine_answers(self):
        """Footnote 1: the BS/AdvancedBS path supports other models."""
        dataset, vocab = make_micro_example()
        engine = WhyNotEngine(dataset, capacity=4, similarity="dice")
        from repro import SpatialKeywordQuery, WhyNotQuestion

        t1, t2 = vocab.id_of("t1"), vocab.id_of("t2")
        query = SpatialKeywordQuery(
            loc=(0.0, 0.0), doc=frozenset({t1, t2}), k=1, alpha=0.5
        )
        question = WhyNotQuestion(query, (0,), lam=0.5)
        basic = engine.answer(question, method="basic")
        advanced = engine.answer(question, method="advanced")
        assert basic.refined.penalty == pytest.approx(advanced.refined.penalty)

    def test_kcr_rejects_non_jaccard(self):
        dataset, _ = make_micro_example()
        from repro import KcRTree

        tree = KcRTree(dataset, capacity=4)
        with pytest.raises(ValueError):
            KcRAlgorithm(tree, DICE)
