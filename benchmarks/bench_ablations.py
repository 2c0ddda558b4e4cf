"""Ablation benchmarks: design choices the paper fixes.

Buffer fraction, node capacity, and the index-baseline comparison —
each over the BENCH dataset and seeded cases the figure benches use.
"""

import pytest

from repro import InvertedFileIndex, TopKSearcher, WhyNotEngine
from repro.experiments.benchflows import BENCH_SEED, bench_case
from repro.experiments.figures import engine_for


def _engine():
    return engine_for("euro", 1500, BENCH_SEED)[1]


@pytest.mark.parametrize("fraction", (0.05, 0.25, 1.0))
def test_ablation_buffer(benchmark, fraction):
    case = bench_case("ablation-buffer", k0=10, n_keywords=4)
    base_engine = _engine()
    engine = WhyNotEngine(base_engine.dataset, buffer_fraction=fraction)
    _ = engine.kcr_tree
    benchmark.group = f"ablation buffer={fraction}"
    answer = benchmark.pedantic(
        lambda: (engine.reset_buffers(), engine.answer(case.question, method="kcr"))[1],
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["page_reads"] = answer.io.page_reads


@pytest.mark.parametrize("capacity", (25, 100, 200))
def test_ablation_capacity(benchmark, capacity):
    case = bench_case("ablation-capacity", k0=10, n_keywords=4)
    base_engine = _engine()
    engine = WhyNotEngine(base_engine.dataset, capacity=capacity)
    _ = engine.kcr_tree
    benchmark.group = f"ablation capacity={capacity}"
    answer = benchmark.pedantic(
        lambda: (engine.reset_buffers(), engine.answer(case.question, method="kcr"))[1],
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["page_reads"] = answer.io.page_reads


@pytest.mark.parametrize("index_kind", ("setr", "kcr", "inverted"))
def test_ablation_rank_determination(benchmark, index_kind):
    """The substrate comparison: one rank determination per index."""
    case = bench_case("ablation-baseline", k0=10, n_keywords=4)
    engine = _engine()
    dataset = engine.dataset
    missing = [dataset.get(m) for m in case.question.missing]
    if index_kind == "inverted":
        index = InvertedFileIndex(dataset)
        rank_fn = index.rank_of_missing
        reset = index.reset_buffer
    else:
        tree = engine.setr_tree if index_kind == "setr" else engine.kcr_tree
        rank_fn = TopKSearcher(tree).rank_of_missing
        reset = tree.reset_buffer
    benchmark.group = "ablation rank-determination"

    def unit():
        reset()
        return rank_fn(case.question.query, missing)

    result = benchmark.pedantic(unit, rounds=3, iterations=1)
    assert result.rank == case.initial_rank
