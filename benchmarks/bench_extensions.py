"""Benchmarks for the extension algorithms.

Alpha refinement, location refinement, the integrated framework, and
index mutations (insert / delete / update) — none are paper figures,
but regressions here would silently degrade the extended API.
"""

import pytest

from repro import Dataset, SpatialObject, WhyNotEngine, make_euro_like
from repro.experiments.benchflows import BENCH_SEED, bench_case
from repro.experiments.figures import engine_for
from repro.experiments.runner import MethodSpec, Runner


@pytest.mark.parametrize("method", ("alpha", "location", "integrated"))
def test_extension_methods(benchmark, method):
    case = bench_case("extensions", k0=10, n_keywords=4)
    runner = Runner(engine_for("euro", 1500, BENCH_SEED)[1])
    benchmark.group = "extensions why-not"
    record = benchmark.pedantic(
        lambda: runner.run_case(case, MethodSpec(method, method)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["page_reads"] = record.answer.io.page_reads
    benchmark.extra_info["penalty"] = round(record.answer.refined.penalty, 6)


class TestMutations:
    @pytest.fixture(scope="class")
    def engine(self):
        full, _ = make_euro_like(2000, seed=BENCH_SEED)
        dataset = Dataset(list(full.objects), diagonal=full.diagonal)
        engine = WhyNotEngine(dataset)
        _ = engine.setr_tree, engine.kcr_tree
        return engine

    def test_engine_insert(self, benchmark, engine):
        benchmark.group = "extensions mutations"
        counter = iter(range(10**6, 10**6 + 10_000))

        def unit():
            oid = next(counter)
            engine.insert(
                SpatialObject(oid=oid, loc=(0.5, 0.5), doc=frozenset({1, 2}))
            )

        benchmark.pedantic(unit, rounds=50, iterations=1)

    def test_engine_update_keywords(self, benchmark, engine):
        benchmark.group = "extensions mutations"
        oids = iter(o.oid for o in list(engine.dataset.objects)[:500])

        def unit():
            engine.update_keywords(next(oids), {3, 4, 5})

        benchmark.pedantic(unit, rounds=50, iterations=1)

    def test_engine_remove(self, benchmark, engine):
        benchmark.group = "extensions mutations"
        oids = iter(
            o.oid for o in list(engine.dataset.objects)[500:1000]
        )

        def unit():
            engine.remove(next(oids))

        benchmark.pedantic(unit, rounds=50, iterations=1)
