"""pytest-benchmark view of the paper figures (Figs 4-13).

One test per why-not unit that ``repro-whynot bench`` emits into
``BENCH_fig*.json``: the same declarations, datasets, seeded cases and
run loop (``repro.experiments.figures``), timed here one cold-buffer
query at a time.  Units the emitter lists as ``skipped`` (BS above the
candidate-space cap) are skipped with the same entry.  The JSON
payloads themselves come from the CLI:

    repro-whynot bench --emit --figures fig04 fig13 --out DIR
"""

import pytest

from repro.experiments import benchflows
from repro.experiments.figures import prepare

UNITS = list(benchflows.sweep_units())


@pytest.mark.parametrize(
    "unit,figure,point,spec",
    [entry[1:] for entry in UNITS],
    ids=[f"{name}:{unit}" for name, unit, *_ in UNITS],
)
def test_figure_unit(benchmark, unit, figure, point, spec):
    runner, cases = prepare(figure, benchflows.BENCH, point)
    benchmark.group = f"{figure.name} {figure.x_label}={point.x}"
    record = benchmark.pedantic(
        lambda: runner.run_case(cases[0], spec),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    if record.answer is None:
        pytest.skip(benchflows.skip_entry(unit, record.case))
    benchmark.extra_info["page_reads"] = record.answer.io.page_reads
    benchmark.extra_info["penalty"] = round(record.answer.refined.penalty, 6)
    benchmark.extra_info["initial_rank"] = record.answer.initial_rank
