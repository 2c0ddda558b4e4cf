"""Ablation experiments beyond the paper's figures.

Three design choices the paper fixes without sweeping are swept here:

* **buffer** — buffer-pool size as a fraction of the index size.  The
  paper runs 4 MB against multi-hundred-MB indexes; this ablation
  shows how the I/O ranking between algorithms depends on buffer
  pressure (with an over-sized buffer all algorithms converge to the
  cold-read floor).
* **capacity** — R-tree node fanout (the paper fixes 100).  Larger
  nodes mean fewer, fatter pages: fewer seeks, weaker pruning
  granularity, larger keyword payloads per node.
* **index-baseline** — rank-determination cost of the SetR-tree and
  KcR-tree against the pre-hybrid R-tree + inverted-file baseline
  (Section II-A's reference [34]), isolating what the textual
  node payloads buy.

Each returns the same :class:`~repro.experiments.figures.FigureResult`
shape the paper figures use, so the CLI and reporting work unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from ..core.engine import WhyNotEngine
from ..errors import ensure
from ..index.inverted import InvertedFileIndex
from ..index.search import TopKSearcher
from .config import SCALES, Defaults, Scale
from .figures import FigureResult, _point_seed, engine_for
from .runner import MethodAggregate, MethodSpec, PointResult, Runner
from .workload import WorkloadGenerator

__all__ = [
    "ABLATIONS",
    "run_ablation",
    "ablation_buffer",
    "ablation_capacity",
    "ablation_index_baseline",
]

DEFAULTS = Defaults()

_TWO_METHODS = (
    MethodSpec("AdvancedBS", "advanced"),
    MethodSpec("KcRBased", "kcr"),
)


def _default_cases(scale: Scale, engine: WhyNotEngine, tag: str):
    generator = WorkloadGenerator(engine.dataset, seed=_point_seed(tag, 0))
    return generator.generate(
        scale.n_queries,
        k0=DEFAULTS.k0,
        n_keywords=DEFAULTS.n_keywords,
        alpha=DEFAULTS.alpha,
        lam=DEFAULTS.lam,
        max_extra_keywords=scale.max_extra_keywords,
    )


def ablation_buffer(scale: Scale) -> FigureResult:
    """Sweep the buffer size (fraction of index pages)."""
    fractions = (0.05, 0.1, 0.25, 0.5, 1.0)
    dataset, base_engine = engine_for("euro", scale.euro_size, DEFAULTS.seed)
    cases = _default_cases(scale, base_engine, "ablation-buffer")
    points: List[PointResult] = []
    for fraction in fractions:
        engine = WhyNotEngine(dataset, buffer_fraction=fraction)
        runner = Runner(engine, bs_candidate_cap=scale.bs_candidate_cap)
        points.append(
            runner.run_point("buffer_fraction", fraction, cases, _TWO_METHODS)
        )
    return FigureResult(
        figure="ablation-buffer",
        title="Buffer size as a fraction of the index (ablation)",
        x_label="buffer_fraction",
        points=points,
        notes="The paper fixes 4 MB; the I/O gap between algorithms "
        "narrows as the buffer swallows the working set.",
    )


def ablation_capacity(scale: Scale) -> FigureResult:
    """Sweep the R-tree node capacity (the paper fixes 100)."""
    capacities = (25, 50, 100, 200)
    dataset, base_engine = engine_for("euro", scale.euro_size, DEFAULTS.seed)
    cases = _default_cases(scale, base_engine, "ablation-capacity")
    points: List[PointResult] = []
    for capacity in capacities:
        engine = WhyNotEngine(dataset, capacity=capacity)
        runner = Runner(engine, bs_candidate_cap=scale.bs_candidate_cap)
        points.append(
            runner.run_point("node_capacity", capacity, cases, _TWO_METHODS)
        )
    return FigureResult(
        figure="ablation-capacity",
        title="R-tree node capacity (ablation)",
        x_label="node_capacity",
        points=points,
        notes="Fatter nodes trade pruning granularity for fewer, larger "
        "page transfers.",
    )


def ablation_index_baseline(scale: Scale) -> FigureResult:
    """Rank-determination cost: SetR-tree vs KcR-tree vs inverted file.

    This is not a why-not experiment but the substrate comparison the
    related work implies: the same rank-determination searches the
    why-not algorithms issue, over the three index designs.
    """
    dataset, engine = engine_for("euro", scale.euro_size, DEFAULTS.seed)
    cases = _default_cases(scale, engine, "ablation-baseline")
    inverted = InvertedFileIndex(dataset)

    def run_searches(label: str, rank_fn: Callable, stats, reset: Callable):
        aggregate = MethodAggregate(label)
        for case in cases:
            reset()
            started = time.perf_counter()
            missing = [dataset.get(m) for m in case.question.missing]
            before = stats.snapshot()
            result = rank_fn(case.question.query, missing)
            elapsed = time.perf_counter() - started
            delta = stats.snapshot() - before
            ensure(
                result.rank == case.initial_rank,
                "index rank search disagrees with the recorded initial rank",
            )
            aggregate.add(elapsed, delta.page_reads, 0.0)
        return aggregate

    setr_searcher = TopKSearcher(engine.setr_tree)
    kcr_searcher = TopKSearcher(engine.kcr_tree)
    methods: Dict[str, MethodAggregate] = {
        "SetR-tree": run_searches(
            "SetR-tree",
            setr_searcher.rank_of_missing,
            engine.setr_tree.stats,
            engine.setr_tree.reset_buffer,
        ),
        "KcR-tree": run_searches(
            "KcR-tree",
            kcr_searcher.rank_of_missing,
            engine.kcr_tree.stats,
            engine.kcr_tree.reset_buffer,
        ),
        "InvertedFile": run_searches(
            "InvertedFile",
            inverted.rank_of_missing,
            inverted.stats,
            inverted.reset_buffer,
        ),
    }
    point = PointResult(
        x_label="index", x_value="rank-determination", methods=methods
    )
    return FigureResult(
        figure="ablation-index-baseline",
        title="Rank determination across index designs (ablation)",
        x_label="index",
        points=[point],
        notes="The [34]-style baseline carries no textual node payloads: "
        "its node bounds barely prune, but its postings are compact.  At "
        "scaled-down sizes the compactness can win on raw pages; the "
        "hybrid payoff grows with vocabulary size and search depth.",
    )


ABLATIONS: Dict[str, Callable[[Scale], FigureResult]] = {
    "ablation-buffer": ablation_buffer,
    "ablation-capacity": ablation_capacity,
    "ablation-index-baseline": ablation_index_baseline,
}


def run_ablation(name: str, scale_name: str = "default") -> FigureResult:
    """Run one ablation by name at a named scale."""
    try:
        ablation = ABLATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown ablation {name!r}; expected one of {sorted(ABLATIONS)}"
        ) from None
    try:
        scale = SCALES[scale_name]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale_name!r}; expected one of {sorted(SCALES)}"
        ) from None
    return ablation(scale)
