"""The paper's evaluation (Section VII-B), declared once per figure.

Every figure is one :class:`Figure` entry in :data:`FIGURES`: its
x-values, the workload parameters at each point and the method specs
it runs.  Three consumers instantiate the same declarations through a
:class:`Protocol` (scale, dataset seeds, case seeding) and one run
loop, :func:`sweep` over :class:`~repro.experiments.runner.Runner`:

* ``repro-whynot experiment`` averages the records into the
  :class:`FigureResult` tables of EXPERIMENTS.md (:func:`run_figure`);
* ``repro-whynot bench`` turns them into ``BENCH_fig*.json`` units
  (:mod:`repro.experiments.benchflows`);
* ``benchmarks/bench_figures.py`` times the same units one by one
  under pytest-benchmark.

Where BENCH departs from the tables (a smaller T grid, a capped
keyword universe, fig11's BS row) the departure is data in the
figure's ``bench`` field, applied once by the BENCH registry.

Datasets, engines and workload cases live in one process-wide cache —
the paper likewise builds each index once and reuses it across the
1,000 queries of every data point.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.engine import WhyNotEngine
from ..data.synthetic import make_euro_like, make_gn_like
from ..model.objects import Dataset
from .config import PARAMETER_GRID, SCALES, Defaults, Scale
from .runner import MethodSpec, PointResult, Runner
from .workload import WorkloadCase, WorkloadGenerator

__all__ = [
    "Figure",
    "FigureResult",
    "FIGURES",
    "Point",
    "Protocol",
    "clear_cache",
    "dataset_for",
    "engine_for",
    "cases_for",
    "plan",
    "prepare",
    "sweep",
    "table_protocol",
    "run_figure",
    "table2_dataset_info",
]

DEFAULTS = Defaults()


@dataclass
class FigureResult:
    """The regenerated data behind one paper figure."""

    figure: str
    title: str
    x_label: str
    points: List[PointResult]
    notes: str = ""

    def rows(self) -> List[Dict[str, object]]:
        return [point.row() for point in self.points]

    @property
    def total_mismatches(self) -> int:
        return sum(point.mismatches for point in self.points)


# ----------------------------------------------------------------------
# the one dataset / engine / case cache
# ----------------------------------------------------------------------
_DATASETS: Dict[Tuple[str, int, int], Dataset] = {}
_ENGINES: Dict[Tuple[str, int, int], WhyNotEngine] = {}
_CASES: Dict[tuple, List[WorkloadCase]] = {}


def dataset_for(kind: str, size: int, seed: int) -> Dataset:
    key = (kind, size, seed)
    if key not in _DATASETS:
        makers = {"euro": make_euro_like, "gn": make_gn_like}
        if kind not in makers:
            raise ValueError(f"unknown dataset kind {kind!r}")
        _DATASETS[key] = makers[kind](size, seed=seed)[0]
    return _DATASETS[key]


def engine_for(kind: str, size: int, seed: int) -> Tuple[Dataset, WhyNotEngine]:
    """The cached engine over ``dataset_for(kind, size, seed)``, with
    both indexes built up front (outside every timed region)."""
    key = (kind, size, seed)
    if key not in _ENGINES:
        engine = WhyNotEngine(dataset_for(kind, size, seed))
        _ = engine.setr_tree, engine.kcr_tree
        _ENGINES[key] = engine
    return _ENGINES[key].dataset, _ENGINES[key]


def cases_for(
    kind: str,
    size: int,
    seed: int,
    case_seed: int,
    n_cases: int,
    params: Mapping[str, Any],
) -> List[WorkloadCase]:
    """``n_cases`` workload cases over a cached dataset, memoised."""
    key = (kind, size, seed, case_seed, n_cases, tuple(sorted(params.items())))
    if key not in _CASES:
        dataset = dataset_for(kind, size, seed)
        generator = WorkloadGenerator(dataset, seed=case_seed)
        _CASES[key] = generator.generate(n_cases, **params)
    return _CASES[key]


def clear_cache() -> None:
    """Drop cached datasets/engines/cases (tests use this to bound memory)."""
    _DATASETS.clear()
    _ENGINES.clear()
    _CASES.clear()


def _point_seed(figure: str, value: object) -> int:
    """Deterministic workload seed per (figure, x-value).

    Built on CRC32, not the builtin ``hash`` — string hashing is
    salted per process (PYTHONHASHSEED), which would silently give
    every harness run a different workload.
    """
    key = f"{figure}:{value}".encode("utf-8")
    return (DEFAULTS.seed * 31 + zlib.crc32(key)) % (2**31)


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
_THREE_METHODS = (
    MethodSpec("BS", "basic"),
    MethodSpec("AdvancedBS", "advanced"),
    MethodSpec("KcRBased", "kcr"),
)


@dataclass(frozen=True)
class Figure:
    """One paper figure: a sweep of workload points times method specs.

    ``unit`` formats a BENCH unit name from the x-value and a spec's
    :attr:`~repro.experiments.runner.MethodSpec.unit_key`.  A ``gn``
    figure sweeps the scale's GN-like cardinalities (Fig 13); every
    other figure runs on the scale's EURO-like dataset.
    """

    name: str
    title: str
    x_label: str  # table column
    unit: str  # BENCH unit-name format over {x} and {key}
    params: Callable[[Any], Dict[str, Any]]  # workload at x
    values: Sequence[Any] = ()
    specs: Callable[[Any], Sequence[MethodSpec]] = lambda _x: _THREE_METHODS
    kind: str = "euro"
    shared_cases: bool = False  # one case set for every point
    reference: Tuple[MethodSpec, ...] = ()  # extra "exact" point (Fig 12)
    max_extra_keywords: Optional[int] = None  # else the scale's cap
    case_tag: str = "{name}"  # BENCH case-seed tag over {name} and {x}
    notes: str = ""
    bench: Mapping[str, Any] = field(default_factory=dict)


def _params(**overrides: Any) -> Dict[str, Any]:
    """Table III's bold column with some parameters swept."""
    params: Dict[str, Any] = dict(
        k0=DEFAULTS.k0,
        n_keywords=DEFAULTS.n_keywords,
        alpha=DEFAULTS.alpha,
        lam=DEFAULTS.lam,
    )
    params.update(overrides)
    return params


def _advanced(label: str, opt1: bool, opt2: bool, opt3: bool) -> MethodSpec:
    options = {"early_stop": opt1, "ordering": opt2, "filtering": opt3}
    return MethodSpec(label, "advanced", options, key=label)


_OPTIMIZATIONS = (
    _advanced("BS+Opt1", True, False, False),
    _advanced("BS+Opt2", False, True, False),
    _advanced("BS+Opt3", False, False, True),
    MethodSpec("AdvancedBS", "advanced", key="AdvancedBS"),
)

_FIGURE_LIST = (
    Figure(
        "fig4",
        "Varying k0 (missing object at rank 5*k0+1)",
        "k0",
        "k0={x}:{key}",
        lambda k0: _params(k0=k0),
        PARAMETER_GRID["k0"],
    ),
    Figure(
        "fig5",
        "Varying the number of initial query keywords",
        "n_keywords",
        "keywords={x}:{key}",
        lambda n: _params(n_keywords=n),
        PARAMETER_GRID["n_keywords"],
    ),
    Figure(
        "fig6",
        "Varying alpha",
        "alpha",
        "alpha={x}:{key}",
        lambda alpha: _params(alpha=alpha),
        PARAMETER_GRID["alpha"],
    ),
    Figure(
        "fig7",
        "Varying lambda",
        "lambda",
        "lambda={x}:{key}",
        lambda lam: _params(lam=lam),
        PARAMETER_GRID["lam"],
    ),
    Figure(
        "fig8",
        "Varying the missing object's initial ranking",
        "R(m,q)",
        "rank={x}:{key}",
        lambda rank: _params(rank_target=rank),
        PARAMETER_GRID["rank_target"],
    ),
    Figure(
        "fig9",
        "Varying the number of missing objects",
        "n_missing",
        "missing={x}:{key}",
        lambda m: _params(
            n_missing=m, missing_rank_range=(DEFAULTS.k0 + 1, 5 * DEFAULTS.k0 + 1)
        ),
        PARAMETER_GRID["n_missing"],
        bench={"max_extra_keywords": 3},
    ),
    Figure(
        "fig10",
        "Varying the number of threads (simulated makespan)",
        "n_threads",
        "threads={x}:{key}",
        lambda _x: _params(),
        PARAMETER_GRID["n_threads"],
        specs=lambda n: (
            MethodSpec("AdvancedBS", "parallel-advanced", {"n_threads": n}),
            MethodSpec("KcRBased", "parallel-kcr", {"n_threads": n}),
        ),
        shared_cases=True,
        notes="Elapsed time is the list-scheduling makespan over the "
        "measured per-candidate costs (CPython threads cannot show "
        "CPU-bound speedup); see DESIGN.md substitutions.",
    ),
    Figure(
        "fig11",
        "Pruning abilities of the optimizations",
        "config",
        "config={key}",
        lambda _x: _params(),
        ("default",),
        specs=lambda _x: (MethodSpec("BS", "basic", key="BS"),) + _OPTIMIZATIONS,
        shared_cases=True,
        # BENCH times BS as AdvancedBS with every optimization off.
        bench={
            "specs": lambda _x: (_advanced("BS", False, False, False),)
            + _OPTIMIZATIONS
        },
    ),
    Figure(
        "fig12",
        "Approximate algorithm: time and penalty vs sample size",
        "sample_size",
        "T={x}:{key}",
        # Top-10 with 8 keywords: a candidate space large enough that
        # sampling matters; penalties compare against the exact row.
        lambda _x: _params(n_keywords=8),
        PARAMETER_GRID["sample_size"],
        specs=lambda t: tuple(
            MethodSpec(
                f"Approx-{label}",
                "approximate",
                {"sample_size": t, "strategy": strategy},
                key=strategy,
            )
            for label, strategy in (
                ("BS", "bs"),
                ("AdvancedBS", "advanced"),
                ("KcRBased", "kcr"),
            )
        ),
        shared_cases=True,
        reference=_THREE_METHODS[1:],
        bench={"values": (25, 50, 100, 200), "max_extra_keywords": 4},
    ),
    Figure(
        "fig13",
        "Varying dataset size (GN-like)",
        "dataset_size",
        "n={x}:{key}",
        lambda _x: _params(),
        kind="gn",
        bench={
            "params": lambda _x: _params(n_keywords=3),
            "max_extra_keywords": 3,
            "case_tag": "{name}-{x}",
        },
    ),
)

FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _FIGURE_LIST}


# ----------------------------------------------------------------------
# the one run loop
# ----------------------------------------------------------------------
class Point(NamedTuple):
    """One planned data point of a figure, before any data is built."""

    x: Any
    kind: str
    size: int
    params: Dict[str, Any]
    specs: Tuple[MethodSpec, ...]
    unit: str


@dataclass(frozen=True)
class Protocol:
    """How one consumer instantiates the declared figures."""

    scale: Scale
    dataset_seeds: Mapping[str, int]
    #: (figure, point) -> the seed of the point's workload cases
    case_seed: Callable[[Figure, Point], int]


def table_protocol(scale: Scale) -> Protocol:
    """The EXPERIMENTS.md protocol: ``n_queries`` cases per point."""
    return Protocol(
        scale,
        {"euro": DEFAULTS.seed, "gn": DEFAULTS.seed + 1},
        lambda figure, point: _point_seed(
            figure.name, 0 if figure.shared_cases else point.x
        ),
    )


def plan(figure: Figure, scale: Scale) -> Iterator[Point]:
    """The figure's data points at ``scale``.

    Points whose missing-object rank the dataset cannot host are
    dropped (Fig 4's ``k₀ = 100`` and Fig 8's deep ranks on tiny data).
    """
    last: Optional[Point] = None
    sized = figure.kind == "gn"
    for x in scale.gn_sizes if sized else figure.values:
        size = x if sized else scale.euro_size
        params = figure.params(x)
        if figure.max_extra_keywords is not None:
            params["max_extra_keywords"] = figure.max_extra_keywords
        if (params.get("rank_target") or 5 * params["k0"] + 1) >= size:
            continue
        specs = tuple(figure.specs(x))
        last = Point(x, figure.kind, size, params, specs, figure.unit)
        yield last
    if figure.reference and last is not None:
        yield last._replace(x="exact", specs=figure.reference, unit="{x}:{key}")


def prepare(
    figure: Figure, protocol: Protocol, point: Point, *, rounds: int = 1
) -> Tuple[Runner, List[WorkloadCase]]:
    """The runner and workload cases of one planned point."""
    scale = protocol.scale
    seed = protocol.dataset_seeds[point.kind]
    _, engine = engine_for(point.kind, point.size, seed)
    params = {"max_extra_keywords": scale.max_extra_keywords, **point.params}
    cases = cases_for(
        point.kind,
        point.size,
        seed,
        protocol.case_seed(figure, point),
        scale.n_queries,
        params,
    )
    runner = Runner(
        engine, bs_candidate_cap=scale.bs_candidate_cap, rounds=rounds
    )
    return runner, cases


def sweep(
    figure: Figure, protocol: Protocol, *, rounds: int = 1
) -> List[Tuple[Point, PointResult]]:
    """Run every planned point of ``figure`` under ``protocol``."""
    results = []
    for point in plan(figure, protocol.scale):
        runner, cases = prepare(figure, protocol, point, rounds=rounds)
        result = runner.run_point(figure.x_label, point.x, cases, point.specs)
        results.append((point, result))
    return results


def run_figure(name: str, scale_name: str = "default") -> FigureResult:
    """Run one figure's experiment by name at a named scale."""
    try:
        figure = FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; expected one of {sorted(FIGURES)}"
        ) from None
    try:
        scale = SCALES[scale_name]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale_name!r}; expected one of {sorted(SCALES)}"
        ) from None
    points = [result for _, result in sweep(figure, table_protocol(scale))]
    return FigureResult(
        figure.name, figure.title, figure.x_label, points, figure.notes
    )


def table2_dataset_info(scale: Scale) -> List[Dict[str, object]]:
    """Table II: statistics of the generated substitute datasets."""
    euro = dataset_for("euro", scale.euro_size, DEFAULTS.seed)
    gn = dataset_for("gn", scale.gn_sizes[-1], DEFAULTS.seed + 1)
    return [euro.summary(), gn.summary()]
