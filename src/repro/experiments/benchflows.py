"""Deterministic per-figure benchmark emitters and the regression gate.

``repro-whynot bench`` writes one ``BENCH_<figure>.json`` per figure.
The paper figures come from the same declarations and run loop as the
``experiment`` tables (:mod:`repro.experiments.figures`), instantiated
under the :data:`BENCH` protocol; ``substrate`` and ``serve`` are
standalone emitters.  Every payload carries:

* **p50/p99/mean latency** per unit (one unit per figure data point
  and method);
* **buffer-pool I/O** counters of the measured query (deterministic —
  a change here is a real behavioural regression, not noise);
* **objects-scored/sec** for the leaf-scoring kernel, scalar versus
  vectorized, with the measured speedup (the ``REPRO_VECTORIZE``
  trajectory this file exists to track);
* a ``calibration_ms`` yardstick — the p50 of a fixed integer spin
  loop on the emitting machine — so :func:`compare` can gate on
  *normalized* latencies instead of raw wall clock.

:func:`compare` is the CI gate: it fails a candidate run whose
normalized p50 regresses more than ``tolerance`` (default 10%) against
a checked-in baseline, and the ``--scale`` knob inflates a candidate's
recorded latencies to prove the gate trips (the negative control).

Nothing here samples entropy at run time: datasets, workloads, and
query choices all derive from ``BENCH_SEED``, and case seeds use
CRC-32 of the case key — never ``hash()``, which is salted per
process and would unseed the workload.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
import zlib
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.engine import WhyNotEngine
from ..core.result import WhyNotAnswer
from ..errors import ReproError
from ..index.search import TopKSearcher
from ..model.query import SpatialKeywordQuery
from .config import Scale
from .figures import FIGURES as PAPER_FIGURES
from .figures import (
    Figure,
    Point,
    Protocol,
    cases_for,
    dataset_for,
    engine_for,
    plan,
    prepare,
    sweep,
)
from .runner import MethodSpec, Record, Runner
from .workload import WorkloadCase, WorkloadGenerator

__all__ = [
    "BENCH",
    "BENCH_SEED",
    "DEFAULT_ROUNDS",
    "FIGURES",
    "SWEEPS",
    "PenaltyMismatchError",
    "bench_case",
    "compare",
    "emit_figure",
    "leaf_scoring_unit",
    "sharded_whynot_unit",
    "skip_entry",
    "sweep_units",
    "whynot_unit",
]

BENCH_SEED = 2016
DEFAULT_ROUNDS = 3
#: Dataset size for the substrate micro-units (the pytest-benchmark
#: ``benchmarks/bench_substrate.py`` uses the same dataset).
SUBSTRATE_SIZE = 2000

_CALIBRATION_LOOPS = 200_000


def _calibration_ms() -> float:
    """p50 of a fixed integer spin loop, in milliseconds.

    A machine-speed yardstick stamped into every payload: the gate
    compares ``p50 / calibration`` ratios, which cancel the emitting
    machine's raw speed out of the comparison.
    """
    durations = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i * i
        durations.append(time.perf_counter() - start)
    return round(statistics.median(durations) * 1e3, 4)


def _latency_stats(durations: Sequence[float]) -> Dict[str, Any]:
    """p50/p99 in milliseconds from raw per-round durations."""
    if len(durations) >= 2:
        cuts = statistics.quantiles(durations, n=100)
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = durations[0]
    return {
        "rounds": len(durations),
        "p50_ms": round(p50 * 1e3, 4),
        "p99_ms": round(p99 * 1e3, 4),
        "mean_ms": round(statistics.fmean(durations) * 1e3, 4),
    }


def _measure(
    unit: Callable[[], Any],
    rounds: int,
    setup: Optional[Callable[[], Any]] = None,
) -> Tuple[List[float], Any]:
    durations: List[float] = []
    result: Any = None
    for _ in range(rounds):
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = unit()
        durations.append(time.perf_counter() - start)
    return durations, result


def _case_seed(key: tuple) -> int:
    """Stable per-case seed: CRC-32 of the key's repr (``hash()`` is
    salted per process and would make the workload non-reproducible)."""
    return BENCH_SEED + zlib.crc32(repr(key).encode("utf-8")) % 10_000


def _seed_of(tag: str, kind: str, size: int, params: Mapping[str, Any]) -> int:
    return _case_seed((tag, kind, size, tuple(sorted(params.items()))))


#: The BENCH protocol: fixed datasets (1,500 EURO-like objects, GN-like
#: at 1k–8k, all seeded with ``BENCH_SEED``) and one case per point.
#: Figure emitters skip BS above a candidate space of 512 (the skip is
#: recorded in the payload's ``skipped`` list — never silent).
BENCH = Protocol(
    Scale(
        name="bench",
        euro_size=1500,
        gn_sizes=(1_000, 2_000, 4_000, 8_000),
        n_queries=1,
        max_extra_keywords=4,
        bs_candidate_cap=512,
    ),
    {"euro": BENCH_SEED, "gn": BENCH_SEED},
    lambda figure, point: _seed_of(
        figure.case_tag.format(name=figure.name, x=point.x),
        point.kind,
        point.size,
        point.params,
    ),
)

#: The paper figures as BENCH runs them: each declaration with its
#: ``bench`` departures applied, keyed by BENCH name (``fig04``…).
SWEEPS: Dict[str, Figure] = {
    f"fig{int(figure.name[3:]):02d}": dataclasses.replace(figure, **figure.bench)
    for figure in PAPER_FIGURES.values()
}


class PenaltyMismatchError(ReproError):
    """Exact methods returned different penalties at one BENCH point."""


def bench_case(
    tag: str, *, kind: str = "euro", size: int = 1500, **params: Any
) -> WorkloadCase:
    """One seeded BENCH case over a cached dataset."""
    seed = _seed_of(tag, kind, size, params)
    params = {"max_extra_keywords": BENCH.scale.max_extra_keywords, **params}
    return cases_for(kind, size, BENCH_SEED, seed, 1, params)[0]


def sweep_units() -> Iterator[Tuple[str, str, Figure, Point, MethodSpec]]:
    """Every why-not unit of the figure sweeps, as ``(figure, unit,
    declaration, point, spec)`` — planned, nothing built or run."""
    for name, figure in SWEEPS.items():
        for point in plan(figure, BENCH.scale):
            for spec in point.specs:
                unit = point.unit.format(x=point.x, key=spec.unit_key)
                yield name, unit, figure, point, spec


def skip_entry(unit: str, case: WorkloadCase) -> str:
    """The ``skipped`` entry of a unit the BS cap left out."""
    return (
        f"{unit}: candidate space {case.candidate_space} "
        f"> emitter BS cap {BENCH.scale.bs_candidate_cap}"
    )


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------

def _answer_fields(answer: WhyNotAnswer) -> Dict[str, Any]:
    return {
        "io": dataclasses.asdict(answer.io),
        "penalty": round(answer.refined.penalty, 6),
        "initial_rank": answer.initial_rank,
    }


def _record_unit(record: Record) -> Dict[str, Any]:
    """A why-not unit: wall-time latency over the record's rounds plus
    the last answer's I/O, penalty and initial rank."""
    if record.answer is None:
        raise ValueError("a skipped record has no unit")
    unit = _latency_stats(record.wall)
    unit.update(_answer_fields(record.answer))
    return unit


def whynot_unit(
    engine: WhyNotEngine,
    case: WorkloadCase,
    method: str,
    *,
    rounds: int = DEFAULT_ROUNDS,
    **options: Any,
) -> Dict[str, Any]:
    """One cold-buffer why-not query, timed over ``rounds``."""
    runner = Runner(engine, rounds=rounds)
    return _record_unit(runner.run_case(case, MethodSpec(method, method, options)))


def sharded_whynot_unit(
    case: WorkloadCase,
    *,
    kind: str = "gn",
    size: int = 1500,
    shards: int = 4,
    mode: str = "simulate",
    method: str = "advanced",
    rounds: int = DEFAULT_ROUNDS,
    engine: Optional[WhyNotEngine] = None,
    reference: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One cold-buffer why-not query over a sharded engine.

    The recorded latency is the engine's ``answer.elapsed_seconds``,
    which follows the makespan convention of ``repro.core.parallel``:
    each shard fan-out round contributes driver time plus the *slowest
    shard's CPU busy* — the slack a round would have overlapped across
    workers is discounted whether the overlap was simulated in-process
    or dispatched to real worker processes (whose wall-clock overlap
    depends on the host's core count and is therefore not what the
    baseline pins).  Unsharded units keep plain wall time; the two
    agree on a serial host by construction.  ``reference`` (the
    matching unsharded unit) stamps a ``parity_with_unsharded`` flag —
    sharded execution is bit-identical by contract, so ``False`` here
    is a correctness bug, not noise.  Without ``engine`` the shards
    split the cached BENCH dataset of ``kind``/``size``.
    """
    owned = engine is None
    if engine is None:
        dataset = dataset_for(kind, size, BENCH_SEED)
        engine = WhyNotEngine(dataset, shards=shards, shard_mode=mode)
    try:
        engine.answer(case.question, method=method)  # build outside timing
        answers = []
        for _ in range(rounds):
            engine.reset_buffers()
            answers.append(engine.answer(case.question, method=method))
        record = _latency_stats([answer.elapsed_seconds for answer in answers])
        record.update(_answer_fields(answers[-1]))
        record["shards"] = shards
        record["shard_mode"] = mode
        if reference is not None:
            record["parity_with_unsharded"] = (
                record["penalty"] == reference.get("penalty")
                and record["initial_rank"] == reference.get("initial_rank")
            )
        return record
    finally:
        if owned:
            engine.close()


def leaf_scoring_unit(engine: WhyNotEngine, *, rounds: int = 5) -> Dict[str, Any]:
    """Scalar versus vectorized leaf-scoring throughput.

    Measures the scoring *computation* in isolation — documents fetched
    and the packed block in hand — because both paths share the same
    accounted doc fetches by design; the kernel speedup shows up here,
    not in page-read counters.  Asserts bit-identical scores before
    timing (the parity contract of :mod:`repro.core.vectorized`).
    """
    tree = engine.setr_tree
    searcher = TopKSearcher(tree)
    obj = engine.dataset.objects[17]
    query = SpatialKeywordQuery(
        loc=obj.loc, doc=frozenset(sorted(obj.doc)[:3]), k=10, alpha=0.5
    )
    keywords = query.doc

    leaves = []
    stack = [tree.root_id]
    while stack:
        node = tree.fetch_node(stack.pop())
        if node.is_leaf:
            entries = list(node.object_entries)
            docs = tree.fetch_docs(entries)
            leaves.append((entries, docs, tree.packed_leaf(node)))
        else:
            stack.extend(entry.child_id for entry in node.child_entries)
    n_objects = sum(len(entries) for entries, _, _ in leaves)
    query_mask = tree.vocab.encode(keywords)

    from ..core.vectorized import leaf_scores

    def scalar_pass() -> List[float]:
        out: List[float] = []
        for entries, docs, _ in leaves:
            for entry, doc in zip(entries, docs):
                out.append(
                    searcher._object_score(entry.loc, doc, query, keywords)
                )
        return out

    def vector_pass() -> List[float]:
        out: List[float] = []
        for entries, _, packed in leaves:
            out.extend(
                leaf_scores(
                    packed,
                    query.loc,
                    query.alpha,
                    query_mask,
                    len(keywords),
                    searcher.model.name,
                    tree.dataset,
                )
            )
        return out

    parity = scalar_pass() == vector_pass()  # bit-identical, not approx
    scalar_durs, _ = _measure(scalar_pass, rounds)
    vector_durs, _ = _measure(vector_pass, rounds)
    best_scalar = min(scalar_durs)
    best_vector = min(vector_durs)
    return {
        "n_objects": n_objects,
        "n_leaves": len(leaves),
        "parity": parity,
        "scalar": _latency_stats(scalar_durs),
        "vectorized": _latency_stats(vector_durs),
        "scalar_objects_per_sec": round(n_objects / best_scalar, 1),
        "vectorized_objects_per_sec": round(n_objects / best_vector, 1),
        "speedup": round(best_scalar / best_vector, 2),
    }



# ----------------------------------------------------------------------
# figure builders
# ----------------------------------------------------------------------

_Units = Dict[str, Dict[str, Any]]
_BuildResult = Tuple[_Units, Dict[str, Any], List[str]]


def _build_sweep(figure: Figure, rounds: int, full: bool = False) -> _BuildResult:
    """A paper figure's units from the one run loop, plus one leaf-scoring
    unit per dataset the sweep touched.  ``full`` only matters to Fig 13.

    Raises :class:`PenaltyMismatchError` if the exact methods disagree
    on the penalty at any point.
    """
    units: _Units = {}
    skipped: List[str] = []
    mismatched: List[str] = []
    leaves: Dict[str, Point] = {}
    sized = figure.kind == "gn"  # Fig 13 sweeps the dataset itself
    for point, result in sweep(figure, BENCH, rounds=rounds):
        if result.mismatches:
            mismatched.append(f"{figure.x_label}={point.x}")
        for record in result.records:
            name = point.unit.format(x=point.x, key=record.spec.unit_key)
            if record.answer is None:
                skipped.append(skip_entry(name, record.case))
            else:
                units[name] = _record_unit(record)
        leaf = "leaf_scoring"
        leaves[point.unit.format(x=point.x, key=leaf) if sized else leaf] = point
    if mismatched:
        raise PenaltyMismatchError(
            f"{figure.name}: exact methods disagree on the penalty at "
            + ", ".join(mismatched)
        )
    for name, point in leaves.items():
        _, engine = engine_for(point.kind, point.size, BENCH_SEED)
        units[name] = leaf_scoring_unit(engine)
    meta: Dict[str, Any] = {"kind": f"{figure.kind}-like"}
    if sized:
        meta["sizes"] = list(BENCH.scale.gn_sizes)
    else:
        meta["size"] = BENCH.scale.euro_size
    return units, meta, skipped


def _build_fig13(rounds: int, full: bool) -> _BuildResult:
    """Fig 13's sweep plus the sharded series and the ``full`` leg."""
    figure = SWEEPS["fig13"]
    units, meta, skipped = _build_sweep(figure, rounds)

    # Sharded series: the same workload at the largest size, fanned out
    # over 2/4/8 spatial shards in simulate mode.  Answers are
    # bit-identical to the unsharded engine by contract, so each unit
    # carries a parity flag against the unsharded unit above.
    point = list(plan(figure, BENCH.scale))[-1]
    _, cases = prepare(figure, BENCH, point)
    reference = units.get(point.unit.format(x=point.x, key="advanced"))
    for n_shards in (2, 4, 8):
        units[f"n={point.size}:shards={n_shards}:advanced"] = sharded_whynot_unit(
            cases[0],
            kind=point.kind,
            size=point.size,
            shards=n_shards,
            mode="simulate",
            rounds=rounds,
            reference=reference,
        )

    if full:
        units.update(_fig13_full_units(rounds))
        meta["full_size"] = FULL_SWEEP_SIZE
    else:
        skipped.extend(
            f"{name}: requires `repro-whynot bench --figures fig13 --full` "
            f"(streaming {FULL_SWEEP_SIZE:,}-object build)"
            for name in FULL_SWEEP_UNITS
        )
    return units, meta, skipped


#: Full-sweep knobs for the ``bench --full`` leg: a streaming STR bulk
#: load at a million objects, then the advanced method unsharded versus
#: fanned out over eight shards with real worker processes.
FULL_SWEEP_SIZE = 1_000_000
FULL_SWEEP_SHARDS = 8
FULL_SWEEP_UNITS = (
    f"n={FULL_SWEEP_SIZE}:unsharded:advanced",
    f"n={FULL_SWEEP_SIZE}:shards={FULL_SWEEP_SHARDS}:process:advanced",
)


def _fig13_full_units(rounds: int) -> _Units:
    """The million-object sharded-versus-unsharded pair.

    The shard set comes from the streaming loader (two passes over the
    generator stream, never the whole dataset resident in the loader),
    and the engine adopts it directly instead of rebuilding in memory.
    """
    from ..data.stream import stream_gn_like
    from ..index.sharded import ShardedIndex

    stream, config = stream_gn_like(FULL_SWEEP_SIZE, seed=BENCH_SEED)
    # A larger plan sample than the loader default: at a million
    # objects the 2k-point reservoir's quantile error skews tile sizes
    # by ~15%, and the slowest tile is the makespan — 8k points keep
    # the resident bound trivial while halving the imbalance.
    index, load_stats = ShardedIndex.build_streaming(
        stream,
        FULL_SWEEP_SHARDS,
        name=config.name,
        mode="process",
        sample_size=8_192,
        seed=BENCH_SEED,
    )
    dataset = index.dataset
    generator = WorkloadGenerator(
        dataset, seed=_case_seed(("fig13-full", FULL_SWEEP_SIZE))
    )
    case = generator.generate(
        1, k0=10, n_keywords=3, alpha=0.5, lam=0.5, max_extra_keywords=3
    )[0]

    units: _Units = {}
    # Second-long units amortise extra rounds into noise-free medians;
    # the smoke figures keep the caller's (cheaper) round count.
    rounds = max(rounds, 5)
    unsharded = WhyNotEngine(dataset)
    _ = unsharded.setr_tree  # build the index outside timed regions
    record = whynot_unit(unsharded, case, "advanced", rounds=rounds)
    units[FULL_SWEEP_UNITS[0]] = record

    engine = WhyNotEngine(
        dataset, shards=FULL_SWEEP_SHARDS, shard_mode="process"
    )
    engine.attach_sharded_index(index)
    sharded = sharded_whynot_unit(
        case,
        shards=FULL_SWEEP_SHARDS,
        mode="process",
        rounds=rounds,
        engine=engine,
        reference=record,
    )
    sharded["speedup_vs_unsharded"] = round(
        record["p50_ms"] / sharded["p50_ms"], 2
    )
    sharded["load_stats"] = dataclasses.asdict(load_stats)
    units[FULL_SWEEP_UNITS[1]] = sharded
    engine.close()
    return units


def _build_substrate(rounds: int, full: bool) -> _BuildResult:
    """Substrate micro-units.

    Not a paper figure: these track the building blocks whose costs the
    figures aggregate (index construction, top-k search, rank
    determination, the MaxDom/MinDom bound estimators).
    """
    from ..core.bounds import NodeTextStats, max_dom, min_dom
    from ..index.kcr_tree import KcRTree
    from ..index.setr_tree import SetRTree

    units: _Units = {}
    dataset = dataset_for("euro", SUBSTRATE_SIZE, BENCH_SEED)

    durations, setr = _measure(
        lambda: SetRTree(dataset, capacity=100), rounds
    )
    units["build_setr_tree"] = _latency_stats(durations)
    durations, kcr = _measure(lambda: KcRTree(dataset, capacity=100), rounds)
    units["build_kcr_tree"] = _latency_stats(durations)

    obj = dataset.objects[17]
    query = SpatialKeywordQuery(
        loc=obj.loc, doc=frozenset(sorted(obj.doc)[:3]), k=10, alpha=0.5
    )
    missing = [dataset.objects[900]]
    searcher = TopKSearcher(setr)
    kcr_searcher = TopKSearcher(kcr)

    def io_unit(name: str, unit: Callable[[], Any], tree: Any) -> None:
        """Cold-buffer timing plus the batch's deterministic I/O delta."""
        before = tree.stats.snapshot()
        durs, _ = _measure(unit, max(rounds, 10), setup=tree.reset_buffer)
        record = _latency_stats(durs)
        record["io"] = dataclasses.asdict(tree.stats.snapshot() - before)
        units[name] = record

    io_unit("top_k_setr", lambda: searcher.top_k(query), setr)
    io_unit("top_k_kcr", lambda: kcr_searcher.top_k(query), kcr)
    io_unit(
        "rank_determination",
        lambda: searcher.rank_of_missing(query, missing),
        setr,
    )

    cnt, kcm = kcr.fetch_kcm(kcr.root_summary_record)
    stats = NodeTextStats(cnt, kcm)
    keywords = frozenset(sorted(kcm)[:4])
    durations, _ = _measure(
        lambda: max_dom(stats, keywords, 0.3), max(rounds, 50)
    )
    units["max_dom_root_scale"] = _latency_stats(durations)
    durations, _ = _measure(
        lambda: min_dom(stats, keywords, 0.7), max(rounds, 50)
    )
    units["min_dom_root_scale"] = _latency_stats(durations)

    meta = {"kind": "euro-like", "size": SUBSTRATE_SIZE}
    return units, meta, []


def _build_serve(rounds: int, full: bool) -> _BuildResult:
    """Serving-layer load figure (the ``serve-bench`` verb's payload).

    Three units, all per the makespan-discount convention — service
    costs are measured ``process_time`` busy and the fleet overlaps
    them in virtual time, so no unit depends on wall clock or core
    count:

    * ``steady-mixed`` — 1200 requests from 200 users at load factor
      0.65 over 4 virtual workers; p50/p99 of virtual latency.
    * ``overload-burst-4x`` — 4x the admission capacity arriving at
      one instant; the shed counts are exact arithmetic of the class
      limits and the p50 covers the accepted requests.
    * ``dialogue-cache-reuse`` — a 4-round refinement dialogue through
      a real server, with the session layer sharing one dominator
      cache; ``cache_hits`` is gate-stable (deterministic), busy is
      normalized like every other latency.
    """
    from ..serve.bench import run_dialogue, run_serve_bench

    units: _Units = {}
    _, engine = engine_for("euro", 1500, BENCH_SEED)
    params = dict(k0=5, n_keywords=3, max_extra_keywords=4)
    seed = _case_seed(("serve", "euro", 1500))
    cases = cases_for("euro", 1500, BENCH_SEED, seed, 3, params)

    def sim_stats(report: Dict[str, Any]) -> Dict[str, Any]:
        record = _latency_stats(
            [value / 1e3 for value in report["latencies_ms"]]
        )
        record["shed"] = report["shed"]
        record["timeouts"] = report["timeouts"]
        record["completed"] = report["completed"]
        record["workers"] = report["workers"]
        record["service_ms"] = report["service_ms"]
        return record

    steady = run_serve_bench(
        engine,
        cases,
        n_requests=1200,
        users=200,
        seed=BENCH_SEED,
        workers=4,
        load_factor=0.65,
    )
    units["steady-mixed"] = sim_stats(steady)

    burst = run_serve_bench(
        engine,
        cases,
        n_requests=320,  # 4x the default 64+16 admission capacity
        users=40,
        seed=BENCH_SEED,
        workers=4,
        burst=True,
    )
    units["overload-burst-4x"] = sim_stats(burst)

    reused = run_dialogue(engine, cases[0].question, rounds=4)
    fresh = run_dialogue(
        engine, cases[0].question, rounds=4, reuse_cache=False
    )
    record = _latency_stats([value / 1e3 for value in reused["busy_ms"]])
    record["cache_hits"] = reused["cache_hits"]
    record["fresh_cache_hits"] = fresh["cache_hits"]
    record["statuses"] = sorted(set(reused["statuses"]))
    units["dialogue-cache-reuse"] = record

    meta = {"kind": "euro-like", "size": 1500, "simulated_users": 200}
    return units, meta, []


#: Every BENCH emitter by name: the substrate and serving figures, then
#: the paper figures (Fig 13 adds its sharded series and ``full`` leg).
FIGURES: Dict[str, Callable[[int, bool], _BuildResult]] = {
    "substrate": _build_substrate,
    "serve": _build_serve,
    **{name: functools.partial(_build_sweep, fig) for name, fig in SWEEPS.items()},
    "fig13": _build_fig13,
}


# ----------------------------------------------------------------------
# emit + gate
# ----------------------------------------------------------------------

_LATENCY_KEYS = ("p50_ms", "p99_ms", "mean_ms")


def _scale_record(record: Dict[str, Any], scale: float) -> None:
    for key in _LATENCY_KEYS:
        if key in record:
            record[key] = round(record[key] * scale, 4)
    for nested in ("scalar", "vectorized"):
        if nested in record:
            _scale_record(record[nested], scale)
    for key in ("scalar_objects_per_sec", "vectorized_objects_per_sec"):
        if key in record:
            record[key] = round(record[key] / scale, 1)


def emit_figure(
    name: str,
    path: Optional[Union[str, Path]] = None,
    *,
    rounds: int = DEFAULT_ROUNDS,
    scale: float = 1.0,
    write: bool = True,
    full: bool = False,
) -> Dict[str, Any]:
    """Run one figure's emitter and (optionally) write its JSON.

    ``scale != 1.0`` inflates every recorded latency after measurement —
    the negative control that proves the regression gate trips.  Scaled
    payloads are stamped ``"scaled_by"`` so they can never masquerade as
    honest baselines.  ``full`` adds Fig 13's million-object units.
    Raises :class:`PenaltyMismatchError` (nothing written) when exact
    methods disagree at a figure point.
    """
    builder = FIGURES.get(name)
    if builder is None:
        raise KeyError(
            f"unknown figure {name!r}; expected one of {sorted(FIGURES)}"
        )
    # Calibration brackets the unit runs: the host's effective speed
    # drifts over the minutes a figure takes (shared-CPU container),
    # and a single instantaneous sample mis-normalizes every unit
    # measured at a different speed.  The mean of a before and an
    # after sample tracks the speed the units actually saw.
    cal_before = _calibration_ms()
    units, dataset_meta, skipped = builder(rounds, full)
    if scale != 1.0:
        for record in units.values():
            _scale_record(record, scale)
    payload: Dict[str, Any] = {
        "benchmark": name,
        "seed": BENCH_SEED,
        "calibration_ms": round((cal_before + _calibration_ms()) / 2.0, 4),
        "dataset": dataset_meta,
        "units": units,
        "skipped": skipped,
    }
    if scale != 1.0:
        payload["scaled_by"] = scale
    if write:
        out = Path(path) if path is not None else Path(f"BENCH_{name}.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


def _gate_records(
    unit_name: str, unit: Dict[str, Any]
) -> List[Tuple[str, Dict[str, Any]]]:
    """The latency records a unit contributes to the regression gate."""
    if "p50_ms" in unit:
        return [(unit_name, unit)]
    records = []
    if "vectorized" in unit:
        records.append((f"{unit_name}.vectorized", unit["vectorized"]))
    return records


#: Per-unit gating only applies above this baseline p50: shorter units
#: are timer-noise-dominated and contribute to the median tier only.
#: Empirically, same-machine honest re-runs jitter 5-15 ms units by up
#: to ~1.4x, so only genuinely long units are gated individually.
UNIT_GATE_FLOOR_MS = 50.0
#: Per-unit slack multiplier over ``tolerance`` (single units are
#: noisier than the cross-unit median: honest same-machine re-runs on
#: shared hardware jitter even 100 ms units by ~1.4x, so this tier only
#: catches egregious single-unit blowups; broad slowdowns are the
#: figure-median tier's job).
UNIT_GATE_SLACK = 6.0


def compare(
    candidate: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.10,
) -> List[str]:
    """Regression failures of ``candidate`` against ``baseline``.

    Latencies are compared as ``p50 / calibration_ms`` ratios so the
    emitting machines' raw speeds cancel.  Three tiers:

    * **figure-level** — the *median* normalized-p50 ratio across all
      shared units must stay within ``1 + tolerance`` (>10% by
      default).  Robust to single-unit timer noise while tripping on
      any broad slowdown — this is the tier the ``--scale`` negative
      control demonstrates;
    * **unit-level** — units whose baseline p50 is at least
      :data:`UNIT_GATE_FLOOR_MS` (long enough to time stably) must
      individually stay within ``1 + UNIT_GATE_SLACK·tolerance``;
    * **I/O counters** — must match exactly: the workload is seeded and
      storage accounting is deterministic, so a changed page-read count
      is a behavioural regression regardless of timing.

    Units new in the candidate pass.  Units missing from it fail —
    unless the candidate's ``skipped`` list declares the omission (an
    entry prefixed with the unit name), which covers emitter-declared
    gates like the BS candidate-space cap and the ``bench --full``
    million-object sweep.
    """
    failures: List[str] = []
    cal_base = float(baseline.get("calibration_ms") or 1.0)
    cal_cand = float(candidate.get("calibration_ms") or 1.0)
    unit_slack = 1.0 + UNIT_GATE_SLACK * tolerance
    cand_skipped = tuple(candidate.get("skipped", ()))
    ratios: List[float] = []
    for unit_name, base_unit in sorted(baseline.get("units", {}).items()):
        cand_unit = candidate.get("units", {}).get(unit_name)
        if cand_unit is None:
            if any(
                entry.startswith(f"{unit_name}:") for entry in cand_skipped
            ):
                continue  # declared, gated omission — not a regression
            failures.append(f"{unit_name}: unit missing from candidate run")
            continue
        base_records = dict(_gate_records(unit_name, base_unit))
        cand_records = dict(_gate_records(unit_name, cand_unit))
        for record_name, base_record in base_records.items():
            cand_record = cand_records.get(record_name)
            if cand_record is None:
                continue
            base_norm = base_record["p50_ms"] / cal_base
            cand_norm = cand_record["p50_ms"] / cal_cand
            if base_norm <= 0.0:
                continue
            ratio = cand_norm / base_norm
            ratios.append(ratio)
            if (
                base_record["p50_ms"] >= UNIT_GATE_FLOOR_MS
                and ratio > unit_slack
            ):
                failures.append(
                    f"{record_name}: normalized p50 regressed {ratio:.2f}x "
                    f"(candidate {cand_record['p50_ms']}ms, baseline "
                    f"{base_record['p50_ms']}ms, unit gate "
                    f"+{UNIT_GATE_SLACK * tolerance:.0%})"
                )
        if "io" in base_unit and base_unit["io"] != cand_unit.get("io"):
            failures.append(
                f"{unit_name}: I/O counters diverge from baseline "
                f"(deterministic workload — this is a behavioural change)"
            )
    if ratios:
        median_ratio = statistics.median(ratios)
        if median_ratio > 1.0 + tolerance:
            failures.append(
                f"figure median: normalized p50 regressed "
                f"{median_ratio:.2f}x across {len(ratios)} unit(s), "
                f"gate +{tolerance:.0%}"
            )
    return failures
