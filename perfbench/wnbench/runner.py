"""One benchmark run: set-up, warm-up, timed replay, checks, metrics.

An untraced run measures the end-to-end metrics.  A traced run makes
the same untraced pass first, then a second pass from a fresh set-up
with every layer wrapped (:mod:`.tracer`); the per-layer metrics come
from the second pass, ``trace.overhead_ratio`` compares the two, and the
run fails unless both passes did identical work.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ops import READ_KINDS, WHYNOT_KINDS, WRITE_KINDS
from .tracer import ALL, CALLS, SELF, TOTAL, OpTrace, Recorder, traced
from .workloads import WORKLOADS, OpResult, Problem, Scale, io_sub

perf = time.perf_counter

SETUP_REPEATS = 5


@dataclass
class Pass:
    """Everything one pass measured."""

    setup_s: List[float]
    setup_traces: List[OpTrace]
    warm: List[OpResult]
    timed: List[OpResult]
    wall_s: float
    io: Dict[str, int]
    serve: Dict[str, int]
    peak_rss_mb: float
    errors: List[Problem]
    max_depth: int = 0
    phases_s: Dict[str, float] = field(default_factory=dict)
    gc: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return len(self.timed) / self.wall_s

    def work(self) -> List[Tuple]:
        """Per-op inputs, answers and work counts (no times)."""
        return [(r.op.fingerprint(), r.status, r.io, r.counters(), r.summary())
                for r in self.warm + self.timed] + [("totals", self.io, self.serve)]

    def layer_work(self) -> List[Dict[str, int]]:
        """Per-op wrapper call counts (traced passes only)."""
        return [r.trace.work_counts() for r in self.warm + self.timed if r.trace]


def run_pass(name: str, seed: int, scale: Scale,
             recorder: Optional[Recorder] = None) -> Pass:
    """Set up ``SETUP_REPEATS`` times, then replay the op list once."""
    workload = WORKLOADS[name](seed, scale)
    phases: Dict[str, float] = {}
    mark = perf()
    try:
        setup_s, setup_traces = [], []
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            gc.collect()
            trace = OpTrace()
            with recorder.bound(trace) if recorder is not None else nullcontext():
                started = perf()
                workload.setup()
                setup_s.append(perf() - started)
            setup_traces.append(trace)
        phases["setup"], mark = perf() - mark, perf()
        warm_ops, timed_ops = workload.make_ops()
        phases["make_ops"], mark = perf() - mark, perf()
        gc.collect()
        warm, _ = workload.execute(warm_ops, recorder)
        io_before, serve_before = workload.io_totals(), workload.serve_counts()
        if recorder is not None:
            recorder.max_depth = 0
        gc_before = gc_counts()
        timed, wall = workload.execute(timed_ops, recorder)
        gc_timed = {key: value - gc_before[key] for key, value in gc_counts().items()}
        io = io_sub(workload.io_totals(), io_before)
        serve = {key: value - serve_before[key]
                 for key, value in workload.serve_counts().items()}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases["replay"], mark = perf() - mark, perf()
        errors = workload.verify(warm + timed)
        phases["verify"] = perf() - mark
        return Pass(setup_s, setup_traces, warm, timed, wall, io, serve, peak, errors,
                    recorder.max_depth if recorder is not None else 0, phases, gc_timed)
    finally:
        workload.close()


def gc_counts() -> Dict[str, int]:
    """Collections run and objects collected so far, per generation."""
    counts = {}
    for generation, stats in enumerate(gc.get_stats()):
        counts[f"gen{generation}_collections"] = stats["collections"]
        counts[f"gen{generation}_collected"] = stats["collected"]
    return counts


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 85, 80, 75):
        if n * (100 - p) >= 1000:
            return p
    return 75


def latency_stats(results: Sequence[OpResult], kinds: Sequence[str]) -> Dict[str, Any]:
    values = [r.latency_s * 1000.0 for r in results if r.op.kind in kinds]
    if not values:
        return {}
    p = tail_percentile(len(values))
    return {"p50": float(np.percentile(values, 50)),
            "tail": float(np.percentile(values, p)),
            "tail_percentile": p, "samples": len(values),
            "beyond_tail": sum(1 for v in values if v > np.percentile(values, p))}


def end_to_end(run: Pass) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The gated metrics, and the ungated summary beside them."""
    metrics = {"setup_s": (statistics.median(run.setup_s), "s")}
    summary: Dict[str, Any] = {"setup_runs_s": run.setup_s}
    for kind in READ_KINDS:
        stats = latency_stats(run.timed, (kind,))
        metrics[f"{kind}_p50_ms"] = (stats["p50"], "ms")
        metrics[f"{kind}_tail_ms"] = (stats["tail"], "ms")
        summary[kind] = stats
    writes = latency_stats(run.timed, WRITE_KINDS)
    if writes:
        summary["write_p50_ms"] = writes["p50"]
        summary["write_tail_ms"] = writes["tail"]
        summary["write"] = writes
    metrics["ops_per_s"] = (run.ops_per_s, "1/s")
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            summary)


def _sum_layer(results: Sequence[OpResult], layer: str, slot: int) -> float:
    return sum(r.trace.layer(layer)[slot] for r in results if r.trace is not None)


def _sum_count(results: Sequence[OpResult], name: str) -> int:
    return sum(r.trace.counts.get(name, 0) for r in results if r.trace is not None)


def _sum_counter(results: Sequence[OpResult], name: str) -> int:
    return sum((r.counters() or {}).get(name, 0) for r in results)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Pass, run: Pass) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced pass ``run`` (``plain``: untraced)."""
    ops = run.timed
    whynot = [r for r in ops if r.op.kind in WHYNOT_KINDS]
    topk = [r for r in ops if r.op.kind == "topk"]
    writes = [r for r in ops if r.op.kind in WRITE_KINDS]
    n_ops, n_q, n_topk, n_w = len(ops), len(whynot), len(topk), len(writes)
    setups = run.setup_traces

    def setup_median(layer: str, slot: int) -> float:
        return statistics.median(t.layer(layer)[slot] for t in setups)

    def per(results, layer, slot, n, scale=1.0):
        return _ratio(_sum_layer(results, layer, slot) * scale, n)

    served = [r for r in ops if r.wait_s is not None]
    waits = [r.wait_s * 1000.0 for r in served]
    overheads = [(r.latency_s - r.wait_s - r.trace.engine_s) * 1000.0 for r in served]
    covered = sum(r.trace.engine_s - r.trace.engine_self_s for r in ops)
    hits, reads = run.io["hits"], run.io["page_reads"]
    enumerated = _sum_counter(whynot, "candidates_enumerated")
    advanced = sum(1 for r in ops if r.op.kind == "advanced")
    metrics = {
        "data.generate_s": (setup_median("data.generate", TOTAL), "s"),
        "index.build_setr_s": (setup_median("index.build_setr", TOTAL), "s"),
        "index.build_kcr_s": (setup_median("index.build_kcr", TOTAL), "s"),
        "index.build_shards_s": (setup_median("index.build_shards", SELF), "s"),
        "core.candidates.enumerated_per_q": (_ratio(enumerated, n_q), "count"),
        "core.candidates.evaluated_ratio": (
            _ratio(_sum_counter(whynot, "candidates_evaluated"), enumerated), "ratio"),
        "core.candidates.self_ms_per_q": (per(whynot, "core.candidates", SELF, n_q, 1e3), "ms"),
        "core.bounds.calls_per_q": (per(whynot, "core.bounds", ALL, n_q), "count"),
        "core.bounds.self_ms_per_q": (per(whynot, "core.bounds", SELF, n_q, 1e3), "ms"),
        "core.bounds.pruned_per_q": (
            _ratio(_sum_counter(whynot, "pruned_by_bounds"), n_q), "count"),
        "core.kcr.nodes_expanded_per_q": (
            _ratio(_sum_counter(whynot, "nodes_expanded"), n_q), "count"),
        "core.dominator_cache.pruned_ratio": (
            _ratio(_sum_count(ops, "core.dominator_cache.pruned"),
                   _sum_count(ops, "core.dominator_cache.checks")), "ratio"),
        "index.search.rank_calls_per_q": (per(whynot, "index.search.rank", CALLS, n_q), "count"),
        "index.search.rank_self_ms_per_q": (
            per(whynot, "index.search.rank", SELF, n_q, 1e3), "ms"),
        "index.search.aborted_ratio": (
            _ratio(_sum_count(ops, "index.search.rank.aborted"),
                   _sum_layer(ops, "index.search.rank", CALLS)), "ratio"),
        "index.search.topk_self_ms": (per(topk, "index.search.topk", SELF, n_topk, 1e3), "ms"),
        "core.vectorized.leaf_calls_per_op": (per(ops, "core.vectorized.leaf", ALL, n_ops), "count"),
        "core.vectorized.objects_scored_per_op": (
            _ratio(_sum_count(ops, "core.vectorized.objects"), n_ops), "count"),
        "core.vectorized.leaf_self_ms_per_op": (
            per(ops, "core.vectorized.leaf", SELF, n_ops, 1e3), "ms"),
        "storage.buffer.fetches_per_op": (per(ops, "storage.buffer.fetch", ALL, n_ops), "count"),
        "storage.buffer.page_reads_per_op": (_ratio(reads, n_ops), "count"),
        "storage.buffer.hit_ratio": (_ratio(hits, hits + reads), "ratio"),
        "storage.buffer.fetch_self_ms_per_op": (
            per(ops, "storage.buffer.fetch", SELF, n_ops, 1e3), "ms"),
        "storage.pager.read_self_ms_per_op": (
            per(ops, "storage.pager.read", SELF, n_ops, 1e3), "ms"),
        "storage.pager.page_writes_per_write": (
            _ratio(sum(r.io["page_writes"] for r in writes), n_w), "count"),
        "index.mutate.setr_ms_per_write": (per(writes, "index.mutate.setr", TOTAL, n_w, 1e3), "ms"),
        "index.mutate.kcr_ms_per_write": (per(writes, "index.mutate.kcr", TOTAL, n_w, 1e3), "ms"),
        "index.sharded.round_trips_per_q": (
            per(whynot, "index.sharded.request", CALLS, n_q), "count"),
        "index.sharded.fanout_per_trip": (
            _ratio(_sum_count(ops, "index.sharded.fanout"),
                   _sum_layer(ops, "index.sharded.request", CALLS)), "count"),
        "index.sharded.request_self_ms_per_q": (
            per(whynot, "index.sharded.request", SELF, n_q, 1e3), "ms"),
        "serve.admission.wait_ms_p50": (statistics.median(waits) if waits else 0.0, "ms"),
        "serve.admission.max_depth": (run.max_depth, "count"),
        "serve.admission.shed_ratio": (
            _ratio(run.serve.get("shed", 0), run.serve.get("offered", 0)), "ratio"),
        "serve.sessions.cache_reuse_ratio": (
            _ratio(run.serve.get("cache_hits", 0), advanced), "ratio"),
        "serve.overhead_ms_p50": (statistics.median(overheads) if overheads else 0.0, "ms"),
        "trace.coverage_ratio": (
            _ratio(covered, sum(r.latency_s for r in ops)), "ratio"),
        "trace.overhead_ratio": (_ratio(plain.ops_per_s, run.ops_per_s), "ratio"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
# host noise (recorded beside the metrics, never gated)
# ----------------------------------------------------------------------
def steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def spin_ms(rounds: int = 7) -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    samples = []
    for _ in range(rounds):
        started = perf()
        total = 0
        for i in range(100_000):
            total += i
        samples.append((perf() - started) * 1000.0)
    return statistics.median(samples)


def op_record(res: OpResult) -> Dict[str, Any]:
    op = res.op
    record: Dict[str, Any] = {
        "op": op.op_id, "kind": op.kind, "group": op.group, "session": op.session,
        "params": op.params, "latency_ms": res.latency_s * 1000.0,
        "status": res.status, "io": res.io, "counters": res.counters(),
        "answer": res.summary(),
    }
    if res.error:
        record["error"] = res.error
    if res.trace is not None:
        record["work"] = res.trace.work_counts()
        record["self_ms"] = {name: v[SELF] * 1000.0 for name, v in res.trace.layers.items()}
        if res.wait_s is not None:
            record["wait_ms"] = res.wait_s * 1000.0
    return record


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    summary: Dict[str, Any]
    host: Dict[str, Any]
    records: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload, sized for ``seconds`` of measured work."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    scale = WORKLOADS[name].scale_for(seconds)
    steal_before, spin_before = steal_ticks(), spin_ms()
    plain = run_pass(name, seed, scale)
    metrics, summary = end_to_end(plain)
    # Only the untraced pass's ops count as attempted or failed; every
    # other problem still makes the run incorrect.
    failed_ops = {op_id for op_id, _ in plain.errors if op_id is not None}
    errors = [message for _, message in plain.errors]
    records = {"untraced": [op_record(r) for r in plain.warm + plain.timed]}
    summary["phases_s"] = {"untraced": plain.phases_s}
    if trace:
        recorder = Recorder()
        with traced(recorder):
            traced_pass = run_pass(name, seed, scale, recorder)
        errors += [f"traced pass: {message}" for _, message in traced_pass.errors]
        if traced_pass.work() != plain.work():
            errors.append("the traced pass did different work from the untraced pass")
        metrics = per_layer(plain, traced_pass)
        records["traced"] = [op_record(r) for r in traced_pass.warm + traced_pass.timed]
        summary["phases_s"]["traced"] = traced_pass.phases_s
    steal_after = steal_ticks()
    host = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops_timed": len(plain.timed), "blocks": scale.blocks, "n_objects": scale.n_objects,
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "spin_ms_median": [spin_before, spin_ms()],
        "gc_timed": plain.gc,
        "python": platform.python_version(), "numpy": np.__version__,
    }
    attempted = len(plain.warm) + len(plain.timed)
    failed = len(failed_ops)
    summary["error_ratio"] = failed / attempted
    summary["errors"] = errors[:20]
    return Outcome(not errors, attempted, failed, metrics, summary, host, records)
