"""Span recorder for the traced run.

The traced run replaces public functions of each layer with timing
wrappers for its own duration (:func:`traced`) and restores every
original afterwards.  A span records its duration and the part of it
covered by child spans; its *self* time is the difference.  Spans are
kept per thread (the server executes requests on an executor thread)
and are attributed to the op the calling thread is serving: the
benchmark binds an op around its own calls, and an engine entry point
reached from a server thread finds its op by the identity of the
query or question object it was handed.

Nothing here reads a clock of the program; all times are the host's
``time.perf_counter`` taken around the program's calls.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

perf = time.perf_counter

#: Slots of a layer's totals: outer calls, all calls, outer total
#: seconds, self seconds.
CALLS, ALL, TOTAL, SELF = range(4)


class OpTrace:
    """Per-op (or per-setup) span totals and extra counts."""

    __slots__ = ("layers", "counts", "engine_start", "engine_s", "engine_self_s")

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.engine_start: Optional[float] = None
        self.engine_s = 0.0
        self.engine_self_s = 0.0

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer(self, name: str) -> List[float]:
        return self.layers.get(name, [0, 0, 0.0, 0.0])

    def work_counts(self) -> Dict[str, int]:
        """The deterministic part: call counts and extra counts."""
        out = {f"{name}.calls": int(v[ALL]) for name, v in self.layers.items()}
        out.update({f"{name}.outer": int(v[CALLS]) for name, v in self.layers.items()})
        out.update(self.counts)
        return dict(sorted(out.items()))


class _ThreadState:
    __slots__ = ("stack", "active", "op")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.active: Dict[str, int] = {}
        self.op: Optional[OpTrace] = None


class Recorder:
    """Collects spans into :class:`OpTrace` objects."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.by_object: Dict[int, OpTrace] = {}
        self.max_depth = 0
        self.spare = OpTrace()  # spans outside any bound op

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def bind_object(self, obj: Any, trace: OpTrace) -> None:
        """Attribute engine calls handed ``obj`` to ``trace``."""
        self.by_object[id(obj)] = trace

    @contextmanager
    def bound(self, trace: OpTrace) -> Iterator[OpTrace]:
        """Attribute this thread's spans to ``trace`` while inside."""
        state = self.state()
        previous, state.op = state.op, trace
        try:
            yield trace
        finally:
            state.op = previous

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None, engine: bool = False) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``layer``.

        ``after(trace, outer, args, result)`` adds extra counts.  An
        ``engine`` wrapper is an op's entry point into the program: on a
        thread with no bound op it binds the op its query or question
        argument belongs to, and it records its own start, duration and
        self time on the op.
        """
        state_of = self.state
        by_object = self.by_object
        spare = self.spare

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            rebound = False
            if engine and state.op is None and len(args) > 1:
                trace = by_object.get(id(args[1]))
                if trace is not None:
                    state.op = trace
                    rebound = True
            stack = state.stack
            active = state.active
            depth = active.get(layer, 0)
            active[layer] = depth + 1
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if depth:
                    active[layer] = depth
                else:
                    del active[layer]
                trace = state.op if state.op is not None else spare
                totals = trace.layers.get(layer)
                if totals is None:
                    totals = trace.layers[layer] = [0, 0, 0.0, 0.0]
                totals[ALL] += 1
                totals[SELF] += duration - frame[0]
                if not depth:
                    totals[CALLS] += 1
                    totals[TOTAL] += duration
                if engine and not depth:
                    trace.engine_start = start
                    trace.engine_s += duration
                    trace.engine_self_s += duration - frame[0]
                if rebound:
                    state.op = None
            if after is not None:
                after(trace, not depth, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """Wrap a generator function so each ``next()`` is one span."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            step = recorder.wrap(layer, lambda: next(iterator))
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


# ----------------------------------------------------------------------
# the wrapped layer boundaries
# ----------------------------------------------------------------------
def _count_leaf(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
    trace.bump("core.vectorized.objects", len(result))


def _count_cache_prune(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
    limit = args[2] if len(args) > 2 else None
    trace.bump("core.dominator_cache.checks")
    if limit is not None and result >= limit:
        trace.bump("core.dominator_cache.pruned")


def _count_rank(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
    if outer and result.aborted:
        trace.bump("index.search.rank.aborted")


def _count_request(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
    if outer:
        trace.bump("index.sharded.fanout")


def _count_request_many(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
    if outer:
        trace.bump("index.sharded.fanout", len(args[1]))


def boundaries(recorder: Recorder) -> List[tuple]:
    """``(owner, attribute, wrapper factory)`` for every traced boundary."""
    from repro.core import kcr_algorithm, vectorized
    from repro.core.candidates import CandidateEnumerator
    from repro.core.dominator_cache import DominatorCache
    from repro.core.engine import WhyNotEngine
    from repro.data import synthetic
    from repro.index.kcr_tree import KcRTree
    from repro.index.search import TopKSearcher
    from repro.index.setr_tree import SetRTree
    from repro.index.sharded import ShardedIndex, ShardedSearcher
    from repro.serve.admission import AdmissionQueue
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.pager import Pager

    def span(layer: str, after: Optional[Callable] = None,
             engine: bool = False) -> Callable:
        return lambda fn: recorder.wrap(layer, fn, after=after, engine=engine)

    def offer_depth(trace: OpTrace, outer: bool, args: Any, result: Any) -> None:
        recorder.max_depth = max(recorder.max_depth, len(args[0]))

    engine = span("core.engine", engine=True)
    return [
        (WhyNotEngine, "run_top_k", engine),
        (WhyNotEngine, "answer", engine),
        (WhyNotEngine, "insert", engine),
        (WhyNotEngine, "remove", engine),
        (WhyNotEngine, "update_keywords", engine),
        (synthetic, "generate", span("data.generate")),
        (SetRTree, "__init__", span("index.build_setr")),
        (KcRTree, "__init__", span("index.build_kcr")),
        (ShardedIndex, "build", span("index.build_shards")),
        (ShardedIndex, "ensure_built", span("index.build_shards")),
        (CandidateEnumerator, "iter_paper_order",
         lambda fn: recorder.wrap_generator("core.candidates", fn)),
        (CandidateEnumerator, "at_distance", span("core.candidates")),
        (kcr_algorithm, "max_dom", span("core.bounds")),
        (kcr_algorithm, "min_dom", span("core.bounds")),
        (DominatorCache, "count_dominating",
         span("core.dominator_cache", after=_count_cache_prune)),
        (DominatorCache, "record_dominators", span("core.dominator_cache")),
        (TopKSearcher, "top_k", span("index.search.topk")),
        (TopKSearcher, "rank_of_missing", span("index.search.rank", after=_count_rank)),
        (ShardedSearcher, "top_k", span("index.search.topk")),
        (ShardedSearcher, "rank_of_missing",
         span("index.search.rank", after=_count_rank)),
        (vectorized, "leaf_scores", span("core.vectorized.leaf", after=_count_leaf)),
        (BufferPool, "fetch", span("storage.buffer.fetch")),
        (Pager, "read", span("storage.pager.read")),
        (SetRTree, "insert", span("index.mutate.setr")),
        (SetRTree, "delete", span("index.mutate.setr")),
        (KcRTree, "insert", span("index.mutate.kcr")),
        (KcRTree, "delete", span("index.mutate.kcr")),
        (ShardedIndex, "request", span("index.sharded.request", after=_count_request)),
        (ShardedIndex, "request_many",
         span("index.sharded.request", after=_count_request_many)),
        (AdmissionQueue, "offer", span("serve.admission.offer", after=offer_depth)),
    ]


_MISSING = object()


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install every boundary wrapper; restore the originals on exit."""
    restore: List[tuple] = []
    try:
        for owner, name, factory in boundaries(recorder):
            raw = owner.__dict__.get(name, _MISSING)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(factory(raw.__func__))
            else:
                patched = factory(getattr(owner, name))
            restore.append((owner, name, raw))
            setattr(owner, name, patched)
        yield recorder
    finally:
        for owner, name, raw in reversed(restore):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)


def originals() -> Dict[str, Any]:
    """The current raw attribute at every boundary (for hygiene checks)."""
    return {f"{getattr(owner, '__name__', owner)}.{name}": owner.__dict__.get(name, _MISSING)
            for owner, name, _ in boundaries(Recorder())}
