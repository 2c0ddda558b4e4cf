"""The asyncio why-not server.

One event loop owns *all* mutable serving state — the admission queue,
the session registry, the breaker board, the counters.  Requests
execute on an executor thread, but that thread runs a deliberately
narrow function (:meth:`WhyNotServer._execute`) that only *reads* the
shared snapshot (engine + indexes) and writes through the engine's own
sanctioned fault-containment surfaces; every policy decision happens
before dispatch or after completion, on the loop thread.  That split
is what lets the flow checker hold the serving layer to the same
worker-read-only contract as the sharded query workers.

Life of a request::

    submit() ── admission.offer ──┬─ shed → rejected: overloaded
                                  └─ queued (per-session FIFO)
    _pump() ── admission.take (round-robin) ── executor:
        _execute(): deadline_scope(budget) → engine → classify
    loop thread: breakers.observe() → counters → future resolved

Deadlines are budgets, not watchdogs: the worker is never interrupted
(a Python thread cannot be safely killed mid-index-descent), but the
budget flows into :class:`~repro.storage.BufferPool`'s retry loop —
the place a request can stall longest — and the response is classified
``timeout`` whenever the budget was exceeded, so callers always learn
whether the latency promise held.

The default is a single worker: on the single-core containers this
repo targets, real thread parallelism buys nothing and costs
determinism.  Scale-out behaviour is measured by the virtual-time
bench (:mod:`repro.serve.bench`) instead, per the makespan-discount
convention.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.dominator_cache import DominatorCache
from ..core.engine import WhyNotEngine
from ..errors import (
    InvalidParameterError,
    ReproError,
    ensure_not_none,
)
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..storage.deadline import Deadline, deadline_scope
from .admission import AdmissionQueue
from .breakers import BreakerBoard
from .protocol import (
    CLASS_TOPK,
    CLASS_WHYNOT,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeRequest,
    ServeResponse,
)
from .sessions import SessionRegistry

__all__ = ["ServerConfig", "WhyNotServer"]


def _default_limits() -> Dict[str, int]:
    return {CLASS_TOPK: 64, CLASS_WHYNOT: 16}


def _default_budgets() -> Dict[str, Optional[float]]:
    return {CLASS_TOPK: 1.0, CLASS_WHYNOT: 5.0}


@dataclass
class ServerConfig:
    """Tunables for one :class:`WhyNotServer`."""

    limits: Dict[str, int] = field(default_factory=_default_limits)
    budgets: Dict[str, Optional[float]] = field(default_factory=_default_budgets)
    session_capacity: int = 128
    caches_per_session: int = 4
    breaker_cooldown: int = 8
    breaker_max_cooldown: int = 64
    workers: int = 1
    warm: Tuple[str, ...] = ("setr", "kcr")


class WhyNotServer:
    """Admission-controlled asyncio front door over one engine."""

    def __init__(
        self, engine: WhyNotEngine, config: Optional[ServerConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        if self.config.workers < 1:
            raise InvalidParameterError(
                f"server needs >= 1 worker, got {self.config.workers}"
            )
        self.admission = AdmissionQueue(self.config.limits)
        self.sessions = SessionRegistry(
            self.config.session_capacity, self.config.caches_per_session
        )
        self.breakers = BreakerBoard(
            engine,
            self.config.breaker_cooldown,
            self.config.breaker_max_cooldown,
        )
        self.status_counts: Dict[str, int] = {
            STATUS_OK: 0,
            STATUS_DEGRADED: 0,
            STATUS_TIMEOUT: 0,
            STATUS_REJECTED: 0,
            STATUS_FAILED: 0,
        }
        self._seq = 0
        self._running = False
        self._wakeup: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._slots: Optional[asyncio.Semaphore] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Warm the indexes and start the dispatch pump."""
        if self._running:
            return
        self.warm()
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.workers)
        self._running = True
        self._pump_task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        """Drain nothing, stop the pump; queued requests get failed."""
        if not self._running:
            return
        self._running = False
        ensure_not_none(self._wakeup, "stop() on a never-started server").set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        while True:
            entry = self.admission.take()
            if entry is None:
                break
            request, future = entry
            if not future.done():
                future.set_result(
                    self._response(
                        request, STATUS_FAILED, reason="server stopped"
                    )
                )

    async def __aenter__(self) -> "WhyNotServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def warm(self) -> None:
        """Build every index the serving paths will read.

        Serving threads must never trigger a lazy bulk load — builds
        are massive write bursts that belong to startup, not to a
        request with a deadline.
        """
        for kind in self.config.warm:
            self.engine.sharded_index.ensure_built(kind, self.engine.model)

    # -- request intake ------------------------------------------------

    async def top_k(
        self,
        session: str,
        query: SpatialKeywordQuery,
        *,
        budget_seconds: Optional[float] = None,
    ) -> ServeResponse:
        """Submit a top-k lookup and await its response."""
        return await self.submit(
            ServeRequest(
                kind=CLASS_TOPK,
                session=session,
                seq=self._next_seq(),
                query=query,
                budget_seconds=budget_seconds,
            )
        )

    async def why_not(
        self,
        session: str,
        question: WhyNotQuestion,
        *,
        method: str = "kcr",
        budget_seconds: Optional[float] = None,
        **options: Any,
    ) -> ServeResponse:
        """Submit a why-not question and await its response."""
        return await self.submit(
            ServeRequest(
                kind=CLASS_WHYNOT,
                session=session,
                seq=self._next_seq(),
                question=question,
                method=method,
                budget_seconds=budget_seconds,
                options=dict(options),
            )
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Admit-or-shed, then await execution."""
        if not self._running:
            raise InvalidParameterError(
                "server is not running; use 'async with WhyNotServer(...)'"
            )
        future: "asyncio.Future[ServeResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        admitted = self.admission.offer(
            request.kind, request.session, (request, future)
        )
        if not admitted:
            self.status_counts[STATUS_REJECTED] += 1
            return self._response(
                request, STATUS_REJECTED, reason="overloaded"
            )
        ensure_not_none(self._wakeup, "running server lost its wakeup").set()
        return await future

    # -- dispatch ------------------------------------------------------

    async def _pump(self) -> None:
        wakeup = ensure_not_none(self._wakeup, "pump started before start()")
        slots = ensure_not_none(self._slots, "pump started before start()")
        while self._running:
            entry = self.admission.take()
            if entry is None:
                wakeup.clear()
                await wakeup.wait()
                continue
            # The slot is handed off to the task and released in
            # _run_one's finally.
            await slots.acquire()
            asyncio.create_task(self._run_one(entry))

    async def _run_one(
        self,
        entry: Tuple[ServeRequest, "asyncio.Future[ServeResponse]"],
    ) -> None:
        request, future = entry
        slots = ensure_not_none(self._slots, "dispatch before start()")
        loop = asyncio.get_running_loop()
        cache = self._dialogue_cache(request)
        try:
            response = await loop.run_in_executor(
                None, self._execute, request, cache
            )
        except BaseException as exc:  # pragma: no cover - defensive
            response = self._response(
                request, STATUS_FAILED, reason=type(exc).__name__
            )
        finally:
            slots.release()
        self.breakers.observe()
        self.status_counts[response.status] += 1
        state = self.sessions.touch(request.session)
        state.requests += 1
        if not future.done():
            future.set_result(response)

    def _dialogue_cache(
        self, request: ServeRequest
    ) -> Optional[DominatorCache]:
        """Opt3 cache shared across a session's refinement dialogue.

        Only the ``advanced`` method consumes a dominator cache, and
        only with Opt3 (``filtering``) enabled; anything else runs
        cache-less.
        """
        if request.kind != CLASS_WHYNOT or request.method != "advanced":
            return None
        if not request.options.get("filtering", True):
            return None
        question = ensure_not_none(
            request.question, "whynot request without a question"
        )
        return self.sessions.dominator_cache(
            request.session, self.engine, question
        )

    def _execute(
        self, request: ServeRequest, cache: Optional[DominatorCache]
    ) -> ServeResponse:
        """Run one admitted request on the worker thread.

        Reads the shared engine snapshot; the only mutations on this
        path are the engine's own fault containment and the
        lock-guarded dominator-cache ingest — both sanctioned surfaces
        of the worker-read-only contract.  Never raises: unexpected
        errors become ``failed`` responses.
        """
        budget = request.budget_seconds
        if budget is None:
            budget = self.config.budgets.get(request.kind)
        deadline = None if budget is None else Deadline(budget)
        busy_start = time.process_time()
        try:
            with deadline_scope(deadline):
                if request.kind == CLASS_TOPK:
                    query = ensure_not_none(
                        request.query, "topk request without a query"
                    )
                    result: Any = self.engine.run_top_k(query)
                    degraded = result.degraded
                else:
                    question = ensure_not_none(
                        request.question, "whynot request without a question"
                    )
                    options = dict(request.options)
                    if cache is not None:
                        options["cache"] = cache
                    result = self.engine.answer(
                        question, request.method, **options
                    )
                    degraded = result.degraded
        except ReproError as exc:
            busy_ms = (time.process_time() - busy_start) * 1000.0
            return self._response(
                request,
                STATUS_FAILED,
                reason=f"{type(exc).__name__}: {exc}",
                busy_ms=busy_ms,
            )
        busy_ms = (time.process_time() - busy_start) * 1000.0
        if deadline is not None and deadline.expired():
            status = STATUS_TIMEOUT
            reason = "deadline expired"
        elif degraded:
            status = STATUS_DEGRADED
            reason = "served by quarantine fallback"
        else:
            status = STATUS_OK
            reason = ""
        return self._response(
            request, status, result=result, reason=reason, busy_ms=busy_ms
        )

    @staticmethod
    def _response(
        request: ServeRequest,
        status: str,
        *,
        result: Any = None,
        reason: str = "",
        busy_ms: float = 0.0,
    ) -> ServeResponse:
        return ServeResponse(
            status=status,
            kind=request.kind,
            session=request.session,
            seq=request.seq,
            result=result,
            reason=reason,
            busy_ms=busy_ms,
        )

    # -- observability -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Aggregate health: engine quarantines, breakers, queue, sessions."""
        quarantined = sorted(self.engine.quarantined)
        open_units = self.breakers.open_units
        return {
            "status": "degraded" if (quarantined or open_units) else "ok",
            "quarantined": quarantined,
            "breakers": self.breakers.snapshot(),
            "queue": self.admission.snapshot(),
            "sessions": self.sessions.snapshot(),
            "responses": dict(self.status_counts),
        }
