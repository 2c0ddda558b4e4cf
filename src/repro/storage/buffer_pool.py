"""LRU buffer pool over the simulated pager.

The paper's experiments run with a 4 MB buffer over 4 KB pages
(Section VII-A1), i.e. 1024 buffered pages.  The pool caches whole
records (a record spans one or more consecutive pages; see
:mod:`repro.storage.pager`) and accounts capacity in pages, so a
three-page keyword payload consumes three page frames.

Eviction is strict LRU on record granularity.  Records larger than the
entire pool are read through without being cached — they would
otherwise evict everything for no benefit.

The pool is also the **only sanctioned page-I/O surface outside this
package**: the ``io-through-pool`` contract (:mod:`repro.analysis.flow`)
forbids direct :class:`Pager` access elsewhere, so every read
goes through :meth:`fetch` and every write through the
:meth:`allocate` / :meth:`update` / :meth:`free` write-through methods
(which keep the cache coherent by invalidating on mutation).  That
discipline is what keeps the paper's VII-A1 I/O counters honest.

The pool is also the **fault-tolerance boundary** of the storage
layer: transient faults raised by the pager
(:class:`~repro.errors.TransientIOError`) are retried here with a
bounded, deterministic backoff schedule (:data:`RETRY_LIMIT` attempts,
delays from :data:`BACKOFF_SCHEDULE`) on both the read and the
write-through paths, with every retry counted in
``IOStatistics.read_retries`` / ``write_retries``.  Terminal faults —
checksum mismatches, lost records — pass through untouched; deciding
what to do about those is the engine's job (quarantine + degradation),
not the cache's.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Optional, TypeVar

from ..errors import StorageError, TransientIOError
from .deadline import current_deadline
from .faults import FaultInjector
from .pager import PAGE_SIZE, Pager
from .stats import IOStatistics

__all__ = ["BufferPool", "DEFAULT_BUFFER_BYTES", "RETRY_LIMIT", "BACKOFF_SCHEDULE"]

_T = TypeVar("_T")

DEFAULT_BUFFER_BYTES = 4 * 1024 * 1024
"""Default buffer size, matching the paper's 4 MB."""

RETRY_LIMIT = 4
"""Attempts per page transfer (1 initial + 3 retries).  One more than
the injector's default consecutive-transient cap, so schedule-conform
transients always recover deterministically."""

BACKOFF_SCHEDULE = (0.0005, 0.001, 0.002)
"""Seconds slept before retry *n* — a fixed doubling schedule rather
than a jittered one, so fault runs replay identically."""


class BufferPool:
    """Page-accounted LRU cache in front of a :class:`Pager`."""

    def __init__(
        self, pager: Pager, capacity_bytes: int = DEFAULT_BUFFER_BYTES
    ) -> None:
        if capacity_bytes < 0:
            raise StorageError(
                f"buffer capacity must be non-negative, got {capacity_bytes}"
            )
        self.pager = pager
        self.capacity_pages = capacity_bytes // pager.page_size
        self._frames: "OrderedDict[int, int]" = OrderedDict()  # record id -> span
        self._used_pages = 0
        # Pool-local fetch accounting, checked by the invariant
        # sanitizer: every fetch is exactly one hit or one miss.
        self.fetch_count = 0
        self.hit_count = 0
        self.miss_count = 0
        # The parallel mode (Section IV-C4 / Fig 10) shares one pool
        # across worker threads; the lock keeps the LRU bookkeeping
        # consistent.  Uncontended acquisition is cheap enough to keep
        # unconditionally.
        self._lock = threading.RLock()

    @classmethod
    def create(
        cls,
        *,
        page_size: int = PAGE_SIZE,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: Optional[IOStatistics] = None,
        faults: Optional[FaultInjector] = None,
    ) -> "BufferPool":
        """Build a pool over a fresh :class:`Pager` in one call.

        This is how code outside :mod:`repro.storage` obtains a storage
        substrate without ever constructing (and thus being tempted to
        call) a :class:`Pager` directly.  ``faults`` attaches a seeded
        :class:`~repro.storage.faults.FaultInjector` to the fresh pager;
        ``None`` (the default) leaves injection off entirely.
        """
        return cls(
            Pager(page_size=page_size, stats=stats, faults=faults),
            capacity_bytes,
        )

    @property
    def stats(self) -> IOStatistics:
        return self.pager.stats

    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def total_pages(self) -> int:
        """Pages allocated on the underlying simulated disk."""
        return self.pager.total_pages

    @property
    def page_size(self) -> int:
        return self.pager.page_size

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._frames

    def fetch(self, record_id: int) -> Any:
        """Return a record's payload, through the cache.

        A hit bumps the record to most-recently-used and charges no
        I/O; a miss charges the record's full page span and caches it,
        evicting LRU records until it fits.
        """
        with self._lock:
            self.fetch_count += 1
            span = self._frames.get(record_id)
            if span is not None:
                self._frames.move_to_end(record_id)
                self.hit_count += 1
                self.stats.buffer_hits += 1
                return self.pager.peek(record_id)

            self.miss_count += 1
            # charges the span on success; transient faults are retried
            payload = self._retry(
                "read_retries", lambda: self.pager.read(record_id)
            )
            span = self.pager.span(record_id)
            if span <= self.capacity_pages:
                self._make_room(span)
                self._frames[record_id] = span
                self._used_pages += span
            return payload

    def peek(self, record_id: int) -> Any:
        """Return a record's payload without charging I/O or touching LRU.

        For diagnostics only (the invariant sanitizer walks whole trees
        and must not distort the experiment counters); algorithms go
        through :meth:`fetch`.
        """
        return self.pager.peek(record_id)

    def span(self, record_id: int) -> int:
        """Pages the record occupies on disk (no I/O charged)."""
        return self.pager.span(record_id)

    def exists(self, record_id: int) -> bool:
        """Whether the record is live on the underlying pager.

        (``record_id in pool`` asks the *cache*; this asks the disk.)
        """
        return record_id in self.pager

    def cached_records(self) -> "OrderedDict[int, int]":
        """Snapshot of the cache: record id -> page span (LRU order).

        Exposed for the buffer-accounting invariant checks in
        :mod:`repro.analysis.sanitize`.
        """
        with self._lock:
            return OrderedDict(self._frames)

    # ------------------------------------------------------------------
    # write-through mutation (cache-coherent pager pass-throughs)
    # ------------------------------------------------------------------
    def allocate(self, payload: Any, nbytes: int) -> int:
        """Allocate a new record on the underlying pager (write I/O)."""
        return self._retry(
            "write_retries", lambda: self.pager.allocate(payload, nbytes)
        )

    def update(self, record_id: int, payload: Any, nbytes: int) -> None:
        """Overwrite a record and drop any cached copy of it."""
        with self._lock:
            self._retry(
                "write_retries",
                lambda: self.pager.update(record_id, payload, nbytes),
            )
            self.invalidate(record_id)

    def free(self, record_id: int) -> None:
        """Release a record and drop any cached copy of it."""
        with self._lock:
            self.pager.free(record_id)
            self.invalidate(record_id)

    def invalidate(self, record_id: int) -> None:
        """Drop a record from the cache (after an update or free)."""
        with self._lock:
            span = self._frames.pop(record_id, None)
            if span is not None:
                self._used_pages -= span

    def clear(self) -> None:
        """Empty the pool — used between experiment repetitions so each
        query starts cold, the way the paper averages fresh queries."""
        with self._lock:
            self._frames.clear()
            self._used_pages = 0

    def _retry(self, counter: str, fn: Callable[[], _T]) -> _T:
        """Run one page transfer, retrying transient faults.

        At most :data:`RETRY_LIMIT` attempts, sleeping the fixed
        :data:`BACKOFF_SCHEDULE` delay between them; each re-attempt
        bumps ``stats.read_retries`` or ``stats.write_retries``.  The
        final transient escapes as-is — by then the fault is effectively
        terminal for this operation.  Non-transient storage errors
        (corruption, missing records) are never retried.

        A request deadline (:func:`~repro.storage.deadline.current_deadline`)
        bounds the loop from outside: once the budget is spent there is
        no point finishing the backoff schedule for a request nobody is
        waiting on, so the transient is re-raised immediately (counted
        in ``stats.deadline_aborts``) and any remaining sleep is capped
        at the budget left.  With no deadline installed the behaviour
        is byte-identical to the pre-deadline retry loop.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except TransientIOError:
                attempt += 1
                if attempt >= RETRY_LIMIT:
                    raise
                deadline = current_deadline()
                if deadline is not None and deadline.expired():
                    self.stats.deadline_aborts += 1
                    raise TransientIOError(
                        f"deadline expired after {attempt} attempt(s); "
                        "abandoning retry schedule"
                    )
                setattr(
                    self.stats, counter, getattr(self.stats, counter) + 1
                )
                delay = BACKOFF_SCHEDULE[min(attempt - 1, len(BACKOFF_SCHEDULE) - 1)]
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline.remaining()))
                time.sleep(delay)

    def _make_room(self, span: int) -> None:
        while self._used_pages + span > self.capacity_pages and self._frames:
            _, evicted_span = self._frames.popitem(last=False)
            self._used_pages -= evicted_span
