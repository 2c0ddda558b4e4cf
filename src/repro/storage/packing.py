"""Slotted-page packing for small records.

Object keyword sets are tiny (a handful of 4-byte term ids); giving
each its own 4 KB page would inflate the I/O metric and distort the
buffer-pressure ratio.  Real systems — and the paper's layout, which
stores keyword payloads "sequentially on disk" — pack many small
records into shared pages.  :class:`PackedWriter` does exactly that:
consecutive ``add`` calls fill one page until it is full, then start a
new one.  The tree builder flushes the writer per leaf node, so the
keyword sets of one leaf's objects land on the same page(s) and a leaf
scan costs one or two page reads instead of a hundred.

A packed record is addressed by a :class:`SlotRef` = (page record id,
slot); fetching any slot pulls the whole page through the buffer pool,
which is precisely the locality a slotted page gives on real disks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import StorageError
from .buffer_pool import BufferPool
from .pager import Pager

__all__ = ["SlotRef", "PackedWriter", "fetch_slot", "slot_payload"]

#: What :class:`PackedWriter` writes through — only ``page_size`` and
#: ``allocate`` are used, which both expose identically.  Index code
#: hands in the :class:`BufferPool` so packed page writes get the
#: pool's transient-fault retry protection.
PackStore = Union[Pager, BufferPool]


@dataclass(frozen=True)
class SlotRef:
    """Address of a packed record: pager record id + slot index."""

    record: int
    slot: int


class PackedWriter:
    """Accumulates small payloads into shared pages."""

    def __init__(self, store: PackStore) -> None:
        self.store = store
        self._payloads: List[Any] = []
        self._sizes: List[int] = []
        self._pending: List[int] = []  # bytes per pending payload
        self._pending_bytes = 0
        self._refs: List[Optional[SlotRef]] = []

    def add(self, payload: Any, nbytes: int) -> int:
        """Queue a payload; returns its index for post-flush resolution."""
        if nbytes < 0:
            raise StorageError(f"record size must be non-negative, got {nbytes}")
        if nbytes > self.store.page_size:
            raise StorageError(
                f"packed records must fit in one page "
                f"({nbytes} > {self.store.page_size}); allocate directly instead"
            )
        if self._pending_bytes + nbytes > self.store.page_size and self._payloads:
            self._flush_page()
        index = len(self._refs)
        self._refs.append(None)
        self._payloads.append((index, payload))
        self._pending_bytes += nbytes
        return index

    def flush(self) -> None:
        """Seal the current page (called at each leaf-node boundary)."""
        if self._payloads:
            self._flush_page()

    def ref(self, index: int) -> SlotRef:
        """Resolve a queued payload's final address (after flush)."""
        ref = self._refs[index]
        if ref is None:
            raise StorageError(f"payload {index} not flushed yet")
        return ref

    def _flush_page(self) -> None:
        slots = [payload for _, payload in self._payloads]
        record_id = self.store.allocate(tuple(slots), self._pending_bytes)
        for slot, (index, _) in enumerate(self._payloads):
            self._refs[index] = SlotRef(record=record_id, slot=slot)
        self._payloads = []
        self._pending_bytes = 0


def fetch_slot(buffer: BufferPool, ref: SlotRef) -> Any:
    """Read one packed record through the buffer pool.

    Charges the page on a miss; subsequent slots of the same page are
    buffer hits — the locality benefit packing exists to model.
    """
    return slot_payload(buffer.fetch(ref.record), ref)


def slot_payload(page: Any, ref: SlotRef) -> Any:
    """The payload in ``ref``'s slot of an already fetched page."""
    try:
        return page[ref.slot]
    except (TypeError, IndexError):
        raise StorageError(
            f"record {ref.record} slot {ref.slot} is not a valid packed slot"
        ) from None
