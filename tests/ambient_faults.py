"""The suite's ambient fault injector and the I/O counters it moves.

Under ``REPRO_FAULTS`` (see ``tests/conftest.py``) every buffer pool
built without an explicit injector reads and writes through a seeded
fork of one root injector.  The retry layer absorbs every transient
fault, so answers and page traffic stay exact, but the fault counters
themselves record the injected faults: they differ from a fault-free
baseline by design, and between two trees that draw different faults.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.storage.faults import FaultInjector

AMBIENT_FAULTS = FaultInjector.from_env() is not None

# IOSnapshot fields that only a fault injector moves.
FAULT_COUNTERS = (
    "read_retries",
    "write_retries",
    "transient_faults",
    "checksum_failures",
    "lost_records",
)


def comparable_io(io) -> Dict[str, int]:
    """``io`` (an ``IOSnapshot`` or its dict) as a dict, without the
    fault counters when an ambient injector drives them."""
    fields = io if isinstance(io, dict) else dataclasses.asdict(io)
    if not AMBIENT_FAULTS:
        return dict(fields)
    return {k: v for k, v in fields.items() if k not in FAULT_COUNTERS}
