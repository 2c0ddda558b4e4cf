"""Deterministic fault injection for the simulated disk.

The ROADMAP's north star is a serving-scale system, and at serving
scale storage faults are a matter of *when*, not *if*.  This module is
the *injection* half of the repo's fault story (detection lives in the
pager's checksums and :mod:`repro.analysis.sanitize`; tolerance in the
buffer pool's retries and :class:`repro.core.engine.WhyNotEngine`'s
graceful degradation): a seeded :class:`FaultInjector` that the
:class:`~repro.storage.pager.Pager` consults on every read and write
and that decides, deterministically, when the simulated hardware
misbehaves.

Fault classes (all rates are per-operation probabilities):

``transient_read_rate`` / ``transient_write_rate``
    The transfer fails with :class:`repro.errors.TransientIOError` but
    the disk is undamaged — a retry can succeed.  The injector bounds
    consecutive transients per record at
    ``max_consecutive_transients`` so the buffer pool's bounded retry
    deterministically recovers unless the schedule is configured to
    exceed the retry budget.
``bit_rot_rate``
    On read, the record's payload silently rots *before* the transfer:
    its stored checksum stops matching and this and every later read
    raises :class:`repro.errors.CorruptRecordError`.
``lost_record_rate``
    On read, the record vanishes from the disk entirely —
    :class:`repro.errors.RecordNotFoundError`, permanently.
``torn_write_rate``
    A *multi-page* write (span > 1) is torn mid-record: the write
    "succeeds" but the record is left corrupt, detected by checksum on
    the next read.  Single-page writes are atomic, as on real disks.

Schedules compose with ``|`` (rates add, caps take the more hostile
value), so test suites can layer, e.g., a transient-noise baseline
with a targeted bit-rot schedule.  ``FaultInjector.from_env()`` builds
an injector from the ``REPRO_FAULTS`` environment variable — the test
suite's standing chaos hook (see ``tests/conftest.py``):

* ``REPRO_FAULTS=1`` / ``transient`` — transient-only noise that the
  retry layer must fully absorb (the whole suite still passes);
* ``REPRO_FAULTS=mixed`` — the full mixed schedule (for the chaos
  verb and the dedicated fault property tests);
* ``REPRO_FAULTS=read=0.02,write=0.01,rot=0.001,lost=0.001,torn=0.01,seed=7``
  — explicit rates.

Determinism: decisions come from a private ``random.Random`` seeded at
construction, consumed once per faultable operation, so a fixed seed
plus a fixed operation sequence replays the exact same fault history.
``fork(label)`` derives an independent child injector (seeded from the
parent seed and the label), letting one logical schedule drive several
pagers without their operation interleaving perturbing each other.
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import StorageError

__all__ = [
    "FaultSchedule",
    "FaultInjector",
    "ReadAction",
    "WriteAction",
    "TRANSIENT_ONLY",
    "MIXED",
    "FAULTS_ENV_VAR",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"

# Actions the pager interprets; plain strings keep the hot path cheap.
ReadAction = str  # "ok" | "transient" | "rot" | "lose"
WriteAction = str  # "ok" | "transient" | "torn"


@dataclass(frozen=True)
class FaultSchedule:
    """One composable set of per-operation fault rates."""

    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    bit_rot_rate: float = 0.0
    lost_record_rate: float = 0.0
    torn_write_rate: float = 0.0
    max_consecutive_transients: int = 2

    def __post_init__(self) -> None:
        for name in (
            "transient_read_rate",
            "transient_write_rate",
            "bit_rot_rate",
            "lost_record_rate",
            "torn_write_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise StorageError(f"{name} must lie in [0, 1], got {value}")
        if self.max_consecutive_transients < 1:
            raise StorageError(
                "max_consecutive_transients must be >= 1, got "
                f"{self.max_consecutive_transients}"
            )

    def __or__(self, other: "FaultSchedule") -> "FaultSchedule":
        """Compose two schedules: rates add (capped at 1), the more
        hostile consecutive-transient cap wins."""
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return FaultSchedule(
            transient_read_rate=min(
                1.0, self.transient_read_rate + other.transient_read_rate
            ),
            transient_write_rate=min(
                1.0, self.transient_write_rate + other.transient_write_rate
            ),
            bit_rot_rate=min(1.0, self.bit_rot_rate + other.bit_rot_rate),
            lost_record_rate=min(
                1.0, self.lost_record_rate + other.lost_record_rate
            ),
            torn_write_rate=min(1.0, self.torn_write_rate + other.torn_write_rate),
            max_consecutive_transients=max(
                self.max_consecutive_transients, other.max_consecutive_transients
            ),
        )

    @property
    def is_noop(self) -> bool:
        return not (
            self.transient_read_rate
            or self.transient_write_rate
            or self.bit_rot_rate
            or self.lost_record_rate
            or self.torn_write_rate
        )

    def scaled(self, factor: float) -> "FaultSchedule":
        """The same fault mix at ``factor`` times the intensity."""
        if factor < 0.0:
            raise StorageError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            transient_read_rate=min(1.0, self.transient_read_rate * factor),
            transient_write_rate=min(1.0, self.transient_write_rate * factor),
            bit_rot_rate=min(1.0, self.bit_rot_rate * factor),
            lost_record_rate=min(1.0, self.lost_record_rate * factor),
            torn_write_rate=min(1.0, self.torn_write_rate * factor),
        )


TRANSIENT_ONLY = FaultSchedule(
    transient_read_rate=0.02, transient_write_rate=0.01
)
"""Recoverable noise only: the retry layer must absorb every fault, so
the full test suite passes unchanged under this schedule."""

MIXED = FaultSchedule(
    transient_read_rate=0.01,
    transient_write_rate=0.005,
    bit_rot_rate=0.0005,
    lost_record_rate=0.0003,
    torn_write_rate=0.002,
)
"""The chaos verb's default: transients plus unrecoverable damage that
must surface as flagged degradation, never as wrong answers."""

_PRESETS: Dict[str, FaultSchedule] = {
    "1": TRANSIENT_ONLY,
    "true": TRANSIENT_ONLY,
    "transient": TRANSIENT_ONLY,
    "mixed": MIXED,
}

_SPEC_KEYS: Dict[str, str] = {
    "read": "transient_read_rate",
    "write": "transient_write_rate",
    "rot": "bit_rot_rate",
    "lost": "lost_record_rate",
    "torn": "torn_write_rate",
    "consecutive": "max_consecutive_transients",
}


def _parse_spec(spec: str) -> Tuple[FaultSchedule, Optional[int]]:
    """Parse ``read=0.02,rot=0.001,seed=7`` into (schedule, seed)."""
    values: Dict[str, float] = {}
    seed: Optional[int] = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise StorageError(
                f"bad {FAULTS_ENV_VAR} component {part!r}; expected key=value "
                f"with keys {sorted(_SPEC_KEYS)} or 'seed'"
            )
        key, _, raw = part.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key == "seed":
            seed = int(raw)
            continue
        field = _SPEC_KEYS.get(key)
        if field is None:
            raise StorageError(
                f"unknown {FAULTS_ENV_VAR} key {key!r}; "
                f"expected one of {sorted(_SPEC_KEYS)} or 'seed'"
            )
        values[field] = (
            int(raw) if field == "max_consecutive_transients" else float(raw)
        )
    return FaultSchedule(**values), seed  # type: ignore[arg-type]


class FaultInjector:
    """Seeded, thread-safe fault decision source for one or more pagers.

    The injector owns no pager state; it only answers "does this
    operation fault, and how?".  The pager applies the consequence
    (raising, rotting the checksum, dropping the record) and the
    shared :class:`~repro.storage.stats.IOStatistics` counts what was
    detected.  The injector's own counters record what was *injected*,
    so tests can assert both sides of the ledger independently.
    """

    def __init__(self, schedule: FaultSchedule, seed: int = 7) -> None:
        self.schedule = schedule
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._fork_count = 0
        self._children: List["FaultInjector"] = []
        # (op, record_id) -> consecutive transient faults delivered.
        self._consecutive: Dict[Tuple[str, int], int] = {}
        # Injection-side ledger.
        self.transients_injected = 0
        self.rot_injected = 0
        self.lost_injected = 0
        self.torn_injected = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, environ: Optional[Dict[str, str]] = None
    ) -> Optional["FaultInjector"]:
        """Build an injector from ``REPRO_FAULTS``, or ``None`` if unset.

        ``REPRO_FAULTS_SEED`` overrides the seed (default 7) for preset
        schedules; an explicit ``seed=`` in the spec wins over both.
        """
        env = os.environ if environ is None else environ
        raw = env.get(FAULTS_ENV_VAR, "").strip()
        if not raw or raw == "0":
            return None
        default_seed = int(env.get(FAULTS_SEED_ENV_VAR, "7"))
        preset = _PRESETS.get(raw.lower())
        if preset is not None:
            return cls(preset, seed=default_seed)
        schedule, seed = _parse_spec(raw)
        return cls(schedule, seed=seed if seed is not None else default_seed)

    def fork(self, label: str) -> "FaultInjector":
        """An independent child injector with the same schedule.

        The child's seed derives from the parent seed and ``label``, so
        two pagers driven by forks replay identically regardless of how
        their operations interleave.
        """
        child_seed = zlib.crc32(f"{self.seed}:{label}".encode("utf-8"))
        child = FaultInjector(self.schedule, seed=child_seed)
        with self._lock:
            self._children.append(child)
        return child

    def fork_fresh(self) -> "FaultInjector":
        """A child with an automatically numbered label (pool factories)."""
        with self._lock:
            self._fork_count += 1
            count = self._fork_count
        return self.fork(f"fork-{count}")

    # ------------------------------------------------------------------
    # decision points (called by the pager under its own operations)
    # ------------------------------------------------------------------
    def on_read(self, record_id: int) -> ReadAction:
        """Decide the fate of one record read."""
        schedule = self.schedule
        with self._lock:
            roll = self._rng.random()
            if roll < schedule.transient_read_rate:
                if self._bump_transient("read", record_id):
                    self.transients_injected += 1
                    return "transient"
            else:
                self._consecutive.pop(("read", record_id), None)
            roll = self._rng.random()
            if roll < schedule.bit_rot_rate:
                self.rot_injected += 1
                return "rot"
            if roll < schedule.bit_rot_rate + schedule.lost_record_rate:
                self.lost_injected += 1
                return "lose"
            return "ok"

    def on_write(self, record_id: int, span: int) -> WriteAction:
        """Decide the fate of one record write of ``span`` pages."""
        schedule = self.schedule
        with self._lock:
            roll = self._rng.random()
            if roll < schedule.transient_write_rate:
                if self._bump_transient("write", record_id):
                    self.transients_injected += 1
                    return "transient"
            else:
                self._consecutive.pop(("write", record_id), None)
            if span > 1 and self._rng.random() < schedule.torn_write_rate:
                self.torn_injected += 1
                return "torn"
            return "ok"

    def _bump_transient(self, op: str, record_id: int) -> bool:
        """Count a would-be transient; False once the consecutive cap is
        hit (the fault is suppressed so retries terminate)."""
        key = (op, record_id)
        seen = self._consecutive.get(key, 0)
        if seen >= self.schedule.max_consecutive_transients:
            self._consecutive.pop(key, None)
            return False
        self._consecutive[key] = seen + 1
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return (
            self.transients_injected
            + self.rot_injected
            + self.lost_injected
            + self.torn_injected
        )

    def absorb(self, counts: Dict[str, int]) -> None:
        """Add injection counts made elsewhere (a forked shard worker's
        copy of this injector) to this injector's own ledger."""
        with self._lock:
            for key, value in counts.items():
                setattr(self, key, getattr(self, key) + value)

    def summary(self) -> Dict[str, int]:
        """Injection-side counts for this injector and all its forks.

        Faults are injected on the per-pager forks, not the root, so a
        root-level report must fold the whole family tree back together;
        own-counter assertions use the public attributes directly.
        """
        totals = {
            "transients_injected": self.transients_injected,
            "rot_injected": self.rot_injected,
            "lost_injected": self.lost_injected,
            "torn_injected": self.torn_injected,
        }
        with self._lock:
            children = list(self._children)
        for child in children:
            for key, value in child.summary().items():
                totals[key] += value
        return totals
