"""Shared nondeterminism taxonomy: sources, sanitizers, and sinks.

The determinism-taint checker (:mod:`repro.analysis.taint`) reads its
sources, sanitizers, and sinks from this one table.

Sources are classified by *kind*, because sinks exempt kinds
selectively (``WhyNotAnswer.elapsed_seconds`` is allowed to carry a
``time`` value — it *is* a measured duration — while a ``time`` value
in ``results`` would be a reproducibility bug):

``time``
    ``time.time`` / ``perf_counter`` / ``monotonic`` / ``process_time``
    families.  ``time.sleep`` is deliberately absent: it delays, it
    does not vary results.
``random``
    ``random.*`` / ``numpy.random.*`` / ``uuid.*`` / ``secrets.*`` /
    ``os.urandom``.  Seeded generator *construction*
    (``default_rng(seed)``, ``Random(seed)``) is excluded — a seeded
    stream is the repo's sanctioned randomness.
``fs-order``
    ``os.listdir`` / ``os.scandir`` / ``Path.iterdir`` / ``glob`` —
    directory enumeration order is filesystem-dependent.
``unordered-iter``
    Iteration over a ``set`` / ``frozenset`` literal, constructor, or
    comprehension.  The *container* is fine; the *iteration order* is
    what taints.
``hash-id``
    ``hash()`` / ``id()`` values (PYTHONHASHSEED / allocator
    dependent).

Sanitizers erase kinds from a value: ``sorted()`` (and ``min`` /
``max`` / ``len``) erase order-dependence; ``numeric.quantize`` is the
explicit blessing for a value intended to be emitted bit-stably.

Sinks are where nondeterminism becomes an externally visible artifact:
the result dataclasses (:class:`repro.core.result.TopKOutcome` /
``WhyNotAnswer`` / ``RefinedQuery``), the checksummed persistence
writers, and the ``BENCH_*`` emitters (``json.dump`` — exempt for
``time`` because latency payloads are recorded by design and the bench
gate normalizes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = [
    "KIND_TIME",
    "KIND_RANDOM",
    "KIND_FS_ORDER",
    "KIND_UNORDERED",
    "KIND_HASH_ID",
    "TAINT_KINDS",
    "NONDET_PREFIXES",
    "NONDET_NAMES",
    "SEEDED_CTOR_NAMES",
    "FS_ORDER_NAMES",
    "FS_ORDER_METHODS",
    "HASH_ID_NAMES",
    "UNORDERED_CTOR_NAMES",
    "SANITIZERS",
    "SinkSpec",
    "SINKS",
    "nondet_kind",
    "sanitizer_clears",
    "sink_for_call",
]

KIND_TIME = "time"
KIND_RANDOM = "random"
KIND_FS_ORDER = "fs-order"
KIND_UNORDERED = "unordered-iter"
KIND_HASH_ID = "hash-id"

TAINT_KINDS: Tuple[str, ...] = (
    KIND_TIME,
    KIND_RANDOM,
    KIND_FS_ORDER,
    KIND_UNORDERED,
    KIND_HASH_ID,
)

ORDER_KINDS: FrozenSet[str] = frozenset({KIND_FS_ORDER, KIND_UNORDERED})

# -- sources -----------------------------------------------------------

# Dotted-prefix families: any call under these is nondeterministic.
NONDET_PREFIXES: Tuple[str, ...] = (
    "random.",
    "numpy.random.",
    "np.random.",
    "uuid.",
    "secrets.",
)

# Exact names.  time.sleep is excluded by omission (see module doc).
NONDET_NAMES: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "os.urandom",
        "random",
    }
)

# Seeded generator construction: deterministic by definition when the
# seed argument is present, so these are *not* taint sources.
SEEDED_CTOR_NAMES: FrozenSet[str] = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "np.random.default_rng",
        "numpy.random.RandomState",
        "np.random.RandomState",
        "numpy.random.Generator",
        "np.random.Generator",
    }
)

FS_ORDER_NAMES: FrozenSet[str] = frozenset({"os.listdir", "os.scandir"})
# Matched by terminal method name on any receiver (Path-like objects).
FS_ORDER_METHODS: FrozenSet[str] = frozenset({"iterdir", "glob", "rglob"})

HASH_ID_NAMES: FrozenSet[str] = frozenset({"hash", "id"})

# set()/frozenset() construction yields an *unordered container* — not
# tainted yet; iterating it produces KIND_UNORDERED values.
UNORDERED_CTOR_NAMES: FrozenSet[str] = frozenset({"set", "frozenset"})


def nondet_kind(candidate: str) -> Optional[str]:
    """Taint kind for a dotted call name, or ``None`` if deterministic."""
    if candidate in NONDET_NAMES:
        return KIND_TIME if candidate.startswith("time.") else KIND_RANDOM
    if candidate.startswith(NONDET_PREFIXES):
        return KIND_RANDOM
    if candidate in FS_ORDER_NAMES:
        return KIND_FS_ORDER
    return None


# -- sanitizers --------------------------------------------------------

# Callable name -> kinds the call's *result* no longer carries.  "*"
# means all kinds (the full determinism blessing).
SANITIZERS: Dict[str, FrozenSet[str]] = {
    # Canonical ordering: the result of sorted() is order-independent
    # of its input's iteration order.
    "sorted": ORDER_KINDS,
    # min/max/len over exact values are iteration-order independent.
    "min": ORDER_KINDS,
    "max": ORDER_KINDS,
    "len": frozenset(TAINT_KINDS),
    # The repo's explicit emit-stability blessing (Eqn 4/6 penalties
    # are quantized before comparison or persistence).
    "quantize": frozenset(TAINT_KINDS),
    "repro.model.numeric.quantize": frozenset(TAINT_KINDS),
    # Deterministic merge helpers: tie-broken, order-canonical merges.
    "merged": ORDER_KINDS,
    "merge": ORDER_KINDS,
}


def sanitizer_clears(name: str) -> Optional[FrozenSet[str]]:
    """Kinds cleared by calling ``name``, or None if not a sanitizer."""
    if name in SANITIZERS:
        return SANITIZERS[name]
    terminal = name.split(".")[-1]
    return SANITIZERS.get(terminal)


# -- sinks -------------------------------------------------------------


@dataclass(frozen=True)
class SinkSpec:
    """One place where nondeterminism becomes externally visible.

    ``fields`` gives the positional-argument → field-name mapping for
    constructor sinks so positional construction is checked the same
    as keyword construction.  ``field_exempt`` allows specific kinds
    into specific fields; ``exempt`` allows kinds into every argument.
    """

    name: str  # terminal callable name ("TopKOutcome", "json.dump")
    kind: str  # "ctor" | "call"
    fields: Tuple[str, ...] = ()
    field_exempt: Tuple[Tuple[str, FrozenSet[str]], ...] = ()
    exempt: FrozenSet[str] = frozenset()

    def exempt_kinds(self, field_name: Optional[str]) -> FrozenSet[str]:
        out = set(self.exempt)
        if field_name is not None:
            for name, kinds in self.field_exempt:
                if name == field_name:
                    out.update(kinds)
        return frozenset(out)


SINKS: Tuple[SinkSpec, ...] = (
    SinkSpec(
        name="TopKOutcome",
        kind="ctor",
        fields=("results", "degraded", "events"),
    ),
    SinkSpec(
        name="WhyNotAnswer",
        kind="ctor",
        fields=(
            "refined",
            "initial_rank",
            "algorithm",
            "elapsed_seconds",
            "io",
            "counters",
            "degraded",
            "fault_events",
        ),
        # elapsed_seconds IS a measured duration; time belongs there.
        field_exempt=(("elapsed_seconds", frozenset({KIND_TIME})),),
    ),
    SinkSpec(
        name="RefinedQuery",
        kind="ctor",
        fields=("keywords", "k", "delta_doc", "rank", "penalty", "alpha"),
    ),
    # The serving layer's externally visible artifact.  busy_ms is the
    # measured process_time cost — time belongs there (the serve bench
    # normalizes it); anything time/random/order-tainted in the other
    # fields would make responses irreproducible.
    SinkSpec(
        name="ServeResponse",
        kind="ctor",
        fields=(
            "status",
            "kind",
            "session",
            "seq",
            "result",
            "reason",
            "busy_ms",
        ),
        field_exempt=(("busy_ms", frozenset({KIND_TIME})),),
    ),
    # v2 checksummed persistence: every byte written must be stable.
    SinkSpec(name="save_checked_json", kind="call"),
    SinkSpec(name="atomic_write_text", kind="call"),
    # BENCH_* emitters: latency payloads are time-derived by design
    # (the bench gate normalizes them); order/random taint still flags.
    SinkSpec(name="json.dump", kind="call", exempt=frozenset({KIND_TIME})),
    SinkSpec(name="json.dumps", kind="call", exempt=frozenset({KIND_TIME})),
)

_SINKS_BY_NAME: Dict[str, SinkSpec] = {spec.name: spec for spec in SINKS}


def sink_for_call(name: Optional[str]) -> Optional[SinkSpec]:
    """Match a resolved dotted call name against the sink registry."""
    if name is None:
        return None
    spec = _SINKS_BY_NAME.get(name)
    if spec is not None:
        return spec
    return _SINKS_BY_NAME.get(name.split(".")[-1])
