"""Vectorized leaf-scoring kernels over a packed columnar layout.

The production search path scores leaf objects one at a time in pure
Python while the brute-force oracle (:mod:`repro.model.oracle`) proves
the arithmetic is embarrassingly batchable.  This module closes that
gap without changing a single answer:

* :class:`VocabularyIndex` interns the dataset vocabulary into bit
  positions so a keyword set becomes a row of ``uint64`` blocks;
* :class:`PackedLeaf` is the columnar mirror of one leaf node —
  ``float64`` coordinate arrays, document lengths, and the bitmask
  matrix — built at bulk-load time, maintained through inserts/deletes/
  splits, and round-tripped through index persistence;
* the batch kernels evaluate SDist, Jaccard/Dice/Cosine set similarity,
  ST (Eqn 1), and candidate penalties (Eqn 4) for a whole leaf or
  candidate batch in one shot.

Parity contract
---------------

**Vectorized is an optimization, never a semantics change.**  Every
kernel reproduces the scalar path bit for bit:

* set cardinalities are exact small integers, representable exactly in
  ``float64``; popcounts equal ``len(a & b)`` by construction;
* divisions (``x / y``), products, and square roots are single
  correctly-rounded IEEE-754 operations, identical whether numpy or the
  interpreter executes them, **as long as the operand order matches** —
  every kernel spells its expression in exactly the scalar order
  (e.g. ``alpha * (1.0 - dist) + (1.0 - alpha) * tsim``);
* spatial distances use the ``sqrt(dx² + dy²)`` formulation that
  :func:`repro.model.geometry.euclidean` pins precisely so both
  backends agree: every step is a single correctly-rounded IEEE-754
  operation, identical under numpy and the interpreter.  (``np.hypot``
  versus ``math.hypot`` would differ by one ulp on ~0.6% of operand
  pairs — the formulation choice is what makes the distance kernel
  vectorizable at all);
* the empty-operand convention (similarity involving an empty side is
  0.0) is shared with :mod:`repro.model.similarity`, which pins it.

The kernels never touch storage: callers fetch documents through the
buffer pool exactly as the scalar path does (same accounted I/O, same
fault surface) and hand the packed block in.  The ``REPRO_VECTORIZE``
environment switch (default **on**) gates *use* of the kernels, never
the construction of the packed blocks, so the on-disk layout and the
accounted storage-operation sequence are identical in both modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..model.objects import Dataset

__all__ = [
    "VECTORIZE_ENV",
    "vectorize_enabled",
    "VocabularyIndex",
    "PackedLeaf",
    "batch_distances",
    "batch_intersections",
    "batch_membership",
    "batch_similarity",
    "batch_st",
    "batch_penalties",
    "leaf_scores",
]

KeywordSet = FrozenSet[int]

VECTORIZE_ENV = "REPRO_VECTORIZE"
"""Environment switch for the vectorized hot path.  Unset or any value
other than ``0``/``false``/``off``/``no`` means **on**; the pure-Python
scalar path remains available as the fallback and as the parity
reference."""

_OFF_VALUES = frozenset({"0", "false", "off", "no"})


def vectorize_enabled(override: Optional[bool] = None) -> bool:
    """Whether the vectorized kernels should be used.

    ``override`` short-circuits the environment lookup — searcher and
    algorithm constructors accept an explicit flag so parity tests can
    compare both paths in one process without mutating ``os.environ``.
    """
    if override is not None:
        return override
    raw = os.environ.get(VECTORIZE_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in _OFF_VALUES


_BLOCK_BITS = 64


class VocabularyIndex:
    """Interns keyword ids into bit positions of ``uint64`` blocks.

    Built once per tree from the dataset vocabulary (sorted, so the
    encoding is deterministic) and extended in place when dynamic
    inserts introduce unseen terms.  Widening is append-only: a packed
    leaf built under a narrower vocabulary stays valid because its
    documents cannot contain the newer terms — kernels intersect over
    the common block prefix.
    """

    __slots__ = ("_bit",)

    def __init__(self, terms: Iterable[int] = ()) -> None:
        self._bit: Dict[int, int] = {}
        self.extend(terms)

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "VocabularyIndex":
        return cls(sorted(dataset.doc_frequency))

    def __len__(self) -> int:
        return len(self._bit)

    def __contains__(self, term: object) -> bool:
        return term in self._bit

    @property
    def n_blocks(self) -> int:
        """``uint64`` blocks needed for the current vocabulary width."""
        return max(1, -(-len(self._bit) // _BLOCK_BITS))

    def extend(self, terms: Iterable[int]) -> None:
        """Assign bit positions to any unseen terms (sorted for
        determinism within one batch)."""
        bit = self._bit
        for term in sorted(set(terms) - bit.keys()):
            bit[term] = len(bit)

    def encode(self, keywords: Iterable[int]) -> np.ndarray:
        """Bitmask row for a keyword set, at the current width.

        Terms outside the vocabulary are ignored: they cannot occur in
        any indexed document, so they can never contribute to an
        intersection — callers carry the *full* set cardinality
        separately (see :func:`batch_similarity`).
        """
        blocks = np.zeros(self.n_blocks, dtype=np.uint64)
        bit = self._bit
        for term in keywords:
            position = bit.get(term)
            if position is not None:
                blocks[position // _BLOCK_BITS] |= np.uint64(
                    1 << (position % _BLOCK_BITS)
                )
        return blocks


@dataclass
class PackedLeaf:
    """Columnar mirror of one leaf node (or of a whole dataset).

    Stored as a pager record next to the node it mirrors; the object
    order matches the node's entry order exactly, so kernel output
    aligns with ``node.object_entries`` by index.
    """

    oids: np.ndarray  # int64  (n,)
    xs: np.ndarray  # float64 (n,)
    ys: np.ndarray  # float64 (n,)
    doc_lens: np.ndarray  # float64 (n,) — exact integer values
    masks: np.ndarray  # uint64  (n, n_blocks)

    @classmethod
    def build(
        cls,
        items: Sequence[Tuple[int, Tuple[float, float], KeywordSet]],
        vocab: VocabularyIndex,
    ) -> "PackedLeaf":
        """Pack ``(oid, loc, doc)`` triples under ``vocab``'s encoding."""
        n = len(items)
        oids = np.fromiter((oid for oid, _, _ in items), dtype=np.int64, count=n)
        xs = np.fromiter((loc[0] for _, loc, _ in items), dtype=np.float64, count=n)
        ys = np.fromiter((loc[1] for _, loc, _ in items), dtype=np.float64, count=n)
        doc_lens = np.fromiter(
            (len(doc) for _, _, doc in items), dtype=np.float64, count=n
        )
        masks = np.zeros((n, vocab.n_blocks), dtype=np.uint64)
        for row, (_, _, doc) in enumerate(items):
            masks[row] = vocab.encode(doc)
        return cls(oids=oids, xs=xs, ys=ys, doc_lens=doc_lens, masks=masks)

    @classmethod
    def of_dataset(
        cls, dataset: Dataset, vocab: VocabularyIndex
    ) -> "PackedLeaf":
        """Pack an entire dataset (the degraded-scan fast path)."""
        return cls.build(
            [(obj.oid, obj.loc, obj.doc) for obj in dataset], vocab
        )

    def __len__(self) -> int:
        return int(self.oids.shape[0])

    @property
    def width(self) -> int:
        """Mask width in ``uint64`` blocks at build time."""
        return int(self.masks.shape[1])

    def equals(self, other: "PackedLeaf") -> bool:
        """Exact structural equality (round-trip tests)."""
        return (
            np.array_equal(self.oids, other.oids)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and np.array_equal(self.doc_lens, other.doc_lens)
            and np.array_equal(self.masks, other.masks)
        )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

def batch_distances(
    xs: np.ndarray,
    ys: np.ndarray,
    query_loc: Tuple[float, float],
    dataset: Dataset,
) -> np.ndarray:
    """Normalized distances of packed points to the query location.

    Mirrors ``Dataset.normalized_distance`` operation for operation:
    ``min(sqrt(dx² + dy²) / diagonal, 1.0)``.  Each step is one
    correctly-rounded IEEE-754 operation, so the batch is bit-identical
    to the scalar loop — see the module docstring's parity contract for
    why the ``euclidean`` formulation avoids ``hypot``.
    """
    dx = xs - query_loc[0]
    dy = ys - query_loc[1]
    dist = np.sqrt(dx * dx + dy * dy) / dataset.diagonal
    return np.minimum(dist, 1.0)


def batch_intersections(masks: np.ndarray, query_mask: np.ndarray) -> np.ndarray:
    """``|doc ∩ query|`` per packed row, as exact ``float64`` counts.

    Intersects over the common block prefix: a leaf packed under a
    narrower (older) vocabulary has no bits for newer terms, and a
    narrower query mask has none for terms the leaf has never seen.
    """
    width = min(masks.shape[1], query_mask.shape[0])
    if width == 0 or masks.shape[0] == 0:
        return np.zeros(masks.shape[0], dtype=np.float64)
    joint = masks[:, :width] & query_mask[np.newaxis, :width]
    return np.bitwise_count(joint).sum(axis=1, dtype=np.int64).astype(np.float64)


def batch_membership(
    masks: np.ndarray, vocab: VocabularyIndex, terms: Sequence[int]
) -> np.ndarray:
    """``term ∈ doc`` per packed row and term, as exact 0/1 ``float64``.

    Extracts just the ``terms``' bits from the packed block; a term
    outside the vocabulary, or past the block's (older, narrower)
    width, is in no row — the same common-prefix rule as
    :func:`batch_intersections`, so ``membership @ incidence`` equals
    its popcounts.
    """
    out = np.zeros((masks.shape[0], len(terms)), dtype=np.float64)
    columns = []
    positions = []
    for column, term in enumerate(terms):
        position = vocab._bit.get(term)
        if position is not None and position // _BLOCK_BITS < masks.shape[1]:
            columns.append(column)
            positions.append(position)
    if columns:
        where = np.array(positions, dtype=np.int64)
        shifts = (where % _BLOCK_BITS).astype(np.uint64)
        bits = (masks[:, where // _BLOCK_BITS] >> shifts) & np.uint64(1)
        out[:, columns] = bits
    return out


def batch_similarity(
    model_name: str,
    inter: np.ndarray,
    doc_lens: np.ndarray,
    query_len: int,
) -> np.ndarray:
    """Batched textual similarity, bit-identical to the scalar models.

    ``query_len`` is the **full** cardinality of the query keyword set,
    including terms outside the vocabulary (which ``inter`` correctly
    never counts).  The empty-operand convention of
    :mod:`repro.model.similarity` applies: an empty query yields zeros,
    and rows with empty documents yield 0.0 under every model.
    """
    n = inter.shape[0]
    if query_len == 0:
        return np.zeros(n, dtype=np.float64)
    if model_name == "jaccard":
        union = doc_lens + float(query_len) - inter
        # union >= query_len > 0, so the division is always defined;
        # empty docs give inter == 0 -> 0.0, matching the convention.
        return inter / union
    if model_name == "dice":
        total = doc_lens + float(query_len)
        sim = 2.0 * inter / total
        # Scalar Dice returns 0.0 outright for empty docs; 2*0/|q|
        # already is exactly 0.0, so no masking is needed.
        return sim
    if model_name == "cosine":
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = inter / np.sqrt(doc_lens * float(query_len))
        return np.where(doc_lens > 0.0, sim, 0.0)
    raise ValueError(f"unknown similarity model {model_name!r}")


def batch_st(alpha: float, dist: np.ndarray, tsim: np.ndarray) -> np.ndarray:
    """Eqn 1 combination, in the scalar operand order."""
    return alpha * (1.0 - dist) + (1.0 - alpha) * tsim


def batch_penalties(
    lam: float,
    k0: int,
    rank_margin: int,
    doc_universe_size: int,
    delta_docs: Sequence[int],
    ranks: Sequence[int],
) -> np.ndarray:
    """Eqn 4 penalties for a candidate batch.

    Mirrors ``PenaltyModel.penalty`` exactly:
    ``λ·max(0, rank−k₀)/(R(M,q)−k₀) + (1−λ)·Δdoc/|doc₀ ∪ M.doc|``,
    evaluated as ``k_penalty + keyword_penalty`` in that order.
    """
    delta_k = np.maximum(
        0, np.asarray(ranks, dtype=np.int64) - k0
    ).astype(np.float64)
    delta_doc = np.asarray(delta_docs, dtype=np.float64)
    k_pen = lam * delta_k / float(rank_margin)
    kw_pen = (1.0 - lam) * delta_doc / float(doc_universe_size)
    return k_pen + kw_pen


def leaf_scores(
    packed: PackedLeaf,
    query_loc: Tuple[float, float],
    alpha: float,
    query_mask: np.ndarray,
    query_len: int,
    model_name: str,
    dataset: Dataset,
) -> List[float]:
    """ST scores (Eqn 1) for every object of a packed leaf.

    Returns plain Python floats in entry order, bit-identical to the
    scalar ``TopKSearcher._object_score`` loop over the same leaf.
    """
    if len(packed) == 0:
        return []
    dist = batch_distances(packed.xs, packed.ys, query_loc, dataset)
    inter = batch_intersections(packed.masks, query_mask)
    tsim = batch_similarity(model_name, inter, packed.doc_lens, query_len)
    scores = batch_st(alpha, dist, tsim)
    result: List[float] = scores.tolist()
    return result
