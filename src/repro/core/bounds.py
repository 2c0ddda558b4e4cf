"""Dominator-count bounds over KcR-tree nodes (Section V-B).

Given a node ``N`` (its ``cnt`` and keyword-count map), a candidate
keyword set ``S``, and a missing object ``m``, this module estimates

* ``MaxDom(N, S, m)`` — an upper bound on how many objects in ``N``
  can rank above ``m`` (Theorem 2 + Theorem 3, Algorithm 2), and
* ``MinDom(N, S, m)`` — a lower bound on how many objects in ``N``
  are *guaranteed* to rank above ``m`` (the symmetric estimate the
  paper describes as "done similarly").

**Thresholds.**  Theorem 2: an object ``o ∈ N`` can dominate ``m``
only if ``TSim(o, S) > L`` where

``L = α/(1−α) · (MinDist(N,q) − SDist(m,q)) + TSim(m, S)``.

Dually, ``o`` *surely* dominates when ``TSim(o, S) > U`` with
``MaxDist`` in place of ``MinDist`` — wherever ``o`` sits inside the
MBR, its score beats ``m``'s.

**Aggregate counting.**  Algorithm 2 walks a hypothetical dominator
count ``ans`` downward from ``cnt``.  If ``ans`` dominators existed,
their summed intersections with ``S`` would be at most
``N(ans) = Σ_{t∈S} min(count(t), ans)`` while their summed unions are
at least ``|S|·ans + E(ans)`` with
``E(ans) = Σ_{t∉S} max(0, count(t) − (cnt − ans))`` (irrelevant
keyword instances that cannot all hide in the other objects).  When
even that optimistic pseudo similarity falls below ``L`` — i.e.
``f(ans) = N(ans) − L·(|S|·ans + E(ans)) < 0`` — ``ans`` dominators
are impossible, so the bound is the **largest** ``ans`` with
``f(ans) >= 0``.

**Search strategy.**  ``N`` is concave in ``ans`` (a sum of
``min``-of-linear terms), ``E`` is convex (a sum of hinge terms), so
``f`` is concave; its non-negative set is one contiguous interval.
The implementation therefore ternary-searches the maximum of ``f`` and
binary-searches the right boundary — ``O(log² cnt)`` evaluations, each
``O(|S| + log V)`` via per-node sorted-count prefix sums — instead of
the paper's ``O(cnt)`` step-by-step set updates.  The literal
Algorithm 2 scan is kept as :func:`max_dom_scan` /
:func:`min_dom_scan` (reference semantics; equivalence is
property-tested).  :class:`DomBatch` runs the same search for a whole
grid of (node, keyword set, threshold) elements in lockstep numpy
rounds, with results equal to :func:`max_dom` / :func:`min_dom`.

``MinDom`` mirrors this: it bounds the number of possible
*non*-dominators (``TSim ≤ U``) through the concave feasibility
function ``g(ans) = U·(|S|·ans + P(ans)) − F(ans)`` (``P`` the padded
unions, ``F`` the forced relevant instances) and returns ``cnt`` minus
the largest feasible count.

Both bounds become exact at the leaf level, where children are objects
with known documents; :func:`object_dominates` is that exact check.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ensure
from ..model.geometry import Point, Rect

__all__ = [
    "NodeTextStats",
    "DominationThresholds",
    "max_dom",
    "min_dom",
    "max_dom_scan",
    "min_dom_scan",
    "object_dominates",
    "keyword_incidence",
    "DomBatch",
]

KeywordSet = FrozenSet[int]
KcMap = Dict[int, int]


class NodeTextStats:
    """Cached per-node count statistics, independent of ``S``.

    ``excess(x) = Σ_t max(0, count(t) − x)`` over *all* keywords in the
    node, answered in ``O(log V)`` from sorted counts and prefix sums.
    Per-``S`` quantities are derived by correcting with the (few)
    counts of the keywords in ``S``.
    """

    __slots__ = (
        "cnt", "kcm", "_sorted", "_prefix", "total", "_rel_cache", "_sorted_array"
    )

    def __init__(self, cnt: int, kcm: KcMap) -> None:
        self.cnt = cnt
        self.kcm = kcm
        self._sorted: List[int] = sorted(kcm.values())
        prefix = [0]
        for count in self._sorted:
            prefix.append(prefix[-1] + count)
        self._prefix = prefix
        self.total = prefix[-1]
        self._rel_cache: Dict[KeywordSet, "_RelStats"] = {}
        self._sorted_array: Optional[np.ndarray] = None

    def sorted_array(self) -> np.ndarray:
        """The sorted counts as ``int64``, built on first use by
        :class:`DomBatch`."""
        if self._sorted_array is None:
            self._sorted_array = np.array(self._sorted, dtype=np.int64)
        return self._sorted_array

    def excess(self, x: int) -> int:
        """``Σ_t max(0, count(t) − x)`` over every keyword of the node."""
        if x <= 0:
            return self.total
        position = bisect.bisect_right(self._sorted, x)
        above = len(self._sorted) - position
        return (self._prefix[-1] - self._prefix[position]) - above * x

    def rel_counts(self, keywords: KeywordSet) -> List[int]:
        """Counts of the candidate keywords present in the node."""
        kcm = self.kcm
        return [kcm[t] for t in keywords if t in kcm]

    def rel_stats(self, keywords: KeywordSet) -> "_RelStats":
        """Prefix-summed relevant counts, cached per keyword set.

        The same (node, candidate) pair is evaluated once per missing
        object and again on every refinement visit; the cache makes
        those reuses free.
        """
        cached = self._rel_cache.get(keywords)
        if cached is None:
            cached = _RelStats(self.rel_counts(keywords))
            self._rel_cache[keywords] = cached
        return cached


class DominationThresholds:
    """The Theorem-2 pair ``(L, U)`` for one node and one missing object.

    ``m_sdist`` is ``SDist(m, q)`` and ``m_tsim`` is ``TSim(m, S)``;
    both are exact because the algorithms know the missing object.
    """

    __slots__ = ("lower", "upper")

    def __init__(
        self,
        rect: Rect,
        query_loc: Point,
        diagonal: float,
        alpha: float,
        m_sdist: float,
        m_tsim: float,
    ) -> None:
        min_d = min(1.0, rect.min_dist(query_loc) / diagonal)
        max_d = min(1.0, rect.max_dist(query_loc) / diagonal)
        ratio = alpha / (1.0 - alpha)
        self.lower = ratio * (min_d - m_sdist) + m_tsim
        self.upper = ratio * (max_d - m_sdist) + m_tsim


# ----------------------------------------------------------------------
# shared evaluation pieces
# ----------------------------------------------------------------------
class _RelStats:
    """Sorted prefix sums over the candidate keywords' node counts.

    Answers both ``Σ min(c, ans)`` (the optimistic intersections) and
    ``Σ max(0, c − x)`` (the forced/corrected excess) in ``O(log |S|)``
    — these run millions of times per KcR query, so the genexpr forms
    are too slow.
    """

    __slots__ = ("counts", "prefix", "n", "total", "cmax")

    def __init__(self, rel_counts: Sequence[int]) -> None:
        self.counts = sorted(rel_counts)
        prefix = [0]
        for count in self.counts:
            prefix.append(prefix[-1] + count)
        self.prefix = prefix
        self.n = len(self.counts)
        self.total = prefix[-1]
        self.cmax = self.counts[-1] if self.counts else 0

    def capped_sum(self, ans: int) -> int:
        """``Σ min(c, ans)``."""
        position = bisect.bisect_right(self.counts, ans)
        return self.prefix[position] + (self.n - position) * ans

    def excess(self, x: int) -> int:
        """``Σ max(0, c − x)``."""
        if x <= 0:
            return self.total
        position = bisect.bisect_right(self.counts, x)
        return (self.total - self.prefix[position]) - (self.n - position) * x


def _boundary_right(
    f: Callable[[int], float], left: int, right: int
) -> int:
    """Largest ``ans`` with ``f >= 0`` given ``f(left) >= 0 > f(right)``
    and ``f`` non-increasing across the boundary (concavity)."""
    while left + 1 < right:
        mid = (left + right) // 2
        if f(mid) >= 0:
            left = mid
        else:
            right = mid
    return left


def _largest_nonneg(
    f: Callable[[int], float], lo: int, hi: int, peak_hint: Optional[int] = None
) -> Optional[int]:
    """Largest integer in ``[lo, hi]`` with ``f >= 0``, for concave ``f``.

    Returns ``None`` when ``f`` is negative everywhere on the range.
    Fast paths: a non-negative right endpoint answers immediately, and
    ``peak_hint`` (an upper bound on the argmax, e.g. where the
    numerator saturates) shrinks the ternary-search range.
    """
    if hi < lo:
        return None
    if f(hi) >= 0:
        return hi
    a, b = lo, hi
    if peak_hint is not None and peak_hint < hi:
        pivot = max(lo, peak_hint)
        if f(pivot) >= 0:
            # boundary is on the decreasing side, past the peak range
            return _boundary_right(f, pivot, hi)
        b = pivot  # the whole non-negative region (if any) is below
    # Ternary-search the maximum of the concave function on [a, b].
    while b - a > 2:
        m1 = a + (b - a) // 3
        m2 = b - (b - a) // 3
        if f(m1) < f(m2):
            a = m1 + 1
        else:
            b = m2 - 1
    peak = max(range(a, b + 1), key=f)
    if f(peak) < 0:
        return None
    return _boundary_right(f, peak, hi)


# ----------------------------------------------------------------------
# MaxDom
# ----------------------------------------------------------------------
def _max_dom_f(
    stats: NodeTextStats,
    rel: "_RelStats",
    n_keywords: int,
    lower_threshold: float,
) -> Callable[[int], float]:
    cnt = stats.cnt
    excess = stats.excess
    rel_capped = rel.capped_sum
    rel_excess = rel.excess

    def f(ans: int) -> float:
        x = cnt - ans
        denominator = n_keywords * ans + (excess(x) - rel_excess(x))
        return rel_capped(ans) - lower_threshold * denominator

    return f


def max_dom(
    stats: NodeTextStats, keywords: KeywordSet, lower_threshold: float
) -> int:
    """Algorithm 2: upper bound on dominators of ``m`` inside the node.

    ``lower_threshold`` is ``L``; dominators need ``TSim > L``.
    """
    cnt = stats.cnt
    if lower_threshold <= 0.0:
        return cnt  # the necessary condition is vacuous
    if lower_threshold > 1.0:
        return 0  # no Jaccard similarity can exceed 1
    rel = stats.rel_stats(keywords)
    if rel.n == 0 or not keywords:
        return 0  # TSim is 0 for every object, which cannot exceed L > 0
    # Cheap zero test: every object's similarity is capped by
    # |S ∩ N.doc| / |S| (the union has at least |S| terms), so a
    # threshold at or above that cap rules out all dominators without
    # running the search.  f(ans) <= ans·(|rel| − L·|S|) makes this the
    # strict version of the same inequality.
    if lower_threshold * len(keywords) > rel.n:
        return 0
    f = _max_dom_f(stats, rel, len(keywords), lower_threshold)
    # The numerator saturates at the largest relevant count, beyond
    # which f strictly decreases — a tight hint for the peak search.
    best = _largest_nonneg(f, 1, cnt, peak_hint=rel.cmax)
    return best if best is not None else 0


def max_dom_scan(
    stats: NodeTextStats, keywords: KeywordSet, lower_threshold: float
) -> int:
    """Reference implementation: the paper's literal downward scan."""
    cnt = stats.cnt
    if lower_threshold <= 0.0:
        return cnt
    if lower_threshold > 1.0:
        return 0
    rel = stats.rel_stats(keywords)
    if rel.n == 0 or not keywords:
        return 0
    f = _max_dom_f(stats, rel, len(keywords), lower_threshold)
    for ans in range(cnt, 0, -1):
        if f(ans) >= 0:
            return ans
    return 0


# ----------------------------------------------------------------------
# MinDom
# ----------------------------------------------------------------------
def _min_dom_g(
    stats: NodeTextStats,
    rel: "_RelStats",
    n_keywords: int,
    upper_threshold: float,
) -> Callable[[int], float]:
    cnt = stats.cnt
    irr_total = stats.total - rel.total
    excess = stats.excess
    rel_excess = rel.excess

    def g(ans: int) -> float:
        # ans hypothetical non-dominators: forced relevant instances
        # versus the most padded unions they could have.
        forced_rel = rel_excess(cnt - ans)
        padded_union = n_keywords * ans + (
            irr_total - (excess(ans) - rel_excess(ans))
        )
        return upper_threshold * padded_union - forced_rel

    return g


def min_dom(
    stats: NodeTextStats, keywords: KeywordSet, upper_threshold: float
) -> int:
    """Lower bound on guaranteed dominators of ``m`` inside the node.

    ``upper_threshold`` is ``U``; an object with ``TSim > U`` surely
    dominates, so an object can be a non-dominator only if its
    similarity can consistently stay ``<= U``.  We bound the maximum
    number of such non-dominators and return the complement.
    """
    cnt = stats.cnt
    if upper_threshold < 0.0:
        return cnt  # even TSim = 0 beats the threshold: all dominate
    if upper_threshold >= 1.0 or not keywords:
        return 0  # every object can plausibly be a non-dominator
    rel = stats.rel_stats(keywords)
    if rel.n == 0:
        return 0  # no relevant keywords: every object can sit at TSim 0
    g = _min_dom_g(stats, rel, len(keywords), upper_threshold)
    if g(cnt) >= 0.0:
        return 0  # all objects can plausibly be non-dominators
    # No relevant instance is forced while ans <= cnt - cmax, so g >= 0
    # there; the feasibility boundary lies in [cnt - cmax, cnt] and g
    # crosses it once (concavity), so a plain binary search suffices.
    anchor = cnt - rel.cmax
    if anchor < 1 or g(anchor) < 0.0:
        feasible = _largest_nonneg(g, 1, cnt)
        return cnt - (feasible if feasible is not None else 0)
    return cnt - _boundary_right(g, anchor, cnt)


def min_dom_scan(
    stats: NodeTextStats, keywords: KeywordSet, upper_threshold: float
) -> int:
    """Reference implementation: the literal downward scan."""
    cnt = stats.cnt
    if upper_threshold < 0.0:
        return cnt
    if upper_threshold >= 1.0 or not keywords:
        return 0
    g = _min_dom_g(stats, stats.rel_stats(keywords), len(keywords), upper_threshold)
    for ans in range(cnt, 0, -1):
        if g(ans) >= 0:
            return cnt - ans
    return cnt


# ----------------------------------------------------------------------
# batched MaxDom / MinDom: the scalar searches replayed in lockstep
# ----------------------------------------------------------------------
#: ``f(elements, ans)``: the MaxDom ``f`` or MinDom ``g`` of each listed
#: grid element at its own ``ans``.
_Probe = Callable[[np.ndarray, np.ndarray], np.ndarray]


def keyword_incidence(
    keyword_sets: Sequence[KeywordSet],
) -> Tuple[List[int], np.ndarray]:
    """``(universe, incidence)`` for a batch of keyword sets.

    ``universe`` is the sorted union of the sets and ``incidence`` the
    boolean ``(sets × universe)`` matrix, the candidate side of
    :class:`DomBatch` and of the batched KcR leaf scoring.
    """
    universe = sorted(set().union(*keyword_sets))
    column = {term: col for col, term in enumerate(universe)}
    incidence = np.zeros((len(keyword_sets), len(universe)), dtype=bool)
    for row, keywords in enumerate(keyword_sets):
        incidence[row, [column[t] for t in keywords]] = True
    return universe, incidence


def _lockstep_boundary(
    f: _Probe, elements: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """:func:`_boundary_right` for every element at once."""
    left = left.copy()
    right = right.copy()
    todo = np.flatnonzero(left + 1 < right)
    while todo.size:
        mid = (left[todo] + right[todo]) // 2
        ok = f(elements[todo], mid) >= 0
        left[todo[ok]] = mid[ok]
        right[todo[~ok]] = mid[~ok]
        todo = todo[left[todo] + 1 < right[todo]]
    return left


def _lockstep_largest_nonneg(
    f: _Probe,
    elements: np.ndarray,
    hi: np.ndarray,
    peak_hint: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`_largest_nonneg` over ``[1, hi]`` for every element at once.

    Each element takes exactly the scalar branch sequence — right
    endpoint, hint pivot, ternary narrowing, first maximiser of the last
    ≤3 points, right-boundary bisection — so it probes the same ``ans``
    values and returns the same integer; ``0`` stands for ``None``.
    """
    result = np.zeros(len(elements), dtype=np.int64)
    todo = np.flatnonzero(hi >= 1)
    at_hi = f(elements[todo], hi[todo]) >= 0
    result[todo[at_hi]] = hi[todo[at_hi]]
    todo = todo[~at_hi]
    a = np.ones(len(elements), dtype=np.int64)
    b = hi.copy()
    if peak_hint is not None:
        hinted = todo[peak_hint[todo] < hi[todo]]
        pivot = np.maximum(1, peak_hint[hinted])
        past = f(elements[hinted], pivot) >= 0
        done = hinted[past]
        result[done] = _lockstep_boundary(f, elements[done], pivot[past], hi[done])
        b[hinted[~past]] = pivot[~past]
        todo = todo[np.isin(todo, done, invert=True)]
    wide = todo[b[todo] - a[todo] > 2]
    while wide.size:
        third = (b[wide] - a[wide]) // 3
        m1 = a[wide] + third
        m2 = b[wide] - third
        values = f(
            np.concatenate((elements[wide], elements[wide])), np.concatenate((m1, m2))
        )
        rising = values[: len(wide)] < values[len(wide):]
        a[wide[rising]] = m1[rising] + 1
        b[wide[~rising]] = m2[~rising] - 1
        wide = wide[b[wide] - a[wide] > 2]
    start = a[todo]
    peak = start.copy()
    best = f(elements[todo], start)
    for offset in (1, 2):
        has = np.flatnonzero(start + offset <= b[todo])
        values = f(elements[todo[has]], start[has] + offset)
        better = values > best[has]  # strict: max() keeps the first maximiser
        peak[has[better]] = start[has[better]] + offset
        best[has[better]] = values[better]
    found = best >= 0
    result[todo[found]] = _lockstep_boundary(
        f, elements[todo[found]], peak[found], hi[todo[found]]
    )
    return result


class DomBatch:
    """:func:`max_dom` / :func:`min_dom` over a whole grid of
    (node, keyword set, threshold) elements in lockstep numpy rounds.

    The grid is ``len(nodes) × len(incidence) × n_thresholds`` and is
    flattened in that order.  Every element replays the scalar search —
    the same early outs, the same ``f``/``g`` expressions in the same
    operand order, the same ``rel.cmax`` pivot, ternary probes and
    bisection — so each result equals the scalar function's by
    construction, float corner cases included.  Only the arithmetic is
    batched: a round evaluates ``f`` or ``g`` once for every element
    still searching.

    The node side of ``excess(x)`` is one ``searchsorted`` over the
    nodes' concatenated sorted counts, each node's block offset by
    ``node · stride`` so one search never crosses into a neighbour.
    The keyword-set side is an ``(elements × universe)`` count matrix,
    zero where a term is outside the set or the node.  Callers bound
    the grid size; temporaries are ``O(elements × |universe|)``
    whatever the nodes' ``cnt``.
    """

    def __init__(
        self,
        nodes: Sequence[NodeTextStats],
        universe: Sequence[int],
        incidence: np.ndarray,
        n_thresholds: int,
    ) -> None:
        n_sets = incidence.shape[0]
        self.shape = (len(nodes), n_sets, n_thresholds)
        counts = np.array(
            [[stats.kcm.get(t, 0) for t in universe] for stats in nodes],
            dtype=np.int64,
        ).reshape(len(nodes), len(universe))
        present = np.array(
            [[t in stats.kcm for t in universe] for stats in nodes], dtype=bool
        ).reshape(len(nodes), len(universe))
        rel = counts[:, None, :] * incidence[None, :, :]
        n_rel = (present[:, None, :] & incidence[None, :, :]).sum(axis=2)
        n_keywords = np.broadcast_to(incidence.sum(axis=1), n_rel.shape)
        cmax = rel.max(axis=2, initial=0)

        def per_element(pairs: np.ndarray) -> np.ndarray:
            """(node, set) pair values repeated for each threshold."""
            flat_pairs = pairs.reshape((len(nodes) * n_sets,) + pairs.shape[2:])
            return np.repeat(flat_pairs, n_thresholds, axis=0)

        self.rel = per_element(rel)
        self.rel_total = self.rel.sum(axis=1)
        self.n_rel = per_element(n_rel)
        self.n_keywords = per_element(n_keywords)
        self.cmax = per_element(cmax)

        sorted_counts = [stats.sorted_array() for stats in nodes]
        lengths = np.array([len(c) for c in sorted_counts], dtype=np.int64)
        cnt = np.array([stats.cnt for stats in nodes], dtype=np.int64)
        total = np.array([stats.total for stats in nodes], dtype=np.int64)
        stride = 1 + max(
            [int(cnt.max(initial=0))] + [int(c[-1]) for c in sorted_counts if len(c)]
        )
        flat = np.concatenate(sorted_counts + [np.zeros(0, dtype=np.int64)])
        node_of = np.repeat(np.arange(len(nodes), dtype=np.int64), lengths)
        self.keys = node_of * stride + flat
        self.prefix = np.concatenate(([0], np.cumsum(flat)))
        end = np.cumsum(lengths)

        def per_node(values: np.ndarray) -> np.ndarray:
            return np.repeat(values, n_sets * n_thresholds)

        self.cnt = per_node(cnt)
        self.total = per_node(total)
        self.key_base = per_node(np.arange(len(nodes), dtype=np.int64) * stride)
        self.end = per_node(end)
        self.prefix_end = per_node(self.prefix[end])
        self.irr_total = self.total - self.rel_total

    def _check_shape(self, thresholds: np.ndarray) -> None:
        ensure(
            thresholds.shape == self.shape,
            f"thresholds of shape {thresholds.shape} do not match the "
            f"(nodes, sets, thresholds) grid {self.shape}",
        )

    def _excess(self, elements: np.ndarray, x: np.ndarray) -> np.ndarray:
        """:meth:`NodeTextStats.excess` per element."""
        position = np.searchsorted(self.keys, self.key_base[elements] + x, side="right")
        above = self.end[elements] - position
        value = (self.prefix_end[elements] - self.prefix[position]) - above * x
        return np.where(x <= 0, self.total[elements], value)

    def _rel_excess(
        self, elements: np.ndarray, rows: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """:meth:`_RelStats.excess` per element."""
        value = np.maximum(rows - x[:, None], 0).sum(axis=1)
        return np.where(x <= 0, self.rel_total[elements], value)

    def max_dom(self, lower: np.ndarray) -> np.ndarray:
        """:func:`max_dom` of every element; ``lower`` has the grid's
        shape and so does the result."""
        self._check_shape(lower)
        thresholds = lower.reshape(-1)
        cnt = self.cnt
        result = np.where(thresholds <= 0.0, cnt, 0)
        searching = ~(thresholds <= 0.0) & ~(thresholds > 1.0)
        searching &= (self.n_rel > 0) & (self.n_keywords > 0)
        searching &= ~(thresholds * self.n_keywords > self.n_rel)
        elements = np.flatnonzero(searching)

        def f(at: np.ndarray, ans: np.ndarray) -> np.ndarray:
            rows = self.rel[at]
            x = cnt[at] - ans
            denominator = self.n_keywords[at] * ans + (
                self._excess(at, x) - self._rel_excess(at, rows, x)
            )
            capped = np.minimum(rows, ans[:, None]).sum(axis=1)
            return capped - thresholds[at] * denominator

        result[elements] = _lockstep_largest_nonneg(
            f, elements, cnt[elements], peak_hint=self.cmax[elements]
        )
        return result.reshape(lower.shape)

    def min_dom(
        self, upper: np.ndarray, only: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:func:`min_dom` of every element; ``upper`` has the grid's
        shape and so does the result.  Elements outside the boolean
        ``only`` mask are reported as 0 without evaluation — the
        walker's shortcut for a MaxDom of 0."""
        self._check_shape(upper)
        thresholds = upper.reshape(-1)
        cnt = self.cnt
        chosen = (
            np.ones(len(thresholds), dtype=bool) if only is None else only.reshape(-1)
        )
        result = np.where(chosen & (thresholds < 0.0), cnt, 0)
        searching = chosen & ~(thresholds < 0.0) & ~(thresholds >= 1.0)
        searching &= (self.n_keywords > 0) & (self.n_rel > 0)
        elements = np.flatnonzero(searching)

        def g(at: np.ndarray, ans: np.ndarray) -> np.ndarray:
            rows = self.rel[at]
            forced_rel = self._rel_excess(at, rows, cnt[at] - ans)
            padded_union = self.n_keywords[at] * ans + (
                self.irr_total[at]
                - (self._excess(at, ans) - self._rel_excess(at, rows, ans))
            )
            return thresholds[at] * padded_union - forced_rel

        elements = elements[g(elements, cnt[elements]) < 0.0]
        anchor = cnt[elements] - self.cmax[elements]
        bisect_ok = anchor >= 1
        probed = np.flatnonzero(bisect_ok)
        bisect_ok[probed] = g(elements[probed], anchor[probed]) >= 0.0
        bisected = elements[bisect_ok]
        result[bisected] = cnt[bisected] - _lockstep_boundary(
            g, bisected, anchor[bisect_ok], cnt[bisected]
        )
        searched = elements[~bisect_ok]
        result[searched] = cnt[searched] - _lockstep_largest_nonneg(
            g, searched, cnt[searched]
        )
        return result.reshape(upper.shape)


def object_dominates(
    obj_score: float,
    missing_score: float,
) -> bool:
    """Exact leaf-level check: strict Eqn 3 domination."""
    return obj_score > missing_score
