"""Planar geometry primitives used across the library.

The paper's data model (Section III-A) is two-dimensional: every object
has a point location, queries have a point location, and the R-tree
family of indexes aggregates points into minimum bounding rectangles
(MBRs).  Spatial distance in the ranking function (Eqn 1) is the
Euclidean distance normalised by the maximum possible distance between
two points in the dataset, so this module also provides the diagonal
helper used for that normalisation.

The classes here are deliberately small and allocation-light: scoring a
candidate keyword set visits thousands of points and rectangles, and
the hot paths call :func:`euclidean` and :meth:`Rect.min_dist`
millions of times in a benchmark run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "Point",
    "Rect",
    "euclidean",
    "bounding_rect",
    "space_diagonal",
]


Point = Tuple[float, float]
"""A point is a plain ``(x, y)`` tuple.

Using a bare tuple rather than a class keeps object ranking cheap: the
top-k search scores every popped entry and tuple unpacking is the
fastest structure CPython offers for a pair of floats.
"""


def euclidean(a: Point, b: Point) -> float:
    """Return the Euclidean distance between two points.

    Deliberately ``sqrt(dx² + dy²)`` rather than ``math.hypot``: every
    step is a single correctly-rounded IEEE-754 operation, so numpy
    reproduces the result bit for bit (``np.sqrt(dx*dx + dy*dy)``) and
    the vectorized scoring kernels stay exactly equal to this scalar
    path.  ``math.hypot``'s extra guarantee is overflow/underflow
    protection for extreme magnitudes, which bounded dataset
    coordinates never approach — while its internal algorithm differs
    from ``np.hypot`` by one ulp on ~0.6% of operand pairs, which would
    break scalar↔vectorized parity.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned minimum bounding rectangle.

    Instances are immutable; index construction builds new rectangles
    with :meth:`union` / :func:`bounding_rect` instead of mutating.
    Degenerate (point) rectangles are allowed and are exactly how leaf
    entries store object locations.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"malformed rectangle: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_point(cls, point: Point) -> "Rect":
        """Build the degenerate rectangle covering a single point."""
        x, y = point
        return cls(x, y, x, y)

    @property
    def center(self) -> Point:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def area(self) -> float:
        return self.width * self.height

    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def contains_point(self, point: Point) -> bool:
        x, y = point
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "Rect") -> "Rect":
        """Return the smallest rectangle enclosing both operands."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def min_dist(self, point: Point) -> float:
        """Minimum distance from ``point`` to this rectangle.

        This is ``MinDist(N, q)`` in Theorems 1 and 2: zero when the
        point lies inside the rectangle, otherwise the distance to the
        nearest edge or corner.  Computed like :func:`euclidean`, whose
        correctly-rounded steps are monotone, so it never exceeds the
        computed distance of a point inside — ``math.hypot`` can, by
        one ulp, and a bound that tight must not.
        """
        x, y = point
        dx = 0.0
        if x < self.min_x:
            dx = self.min_x - x
        elif x > self.max_x:
            dx = x - self.max_x
        dy = 0.0
        if y < self.min_y:
            dy = self.min_y - y
        elif y > self.max_y:
            dy = y - self.max_y
        # Exact zero tests are intentional: dx/dy are either the 0.0
        # assigned above or a positive difference — never rounding noise.
        if dx == 0.0:  # lint: exact-float
            return dy
        if dy == 0.0:  # lint: exact-float
            return dx
        return math.sqrt(dx * dx + dy * dy)

    def max_dist(self, point: Point) -> float:
        """Maximum distance from ``point`` to any point in this rectangle.

        Used by the MinDom estimation: an object inside the node is at
        most this far from the query, so a textual similarity above the
        Theorem-2-style threshold derived from ``max_dist`` guarantees
        domination regardless of where in the node the object sits.
        Computed like :func:`euclidean`, so it is never below the
        computed distance of a point inside (``math.hypot`` can be one
        ulp below, which let a node holding only an exact tie of the
        missing object count it as a guaranteed dominator).
        """
        x, y = point
        dx = max(abs(x - self.min_x), abs(x - self.max_x))
        dy = max(abs(y - self.min_y), abs(y - self.max_y))
        return math.sqrt(dx * dx + dy * dy)

    def corners(self) -> Iterator[Point]:
        yield (self.min_x, self.min_y)
        yield (self.min_x, self.max_y)
        yield (self.max_x, self.min_y)
        yield (self.max_x, self.max_y)


def bounding_rect(rects: Iterable[Rect]) -> Rect:
    """Return the MBR of a non-empty iterable of rectangles."""
    iterator = iter(rects)
    try:
        acc = next(iterator)
    except StopIteration:
        raise ValueError("bounding_rect() requires at least one rectangle") from None
    for rect in iterator:
        acc = acc.union(rect)
    return acc


def space_diagonal(points: Sequence[Point]) -> float:
    """Diagonal length of the bounding box of ``points``.

    The ranking function normalises spatial distance "by the maximum
    possible distance between two points in D" (Section III-A); the
    bounding-box diagonal is that maximum.  Returns 1.0 for degenerate
    inputs (zero or one distinct location) so callers never divide by
    zero.
    """
    if not points:
        return 1.0
    min_x = min(p[0] for p in points)
    max_x = max(p[0] for p in points)
    min_y = min(p[1] for p in points)
    max_y = max(p[1] for p in points)
    diagonal = math.hypot(max_x - min_x, max_y - min_y)
    return diagonal if diagonal > 0.0 else 1.0
