"""Unit tests for geometry primitives."""

import math

import numpy as np
import pytest

from repro.model.geometry import Point, Rect, bounding_rect, euclidean, space_diagonal


class TestEuclidean:
    def test_zero_distance(self):
        assert euclidean((1.0, 2.0), (1.0, 2.0)) == 0.0

    def test_pythagorean_triple(self):
        assert euclidean((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_symmetry(self):
        a, b = (0.3, 0.9), (0.7, 0.1)
        assert euclidean(a, b) == euclidean(b, a)


class TestRectConstruction:
    def test_from_point_is_degenerate(self):
        rect = Rect.from_point((2.0, 3.0))
        assert rect.min_x == rect.max_x == 2.0
        assert rect.min_y == rect.max_y == 3.0
        assert rect.area() == 0.0

    def test_malformed_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_center_width_height(self):
        rect = Rect(0.0, 0.0, 4.0, 2.0)
        assert rect.center == (2.0, 1.0)
        assert rect.width == 4.0
        assert rect.height == 2.0
        assert rect.perimeter() == 12.0


class TestRectPredicates:
    def test_contains_point_boundary(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_point((0.0, 0.0))
        assert rect.contains_point((1.0, 1.0))
        assert not rect.contains_point((1.0001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        inner = Rect(1.0, 1.0, 2.0, 2.0)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        c = Rect(5.0, 5.0, 6.0, 6.0)
        touching = Rect(2.0, 0.0, 4.0, 2.0)
        assert a.intersects(b)
        assert not a.intersects(c)
        assert a.intersects(touching)  # shared edge counts

    def test_union(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(2.0, -1.0, 3.0, 0.5)
        u = a.union(b)
        assert u == Rect(0.0, -1.0, 3.0, 1.0)


class TestMinMaxDist:
    def test_min_dist_inside_is_zero(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0)
        assert rect.min_dist((1.0, 1.0)) == 0.0

    def test_min_dist_axis_aligned(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0)
        assert rect.min_dist((5.0, 1.0)) == pytest.approx(3.0)
        assert rect.min_dist((1.0, -2.0)) == pytest.approx(2.0)

    def test_min_dist_corner(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.min_dist((4.0, 5.0)) == pytest.approx(5.0)

    def test_max_dist_dominates_min_dist(self):
        rect = Rect(0.0, 0.0, 2.0, 3.0)
        for point in [(-1.0, -1.0), (1.0, 1.0), (5.0, 0.0), (0.5, 10.0)]:
            assert rect.max_dist(point) >= rect.min_dist(point)

    def test_max_dist_is_farthest_corner(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0)
        point = (-1.0, -1.0)
        expected = max(euclidean(point, c) for c in rect.corners())
        assert rect.max_dist(point) == pytest.approx(expected)

    def test_max_dist_point_inside(self):
        rect = Rect(0.0, 0.0, 4.0, 4.0)
        # from the center, farthest corner is at distance 2*sqrt(2)
        assert rect.max_dist((2.0, 2.0)) == pytest.approx(2.0 * math.sqrt(2.0))


    def test_degenerate_rect_matches_euclidean_exactly(self):
        # math.hypot puts this pair one ulp below sqrt(dx*dx + dy*dy).
        point, query = (1.0, 0.6320035744877769), (0.9375, 0.9454823126665521)
        rect = Rect.from_point(point)
        assert rect.min_dist(query) == euclidean(point, query)
        assert rect.max_dist(query) == euclidean(point, query)

    def test_bounds_bracket_every_inside_point_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            xs, ys = np.sort(rng.random(2)), np.sort(rng.random(2))
            rect = Rect(float(xs[0]), float(ys[0]), float(xs[1]), float(ys[1]))
            query = (float(rng.random()), float(rng.random()))
            corner = (float(rng.choice(xs)), float(rng.choice(ys)))
            inside = (float(rng.uniform(*xs)), float(rng.uniform(*ys)))
            for point in (corner, inside):
                distance = euclidean(point, query)
                assert rect.min_dist(query) <= distance <= rect.max_dist(query)


class TestBoundingRect:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_rect([])

    def test_single(self):
        rect = Rect(0.0, 1.0, 2.0, 3.0)
        assert bounding_rect([rect]) == rect

    def test_many(self):
        rects = [Rect.from_point((float(i), float(-i))) for i in range(5)]
        mbr = bounding_rect(rects)
        assert mbr == Rect(0.0, -4.0, 4.0, 0.0)


class TestSpaceDiagonal:
    def test_empty_defaults_to_one(self):
        assert space_diagonal([]) == 1.0

    def test_single_point_defaults_to_one(self):
        assert space_diagonal([(3.0, 3.0)]) == 1.0

    def test_unit_square(self):
        points = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)]
        assert space_diagonal(points) == pytest.approx(math.sqrt(2.0))
