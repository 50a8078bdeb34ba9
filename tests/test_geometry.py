"""Hand-worked cases for the exact geometric predicates."""
from __future__ import annotations

import numpy as np

from mollifem.geometry import (clip_segments_to_triangles,
                               points_in_triangles, segments_intersect,
                               segments_intersect_triangles)

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _seg(a, b):
    return np.array([a], dtype=float), np.array([b], dtype=float)


def test_segments_intersect_crossing():
    a0, a1 = _seg((0, 0), (1, 1))
    b0, b1 = _seg((0, 1), (1, 0))
    assert segments_intersect(a0, a1, b0, b1)[0]


def test_segments_intersect_disjoint():
    a0, a1 = _seg((0, 0), (1, 0))
    b0, b1 = _seg((0, 1), (1, 1))
    assert not segments_intersect(a0, a1, b0, b1)[0]


def test_segments_intersect_shared_endpoint_is_inclusive():
    a0, a1 = _seg((0, 0), (1, 0))
    b0, b1 = _seg((1, 0), (2, 5))
    assert segments_intersect(a0, a1, b0, b1)[0]


def test_segments_intersect_touching_interior():
    # b ends exactly on the interior of a
    a0, a1 = _seg((0, 0), (2, 0))
    b0, b1 = _seg((1, 0), (1, 3))
    assert segments_intersect(a0, a1, b0, b1)[0]


def test_segments_intersect_collinear_overlap():
    a0, a1 = _seg((0, 0), (2, 0))
    b0, b1 = _seg((1, 0), (3, 0))
    assert segments_intersect(a0, a1, b0, b1)[0]


def test_segments_intersect_collinear_disjoint():
    a0, a1 = _seg((0, 0), (1, 0))
    b0, b1 = _seg((2, 0), (3, 0))
    assert not segments_intersect(a0, a1, b0, b1)[0]


def test_points_in_triangles_inclusive_boundary():
    pts = np.array([[0.2, 0.2], [0.5, 0.5], [0.0, 0.0], [0.6, 0.6]])
    t0 = np.tile(RIGHT[0], (4, 1))
    t1 = np.tile(RIGHT[1], (4, 1))
    t2 = np.tile(RIGHT[2], (4, 1))
    inside = points_in_triangles(pts, t0, t1, t2)
    assert inside.tolist() == [True, True, True, False]


def test_segment_triangle_hit_and_miss():
    s0 = np.array([[-1.0, 0.2], [-1.0, 2.0]])
    s1 = np.array([[2.0, 0.2], [2.0, 2.0]])
    t0 = np.tile(RIGHT[0], (2, 1))
    t1 = np.tile(RIGHT[1], (2, 1))
    t2 = np.tile(RIGHT[2], (2, 1))
    hit = segments_intersect_triangles(s0, s1, t0, t1, t2)
    assert hit.tolist() == [True, False]


def test_segment_inside_triangle_counts_as_hit():
    # fully contained, crosses no edge
    s0 = np.array([[0.1, 0.1]])
    s1 = np.array([[0.2, 0.2]])
    hit = segments_intersect_triangles(s0, s1, RIGHT[None, 0], RIGHT[None, 1],
                                       RIGHT[None, 2])
    assert hit[0]


def test_clip_horizontal_chord():
    # y = 0.25 chord of the right triangle: x in [0, 0.75]
    p0 = np.array([[-5.0, 0.25]])
    p1 = np.array([[5.0, 0.25]])
    tmin, tmax, ok = clip_segments_to_triangles(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    a = p0[0] + tmin[0] * (p1[0] - p0[0])
    b = p0[0] + tmax[0] * (p1[0] - p0[0])
    np.testing.assert_allclose(a, [0.0, 0.25], atol=1e-12)
    np.testing.assert_allclose(b, [0.75, 0.25], atol=1e-12)
    assert ok[0]


def test_clip_miss_reports_empty():
    p0 = np.array([[-5.0, 2.0]])
    p1 = np.array([[5.0, 2.0]])
    t0, t1, inside = clip_segments_to_triangles(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    assert not inside[0] or t1[0] <= t0[0]


def test_clip_contained_segment_keeps_full_range():
    p0 = np.array([[0.1, 0.1]])
    p1 = np.array([[0.3, 0.2]])
    t0, t1, inside = clip_segments_to_triangles(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    assert inside[0]
    np.testing.assert_allclose([t0[0], t1[0]], [0.0, 1.0], atol=1e-12)
