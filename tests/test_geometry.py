"""Hand-worked cases for the geometric predicates (the package's clip and the
tests' edge-by-edge oracle), and their invariances under exact transforms.
The package's clip is called here one cell and one segment per pair."""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import conftest
from conftest import (points_in_triangles, segments_intersect,
                      segments_intersect_triangles)
from mollifem.geometry import cell_factors, clip_pairs, segment_factors

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _clip(p0, p1, t0, t1, t2):
    """The package's clip of segment p0[i] -> p1[i] against triangle (t0[i],
    t1[i], t2[i]), for each i."""
    i = np.arange(len(p0))
    return clip_pairs(segment_factors(p0, p1),
                      cell_factors(np.stack([t0, t1, t2])), i, i)


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
    tmin, tmax, ok = _clip(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    a = p0[0] + tmin[0] * (p1[0] - p0[0])
    b = p0[0] + tmax[0] * (p1[0] - p0[0])
    np.testing.assert_allclose(a, [0.0, 0.25], atol=1e-12)
    np.testing.assert_allclose(b, [0.75, 0.25], atol=1e-12)
    assert ok[0]


def test_clip_miss_reports_empty():
    p0 = np.array([[-5.0, 2.0]])
    p1 = np.array([[5.0, 2.0]])
    t0, t1, inside = _clip(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    assert not inside[0] or t1[0] <= t0[0]


def test_clip_contained_segment_keeps_full_range():
    p0 = np.array([[0.1, 0.1]])
    p1 = np.array([[0.3, 0.2]])
    t0, t1, inside = _clip(
        p0, p1, RIGHT[None, 0], RIGHT[None, 1], RIGHT[None, 2])
    assert inside[0]
    np.testing.assert_allclose([t0[0], t1[0]], [0.0, 1.0], atol=1e-12)


def test_segments_intersect_triangles_matches_the_unmasked_formula(
        rng, monkeypatch):
    # every pair tested against all three edges, without the subset the
    # predicate gathers in batches; a half-integer grid gives shared
    # vertices, points on edges, collinear and zero-length segments and flat
    # triangles
    monkeypatch.setattr(conftest, "_EDGE_CHUNK", 1000)
    grid = rng.integers(-2, 3, size=(20000, 5, 2)) / 2.0
    pts = np.concatenate([grid, rng.uniform(-1.0, 1.0, size=(20000, 5, 2))])
    s0, s1, t0, t1, t2 = pts.transpose(1, 0, 2)
    cw = ((t1 - t0)[:, 0] * (t2 - t0)[:, 1]
          - (t1 - t0)[:, 1] * (t2 - t0)[:, 0] < 0)[:, None]
    t1, t2 = np.where(cw, t2, t1), np.where(cw, t1, t2)
    want = (points_in_triangles(s0, t0, t1, t2)
            | points_in_triangles(s1, t0, t1, t2)
            | segments_intersect(s0, s1, t0, t1)
            | segments_intersect(s0, s1, t1, t2)
            | segments_intersect(s0, s1, t2, t0))
    got = segments_intersect_triangles(s0, s1, t0, t1, t2)
    assert got.tobytes() == want.tobytes()
    assert 0 < got[:20000].sum() < 20000 and 0 < got[20000:].sum() < 20000


# -- invariances ------------------------------------------------------------
# Coordinates lie on the dyadic grid 2^-4 Z in [-4, 4]^2, so a dyadic
# translation and a power-of-two scaling change no difference or cross
# product by more than an exact factor: the answers must not change.

_grid = st.integers(-64, 64).map(lambda i: i / 16.0)
_points = st.tuples(_grid, _grid)
_shift = st.tuples(st.integers(-4096, 4096), st.integers(-4096, 4096)).map(
    lambda t: np.array(t) / 16.0)
_scale = st.integers(-30, 30).map(lambda k: 2.0 ** k)


def _arr(*pts):
    return [np.array([p], dtype=float) for p in pts]


def _ccw(a, b, c):
    """The triangle (a, b, c) counter-clockwise; None if it is degenerate."""
    area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assume(area != 0)
    return (a, b, c) if area > 0 else (a, c, b)


@settings(max_examples=300, deadline=None)
@given(a0=_points, a1=_points, b0=_points, b1=_points, shift=_shift,
       scale=_scale)
def test_segments_intersect_invariances(a0, a1, b0, b1, shift, scale):
    segs = _arr(a0, a1, b0, b1)
    want = segments_intersect(*segs)[0]
    assert segments_intersect(*[s + shift for s in segs])[0] == want
    assert segments_intersect(*[s * scale for s in segs])[0] == want
    a0, a1, b0, b1 = segs
    assert segments_intersect(a1, a0, b0, b1)[0] == want
    assert segments_intersect(a0, a1, b1, b0)[0] == want


@settings(max_examples=300, deadline=None)
@given(p=_points, t=st.tuples(_points, _points, _points), shift=_shift,
       scale=_scale)
def test_points_in_triangles_invariances(p, t, shift, scale):
    args = _arr(p, *_ccw(*t))
    want = points_in_triangles(*args)[0]
    assert points_in_triangles(*[a + shift for a in args])[0] == want
    assert points_in_triangles(*[a * scale for a in args])[0] == want
    p, t0, t1, t2 = args
    assert points_in_triangles(p, t1, t2, t0)[0] == want


def _clip_meets(*args):
    return _clip(*args)[2]


@settings(max_examples=300, deadline=None)
@given(s0=_points, s1=_points, t=st.tuples(_points, _points, _points),
       shift=_shift, scale=_scale)
def test_segments_intersect_triangles_invariances(s0, s1, t, shift, scale):
    # the oracle, and the clip's inclusive test that the package uses
    args = _arr(s0, s1, *_ccw(*t))
    for meets in (segments_intersect_triangles, _clip_meets):
        want = meets(*args)[0]
        assert meets(*[a + shift for a in args])[0] == want
        assert meets(*[a * scale for a in args])[0] == want
        s0, s1, t0, t1, t2 = args
        assert meets(s1, s0, t0, t1, t2)[0] == want


@settings(max_examples=300, deadline=None)
@given(p0=_points, p1=_points, t=st.tuples(_points, _points, _points),
       shift=_shift, scale=_scale)
def test_clip_segments_to_triangles_invariances(p0, p1, t, shift, scale):
    args = _arr(p0, p1, *_ccw(*t))
    want = _clip(*args)
    for moved in ([a + shift for a in args], [a * scale for a in args]):
        got = _clip(*moved)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    # swapped ends: the same piece, with t -> 1 - t
    p0, p1, t0, t1, t2 = args
    tmin, tmax, ok = _clip(p1, p0, t0, t1, t2)
    assert ok[0] == want[2][0]
    if ok[0]:
        assert abs((1.0 - tmax[0]) - want[0][0]) <= 1e-14
        assert abs((1.0 - tmin[0]) - want[1][0]) <= 1e-14
