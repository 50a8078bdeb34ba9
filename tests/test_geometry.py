"""Hand-worked cases for the geometric predicates (the package's clip, its
circle-triangle test and the tests' oracles), and their invariances under
exact transforms. The package's clip is called here one cell and one
segment per pair."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import conftest
from conftest import (circle_meets_triangles, points_in_triangles,
                      segments_intersect, segments_intersect_triangles)
from mollifem.geometry import circle_meets, clip_pairs
from mollifem.mesh import Mesh

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _clip(p0, p1, t0, t1, t2):
    """The package's clip of segment p0[i] -> p1[i] against triangle (t0[i],
    t1[i], t2[i]), CCW and not degenerate, for each i: on a mesh with one
    cell a pair, whose cell i has corners 3 i, 3 i + 1 and 3 i + 2."""
    i = np.arange(len(p0))
    segments = SimpleNamespace(seg_start=p0, seg_end=p1,
                               seg_lengths=np.linalg.norm(p1 - p0, axis=1))
    mesh = Mesh.from_arrays(np.stack([t0, t1, t2], axis=1).reshape(-1, 2),
                            np.arange(3 * len(i)).reshape(-1, 3))
    return clip_pairs(segments, mesh, i, i)


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


def _rows(tri: np.ndarray) -> np.ndarray:
    """Triangles (n, 3, 2) as the rows of x and y (2, 3, n) of their
    corners, which `circle_meets` takes."""
    return tri.transpose(2, 1, 0)


def test_circle_meets_hand_cases():
    # crossing a side, holding the whole circle, inside the disc, outside
    # it, and touching it at a corner or along a side from outside
    tri = np.array([RIGHT + 0.4, RIGHT * 8.0 - 3.0, RIGHT * 0.1 - 0.05,
                    RIGHT + 2.0, [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0]],
                    RIGHT + [1.0, -0.5]])
    want = [True, True, False, False, True, True]
    assert circle_meets((0.0, 0.0), 1.0, *_rows(tri)).tolist() == want
    assert circle_meets_triangles((0.0, 0.0), 1.0, tri).tolist() == want
    # touching from outside at a point of the circle that rounds to 7e-18
    # outside it in squared distance: the slack keeps the touch
    center, t = np.array([0.3, 0.3]), 2 * np.pi * 10 / 64
    n = np.array([np.cos(t), np.sin(t)])
    p = center + 0.2 * n
    assert np.square(p - center).sum() > 0.2 ** 2
    tri = p + 0.1 * np.array([[0.0, 0.0], n - 0.5 * n[::-1] * [-1, 1],
                              n + 0.5 * n[::-1] * [-1, 1]])
    assert circle_meets(center, 0.2, *_rows(tri[None]))[0]


def _tangency_gap(center, radius: float, tri: np.ndarray) -> float:
    """How close, relative to the radius, the circle comes to passing
    through a corner of `tri` or touching one of its sides: the two ways in
    which a small change of the radius can change whether they meet."""
    a = tri - center
    gap = list(np.abs(np.linalg.norm(a, axis=1) - radius))
    for k in range(3):
        e = tri[(k + 1) % 3] - tri[k]
        t = -(a[k] @ e) / (e @ e)
        if 0.0 < t < 1.0:
            gap.append(abs(np.linalg.norm(a[k] + t * e) - radius))
    return min(gap) / radius


@settings(max_examples=400, deadline=None)
@given(radius=st.floats(0.05, 1.0), turn=st.floats(0.0, 2 * np.pi),
       offset=st.floats(-2.0, 2.0), power=st.floats(-4.0, np.log10(3.0)),
       angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
       reach=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3))
def test_circle_meets_agrees_with_the_oracle(radius, turn, offset, power,
                                             angles, reach):
    # CCW triangles 1e-4 to 3 across about a point within twice their size
    # of the circle; cases within 1e-6 R of tangency are skipped, where the
    # two tests' slacks may part them
    center, size = np.array([0.3, -0.2]), 10.0 ** power
    base = center + (radius + offset * size) * np.array([np.cos(turn),
                                                         np.sin(turn)])
    tri = base + size * np.array(reach)[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    area = e1[0] * e2[1] - e1[1] * e2[0]
    assume(abs(area) > 1e-3 * size * size)
    if area < 0:
        tri = tri[[0, 2, 1]]
    assume(_tangency_gap(center, radius, tri) > 1e-6)
    assert circle_meets(center, radius, *_rows(tri[None]))[0] \
        == circle_meets_triangles(center, radius, tri[None])[0]
