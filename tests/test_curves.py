"""Polyline curve container, per-segment data, and the incidence store."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import clip_segments_to_triangles, jittered_mesh
from mollifem import curves, quadrature as quadr
from mollifem.afem import interface_loop
from mollifem.curves import Curve, interface_cells
from mollifem.forcing import LineForcing
from mollifem.geometry import clip_pairs
from mollifem.mesh import rect_mesh
from mollifem.problems import square_problem


def test_circle_closes_and_length_converges():
    c = Curve.circle((0.0, 0.0), 1.0, 4096, boundary_gap=1.0)
    assert c.num_segments == 4096
    np.testing.assert_allclose(c.seg_end[:-1], c.seg_start[1:], atol=1e-15)
    np.testing.assert_allclose(c.seg_end[-1], c.seg_start[0], atol=1e-15)
    # inscribed polygon perimeter: 2 n sin(pi / n)
    expect = 2 * 4096 * np.sin(np.pi / 4096)
    assert abs(c.total_length - expect) < 1e-10


def test_open_polyline_segments():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    c = Curve(pts, closed=False)
    assert c.num_segments == 2
    np.testing.assert_allclose(c.seg_lengths, [1.0, 2.0], atol=1e-15)
    assert abs(c.total_length - 3.0) < 1e-15
    assert abs(c.max_seg_len - 2.0) < 1e-15


def test_curve_density_is_one_read_only_value_per_segment():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="one value per curve segment"):
        Curve(pts, np.array([1.0]), closed=False)
    np.testing.assert_array_equal(Curve(pts, 2.5).f, [2.5, 2.5, 2.5])
    f = np.array([1.0, -2.0])
    c = Curve(pts, f, closed=False)
    np.testing.assert_array_equal(c.f, f)
    assert f.flags.writeable and not c.f.flags.writeable
    np.testing.assert_array_equal(Curve.circle((0.0, 0.0), 1.0, 8, f=3.0).f,
                                  np.full(8, 3.0))


def test_circle_boundary_gap_recorded():
    c = Curve.circle((0.5, -0.5), 0.2, 64, boundary_gap=0.3)
    assert abs(c.boundary_gap - 0.3) < 1e-15


class _CountingQueries:
    """A curve's `_query` that records the centroids of the cells it is
    asked about."""

    def __init__(self, query):
        self.query, self.centres = query, []

    def __call__(self, mesh, rows):
        self.centres.append(mesh.coords[mesh.triangles[rows]].mean(axis=1))
        return self.query(mesh, rows)


def test_each_fresh_cell_is_queried_once_per_curve():
    # the two readers of the incidence on two meshes of a lineage: each
    # cell's bins are queried (and its candidates clipped) once, by whichever
    # reader comes first
    problem = square_problem(n_segments=512)
    curve = problem.curve
    counted = curve._query = _CountingQueries(curve._query)
    line = LineForcing(curve)
    mesh = problem.initial_mesh()
    seen = []
    for _ in range(2):
        if seen:
            mesh = mesh.refine(interface_cells(mesh, curve))
        interface_cells(mesh, curve)
        line.load_vector(mesh)
        seen.append(mesh)
    queried = np.concatenate(counted.centres)
    serial = np.concatenate([m.serial for m in seen])
    _, first = np.unique(serial, return_index=True)
    rows = np.concatenate([np.arange(m.num_cells) for m in seen])[first]
    owner = np.repeat(np.arange(len(seen)), [m.num_cells for m in seen])[first]
    want = np.concatenate([m.coords[m.triangles[rows[owner == k]]].mean(axis=1)
                           for k, m in enumerate(seen)])
    assert len(queried) == len(want) == len(first)
    np.testing.assert_array_equal(np.unique(queried, axis=0),
                                  np.unique(want, axis=0))
    # a later stage's interface loop starts on a mesh the curve has seen:
    # it queries only the cells its own refinements create
    last = seen[-1]
    counted.centres.clear()
    assert interface_loop(last, curve, 1.0) is last
    assert not counted.centres
    fine = interface_loop(last, curve, 0.5 * last.h_sizes[
        interface_cells(last, curve)].max())
    assert sum(map(len, counted.centres)) == fine.serial[-1] - last.serial[-1]


def _pieces(mesh, kinds, scale):
    """Segments (start, end) by kind, placed on `mesh`: near-parallel to a
    cell's edge just inside or outside it; of zero length, at a corner or
    off it; longer than the mesh; and leaving a corner from just outside
    it. Offsets run from 1e-16 to 1e-6 of `scale`."""
    p = mesh.coords[mesh.triangles]
    out = []
    for kind, pick, power, u, v in kinds:
        cell, k = pick % mesh.num_cells, pick % 3
        a, b = p[cell, k], p[cell, (k + 1) % 3]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
        tiny = 10.0 ** power * scale * np.array([u, v])
        if kind == "parallel":  # the outward normal, tilted by v
            out.append((a - 0.5 * abs(u) * (b - a) + tiny[0] * normal,
                        b + tiny[1] * normal))
        elif kind == "point":
            out.append((a + tiny, a + tiny))
        elif kind == "long":  # across the mesh, from 4 times its size away
            t = np.pi * np.array([u, v])
            ray = np.stack([np.cos(t), np.sin(t)], axis=1)
            out.append(((0.5 + 4 * ray[0]) * scale, (0.5 - 4 * ray[1]) * scale))
        else:  # "corner"
            out.append((a + tiny, a + tiny + 0.3 * scale * np.array([v, -u])))
    return out


_kind = st.tuples(st.sampled_from(["parallel", "point", "long", "corner"]),
                  st.integers(0, 1 << 20), st.integers(-16, -6),
                  st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 2),
       seed=st.integers(0, 1 << 16),
       kinds=st.lists(_kind, min_size=1, max_size=12),
       scale=st.sampled_from([1e-3, 0.1, 1.0, 8.0]))
def test_factored_clip_is_the_per_pair_clip(domain, rounds, seed, kinds,
                                            scale):
    # on a jittered mesh, so no coordinate is dyadic: every (cell, segment)
    # pair gives the bits of the per-pair clip, and every pair that meets is
    # a box candidate. The pieces are joined end to end into one polyline,
    # so the joins are segments too.
    mesh = jittered_mesh(domain, rounds, seed)
    mesh = replace(mesh, coords=mesh.coords * scale)
    points = np.concatenate(_pieces(mesh, kinds, scale))
    assume(np.ptp(points, axis=0).max() > 0)
    curve = Curve(points, closed=False)
    c, s = np.divmod(np.arange(mesh.num_cells * curve.num_segments),
                     curve.num_segments)
    corners = mesh.coords[mesh.triangles]
    want = clip_segments_to_triangles(curve.seg_start[s], curve.seg_end[s],
                                      *np.moveaxis(corners[c], 1, 0))
    got = clip_pairs(curve, mesh, s, c)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    ci, si = curve._candidates(*curve._query(mesh, np.arange(mesh.num_cells)))
    meets = c[want[2]] * curve.num_segments + s[want[2]]
    assert np.isin(meets, ci * curve.num_segments + si).all()


def test_curve_hits_batches_price_the_listed_midpoints(monkeypatch):
    # `_CLIP_POINTS` a midpoint the query lists: at a budget of about four
    # cells, each batch's price stays within the budget plus one cell
    curve = Curve.circle((0.5, 0.5), 0.25, 512, boundary_gap=0.25)
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    mesh = mesh.refine(range(0, mesh.num_cells, 2))
    count = curve._query(mesh, np.arange(mesh.num_cells))[-1]
    chunk = 4 * curves._CLIP_POINTS * int(np.median(count[count > 0]))
    monkeypatch.setattr(quadr, "POINT_CHUNK", chunk)
    listed, candidates = [], curve._candidates
    curve._candidates = lambda *query: (
        listed.append(query[-1]) or candidates(*query))
    curve.hits(mesh)
    np.testing.assert_array_equal(np.concatenate(listed), count)
    for c in listed:
        assert curves._CLIP_POINTS * (c.sum() - c.max()) <= chunk
    assert len(listed) > 10


def test_curve_hits_batches_do_not_move_bits(monkeypatch):
    # one batch, then batches of about three cells that list midpoints
    curve = Curve.circle((0.5, 0.5), 0.25, 512, boundary_gap=0.25)
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    mesh = mesh.refine(range(0, mesh.num_cells, 2))
    # (a batch is known by its cells' query boxes, which hold the cells'
    # boxes in row order)
    box, *_, count = curve._query(mesh, np.arange(mesh.num_cells))
    hits, batches = [], []
    for chunk in (1 << 30, 3 * int(np.median(count[count > 0]))):
        monkeypatch.setattr(quadr, "POINT_CHUNK", chunk)
        fresh = Curve(curve.points, closed=True)
        candidates = fresh._candidates
        fresh._candidates = lambda *query: (
            batches.append(query[0]) or candidates(*query))
        hits.append(fresh.hits(mesh))
    assert len(batches) > 10
    assert batches[0].tobytes() == box.tobytes()
    np.testing.assert_array_equal(np.concatenate(batches[1:], axis=1), box)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(*hits))
