"""Mesh construction, bisection refinement, genealogy, and curve queries
(the curve's incidence store against the all-pairs oracle)."""
from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (clip_segments_to_triangles, corner_areas, jittered_mesh,
                      segments_intersect_triangles)
from mollifem.curves import Curve, interface_cells
from mollifem.geometry import _REL_EPS, _TOUCH
from mollifem.mesh import CellCache, Mesh, lshape_mesh, rect_mesh


def two_triangle_square() -> Mesh:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh.from_arrays(coords, tris)


def _random_refinement_edges(mesh: Mesh, rng) -> Mesh:
    """`mesh` with each cell's refinement edge drawn at random in place of
    its longest edge."""
    return replace(mesh, refinement_edge=rng.integers(
        0, 3, mesh.num_cells).astype(np.int8))


def test_rect_mesh_counts_and_area():
    mesh = rect_mesh(2, 3, 0.0, 0.0, 1.0, 1.0)
    assert mesh.num_vertices == 3 * 4
    assert mesh.num_cells == 2 * 2 * 3
    assert abs(mesh.areas.sum() - 1.0) < 1e-14
    assert mesh.is_conforming()


def test_rect_mesh_positive_orientation():
    mesh = rect_mesh(3, 2, -1.0, 0.5, 2.0, 1.5)
    assert np.all(mesh.areas > 0)
    assert abs(mesh.areas.sum() - 3.0) < 1e-13


def test_lshape_mesh_covers_three_quadrants():
    mesh = lshape_mesh(2)
    assert abs(mesh.areas.sum() - 3.0) < 1e-13
    assert mesh.is_conforming()
    # no cell may reach into the removed closed quadrant
    c = mesh.coords[mesh.triangles].reshape(-1, 2)
    assert not np.any((c[:, 0] > 1e-12) & (c[:, 1] > 1e-12))


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_edge_vectors_and_areas_have_the_bits_of_the_corners(domain, rounds,
                                                             seed):
    mesh = jittered_mesh(domain, rounds, seed)
    p, e = mesh.coords[mesh.triangles], mesh.edge_vectors
    assert e.shape == (2, 3, mesh.num_cells)
    for k in range(3):  # edge k runs from corner k + 1 to corner k + 2
        np.testing.assert_array_equal(e[:, k].T,
                                      p[:, (k + 2) % 3] - p[:, (k + 1) % 3])
    assert mesh.areas.tobytes() == corner_areas(mesh).tobytes()


def test_refine_single_marked_cell_hand_count():
    # bisecting one of two triangles forces the neighbour across the shared
    # refinement edge to split as well: 4 active cells, 5 vertices
    mesh = two_triangle_square()
    fine = mesh.refine([0])
    assert fine.num_cells == 4
    assert fine.num_vertices == 5
    assert fine.is_conforming()
    assert abs(fine.areas.sum() - 1.0) < 1e-14


def _inside(tri: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Mask: points `p` (..., 2) lie in the closed CCW triangles `tri`
    (..., 3, 2), up to `tol`."""
    edge = np.roll(tri, -1, axis=-2) - tri
    off = p[..., None, :] - tri
    cross = edge[..., 0] * off[..., 1] - edge[..., 1] * off[..., 0]
    return (cross >= -tol).all(axis=-1)


def _descends_from(fine: Mesh, coarse: Mesh) -> bool:
    """Every active cell of `fine` lies in an active cell of `coarse`: the
    coarse cell that holds its centroid holds its three corners."""
    p, q = fine.coords[fine.triangles], coarse.coords[coarse.triangles]
    host = np.argmax(_inside(q[None], p.mean(axis=1)[:, None]), axis=1)
    return bool(_inside(q[host][:, None], p).all())


def _check_twins(mesh: Mesh) -> None:
    """The twin table is an involution on the interior edges, each pair runs
    the same vertex pair in opposite directions, and the -1 entries are the
    edges no other cell has; `neighbours` is the rows of the twins."""
    tw = mesh.twins.ravel()
    assert mesh.twins.dtype == np.int32
    assert mesh.twins.shape == (mesh.num_cells, 3)
    assert np.all((tw >= -1) & (tw < tw.size))
    e = np.flatnonzero(tw >= 0)
    np.testing.assert_array_equal(tw[tw[e]], e)
    start = mesh.triangles[:, [1, 2, 0]].ravel().astype(np.int64)
    end = mesh.triangles[:, [2, 0, 1]].ravel().astype(np.int64)
    np.testing.assert_array_equal(start[tw[e]], end[e])
    np.testing.assert_array_equal(end[tw[e]], start[e])
    key = np.minimum(start, end) * mesh.num_vertices + np.maximum(start, end)
    assert len(np.unique(key)) == tw.size - len(e) // 2
    np.testing.assert_array_equal(mesh.neighbours,
                                  np.where(mesh.twins >= 0, mesh.twins // 3, -1))


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]),
       rounds=st.integers(1, 4), data=st.data())
def test_refine_preserves_area_and_nesting(domain, rounds, data):
    mesh = rect_mesh(2, 3, 0.0, 0.0, 1.0, 1.5) if domain == "rect" \
        else lshape_mesh(1)
    area = mesh.areas.sum()
    _check_twins(mesh)
    for _ in range(rounds):
        marked = data.draw(st.sets(
            st.sampled_from(range(mesh.num_cells)), max_size=12))
        fine = mesh.refine(marked)
        assert fine.is_conforming()
        assert abs(fine.areas.sum() - area) < 1e-12
        assert _descends_from(fine, mesh)
        assert fine is mesh or not _descends_from(mesh, fine)
        for v in range(mesh.num_vertices, fine.num_vertices):
            a, b = fine.vertex_parents[v]
            np.testing.assert_array_equal(
                fine.coords[v], 0.5 * (fine.coords[a] + fine.coords[b]))
        _check_twins(fine)
        mesh = fine


class _ReferenceNVB:
    """The sequential closure, one bisection at a time from a FIFO queue
    over per-cell tuples, that the array refinement replaced. The conforming
    newest-vertex closure of a marked set is unique as a set of triangles
    (Stevenson 2008), so it is the oracle for the triangles, their
    refinement edges, the vertex count and the number of bisections. Its
    ids count every cell created; cells are matched to the mesh's rows by
    their corner coordinates."""

    def __init__(self, mesh: Mesh):
        self.coords = [np.array(c) for c in mesh.coords]
        self.cells = [(tuple(v), int(t)) for v, t in
                      zip(mesh.triangles.tolist(), mesh.refinement_edge)]
        self.active = set(range(len(self.cells)))
        self.bisections = 0
        self.split: dict = {}
        self.edge_cells: dict = {}
        for cid, (v, _) in enumerate(self.cells):
            for a, b in ((v[1], v[2]), (v[2], v[0]), (v[0], v[1])):
                key = (min(a, b), max(a, b))
                self.edge_cells[key] = self.edge_cells.get(key, ()) + (cid,)

    def _bisect(self, cid: int, queue: deque) -> None:
        v, e = self.cells[cid]
        p, a, b = v[e], v[(e + 1) % 3], v[(e + 2) % 3]
        key = (min(a, b), max(a, b))
        m = self.split.get(key)
        if m is None:
            m = len(self.coords)
            self.coords.append(0.5 * (self.coords[a] + self.coords[b]))
            self.split[key] = m
        c1, c2 = len(self.cells), len(self.cells) + 1
        self.cells += [((m, p, a), 0), ((m, b, p), 0)]
        self.active -= {cid}
        self.active |= {c1, c2}
        self.bisections += 1
        ec = self.edge_cells
        rest = tuple(x for x in ec[key] if x != cid)
        if rest:
            ec[key] = rest
            queue.extend(rest)
        else:
            del ec[key]
        for (x, y), new in (((p, a), c1), ((p, b), c2)):
            k = (min(x, y), max(x, y))
            ec[k] = tuple(new if c == cid else c for c in ec[k])
        for (x, y), owner in (((a, m), c1), ((m, b), c2)):
            k = (min(x, y), max(x, y))
            ec[k] = ec.get(k, ()) + (owner,)
        ec[(min(p, m), max(p, m))] = (c1, c2)
        queue.extend((c1, c2))

    def _corners(self, cid: int) -> tuple:
        return tuple(tuple(self.coords[v]) for v in self.cells[cid][0])

    def ids(self, mesh: Mesh, rows) -> list[int]:
        """The ids of the active cells with the corners of `mesh`'s cells at
        `rows`."""
        at = {self._corners(cid): cid for cid in self.active}
        return [at[tuple(map(tuple, mesh.coords[mesh.triangles[r]]))] for r in rows]

    def refine(self, marked) -> None:
        self.bisections = 0
        queue: deque = deque()
        for cid in sorted(set(marked)):
            if cid in self.active:
                self._bisect(cid, queue)
        while queue:
            cid = queue.popleft()
            v = self.cells[cid][0]
            if cid in self.active and any(
                    (min(x, y), max(x, y)) in self.split
                    for x, y in ((v[1], v[2]), (v[2], v[0]), (v[0], v[1]))):
                self._bisect(cid, queue)

    def assert_same(self, mesh: Mesh) -> None:
        """The same cells, each with its corners in the same local order
        and the same refinement edge, the same vertices and the same number
        of bisections in the last refine."""
        want = sorted((self._corners(cid), self.cells[cid][1])
                      for cid in self.active)
        got = sorted((tuple(map(tuple, p)), int(e)) for p, e in
                     zip(mesh.coords[mesh.triangles], mesh.refinement_edge))
        assert got == want
        assert mesh.num_vertices == len(self.coords)
        np.testing.assert_array_equal(np.unique(mesh.coords, axis=0),
                                      np.unique(self.coords, axis=0))
        assert mesh.history[-1].bisections == self.bisections


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rounds=st.integers(1, 5),
       fraction=st.floats(0.05, 0.5), data=st.data())
def test_refine_numbers_like_the_reference_closure(seed, rounds, fraction,
                                                   data):
    # random points and random (not necessarily compatible) refinement edges
    # reach closure cases a structured mesh never does
    rng = np.random.default_rng(seed)
    grid = rect_mesh(3, 3)
    coords = grid.coords + rng.uniform(-0.08, 0.08, grid.coords.shape)
    mesh = _random_refinement_edges(Mesh.from_arrays(coords, grid.triangles),
                                    rng)
    ref = _ReferenceNVB(mesh)
    for _ in range(rounds):
        n = mesh.num_cells
        marked = rng.choice(n, max(1, int(fraction * n)), replace=False)
        ref.refine(ref.ids(mesh, marked))
        mesh = mesh.refine(marked)
        ref.assert_same(mesh)
        _check_twins(mesh)


def test_refine_numbering_is_pinned():
    # recorded from the array refinement, which the reference closure
    # checks; the marked rows are rows of each round's mesh
    mesh = lshape_mesh(2)
    ref = _ReferenceNVB(mesh)
    for marked in ([0, 7], [1, 21, 26], [6, 23, 28]):
        ref.refine(ref.ids(mesh, marked))
        coarse, mesh = mesh, mesh.refine(marked)
        ref.assert_same(mesh)
    np.testing.assert_array_equal(mesh.triangles, TRIANGLES_PINNED)
    np.testing.assert_array_equal(8.0 * mesh.coords, COORDS_X8_PINNED)
    # the rule of the last round: the kept cells in their order, then the
    # children parent by parent in row order; each new vertex is numbered
    # at the first (row, local edge) of the coarse mesh that holds its edge
    refined = np.flatnonzero(~np.isin(coarse.serial, mesh.serial))
    n = coarse.num_cells - len(refined)
    np.testing.assert_array_equal(mesh.triangles[:n],
                                  np.delete(coarse.triangles, refined, axis=0))
    p, q = mesh.coords[mesh.triangles[n:]], coarse.coords[coarse.triangles]
    host = np.argmax(_inside(q[None], p.mean(axis=1)[:, None]), axis=1)
    assert np.all(np.diff(host) >= 0)
    np.testing.assert_array_equal(np.unique(host), refined)
    tri = coarse.triangles
    first = []
    for a, b in mesh.vertex_parents[coarse.num_vertices:]:
        at = [3 * c + k for c in range(coarse.num_cells) for k in range(3)
              if {tri[c, (k + 1) % 3], tri[c, (k + 2) % 3]} == {a, b}]
        first.append(min(at))
    assert np.all(np.diff(first) > 0)


def test_is_conforming_detects_a_hanging_node():
    mesh = two_triangle_square()
    fine = mesh.refine([0])  # splits the shared diagonal of both cells
    assert fine.is_conforming()
    # the children of cell 0 (the cells made of its corners and the
    # diagonal's midpoint) next to the unsplit cell 1: the midpoint hangs on
    # cell 1's edge; is_conforming and areas read the triangles alone
    corners = set(mesh.triangles[0]) | {mesh.num_vertices}
    children = [c for c in range(fine.num_cells)
                if set(fine.triangles[c]) <= corners]
    assert len(children) == 2
    hanging = replace(fine, triangles=np.concatenate(
        (fine.triangles[children], mesh.triangles[[1]])))
    assert abs(hanging.areas.sum() - 1.0) < 1e-14
    assert not hanging.is_conforming()


def test_refined_vertices_are_edge_midpoints():
    mesh = two_triangle_square()
    fine = mesh.refine(range(mesh.num_cells))
    parents = fine.vertex_parents
    for v in range(mesh.num_vertices, fine.num_vertices):
        a, b = parents[v]
        mid = 0.5 * (fine.coords[a] + fine.coords[b])
        np.testing.assert_allclose(fine.coords[v], mid, atol=1e-14)


def test_vertex_levels_follow_the_recursive_definition():
    mesh = lshape_mesh(2)
    np.testing.assert_array_equal(mesh.vertex_level, 0)
    for step in (3, 5, 2, 4):
        mesh = mesh.refine(range(0, mesh.num_cells, step))
    # a midpoint's parents are older vertices, so one pass in id order
    want = np.zeros(mesh.num_vertices, dtype=np.int64)
    for v in range(mesh.num_vertices):
        a, b = mesh.vertex_parents[v]
        if a >= 0:
            want[v] = 1 + max(want[a], want[b])
    np.testing.assert_array_equal(mesh.vertex_level, want)
    assert want.max() >= 2 and mesh.vertex_level.dtype == np.int16


def test_uniform_refine_quarters_area_scale():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    fine = mesh.uniform_refine(2)
    assert fine.num_cells >= 4 * mesh.num_cells
    assert abs(fine.areas.sum() - 1.0) < 1e-12
    assert fine.h_sizes.max() <= 0.5 * mesh.h_sizes.max() + 1e-12


def test_cell_ids_persist_across_refinement():
    # serials persist for the cells a refinement leaves alone, which keep
    # their order and come first; the new cells get serials never seen
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    fine = mesh.refine([0])
    kept = np.isin(mesh.serial, fine.serial)
    assert kept[-1] and not kept[0]
    n = kept.sum()
    np.testing.assert_array_equal(fine.serial[:n], mesh.serial[kept])
    np.testing.assert_array_equal(fine.triangles[:n], mesh.triangles[kept])
    assert fine.serial[n] > mesh.serial[-1]


def test_active_ids_sorted_and_match_positions():
    # serials ascend along the rows, and every edge's twin names it back
    coarse = lshape_mesh(2)
    mesh = coarse.refine(range(5))
    assert np.all(np.diff(mesh.serial) > 0)
    assert np.all(np.diff(coarse.serial) > 0)
    assert mesh.serial[0] > coarse.serial[4]  # rows 0-4 were bisected
    _check_twins(mesh)


def test_boundary_vertex_mask_rect():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    on_edge = ((np.abs(mesh.coords[:, 0]) < 1e-14)
               | (np.abs(mesh.coords[:, 0] - 1.0) < 1e-14)
               | (np.abs(mesh.coords[:, 1]) < 1e-14)
               | (np.abs(mesh.coords[:, 1] - 1.0) < 1e-14))
    np.testing.assert_array_equal(mesh.boundary_vertex_mask, on_edge)


def test_interface_cells_tiny_segment_in_one_cell():
    mesh = two_triangle_square()
    # lower-right triangle (0,0),(1,0),(1,1); a short segment near its centroid
    curve = Curve(np.array([[0.64, 0.3], [0.70, 0.33]]), closed=False)
    hit = interface_cells(mesh, curve)
    assert hit.tolist() == [0]


def test_interface_cells_segment_on_shared_edge_hits_both():
    mesh = two_triangle_square()
    curve = Curve(np.array([[0.3, 0.3], [0.6, 0.6]]), closed=False)
    hit = interface_cells(mesh, curve)
    assert hit.tolist() == [0, 1]


def _all_pairs(mesh: Mesh, curve: Curve) -> tuple[np.ndarray, np.ndarray]:
    return np.divmod(np.arange(mesh.num_cells * curve.num_segments),
                     curve.num_segments)


def test_curve_cell_pairs_is_superset_of_hits():
    # segments short next to the cells, then long next to them
    for n, segments in ((6, 128), (16, 12)):
        mesh = rect_mesh(n, n, 0.0, 0.0, 1.0, 1.0)
        curve = Curve.circle((0.5, 0.5), 0.3, segments, boundary_gap=0.2)
        ci, si = curve._candidates(mesh, np.arange(mesh.num_cells))
        # the oracle tests every (cell, segment) pair of the mesh
        c, s = _all_pairs(mesh, curve)
        p = mesh.coords[mesh.triangles[c]]
        hit = segments_intersect_triangles(curve.seg_start[s],
                                           curve.seg_end[s],
                                           p[:, 0], p[:, 1], p[:, 2])
        assert hit.sum() > 0
        found = set(zip(ci.tolist(), si.tolist()))
        assert set(zip(c[hit].tolist(), s[hit].tolist())) <= found
        assert len(si) == len(ci)


def _box_pairs(mesh: Mesh, curve: Curve) -> np.ndarray:
    """All-pairs oracle of the candidate rule: which of `_all_pairs` have
    boxes that meet, the segment's widened by its slack w(|d|) = 1e-9 |d| +
    3e-12 (|d| + 1) and the cell's by w(longest segment) (k - 1), with k =
    3 (box diagonal)^2 / (2 |T|)."""
    def slack(length):
        return _TOUCH * length + 3 * _REL_EPS * (length + 1)

    p = mesh.coords[mesh.triangles]
    lo, hi = p.min(axis=1), p.max(axis=1)
    k = 3 * ((hi - lo) ** 2).sum(axis=1) / (2 * corner_areas(mesh))
    margin = (slack(curve.max_seg_len) * (k - 1))[:, None]
    lo, hi = lo - margin, hi + margin
    ends = np.stack([curve.seg_start, curve.seg_end])
    w = slack(curve.seg_lengths)[:, None]
    s_lo, s_hi = ends.min(axis=0) - w, ends.max(axis=0) + w
    c, s = _all_pairs(mesh, curve)
    return ((s_lo[s] <= hi[c]) & (lo[c] <= s_hi[s])).all(axis=1)


def test_curve_cell_pairs_are_the_box_pairs(rng):
    # a closed curve and a coarse random polyline whose long segments cross
    # many cells of a graded mesh
    mesh = rect_mesh(6, 6, -0.5, -0.5, 1.5, 1.5)
    for _ in range(3):
        mesh = mesh.refine(range(0, mesh.num_cells, 4))
    curves = (Curve.circle((0.5, 0.5), 0.3, 128, boundary_gap=0.2),
              Curve(rng.uniform(-0.3, 1.3, size=(25, 2)), closed=False))
    for curve in curves:
        c, s = _all_pairs(mesh, curve)
        p = mesh.coords[mesh.triangles[c]]
        box = _box_pairs(mesh, curve)
        hit = segments_intersect_triangles(curve.seg_start[s],
                                           curve.seg_end[s],
                                           p[:, 0], p[:, 1], p[:, 2])
        assert hit.sum() > 0 and box.sum() < len(box)
        assert not (hit & ~box).any()
        subset = np.sort(rng.choice(mesh.num_cells, mesh.num_cells // 3,
                                    replace=False))
        for positions in (np.arange(mesh.num_cells), subset):
            ci, si = curve._candidates(mesh, positions)
            key = ci * curve.num_segments + si
            assert np.all(np.diff(key) > 0)  # unique, by cell then segment
            np.testing.assert_array_equal(
                key, np.flatnonzero(box & np.isin(c, positions)))


# coordinates that repeat (vertical and horizontal runs) and coordinates that
# do not, from outside the unit square to across it
_coord = st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]),
                   st.floats(-1.5, 2.5))


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=41),
       closed=st.booleans(), scale=st.sampled_from([1e-3, 0.1, 1.0, 8.0]),
       graded=st.lists(st.lists(st.integers(0, 1 << 20), min_size=1,
                                max_size=6), max_size=3),
       pick=st.lists(st.integers(0, 1 << 20), max_size=40))
def test_curve_candidates_are_the_all_pairs_box_pairs(points, closed, scale,
                                                      graded, pick):
    # 1 to 40 segments, shrunk into one cell or grown past the mesh, against
    # a graded mesh, on all its rows and on an ascending subset of them
    pts = 0.5 + scale * (np.array(points) - 0.5)
    assume(np.ptp(pts, axis=0).max() > 0)
    curve = Curve(pts, closed=closed)
    mesh = rect_mesh(4, 4)
    for marks in graded:
        mesh = mesh.refine(np.array(marks) % mesh.num_cells)
    c = _all_pairs(mesh, curve)[0]
    box = _box_pairs(mesh, curve)
    for positions in (np.arange(mesh.num_cells),
                      np.unique(np.array(pick, dtype=np.int64)
                                % mesh.num_cells)):
        ci, si = curve._candidates(mesh, positions)
        np.testing.assert_array_equal(
            ci * curve.num_segments + si,
            np.flatnonzero(box & np.isin(c, positions)))


def _assert_hits_are_the_oracle_pairs(curve: Curve, meshes) -> None:
    """`curve.hits` on each of `meshes` in turn, warm from the one before,
    and cold on a fresh copy of the curve: the pairs the all-pairs oracle
    finds, by cell and then segment, with the pieces a direct clip gives."""
    for mesh in meshes:
        warm = curve.hits(mesh)
        cold = Curve(curve.points, closed=curve.closed).hits(mesh)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(warm, cold))
        c, s = _all_pairs(mesh, curve)
        p = mesh.coords[mesh.triangles[c]]
        hit = segments_intersect_triangles(curve.seg_start[s], curve.seg_end[s],
                                           p[:, 0], p[:, 1], p[:, 2])
        cell, seg, t0, t1 = warm
        np.testing.assert_array_equal(cell * curve.num_segments + seg,
                                      np.flatnonzero(hit))
        want = clip_segments_to_triangles(
            curve.seg_start[seg], curve.seg_end[seg],
            *np.moveaxis(mesh.coords[mesh.triangles[cell]], 1, 0))
        assert want[0].tobytes() == t0.tobytes()
        assert want[1].tobytes() == t1.tobytes()


def test_curve_hits_on_exact_touches():
    square = two_triangle_square()
    for points in ([[0.64, 0.3], [0.70, 0.33]],  # tiny, inside one cell
                   [[0.3, 0.3], [0.6, 0.6]],  # on the shared edge
                   [[1.5, -0.5], [1.0, 0.0], [1.5, 0.5]]):  # vertex on a corner
        curve = Curve(np.array(points), closed=False)
        _assert_hits_are_the_oracle_pairs(curve, [square, square.refine([0])])
    corner = Curve(np.array([[1.5, -0.5], [1.0, 0.0], [1.5, 0.5]]), closed=False)
    cell, seg, t0, t1 = corner.hits(square)
    assert cell.tolist() == [0, 0] and seg.tolist() == [0, 1]
    assert (t1 - t0).max() <= 0.0  # touching only: no length inside


# a dyadic grid: mesh vertices and curve points are exact, so touches are
# exact and every near miss leaves a gap far above the clip's slack
_grid = st.integers(-4, 20).map(lambda i: i / 16.0)
_marks = st.lists(st.integers(0, 1 << 20), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(_grid, _grid), min_size=2, max_size=10),
       closed=st.booleans(), graded=st.lists(_marks, min_size=1, max_size=3),
       left=_marks, right=_marks)
def test_curve_hits_match_the_all_pairs_oracle(points, closed, graded, left,
                                               right):
    # a graded mesh and two sibling refinements of it, queried alternately
    assume(len(set(points)) > 1)
    curve = Curve(np.array(points), closed=closed)
    base = rect_mesh(4, 4)
    for marks in graded:
        base = base.refine(np.array(marks) % base.num_cells)
    a, b = (base.refine(np.array(m) % base.num_cells) for m in (left, right))
    _assert_hits_are_the_oracle_pairs(curve, [base, a, b, a, base, b])


def test_refinement_terminates_on_deep_marking():
    mesh = two_triangle_square()
    for _ in range(12):
        mesh = mesh.refine([int(np.argmax(mesh.h_sizes))])
    assert mesh.is_conforming()
    # repeated single-cell marking must not blow the mesh up
    assert mesh.num_cells < 200



# -- recorded numbering for test_refine_numbering_is_pinned -------------

TRIANGLES_PINNED = np.array([
    [5, 6, 11], [5, 11, 10], [6, 7, 12], [6, 12, 11], [7, 8, 13], [7, 13, 12],
    [10, 11, 16], [10, 16, 15], [11, 12, 17], [11, 17, 16], [15, 16, 19],
    [15, 19, 18], [16, 17, 20], [16, 20, 19], [21, 1, 6], [21, 5, 0],
    [21, 6, 5], [22, 4, 9], [22, 3, 4], [22, 9, 8], [23, 2, 7], [23, 6, 1],
    [23, 7, 6], [24, 25, 3], [24, 8, 25], [25, 7, 2], [25, 8, 7], [26, 21, 0],
    [26, 1, 21], [24, 22, 8], [24, 3, 22], [27, 9, 14], [27, 8, 9],
    [27, 13, 8], [27, 14, 13], [28, 23, 1], [28, 2, 23], [29, 25, 2],
    [29, 3, 25]])
COORDS_X8_PINNED = np.array([
    [-8, -8], [-4, -8], [0, -8], [4, -8], [8, -8], [-8, -4], [-4, -4],
    [0, -4], [4, -4], [8, -4], [-8, 0], [-4, 0], [0, 0], [4, 0], [8, 0],
    [-8, 4], [-4, 4], [0, 4], [-8, 8], [-4, 8], [0, 8], [-6, -6], [6, -6],
    [-2, -6], [4, -6], [2, -6], [-6, -8], [6, -2], [-2, -8], [2, -8]])


def _triangle_values(mesh, calls):
    """A CellCache `compute` whose values depend on each cell's triangle
    alone; it notes how many cells it was asked for."""
    def compute(positions):
        calls.append(len(positions))
        p = mesh.coords[mesh.triangles[positions]]
        return np.stack([np.sin(7 * p).sum(axis=(1, 2)),
                         np.cos(3 * p).prod(axis=(1, 2))], axis=1)
    return compute


def test_cell_cache_keeps_the_active_cells_of_the_last_mesh():
    rng = np.random.default_rng(3)
    cache, lineage = CellCache((2,)), [rect_mesh(5, 4)]
    for _ in range(5):
        mesh = lineage[-1]
        lineage.append(mesh.refine(rng.choice(mesh.num_cells, 3,
                                              replace=False)))
    before = np.empty(0, dtype=np.int64)
    for mesh in lineage:
        calls = []
        got = cache.values(mesh, _triangle_values(mesh, calls))
        # only the cells the last mesh did not have are computed
        assert sum(calls) == len(np.setdiff1d(mesh.serial, before))
        assert len(cache._serials) == len(cache._values) == mesh.num_cells
        assert not got.flags.writeable
        before = mesh.serial
    # an older mesh of the lineage and two siblings whose new cells share
    # rows but not triangles: each gives the bits of a cold cache
    base = lineage[2]
    siblings = [base.refine([k]) for k in (0, base.num_cells - 1)]
    for mesh in [lineage[1], *siblings, lineage[-1], lineage[0]]:
        cold = CellCache((2,)).values(mesh, _triangle_values(mesh, []))
        got = cache.values(mesh, _triangle_values(mesh, []))
        assert np.array_equal(got, cold)
        assert len(cache._serials) == mesh.num_cells


def test_cell_cache_answers_the_last_mesh_from_its_table():
    # asked again about the mesh it last saw, the cache computes nothing and
    # returns the table it holds
    cache, calls = CellCache((2,)), []
    mesh = rect_mesh(3, 2)
    first = cache.values(mesh, _triangle_values(mesh, calls))
    assert cache.values(mesh, _triangle_values(mesh, calls)) is first
    assert calls == [mesh.num_cells]


def test_cell_cache_shares_no_entry_between_separate_meshes():
    # equal row counts and equal triangles still name other cells
    cache, calls = CellCache((2,)), []
    first, second = rect_mesh(3, 2), rect_mesh(3, 2, 1.0, 0.0, 2.0, 1.0)
    for mesh in (first, second, rect_mesh(3, 2)):
        cache.values(mesh, _triangle_values(mesh, calls))
    assert calls == [first.num_cells] * 3
    assert np.intersect1d(first.serial, second.serial).size == 0


def test_refine_rejects_rows_outside_the_mesh():
    mesh = two_triangle_square()
    for row in (-1, mesh.num_cells):
        with pytest.raises(ValueError, match="not all inside"):
            mesh.refine([0, row])
    assert mesh.refine([]) is mesh


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rounds=st.integers(1, 4))
def test_refine_keeps_the_neighbour_table_symmetric(seed, rounds):
    # random refinement edges and marked sets on a jittered grid: after every
    # refine each edge's twin names it back
    rng = np.random.default_rng(seed)
    grid = rect_mesh(4, 3)
    mesh = _random_refinement_edges(Mesh.from_arrays(
        grid.coords + rng.uniform(-0.05, 0.05, grid.coords.shape),
        grid.triangles), rng)
    for _ in range(rounds):
        mesh = mesh.refine(rng.choice(mesh.num_cells,
                                      rng.integers(1, 6), replace=False))
        _check_twins(mesh)
