"""Mesh construction, bisection refinement, genealogy, and curve queries."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from mollifem.curves import Curve
from mollifem.mesh import (Mesh, curve_cell_pairs, interface_cells,
                           interface_diameter, lshape_mesh, rect_mesh)


def two_triangle_square() -> Mesh:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh.from_arrays(coords, tris)


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
    c = mesh.cell_coords.reshape(-1, 2)
    assert not np.any((c[:, 0] > 1e-12) & (c[:, 1] > 1e-12))


def test_refine_single_marked_cell_hand_count():
    # bisecting one of two triangles forces the neighbour across the shared
    # refinement edge to split as well: 4 active cells, 5 vertices
    mesh = two_triangle_square()
    fine = mesh.refine([mesh.active_id_array[0]])
    assert fine.num_cells == 4
    assert fine.num_vertices == 5
    assert fine.is_conforming()
    assert abs(fine.areas.sum() - 1.0) < 1e-14


def _descends_from(fine: Mesh, coarse: Mesh) -> bool:
    """Every active cell of `fine` reaches an active cell of `coarse`."""
    coarse_active = set(coarse.active_ids)
    for cid in fine.active_ids:
        while cid not in coarse_active:
            cid = fine.cells[cid].parent
            if cid is None:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]),
       rounds=st.integers(1, 4), data=st.data())
def test_refine_preserves_area_and_nesting(domain, rounds, data):
    mesh = rect_mesh(2, 3, 0.0, 0.0, 1.0, 1.5) if domain == "rect" \
        else lshape_mesh(1)
    area = mesh.areas.sum()
    for _ in range(rounds):
        marked = data.draw(st.sets(st.sampled_from(mesh.active_ids),
                                   max_size=12))
        fine = mesh.refine(marked)
        assert fine.is_conforming()
        assert abs(fine.areas.sum() - area) < 1e-12
        assert _descends_from(fine, mesh)
        assert fine is mesh or not _descends_from(mesh, fine)
        for v in range(mesh.num_vertices, fine.num_vertices):
            a, b = fine.vertex_parents[v]
            np.testing.assert_array_equal(
                fine.coords[v], 0.5 * (fine.coords[a] + fine.coords[b]))
        mesh = fine


def test_refined_vertices_are_edge_midpoints():
    mesh = two_triangle_square()
    fine = mesh.refine(mesh.active_id_array)
    parents = fine.vertex_parents
    for v in range(mesh.num_vertices, fine.num_vertices):
        a, b = parents[v]
        mid = 0.5 * (fine.coords[a] + fine.coords[b])
        np.testing.assert_allclose(fine.coords[v], mid, atol=1e-14)


def test_uniform_refine_quarters_area_scale():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    fine = mesh.uniform_refine(2)
    assert fine.num_cells >= 4 * mesh.num_cells
    assert abs(fine.areas.sum() - 1.0) < 1e-12
    assert fine.h_sizes.max() <= 0.5 * mesh.h_sizes.max() + 1e-12


def test_cell_ids_persist_across_refinement():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    keep = mesh.active_id_array[-1]
    tri_before = mesh.triangles[np.searchsorted(mesh.active_id_array, keep)]
    fine = mesh.refine([mesh.active_id_array[0]])
    if keep in fine.active_id_array:
        tri_after = fine.triangles[np.searchsorted(fine.active_id_array, keep)]
        np.testing.assert_array_equal(tri_before, tri_after)


def test_active_ids_sorted_and_match_positions():
    mesh = lshape_mesh(2).refine(lshape_mesh(2).active_id_array[:5])
    ids = mesh.active_id_array
    assert np.all(np.diff(ids) > 0)
    for i in (0, len(ids) // 2, len(ids) - 1):
        assert np.searchsorted(ids, ids[i]) == i
        assert tuple(mesh.triangles[i]) == mesh.cells[ids[i]].vertices


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
    assert hit.tolist() == [mesh.active_id_array[0]]


def test_interface_cells_segment_on_shared_edge_hits_both():
    mesh = two_triangle_square()
    curve = Curve(np.array([[0.3, 0.3], [0.6, 0.6]]), closed=False)
    hit = interface_cells(mesh, curve)
    assert sorted(hit.tolist()) == sorted(mesh.active_id_array.tolist())


def test_interface_cells_positions_restriction_consistent():
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    curve = Curve.circle((0.5, 0.5), 0.3, 256, boundary_gap=0.2)
    full = interface_cells(mesh, curve)
    half = np.arange(mesh.num_cells // 2)
    part = interface_cells(mesh, curve, half)
    expect = [i for i in full if i in set(mesh.active_id_array[half].tolist())]
    assert part.tolist() == expect


def test_curve_cell_pairs_is_superset_of_hits():
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    curve = Curve.circle((0.5, 0.5), 0.3, 128, boundary_gap=0.2)
    ci, si = curve_cell_pairs(mesh, curve)
    hits = set(interface_cells(mesh, curve).tolist())
    cand = set(mesh.active_id_array[np.unique(ci)].tolist())
    assert hits <= cand
    assert len(si) == len(ci)


def test_interface_diameter_is_max_h():
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    ids = mesh.active_id_array[:3]
    expect = mesh.h_sizes[:3].max()
    assert abs(interface_diameter(mesh, ids) - expect) < 1e-14
    assert interface_diameter(mesh, np.empty(0, dtype=np.int64)) == 0.0


def test_refinement_terminates_on_deep_marking():
    mesh = two_triangle_square()
    for _ in range(12):
        worst = mesh.active_id_array[int(np.argmax(mesh.h_sizes))]
        mesh = mesh.refine([worst])
    assert mesh.is_conforming()
    # repeated single-cell marking must not blow the mesh up
    assert mesh.num_cells < 200
