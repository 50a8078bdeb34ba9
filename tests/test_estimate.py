"""Residual indicator assembly against hand-computed jump values."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from mollifem.estimate import IndicatorSet, estimate, jump_indicator_sq
from mollifem.fem import FeFunction
from mollifem.forcing import DensityForcing
from mollifem.mesh import Mesh, rect_mesh

from conftest import jittered_mesh


def two_triangle_square() -> Mesh:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh.from_arrays(coords, np.array([[0, 1, 2], [0, 2, 3]]))


def test_jump_hand_value_single_interior_edge():
    # w = (y - x)^+ kinks across the diagonal: grad jump (-1,1)-(0,0),
    # unit normal (1,-1)/sqrt(2), edge length sqrt(2):
    # j(T)^2 = h_F^2 * (jump . n)^2 = 2 * 2 = 4 on both cells
    mesh = two_triangle_square()
    w = FeFunction(mesh, np.array([0.0, 0.0, 0.0, 1.0]))
    jsq = jump_indicator_sq(w)
    np.testing.assert_allclose(jsq, [4.0, 4.0], atol=1e-13)


def test_jump_vanishes_for_global_linear():
    mesh = rect_mesh(5, 5, 0.0, 0.0, 1.0, 1.0)
    w = FeFunction(mesh, 2.0 * mesh.coords[:, 0] + mesh.coords[:, 1])
    jsq = jump_indicator_sq(w)
    assert np.abs(jsq).max() < 1e-24


def _edge_loop_jumps(mesh: Mesh, w: FeFunction) -> np.ndarray:
    """j(T)^2 by an independent loop over the edges: the two cells of each
    interior edge both get h_F^2 ((g_L - g_R) . n)^2."""
    grads = w.cell_gradients
    owners: dict = {}
    for c, tri in enumerate(mesh.triangles.tolist()):
        for k in range(3):
            pair = (min(tri[k - 2], tri[k - 1]), max(tri[k - 2], tri[k - 1]))
            owners.setdefault(pair, []).append(c)
    want = np.zeros(mesh.num_cells)
    for (a, b), cells in owners.items():
        if len(cells) == 2:
            t = mesh.coords[b] - mesh.coords[a]
            h_f = np.hypot(*t)
            normal = np.array([t[1], -t[0]]) / h_f
            left, right = cells
            want[cells] += h_f ** 2 * ((grads[left] - grads[right]) @ normal) ** 2
    return want


def test_jump_matches_an_edge_loop():
    # a graded mesh
    rng = np.random.default_rng(5)
    mesh = rect_mesh(4, 4)
    for _ in range(4):
        mesh = mesh.refine(rng.choice(mesh.num_cells, mesh.num_cells // 4,
                                      replace=False))
    w = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    assert mesh.generation.max() >= 3
    np.testing.assert_allclose(jump_indicator_sq(w),
                               _edge_loop_jumps(mesh, w), rtol=1e-13)


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jump_matches_an_edge_loop_on_jittered_meshes(domain, rounds, seed):
    mesh = jittered_mesh(domain, rounds, seed)
    w = FeFunction(mesh, np.random.default_rng(seed).standard_normal(
        mesh.num_vertices))
    want = _edge_loop_jumps(mesh, w)
    np.testing.assert_allclose(jump_indicator_sq(w), want, rtol=1e-12,
                               atol=1e-14 * want.max())


def test_estimate_combines_jump_and_data():
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(11)
    w = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    g = DensityForcing(lambda p: np.ones(len(p)))
    ind = estimate(w, g)
    np.testing.assert_allclose(ind.total ** 2, ind.jump_sq + ind.data_sq,
                               rtol=1e-14)
    np.testing.assert_allclose(ind.jump ** 2, ind.jump_sq, rtol=1e-14)
    assert abs(ind.global_total ** 2
               - (ind.global_jump ** 2 + ind.global_data ** 2)) < 1e-12
    assert len(ind.total) == mesh.num_cells


def test_global_norms_are_root_sums():
    ind = IndicatorSet(np.array([1.0, 4.0, 0.0]), np.array([0.0, 0.0, 9.0]))
    assert abs(ind.global_jump - np.sqrt(5.0)) < 1e-15
    assert abs(ind.global_data - 3.0) < 1e-15
    assert abs(ind.global_total - np.sqrt(14.0)) < 1e-15
