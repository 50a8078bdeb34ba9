"""Mollification kernels and the three load descriptions.

Reference values come from independent quadratures: tensor Gauss panels for
kernel masses, 1D Gauss sections for line profiles, and the partition of
unity of the P1 basis for load-vector totals (sum of the load vector equals
the total applied source, exactly, whatever the mesh).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mollifem import forcing
from mollifem.curves import Curve, SegmentedData
from mollifem.forcing import (KERNEL_FAMILIES, DensityForcing, Kernel,
                              LineForcing, RegularizedForcing,
                              kernel_moment_check, r_of_tau)
from mollifem.mesh import Mesh, rect_mesh

from conftest import cell_l2_norms, gauss_grid_on_triangle, sibling_refinements

# -- independent reference integrators ------------------------------------


def panel_integral_2d(func, lo: float, hi: float, panels: int = 60,
                      order: int = 8) -> float:
    """Composite tensor Gauss over [lo,hi]^2; resolves kinked profiles."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vals = func(np.stack([xx.ravel(), yy.ravel()], axis=1))
    return float((np.outer(ws, ws).ravel() * vals).sum())


def section_1d(kernel: Kernel, y: float, panels: int = 400) -> float:
    """int psi(x, y) dx by composite Gauss; the 1D profile of the kernel."""
    x, w = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    pts = np.stack([xs, np.full_like(xs, y)], axis=1)
    return float(ws @ kernel.psi(pts))


# -- kernels ---------------------------------------------------------------


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_mass_is_one(family):
    k = Kernel.make(family)
    mass = panel_integral_2d(k.psi, -1.0, 1.0)
    assert abs(mass - 1.0) < 5e-9


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_first_moment_vanishes(family):
    k = Kernel.make(family)
    mx = panel_integral_2d(lambda p: p[:, 0] * k.psi(p), -1.0, 1.0)
    my = panel_integral_2d(lambda p: p[:, 1] * k.psi(p), -1.0, 1.0)
    assert abs(mx) < 1e-9
    assert abs(my) < 1e-9


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_nonnegative_and_supported(family, rng):
    k = Kernel.make(family)
    pts = rng.uniform(-1.5, 1.5, size=(4000, 2))
    vals = k.psi(pts)
    assert np.all(vals >= 0.0)
    if k.support == "ball":
        outside = (pts * pts).sum(-1) > 1.0
    else:
        outside = np.abs(pts).max(axis=1) > 1.0
    assert np.all(vals[outside] == 0.0)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_delta_scaling_identity(family, rng):
    k = Kernel.make(family)
    pts = rng.uniform(-0.2, 0.2, size=(200, 2))
    for r in (0.5, 0.07):
        direct = k.delta(r, pts)
        scaled = k.psi(pts / r) / r ** 2
        np.testing.assert_allclose(direct, scaled, rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_moment_check_defects(family):
    k = Kernel.make(family)
    assert kernel_moment_check(k, 0) < 1e-8
    assert kernel_moment_check(k, 1, r=0.3) < 1e-6
    with pytest.raises(ValueError):
        kernel_moment_check(k, 2)


def test_r_of_tau_square_law():
    assert r_of_tau(0.5) == 0.25
    assert r_of_tau(1.0) == 1.0
    with pytest.raises(ValueError):
        r_of_tau(0.0)


# -- regularized line source ----------------------------------------------


def straight_line_setup(r: float, family: str, f: float = 3.0):
    # long horizontal polyline so the profile at x = 0 is the pure 1D section
    xs = np.linspace(-5 * r, 5 * r, 9)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    curve = Curve(pts, closed=False, boundary_gap=1.0)
    data = SegmentedData.constant(curve, f)
    return RegularizedForcing(curve, data, Kernel.make(family), r)


def test_box_kernel_profile_is_exact():
    r, f = 0.08, 3.0
    g = straight_line_setup(r, "tensor_linf", f)
    ys = np.array([-0.9, -0.5, 0.0, 0.4, 0.85]) * r
    pts = np.column_stack([np.zeros_like(ys), ys])
    vals = g.eval(pts)
    np.testing.assert_allclose(vals, f / (2 * r), rtol=1e-12)
    far = g.eval(np.array([[0.0, 1.2 * r], [0.0, -1.5 * r]]))
    np.testing.assert_allclose(far, 0.0, atol=1e-14)


@pytest.mark.parametrize("family", ("radial_c1", "tensor_cinf"))
def test_smooth_kernel_profile_matches_section(family):
    r, f = 0.08, 3.0
    g = straight_line_setup(r, family, f)
    k = Kernel.make(family)
    for y in (0.0, 0.3 * r, -0.7 * r):
        got = float(g.eval(np.array([[0.0, y]]))[0])
        want = f * section_1d(k, y / r) / r
        # pieces of length r/4 with 4-point Gauss resolve these compactly
        # supported kernels to about 1e-5 relative
        assert abs(got - want) < 2e-4 * max(1.0, abs(want))


def test_eval_matches_brute_force_node_sum(rng):
    r = 0.15
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 2.0)
    g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    diff = g.node_xy[None, :, :] - pts[:, None, :]
    brute = (g.kernel.psi(diff / r) / r ** 2) @ g.node_fw
    np.testing.assert_allclose(g.eval(pts), brute, rtol=1e-12, atol=1e-12)


def test_node_count_tracks_radius_not_segments():
    curve = Curve.circle((0.0, 0.0), 0.2, 2 ** 14, boundary_gap=1.0)
    data = SegmentedData.constant(curve, 1.0)
    r = 0.1
    g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    budget = 4 * int(np.ceil(curve.total_length / (r / 4.0))) + 64
    assert len(g.node_w) <= budget
    assert abs(g.node_w.sum() - curve.total_length) < 1e-10


def test_regularized_mass_conservation():
    # sum of the load vector is the integral of F_r, which carries the full
    # line mass f * |gamma| whenever the support stays inside the domain
    curve = Curve.circle((0.5, 0.5), 0.25, 512, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 5.0)
    g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), 0.1)
    mesh = rect_mesh(16, 16, 0.0, 0.0, 1.0, 1.0)
    rhs = g.load_vector(mesh)
    want = 5.0 * curve.total_length
    assert abs(rhs.sum() - want) < 2e-3 * want


def test_load_vector_against_brute_quadrature():
    r = 0.15
    curve = Curve.circle((0.5, 0.5), 0.25, 128, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 2.0)
    g = RegularizedForcing(curve, data, Kernel.make("tensor_cinf"), r)
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    rhs = g.load_vector(mesh)
    brute = np.zeros(mesh.num_vertices)
    for c in range(mesh.num_cells):
        tri = mesh.cell_coords[c]
        pts, w = gauss_grid_on_triangle(tri, 40)
        vals = g.eval(pts)
        # hat functions via barycentric solve
        mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        loc = np.linalg.solve(mat, (pts - tri[0]).T)
        lam = np.stack([1.0 - loc[0] - loc[1], loc[0], loc[1]], axis=1)
        for i in range(3):
            brute[mesh.triangles[c, i]] += float(w @ (vals * lam[:, i]))
    np.testing.assert_allclose(rhs, brute, atol=2e-4 * np.abs(brute).max())


def test_data_indicator_against_brute_norms():
    r = 0.15
    curve = Curve.circle((0.5, 0.5), 0.25, 128, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 2.0)
    g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    d = g.data_indicator(mesh)
    want = mesh.h_sizes * cell_l2_norms(mesh, g.eval, n=40)
    np.testing.assert_allclose(d, want, atol=2e-4 * want.max())


def test_caches_survive_refinement():
    r = 0.12
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 1.0)
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    g.load_vector(mesh)
    g.data_indicator(mesh)
    fine = mesh.refine(mesh.active_id_array[::3])
    warm_rhs = g.load_vector(fine)
    warm_d = g.data_indicator(fine)
    cold = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    np.testing.assert_array_equal(warm_rhs, cold.load_vector(fine))
    np.testing.assert_array_equal(warm_d, cold.data_indicator(fine))
    # sibling refinements reuse new cell ids for different triangles
    first, second = sibling_refinements(mesh, curve)
    g.load_vector(first)
    g.data_indicator(first)
    cold = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
    np.testing.assert_array_equal(g.load_vector(second),
                                  cold.load_vector(second))
    np.testing.assert_array_equal(g.data_indicator(second),
                                  cold.data_indicator(second))


@lru_cache(maxsize=None)
def _batch_forcing(family: str) -> RegularizedForcing:
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 1.5)
    return RegularizedForcing(curve, data, Kernel.make(family), 0.12)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(KERNEL_FAMILIES),
       pts=st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
                    min_size=1, max_size=200))
def test_eval_is_batch_independent(family, pts):
    # a point's value must not depend on which other points share the call,
    # so a cell's integrals are the same warm or cold
    g = _batch_forcing(family)
    pts = np.array(pts)
    single = np.array([g.eval(pts[i:i + 1])[0] for i in range(len(pts))])
    np.testing.assert_array_equal(g.eval(pts), single)
    chunk = forcing._PAIR_CHUNK
    try:
        forcing._PAIR_CHUNK = 200  # a few points per kernel batch
        np.testing.assert_array_equal(g.eval(pts), single)
    finally:
        forcing._PAIR_CHUNK = chunk


@pytest.mark.parametrize("kind", ["regularized", "line"])
def test_each_cell_integrated_once(kind, monkeypatch):
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 1.0)
    if kind == "regularized":
        g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), 0.12)
    else:
        g = LineForcing(curve, data)
    integrated = []
    inner = g._cell_integrals

    def counted(mesh, positions):
        integrated.extend(mesh.active_id_array[positions])
        return inner(mesh, positions)

    monkeypatch.setattr(g, "_cell_integrals", counted)
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    g.data_indicator(mesh)
    assert integrated
    seen = len(integrated)
    g.load_vector(mesh)  # the data pass filled the load entries too
    assert len(integrated) == seen
    fine = mesh.refine(mesh.active_id_array[::3])
    g.load_vector(fine)
    g.data_indicator(fine)
    g.load_vector(fine)
    # each created cell at most once, and only cells of the fine mesh
    assert len(set(integrated)) == len(integrated)
    assert set(integrated) - set(mesh.active_id_array) \
        <= set(fine.active_id_array)


def test_load_pass_fills_data_without_eval(monkeypatch):
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 1.0)
    g = RegularizedForcing(curve, data, Kernel.make("tensor_cinf"), 0.12)
    calls = []
    inner = g.eval
    monkeypatch.setattr(g, "eval", lambda pts: calls.append(len(pts))
                        or inner(pts))
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    g.load_vector(mesh)
    assert calls
    del calls[:]
    g.data_indicator(mesh)
    g.load_vector(mesh)
    assert calls == []


def test_sup_norm_scales_inverse_with_radius():
    curve = Curve.circle((0.0, 0.0), 0.5, 4096, boundary_gap=1.0)
    data = SegmentedData.constant(curve, 1.0)
    radii = np.array([0.2, 0.1, 0.05, 0.025])
    peak = []
    for r in radii:
        g = RegularizedForcing(curve, data, Kernel.make("radial_c1"), r)
        peak.append(float(g.eval(np.array([[0.5, 0.0]]))[0]))
    slope = np.polyfit(np.log(radii), np.log(peak), 1)[0]
    assert abs(slope - (-1.0)) < 0.05


def test_global_data_term_grows_sqrt2_per_halving():
    # halving r raises ||F_r||_L2 by sqrt(2) on a mesh that resolves both
    curve = Curve.circle((0.5, 0.5), 0.25, 1024, boundary_gap=0.25)
    data = SegmentedData.constant(curve, 1.0)
    mesh = rect_mesh(64, 64, 0.0, 0.0, 1.0, 1.0)
    r1 = 0.1
    k = Kernel.make("radial_c1")
    d1 = RegularizedForcing(curve, data, k, r1).data_indicator(mesh)
    d2 = RegularizedForcing(curve, data, k, 0.5 * r1).data_indicator(mesh)
    g1 = float(np.sqrt((d1 * d1).sum()))
    g2 = float(np.sqrt((d2 * d2).sum()))
    assert 1.2 < g2 / g1 < 1.7


def test_rejects_mismatched_data():
    c1 = Curve.circle((0.0, 0.0), 0.2, 64, boundary_gap=0.1)
    c2 = Curve.circle((0.0, 0.0), 0.2, 64, boundary_gap=0.1)
    data = SegmentedData.constant(c1, 1.0)
    with pytest.raises(ValueError):
        RegularizedForcing(c2, data, Kernel.make("radial_c1"), 0.05)
    with pytest.raises(ValueError):
        LineForcing(c2, data)


# -- exact clipped line source --------------------------------------------


def two_triangle_square_mesh() -> Mesh:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh.from_arrays(coords, np.array([[0, 1, 2], [0, 2, 3]]))


def _bary_of(tri: np.ndarray, p: np.ndarray) -> np.ndarray:
    mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    loc = np.linalg.solve(mat, p - tri[0])
    return np.array([1.0 - loc.sum(), loc[0], loc[1]])


def test_line_load_vector_hand_chord():
    # chord y = 1/4 from x = 0 to 1; the hats are linear along it, so the
    # per-piece integral is the exact endpoint trapezoid f * len * avg(hat)
    mesh = two_triangle_square_mesh()
    curve = Curve(np.array([[0.0, 0.25], [1.0, 0.25]]), closed=False)
    f = 2.0
    data = SegmentedData.constant(curve, f)
    rhs = LineForcing(curve, data).load_vector(mesh)

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    pieces = [(0, np.array([0.25, 0.25]), np.array([1.0, 0.25])),
              (1, np.array([0.0, 0.25]), np.array([0.25, 0.25]))]
    want = np.zeros(4)
    for cell, a, b in pieces:
        tri = verts[tris[cell]]
        avg = 0.5 * (_bary_of(tri, a) + _bary_of(tri, b))
        want[tris[cell]] += f * np.linalg.norm(b - a) * avg
    np.testing.assert_allclose(rhs, want, atol=1e-13)


def test_line_load_total_is_line_mass():
    mesh = rect_mesh(16, 16, 0.0, 0.0, 1.0, 1.0)
    curve = Curve.circle((0.5, 0.5), 0.3, 512, boundary_gap=0.2)
    data = SegmentedData.constant(curve, 4.0)
    rhs = LineForcing(curve, data).load_vector(mesh)
    want = 4.0 * curve.total_length
    assert abs(rhs.sum() - want) < 1e-10 * want


def test_line_surrogate_indicator_hand_values():
    mesh = two_triangle_square_mesh()
    curve = Curve(np.array([[0.0, 0.25], [1.0, 0.25]]), closed=False)
    f = 2.0
    data = SegmentedData.constant(curve, f)
    d = LineForcing(curve, data).data_indicator(mesh)
    h = np.sqrt(0.5)
    # clipped lengths: 0.75 in the lower cell, 0.25 in the upper cell
    want = np.sqrt(h * f ** 2 * np.array([0.75, 0.25]))
    np.testing.assert_allclose(d, want, atol=1e-12)


def test_line_cache_survives_refinement():
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    curve = Curve.circle((0.5, 0.5), 0.3, 256, boundary_gap=0.2)
    data = SegmentedData.constant(curve, 1.0)
    g = LineForcing(curve, data)
    g.load_vector(mesh)
    g.data_indicator(mesh)
    fine = mesh.refine(mesh.active_id_array[::2])
    cold = LineForcing(curve, data)
    np.testing.assert_array_equal(g.load_vector(fine), cold.load_vector(fine))
    np.testing.assert_array_equal(g.data_indicator(fine),
                                  cold.data_indicator(fine))
    # sibling refinements reuse new cell ids for different triangles
    first, second = sibling_refinements(mesh, curve)
    g.load_vector(first)
    g.data_indicator(first)
    cold = LineForcing(curve, data)
    np.testing.assert_array_equal(g.load_vector(second),
                                  cold.load_vector(second))
    np.testing.assert_array_equal(g.data_indicator(second),
                                  cold.data_indicator(second))


# -- plain density ---------------------------------------------------------


def test_density_load_vector_constant_one():
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.ones(len(p)))
    rhs = g.load_vector(mesh)
    assert abs(rhs.sum() - 1.0) < 1e-13


def test_density_indicator_uniform_value():
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.ones(len(p)))
    d = g.data_indicator(mesh)
    want = mesh.h_sizes * np.sqrt(mesh.areas)
    np.testing.assert_allclose(d, want, atol=1e-14)
