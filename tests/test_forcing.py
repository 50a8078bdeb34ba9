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
from mollifem import quadrature as quadr
from mollifem.afem import interface_loop
from mollifem.curves import Curve, interface_cells
from mollifem.forcing import (KERNEL_FAMILIES, DensityForcing, Kernel,
                              LineForcing, RegularizedForcing,
                              kernel_moment_check, r_of_tau)
from mollifem.mesh import Mesh, rect_mesh

from conftest import (cell_l2_norms, cells_meeting_supports,
                      gauss_grid_on_triangle, sibling_refinements)

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
    k = Kernel(family)
    mass = panel_integral_2d(k.psi, -1.0, 1.0)
    assert abs(mass - 1.0) < 5e-9


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_first_moment_vanishes(family):
    k = Kernel(family)
    mx = panel_integral_2d(lambda p: p[:, 0] * k.psi(p), -1.0, 1.0)
    my = panel_integral_2d(lambda p: p[:, 1] * k.psi(p), -1.0, 1.0)
    assert abs(mx) < 1e-9
    assert abs(my) < 1e-9


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_nonnegative_and_supported(family, rng):
    k = Kernel(family)
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
    k = Kernel(family)
    pts = rng.uniform(-0.2, 0.2, size=(200, 2))
    for r in (0.5, 0.07):
        direct = k.delta(r, pts)
        scaled = k.psi(pts / r) / r ** 2
        np.testing.assert_allclose(direct, scaled, rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_moment_check_defects(family):
    k = Kernel(family)
    assert kernel_moment_check(k, 0) < 1e-8
    assert kernel_moment_check(k, 1, r=0.3) < 1e-6
    with pytest.raises(ValueError):
        kernel_moment_check(k, 2)


def _masked_psi_1d(family: str, t: np.ndarray) -> np.ndarray:
    # the tensor profiles as they were written with boolean masks
    if family == "tensor_cinf":
        u = 1.0 - t * t
        out = np.zeros_like(t)
        ok = u > 0
        out[ok] = np.exp(1.0 - 1.0 / u[ok]) / forcing._CINF_1D_NORM
        return out
    return np.where(np.abs(t) < 1.0, 0.5, 0.0)


@pytest.mark.parametrize("family", ("tensor_cinf", "tensor_linf"))
def test_tensor_kernels_match_the_masked_formulas_bit_for_bit(family, rng):
    edge = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     0.0, 1e-300, 1e300, 0.5])
    edge = np.concatenate([edge, -edge])
    pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(5000, 2)),
                          np.stack(np.meshgrid(edge, edge), -1).reshape(-1, 2)])
    with np.errstate(over="ignore"):  # t * t at t = 1e300
        want = _masked_psi_1d(family, pts[:, 0]) \
            * _masked_psi_1d(family, pts[:, 1])
        got = Kernel(family).psi(pts)
    assert got.tobytes() == want.tobytes()


def test_radial_profile_against_mpmath(rng):
    mp = pytest.importorskip("mpmath")
    u = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                        1.0 - rng.uniform(0.0, 1e-8, 500),
                        1.0 - 2.0 ** -np.arange(1.0, 54.0),
                        rng.uniform(0.0, 1e-8, 100), [0.0, 0.25, 0.5]])
    got = forcing._radial_profile(1.0 - u)
    with mp.workdps(40):
        # 1 + cos(x) = 2 cos(x / 2)^2, without the cancellation near u = 1
        want = np.array([float(2 * mp.cos(mp.pi * mp.sqrt(mp.mpf(x)) / 2) ** 2)
                         for x in u])
    assert np.max(np.abs(got - want) / want) <= 1e-15
    # exactly zero from the edge of the support on
    assert forcing._radial_profile(np.array([0.0]))[0] == 0.0
    far = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1e-8], [2.0, 0.0],
                    [1e200, 0.0], [-0.8, 0.7]])
    with np.errstate(over="ignore"):
        assert np.all(Kernel("radial_c1").psi(far) == 0.0)


def test_radial_coefficients_are_the_chebyshev_interpolant():
    # the derivation of forcing._RADIAL_Q: the degree-9 Chebyshev
    # interpolant in t = 2u - 1 of (1 + cos(pi sqrt(u))) / (1 - u)^2 at 64
    # Chebyshev points, expanded in powers of w = 1 - u, rounded to doubles
    mp = pytest.importorskip("mpmath")
    n, deg = 64, 9
    with mp.workdps(50):
        ts = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / n) for k in range(n)]
        us = [(t + 1) / 2 for t in ts]
        vals = [2 * mp.cos(mp.pi * mp.sqrt(u) / 2) ** 2 / (1 - u) ** 2
                for u in us]
        cheb = [2 * mp.fsum(v * mp.cos(j * mp.pi * (k + mp.mpf(1) / 2) / n)
                            for k, v in enumerate(vals)) / n
                for j in range(deg + 1)]
        cheb[0] /= 2
        # T_j(1 - 2w) in powers of w: T_{j+1} = 2 (1 - 2w) T_j - T_{j-1}
        cheb_w = [[mp.mpf(1)], [mp.mpf(1), mp.mpf(-2)]]
        for j in range(1, deg):
            nxt = [mp.mpf(0)] * (j + 2)
            for i, c in enumerate(cheb_w[j]):
                nxt[i] += 2 * c
                nxt[i + 1] -= 4 * c
            for i, c in enumerate(cheb_w[j - 1]):
                nxt[i] -= c
            cheb_w.append(nxt)
        coef = [float(mp.fsum(cheb[j] * cheb_w[j][i]
                              for j in range(i, deg + 1)))
                for i in range(deg + 1)]
    assert coef == list(forcing._RADIAL_Q)


def test_kernel_norming_constants_are_the_rounded_integrals():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        # 2 pi int_0^1 s (1 + cos(pi s)) ds = pi - 4 / pi
        radial = 1 / (mp.pi - 4 / mp.pi)
        cinf = mp.quad(lambda t: mp.exp(1 - 1 / (1 - t * t)), [-1, 0, 1])
        assert float(radial) == forcing._RADIAL_C1_NORM
        assert float(cinf) == forcing._CINF_1D_NORM


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
    curve = Curve(pts, f, closed=False, boundary_gap=1.0)
    return RegularizedForcing(curve, Kernel(family), r)


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
    k = Kernel(family)
    for y in (0.0, 0.3 * r, -0.7 * r):
        got = float(g.eval(np.array([[0.0, y]]))[0])
        want = f * section_1d(k, y / r) / r
        # pieces of length r/4 with 4-point Gauss resolve these compactly
        # supported kernels to about 1e-5 relative
        assert abs(got - want) < 2e-4 * max(1.0, abs(want))


def test_eval_matches_brute_force_node_sum(rng):
    r = 0.15
    curve = Curve.circle((0.5, 0.5), 0.25, 256, f=2.0, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("radial_c1"), r)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    diff = g.node_xy[None, :, :] - pts[:, None, :]
    brute = (g.kernel.psi(diff / r) / r ** 2) @ g.node_fw
    np.testing.assert_allclose(g.eval(pts), brute, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ("tensor_cinf", "tensor_linf"))
def test_eval_matches_brute_force_on_square_supports(family, rng):
    # a square support reaches sqrt(2) r along the diagonals
    r = 0.1
    curve = Curve.circle((0.5, 0.5), 0.25, 256, f=2.0, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel(family), r)
    ang = rng.uniform(0.0, 2.0 * np.pi, 2000)
    rad = 0.25 + rng.uniform(-1.5 * r, 1.5 * r, 2000)
    pts = 0.5 + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], 1)
    diff = g.node_xy[None, :, :] - pts[:, None, :]
    brute = (g.kernel.psi(diff / r) / r ** 2) @ g.node_fw
    assert np.count_nonzero(brute) > 1000
    np.testing.assert_allclose(g.eval(pts), brute, rtol=1e-12, atol=1e-12)


def test_node_count_tracks_radius_not_segments():
    curve = Curve.circle((0.0, 0.0), 0.2, 2 ** 14, boundary_gap=1.0)
    r = 0.1
    g = RegularizedForcing(curve, Kernel("radial_c1"), r)
    budget = 4 * int(np.ceil(curve.total_length / (r / 4.0))) + 64
    assert len(g.node_w) <= budget
    assert abs(g.node_w.sum() - curve.total_length) < 1e-10


def test_regularized_mass_conservation():
    # sum of the load vector is the integral of F_r, which carries the full
    # line mass f * |gamma| whenever the support stays inside the domain
    curve = Curve.circle((0.5, 0.5), 0.25, 512, f=5.0, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("radial_c1"), 0.1)
    mesh = rect_mesh(16, 16, 0.0, 0.0, 1.0, 1.0)
    rhs = g.load_vector(mesh)
    want = 5.0 * curve.total_length
    assert abs(rhs.sum() - want) < 2e-3 * want


def test_load_vector_against_brute_quadrature():
    r = 0.15
    curve = Curve.circle((0.5, 0.5), 0.25, 128, f=2.0, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("tensor_cinf"), r)
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    rhs = g.load_vector(mesh)
    brute = np.zeros(mesh.num_vertices)
    for c in range(mesh.num_cells):
        tri = mesh.coords[mesh.triangles[c]]
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
    curve = Curve.circle((0.5, 0.5), 0.25, 128, f=2.0, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("radial_c1"), r)
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    d = g.data_indicator(mesh)
    want = mesh.h_sizes * cell_l2_norms(mesh, g.eval, n=40)
    np.testing.assert_allclose(d, want, atol=2e-4 * want.max())


def test_caches_survive_refinement():
    r = 0.12
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    g = RegularizedForcing(curve, Kernel("radial_c1"), r)
    g.load_vector(mesh)
    g.data_indicator(mesh)
    fine = mesh.refine(range(0, mesh.num_cells, 3))
    warm_rhs = g.load_vector(fine)
    warm_d = g.data_indicator(fine)
    cold = RegularizedForcing(curve, Kernel("radial_c1"), r)
    np.testing.assert_array_equal(warm_rhs, cold.load_vector(fine))
    np.testing.assert_array_equal(warm_d, cold.data_indicator(fine))
    # sibling refinements put different triangles in the same new rows
    first, second = sibling_refinements(mesh, curve)
    g.load_vector(first)
    g.data_indicator(first)
    cold = RegularizedForcing(curve, Kernel("radial_c1"), r)
    np.testing.assert_array_equal(g.load_vector(second),
                                  cold.load_vector(second))
    np.testing.assert_array_equal(g.data_indicator(second),
                                  cold.data_indicator(second))


@lru_cache(maxsize=None)
def _batch_forcing(family: str) -> RegularizedForcing:
    curve = Curve.circle((0.5, 0.5), 0.25, 256, f=1.5, boundary_gap=0.25)
    return RegularizedForcing(curve, Kernel(family), 0.12)


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


def _area_forcing(kind: str):
    """The mollified forcing of `_batch_forcing` for a kernel family, or a
    smooth density for "density"."""
    if kind == "density":
        return DensityForcing(lambda p: np.cos(3 * p[:, 0]) * np.exp(p[:, 1]))
    return _batch_forcing(kind)


@pytest.mark.parametrize("kind", [*KERNEL_FAMILIES, "density"])
def test_cell_integrals_apply_the_rule_to_eval_bit_for_bit(kind):
    # one batch of cells equals the rule applied to `eval` at each cell's own
    # points, cell by cell: depths 2, 3 and 4 for the mollified forcing, the
    # 6-point rule (depth 0) on every cell for the density
    g = _area_forcing(kind)
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    for _ in range(4):
        mesh = mesh.refine(range(0, mesh.num_cells, 3))
    if kind == "density":
        depths = np.zeros(mesh.num_cells, dtype=np.int64)
    else:
        depths = forcing._subdivision_depths(mesh.h_sizes, g.r)
        assert len(np.unique(depths)) == 3
    positions = np.arange(mesh.num_cells)
    got = g._cell_integrals(mesh, positions)
    for c in positions:
        bary, w = quadr.subdivided_rule(int(depths[c]))
        pts = quadr.triangle_points(mesh.coords[mesh.triangles[c:c + 1]], bary)
        v = g.eval(pts.reshape(-1, 2))[None, :]
        load = mesh.areas[c] * np.einsum("mq,q,qi->mi", v, w, bary)[0]
        data = mesh.areas[c] * np.einsum("mq,mq,q->m", v, v, w)[0]
        assert got[c, :3].tobytes() == load.tobytes()
        assert got[c, 3] == data


@pytest.mark.parametrize("kind", ["radial_c1", "density"])
def test_cell_integrals_do_not_depend_on_the_batch(kind, monkeypatch):
    # one-cell batches, and batches of a few cells, give the bits of one
    # whole-mesh batch; for the mollified forcing the mesh is resolved along
    # the curve, so its near cells take depths 0 to 3
    g = _area_forcing(kind)
    if kind == "density":
        mesh = rect_mesh(8, 8).uniform_refine(8)  # 32,768 cells
    else:
        mesh = interface_loop(rect_mesh(4, 4), g.curve, g.r / 8)
    rows = np.arange(mesh.num_cells)
    if kind != "density":
        assert set(g._depths(mesh, rows)) == {-1, 0, 1, 2, 3}
    whole = g._cell_integrals(mesh, rows).view(np.int64)
    some = rows[::len(rows) // 600]
    ones = np.concatenate([g._cell_integrals(mesh, rows[c:c + 1])
                           for c in some])
    assert np.array_equal(ones.view(np.int64), whole[some])
    monkeypatch.setattr(quadr, "POINT_CHUNK", 20)  # 3 cells at depth 0
    assert np.array_equal(g._cell_integrals(mesh, rows).view(np.int64), whole)


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(["circle", "open", "closed"]),
       family=st.sampled_from(KERNEL_FAMILIES),
       r=st.sampled_from([0.03, 0.1, 0.25]), seed=st.integers(0, 2 ** 16),
       rounds=st.integers(0, 8))
def test_near_cells_hold_every_cell_the_forcing_reaches(shape, family, r,
                                                        seed, rounds):
    # on a mesh graded towards the curve: every cell `_near` leaves out has
    # the records (bits, so -0.0 would show) it would get from the rule, and
    # every cell that meets a node's support is near. (The former centroid
    # test flags more: cells whose circumball, not the cell, meets a
    # support, some of which `_near` leaves out.)
    rng = np.random.default_rng(seed)
    if shape == "circle":
        curve = Curve.circle(rng.uniform(0.35, 0.65, 2),
                             rng.uniform(0.05, 0.3), int(rng.integers(3, 200)))
    else:
        curve = Curve(rng.uniform(0.1, 0.9, (int(rng.integers(2, 7)), 2)),
                      closed=shape == "closed")
    # the same points, with a random density
    curve = Curve(curve.points, rng.uniform(-1.0, 1.0, curve.num_segments),
                  closed=curve.closed)
    g = RegularizedForcing(curve, Kernel(family), r)
    mesh = rect_mesh(4, 4)
    for _ in range(rounds):
        mesh = mesh.refine(np.union1d(interface_cells(mesh, curve),
                                      rng.choice(mesh.num_cells, 3)))
    rows = np.arange(mesh.num_cells)
    near = g._near(mesh, rows)
    got = g._cell_integrals(mesh, rows)
    g._near = lambda mesh, positions: np.ones(len(positions), dtype=bool)
    assert g._cell_integrals(mesh, rows).tobytes() == got.tobytes()
    meets = cells_meeting_supports(mesh, g.node_xy, r, g.kernel.support, rows)
    assert meets.any() and not (meets & ~near).any()


def test_subdivision_depths_follow_h_over_r():
    r = 0.06
    ratios = np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1, 2, 4])
    above = ratios * (1 + 1e-9)
    smooth = forcing._subdivision_depths(r * ratios, r)
    np.testing.assert_array_equal(smooth, [0, 1, 1, 2, 2, 3, 4])
    np.testing.assert_array_equal(forcing._subdivision_depths(r * above, r),
                                  [1, 1, 2, 2, 3, 4, 5])
    np.testing.assert_array_equal(
        forcing._subdivision_depths(r * np.array([1 / 64, 1e-6]), r), [0, 0])
    for family in ("radial_c1", "tensor_cinf"):
        assert Kernel(family).continuous
    # the discontinuous kernel keeps depth 2 on every cell no wider than r
    box = Kernel("tensor_linf")
    assert not box.continuous
    np.testing.assert_array_equal(
        forcing._subdivision_depths(r * ratios, r, box.continuous),
        [2, 2, 2, 2, 2, 3, 4])


def _rule_integrals(g: RegularizedForcing, mesh: Mesh, rows: np.ndarray,
                    depth: int) -> np.ndarray:
    """`_cell_integrals`' records from the subdivided rule of one depth."""
    bary, w = quadr.subdivided_rule(depth)
    out = np.empty((len(rows), 4))
    for lo in range(0, len(rows), 50):
        sel = rows[lo:lo + 50]
        pts = quadr.triangle_points(mesh.coords[mesh.triangles[sel]], bary)
        v = g.eval(pts.reshape(-1, 2)).reshape(len(sel), -1)
        out[lo:lo + 50, :3] = mesh.areas[sel, None] \
            * np.einsum("mq,q,qi->mi", v, w, bary)
        out[lo:lo + 50, 3] = mesh.areas[sel] * np.einsum("mq,mq,q->m", v, v, w)
    return out


@pytest.mark.parametrize("family", ["radial_c1", "tensor_cinf"])
def test_graded_depths_match_a_depth_5_rule(family, rng):
    # per h/r class of near cells, the relative 2-norm error of the load rows
    # and of the data squares against the depth-5 rule; the graded depths
    # hold 1e-5 up to h/r = 1/2, and (1/2, 1] keeps depth 2 and its error
    # (7.4e-5 for radial_c1 here)
    r = 0.06
    curve = Curve.circle((0.5, 0.5), 0.25, 1024, f=1.5, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel(family), r)
    mesh = interface_loop(rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0), curve, r / 8)
    near = np.flatnonzero(g._near(mesh, np.arange(mesh.num_cells)))
    ratio = mesh.h_sizes[near] / r
    for lo, hi, bound in ((0, 1 / 16, 1e-5), (1 / 16, 1 / 8, 1e-5),
                          (1 / 8, 1 / 4, 1e-5), (1 / 4, 1 / 2, 1e-5),
                          (1 / 2, 1, 1e-4)):
        cls = near[(ratio > lo) & (ratio <= hi)]
        assert len(cls) > 0
        rows = np.sort(rng.choice(cls, min(200, len(cls)), replace=False))
        got = g._cell_integrals(mesh, rows)
        want = _rule_integrals(g, mesh, rows, 5)
        for part in (np.s_[:, :3], np.s_[:, 3]):
            err = np.linalg.norm(got[part] - want[part])
            assert err <= bound * np.linalg.norm(want[part]), (lo, hi, part)


def test_near_cells_cover_the_corners_of_a_square_support():
    # a point diagonal to the end of a short segment is 1.27 r away from it,
    # yet inside the square support of the node there
    r = 0.1
    curve = Curve(np.array([[0.5, 0.5], [0.52, 0.5]]), closed=False,
                  boundary_gap=0.3)
    g = RegularizedForcing(curve, Kernel("tensor_linf"), r)
    corner = np.array([0.52, 0.5]) + 0.9 * r
    assert g.eval(corner[None, :])[0] > 0.0
    tri = corner + 0.002 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh.from_arrays(tri, np.array([[0, 1, 2]]))
    assert g._near(mesh, np.arange(1))[0]
    assert g.load_vector(mesh).sum() > 0.0


@pytest.mark.parametrize("kind", ["regularized", "line"])
def test_each_cell_integrated_once(kind, monkeypatch):
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    if kind == "regularized":
        g = RegularizedForcing(curve, Kernel("radial_c1"), 0.12)
    else:
        g = LineForcing(curve)
    integrated = []
    inner = g._cell_integrals

    def counted(mesh, positions):
        integrated.extend(mesh.serial[positions])
        return inner(mesh, positions)

    monkeypatch.setattr(g, "_cell_integrals", counted)
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    g.data_indicator(mesh)
    assert integrated
    seen = len(integrated)
    g.load_vector(mesh)  # the data pass filled the load entries too
    assert len(integrated) == seen
    fine = mesh.refine(range(0, mesh.num_cells, 3))
    g.load_vector(fine)
    g.data_indicator(fine)
    g.load_vector(fine)
    # each created cell at most once, and only cells of the fine mesh
    assert len(set(integrated)) == len(integrated)
    assert set(integrated) - set(mesh.serial) <= set(fine.serial)


def test_load_pass_fills_data_without_eval(monkeypatch):
    curve = Curve.circle((0.5, 0.5), 0.25, 256, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("tensor_cinf"), 0.12)
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
    radii = np.array([0.2, 0.1, 0.05, 0.025])
    peak = []
    for r in radii:
        g = RegularizedForcing(curve, Kernel("radial_c1"), r)
        peak.append(float(g.eval(np.array([[0.5, 0.0]]))[0]))
    slope = np.polyfit(np.log(radii), np.log(peak), 1)[0]
    assert abs(slope - (-1.0)) < 0.05


def test_global_data_term_grows_sqrt2_per_halving():
    # halving r raises ||F_r||_L2 by sqrt(2) on a mesh that resolves both
    curve = Curve.circle((0.5, 0.5), 0.25, 1024, boundary_gap=0.25)
    mesh = rect_mesh(64, 64, 0.0, 0.0, 1.0, 1.0)
    r1 = 0.1
    k = Kernel("radial_c1")
    d1 = RegularizedForcing(curve, k, r1).data_indicator(mesh)
    d2 = RegularizedForcing(curve, k, 0.5 * r1).data_indicator(mesh)
    g1 = float(np.sqrt((d1 * d1).sum()))
    g2 = float(np.sqrt((d2 * d2).sum()))
    assert 1.2 < g2 / g1 < 1.7


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
    f = 2.0
    curve = Curve(np.array([[0.0, 0.25], [1.0, 0.25]]), f, closed=False)
    rhs = LineForcing(curve).load_vector(mesh)

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
    curve = Curve.circle((0.5, 0.5), 0.3, 512, f=4.0, boundary_gap=0.2)
    rhs = LineForcing(curve).load_vector(mesh)
    want = 4.0 * curve.total_length
    assert abs(rhs.sum() - want) < 1e-10 * want


def test_line_surrogate_indicator_hand_values():
    mesh = two_triangle_square_mesh()
    f = 2.0
    curve = Curve(np.array([[0.0, 0.25], [1.0, 0.25]]), f, closed=False)
    d = LineForcing(curve).data_indicator(mesh)
    h = np.sqrt(0.5)
    # clipped lengths: 0.75 in the lower cell, 0.25 in the upper cell
    want = np.sqrt(h * f ** 2 * np.array([0.75, 0.25]))
    np.testing.assert_allclose(d, want, atol=1e-12)


def test_line_cache_survives_refinement():
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0)
    curve = Curve.circle((0.5, 0.5), 0.3, 256, boundary_gap=0.2)
    g = LineForcing(curve)
    g.load_vector(mesh)
    g.data_indicator(mesh)
    fine = mesh.refine(range(0, mesh.num_cells, 2))
    cold = LineForcing(curve)
    np.testing.assert_array_equal(g.load_vector(fine), cold.load_vector(fine))
    np.testing.assert_array_equal(g.data_indicator(fine),
                                  cold.data_indicator(fine))
    # sibling refinements put different triangles in the same new rows
    first, second = sibling_refinements(mesh, curve)
    g.load_vector(first)
    g.data_indicator(first)
    cold = LineForcing(curve)
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


def test_density_evaluates_only_cells_without_an_entry():
    # a pass's load and estimate, and the final estimate, share one
    # evaluation of g, and a refinement evaluates only its new cells; the
    # values are those of cold forcings
    calls = []

    def density(p):
        return np.sin(3.0 * p[:, 0]) * p[:, 1]

    def counted(p):
        calls.append(len(p))
        return density(p)

    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    fine = mesh.refine(range(0, mesh.num_cells, 3))
    g = DensityForcing(counted)
    for m in (mesh, fine, mesh):
        rhs, d = g.load_vector(m), g.data_indicator(m)
        assert g.data_indicator(m).tobytes() == d.tobytes()
        assert DensityForcing(density).load_vector(m).tobytes() \
            == rhs.tobytes()
        assert DensityForcing(density).data_indicator(m).tobytes() \
            == d.tobytes()
    # only the last mesh's cells are kept: back on `mesh`, just the cells
    # that `fine` bisected are evaluated again
    new = np.setdiff1d(fine.serial, mesh.serial)
    split = np.setdiff1d(mesh.serial, fine.serial)
    assert calls == [6 * mesh.num_cells, 6 * len(new), 6 * len(split)]
