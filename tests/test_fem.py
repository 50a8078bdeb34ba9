"""Assembly, solve, transfer, and energy-norm error integration."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from mollifem import fem
from mollifem.afem import interface_loop
from mollifem.curves import Curve, interface_cells
from mollifem import quadrature as quadr
from mollifem.fem import (ErrorIntegrator, FeFunction, assemble, energy_error,
                          form_matrix, prolong, solve_galerkin)
from mollifem.errors import NumericalError
from mollifem.forcing import DensityForcing, Kernel, RegularizedForcing
from mollifem.mesh import Mesh, lshape_mesh, rect_mesh
from mollifem.problems import RadialLogSolution, SineProduct, square_problem

from conftest import (basis_gradients, clip_segments_to_triangles,
                      element_matrix_form, jittered_mesh, sibling_refinements,
                      uniform_square_system, warm_target)


class Poly2D:
    """Exact-solution stand-in built from a sympy expression."""

    def __init__(self, expr):
        x, y = sympy.symbols("x y")
        self.value_fn = sympy.lambdify((x, y), expr, "numpy")
        self.grad_fn = (sympy.lambdify((x, y), sympy.diff(expr, x), "numpy"),
                        sympy.lambdify((x, y), sympy.diff(expr, y), "numpy"))

    def value(self, pts):
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        return np.broadcast_to(self.value_fn(pts[:, 0], pts[:, 1]),
                               (len(pts),)).astype(np.float64)

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        gx = np.broadcast_to(self.grad_fn[0](pts[:, 0], pts[:, 1]), (len(pts),))
        gy = np.broadcast_to(self.grad_fn[1](pts[:, 0], pts[:, 1]), (len(pts),))
        return np.stack([gx, gy], axis=-1).astype(np.float64)


def unit_right_triangle() -> Mesh:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh.from_arrays(coords, np.array([[0, 1, 2]]))


def test_stiffness_energy_of_linear_interpolant():
    # u = a x + b y has energy (a^2 + b^2) |Omega| under the Laplace form
    mesh = rect_mesh(5, 4, 0.0, 0.0, 2.0, 1.0)
    k = form_matrix(mesh)
    vals = 3.0 * mesh.coords[:, 0] - 2.0 * mesh.coords[:, 1]
    energy = float(vals @ (k @ vals))
    assert abs(energy - (9.0 + 4.0) * 2.0) < 1e-11


def test_stiffness_kernel_contains_constants():
    mesh = rect_mesh(3, 3, 0.0, 0.0, 1.0, 1.0)
    k = form_matrix(mesh)
    ones = np.ones(mesh.num_vertices)
    assert np.abs(k @ ones).max() < 1e-12


def test_assembled_matrix_symmetry():
    mesh = rect_mesh(8, 8, 0.0, 0.0, 1.0, 1.0).uniform_refine()
    k = form_matrix(mesh)
    asym = abs(k - k.T).max()
    assert asym <= 1e-14 * abs(k).max()


def test_affine_exactness():
    # boundary data a + b x + c y, zero load: the P1 solution is that plane
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    plane = Poly2D(sympy.sympify("1 + 2*x - 3*y"))
    system = assemble(mesh, None, boundary_data=plane.value)
    w = solve_galerkin(system)
    want = plane.value(mesh.coords)
    assert np.abs(w.nodal_values - want).max() < 1e-9


def test_cg_residual_tolerance():
    mesh = rect_mesh(10, 10, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.sin(3 * p[:, 0]) + p[:, 1])
    system = assemble(mesh, g)
    w = solve_galerkin(system)
    res = np.linalg.norm(system.rhs - system.matrix @ w.nodal_values)
    assert res <= 1e-10 * np.linalg.norm(system.rhs) + 1e-14


def _projected_form(mesh):
    """The constrained matrix as keep A keep + E: two sparse-sparse products
    and a sum, which drop exact zeros and sort each row."""
    bmask = mesh.boundary_vertex_mask
    keep = sp.diags((~bmask).astype(np.float64))
    return (keep @ form_matrix(mesh) @ keep
            + sp.diags(bmask.astype(np.float64))).tocsr()


def _corner_graded(mesh, passes):
    for _ in range(passes):
        near = np.hypot(*mesh.coords[mesh.triangles].mean(axis=1).T) < 0.4
        mesh = mesh.refine(np.flatnonzero(near))
    return mesh


@pytest.mark.parametrize("make", [lambda: rect_mesh(7, 5),
                                  lambda: lshape_mesh(4),
                                  lambda: _corner_graded(lshape_mesh(2), 6)],
                         ids=["rect", "lshape", "graded"])
def test_assemble_matrix_has_the_bits_of_the_projected_form(make):
    mesh = make()
    got = assemble(mesh, None).matrix
    want = _projected_form(mesh)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


def test_assembly_drops_the_exact_zeros_of_a_right_angled_grid():
    # the off-diagonal of each square's diagonal edge vanishes exactly
    mesh = rect_mesh(7, 5)
    assert (form_matrix(mesh).data == 0).any()
    assert (assemble(mesh, None).matrix.data != 0).all()


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stiffness_and_gradients_match_the_element_formulas(domain, rounds,
                                                            seed):
    # no coordinate is dyadic, so the edge weights round differently from
    # the element matrices; the gradients keep the element formula's
    # operations and its einsum's summation order, and so its bits
    mesh = jittered_mesh(domain, rounds, seed)
    got, want = form_matrix(mesh), element_matrix_form(mesh)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    scale = np.abs(want.data).max()
    assert np.abs(got.data - want.data).max() <= 1e-13 * scale
    vals = np.random.default_rng(seed).standard_normal(mesh.num_vertices)
    grads = FeFunction(mesh, vals).cell_gradients
    ref = np.einsum("mdi,mi->md", basis_gradients(mesh), vals[mesh.triangles])
    assert grads.shape == ref.shape and grads.tobytes() == ref.tobytes()


@pytest.mark.parametrize("make", [lambda: rect_mesh(4, 4).uniform_refine(3),
                                  lambda: _corner_graded(lshape_mesh(2), 6)],
                         ids=["rect", "graded"])
def test_stiffness_has_the_element_bits_on_right_isosceles_grids(make):
    # newest-vertex bisection of a grid of squares with a dyadic step, as on
    # the benchmark's meshes: every cell is right isosceles with dyadic
    # corners, so each edge weight and element entry is exactly 0 or +-1/2
    # (or +-1 on a diagonal), every sum of them is exact, and the matrix has
    # the element matrices' bits whatever the formula
    mesh = make()
    got, want = form_matrix(mesh), element_matrix_form(mesh)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_galerkin_orthogonality():
    mesh = rect_mesh(9, 9, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.cos(2 * p[:, 0] * p[:, 1]))
    system = assemble(mesh, g)
    w = solve_galerkin(system)
    resid = g.load_vector(mesh) - form_matrix(mesh) @ w.nodal_values
    assert np.abs(resid[~mesh.boundary_vertex_mask]).max() <= 1e-8


def test_solve_warm_start_agrees_with_cold():
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: p[:, 0] * p[:, 1])
    system = assemble(mesh, g)
    cold = solve_galerkin(system).nodal_values
    warm = solve_galerkin(system, initial_guess=cold + 1e-3).nodal_values
    assert np.abs(cold - warm).max() < 1e-8


def test_solve_rejects_a_guess_of_the_wrong_length():
    # a guess left on the coarse mesh (a forgotten prolong) is an error,
    # not a cold start
    mesh = rect_mesh(4, 4)
    system = assemble(mesh.refine([0]), DensityForcing(lambda p: p[:, 0]))
    with pytest.raises(ValueError, match="initial guess has 25 values"):
        solve_galerkin(system, np.zeros(mesh.num_vertices))


def counting_cg(monkeypatch) -> list[int]:
    """Route `fem.cg` through a wrapper, as the benchmark's tracer does; the
    returned list gets each call's iteration count."""
    calls = []
    cg = fem.cg

    def counted(*args, **kwargs):
        iters = 0

        def count(_xk):
            nonlocal iters
            iters += 1

        out = cg(*args, callback=count, **kwargs)
        calls.append(iters)
        return out

    monkeypatch.setattr(fem, "cg", counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_bpx_preconditioner_is_spd_with_identity_boundary_rows(
        domain, rounds, seed, data):
    mesh = rect_mesh(3, 3) if domain == "rect" else lshape_mesh(2)
    for _ in range(rounds):
        mesh = mesh.refine(data.draw(st.sets(
            st.sampled_from(range(mesh.num_cells)), max_size=12)))
    system = assemble(mesh, None)
    apply = fem._bpx_preconditioner(system)
    x, y = np.random.default_rng(seed).standard_normal((2, mesh.num_vertices))
    bx, by = apply(x), apply(y)
    assert abs(y @ bx - x @ by) <= 1e-12 * np.linalg.norm(y) * np.linalg.norm(bx)
    assert x @ bx > 0.0
    # boundary rows and columns are those of the identity, bit for bit
    bnd = mesh.boundary_vertex_mask
    np.testing.assert_array_equal(bx[bnd], x[bnd])
    np.testing.assert_array_equal(apply(np.where(bnd, x, 0.0)),
                                  np.where(bnd, x, 0.0))


def test_solve_matches_a_direct_solve_on_a_graded_mesh():
    mesh = lshape_mesh(4).uniform_refine(2)
    for _ in range(16):  # grade toward the reentrant corner: 9 levels
        near = np.abs(mesh.coords[mesh.triangles]).sum(axis=2).min(axis=1) < 1e-12
        mesh = mesh.refine(np.flatnonzero(near))
    plane = Poly2D(sympy.sympify("x - 2*y + x*y"))
    system = assemble(
        mesh, DensityForcing(lambda p: np.cos(p[:, 0] + 2 * p[:, 1])),
        boundary_data=plane.value)
    w = solve_galerkin(system).nodal_values
    direct = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.linalg.norm(w - direct) <= 1e-9 * np.linalg.norm(direct)


def test_cg_iterations_stay_flat_under_uniform_refinement(monkeypatch,
                                                          square_66k):
    calls = counting_cg(monkeypatch)
    solve_galerkin(uniform_square_system(6))  # 1,089 dofs
    solve_galerkin(square_66k)  # 66,049 dofs
    coarse, fine = calls
    assert fine <= 1.5 * coarse and fine <= 60, calls


def test_solve_makes_one_call_through_fem_cg(monkeypatch):
    calls = counting_cg(monkeypatch)
    system = uniform_square_system(2)
    w = solve_galerkin(system)
    assert len(calls) == 1 and calls[0] > 0
    res = np.linalg.norm(system.rhs - system.matrix @ w.nodal_values)
    assert res <= 1e-10 * np.linalg.norm(system.rhs)


def test_solve_rejects_a_non_positive_diagonal():
    system = uniform_square_system(2)
    mat = system.matrix.tolil()
    v = int(np.flatnonzero(~system.mesh.boundary_vertex_mask)[0])
    mat[v, v] = 0.0
    with pytest.raises(NumericalError, match="non-positive diagonal"):
        solve_galerkin(dataclasses.replace(system, matrix=mat.tocsr()))


def test_solve_raises_when_cg_does_not_converge(monkeypatch):
    cg = fem.cg
    monkeypatch.setattr(fem, "cg", lambda *args, **kwargs: cg(
        *args, maxiter=2, **kwargs))
    with pytest.raises(NumericalError, match=r"CG failed to converge "
                       r"\(iteration cap after 2 iterations, relative residual"):
        solve_galerkin(uniform_square_system(2))


def test_a_warm_target_solve_counts_fewer_iterations_than_a_tight_one(
        monkeypatch):
    # the callback runs once per iteration in both modes, as the benchmark's
    # tracer counts them
    calls = counting_cg(monkeypatch)
    system = uniform_square_system(6)
    guess, target = warm_target(6)
    w = solve_galerkin(system, guess, target)
    solve_galerkin(system, guess)
    warm, tight = calls[-2:]
    assert 0 < warm < tight, calls
    assert w.residual <= target


def test_cg_stops_at_its_target_or_its_iteration_cap():
    system = uniform_square_system(4)
    bpx = fem._bpx_preconditioner(system)
    iters = []
    with pytest.raises(NumericalError, match="iteration cap after 3 iter"):
        fem.cg(system.matrix, system.rhs, M=bpx, maxiter=3,
               callback=iters.append)
    assert len(iters) == 3
    x = fem.cg(system.matrix, system.rhs, M=bpx, target=1e-4)
    r = system.rhs - system.matrix @ x
    assert np.sqrt(r @ bpx(r)) <= 1e-4


def _indefinite(system):
    """`system` with its free off-diagonal entries tripled: the diagonal
    stays positive, the matrix indefinite."""
    mat = system.matrix.copy()
    row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    off = row != mat.indices
    mat.data[off] *= 3.0
    return dataclasses.replace(system, matrix=mat)


@pytest.mark.parametrize("target", [None, 1e-6])
@pytest.mark.parametrize("fault", ["indefinite", "nan load"])
def test_solve_raises_on_a_cg_breakdown(fault, target):
    system = uniform_square_system(3)
    if fault == "indefinite":
        system = _indefinite(system)
        assert np.linalg.eigvalsh(system.matrix.toarray()).min() < 0
    else:
        free = ~system.mesh.boundary_vertex_mask
        system.rhs[np.flatnonzero(free)[7]] = np.nan
    with pytest.raises(NumericalError, match="breakdown"):
        solve_galerkin(system, target=target)


@pytest.mark.parametrize("rounds", [1, 3])
def test_prolong_preserves_linears(rounds):
    # several refines with no solve between them, as in the data loop: the
    # ends of a new vertex may be new too
    mesh = rect_mesh(3, 3, 0.0, 0.0, 1.0, 1.0)
    fine = mesh
    for k in range(rounds):
        fine = fine.refine([*range(4), *range(5 + k, fine.num_cells, 7)])
    new_ends = fine.vertex_parents[mesh.num_vertices:] >= mesh.num_vertices
    assert new_ends.any() == (rounds > 1)
    vals = 2.0 * mesh.coords[:, 0] - mesh.coords[:, 1] + 0.5
    lifted = prolong(FeFunction(mesh, vals), fine)
    want = 2.0 * fine.coords[:, 0] - fine.coords[:, 1] + 0.5
    np.testing.assert_allclose(lifted.nodal_values, want, atol=1e-13)


def test_prolong_rejects_non_refinement():
    a = rect_mesh(3, 3, 0.0, 0.0, 1.0, 1.0)
    b = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        prolong(FeFunction(a, np.zeros(a.num_vertices)), b)


def test_energy_error_quadratic_hand_value():
    # u = x^2 on the unit right triangle, w its P1 interpolant (= x):
    # int (2x - 1)^2 over the triangle = 1/6, by direct symbolic integration
    mesh = unit_right_triangle()
    u = Poly2D(sympy.sympify("x**2"))
    w = FeFunction(mesh, u.value(mesh.coords))
    err = energy_error(u, w)
    x, y = sympy.symbols("x y")
    exact = sympy.integrate((2 * x - 1) ** 2,
                            (y, 0, 1 - x), (x, 0, 1))
    assert abs(err - float(sympy.sqrt(exact))) < 1e-14


def test_energy_error_zero_for_exact_linear():
    mesh = rect_mesh(3, 3, 0.0, 0.0, 1.0, 1.0)
    u = Poly2D(sympy.sympify("4 - x + 2*y"))
    w = FeFunction(mesh, u.value(mesh.coords))
    assert energy_error(u, w) < 1e-13


def reference_energy_error(u, w: FeFunction, curve=None) -> float:
    """The direct quadrature sum, Laplace form only: every active cell is
    integrated afresh, cells the curve crosses by the subdivided rule of
    depth `fem._KINK_DEPTH`, and each point's |grad(u - w)|^2 is summed."""
    mesh = w.mesh
    depths = np.zeros(mesh.num_cells, dtype=np.int64)
    if curve is not None:
        hit = interface_cells(mesh, curve)
        depths[hit] = fem._KINK_DEPTH
    grads = w.cell_gradients
    total = 0.0
    for d in np.unique(depths):
        sel = np.nonzero(depths == d)[0]
        bary, wq = quadr.subdivided_rule(int(d))
        pts = quadr.triangle_points(mesh.coords[mesh.triangles[sel]], bary)
        ge = u.gradient(pts.reshape(-1, 2)).reshape(len(sel), -1, 2) \
            - grads[sel][:, None, :]
        total += float((mesh.areas[sel] * ((ge * ge).sum(-1) @ wq)).sum())
    return float(np.sqrt(total))


def test_error_integrator_matches_direct():
    center, radius = (0.5, 0.5), 0.25
    curve = Curve.circle(center, radius, 512, boundary_gap=0.25)
    g = RegularizedForcing(curve, Kernel("radial_c1"), 0.1)
    u = Poly2D(sympy.sympify("x**3 - x*y + y**2"))
    integ = ErrorIntegrator(u, curve)
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    for _ in range(3):
        w = solve_galerkin(assemble(mesh, g))
        direct = reference_energy_error(u, w, curve)
        cached = integ(w)
        assert abs(cached - direct) <= 1e-10 * max(direct, 1.0)
        mesh = mesh.refine(range(0, mesh.num_cells, 5))
    # a second integrator starting cold on the final mesh agrees too
    w = solve_galerkin(assemble(mesh, g))
    cold = ErrorIntegrator(u, curve)(w)
    assert abs(cold - integ(w)) <= 1e-12 * max(cold, 1.0)
    # sibling refinements put different triangles in the same new rows
    first, second = sibling_refinements(rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0),
                                        curve)
    integ(FeFunction(first, u.value(first.coords)))
    w = FeFunction(second, u.value(second.coords))
    cold = ErrorIntegrator(u, curve)(w)
    assert abs(cold - integ(w)) <= 1e-12 * max(cold, 1.0)


def test_error_integrator_survives_heavy_cancellation():
    # the P1 interpolant of a smooth u on 32,768 cells: |grad u|^2
    # integrates to pi^2/2 and the squared error to 7.4e-4, so moments of
    # grad u that are differenced afterwards cancel in nearly four digits.
    # A difference of global sums missed the direct sum by 5.4e-11
    # relative here, a sum of per-cell differences by 3.4e-12.
    mesh = rect_mesh(128, 128)
    u = SineProduct()
    w = FeFunction(mesh, u.value(mesh.coords))
    direct = reference_energy_error(u, w)
    assert abs(ErrorIntegrator(u)(w) - direct) <= 1e-12 * direct


def test_error_integrator_batches_do_not_move_bits(monkeypatch):
    curve = Curve.circle((0.5, 0.5), 0.25, 512, boundary_gap=0.25)
    u = Poly2D(sympy.sympify("x**3 - x*y + y**2"))
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    mesh = mesh.refine(range(0, mesh.num_cells, 2))
    positions = np.arange(mesh.num_cells)
    moments = []
    # one batch, then batches of at most 3 curve cells or 768 others (a
    # curve cell counts the 6 * 4**depth points it can need at most)
    for chunk in (1 << 30, 3 * 6 * 4 ** fem._KINK_DEPTH):
        monkeypatch.setattr(quadr, "POINT_CHUNK", chunk)
        moments.append(ErrorIntegrator(u, curve)._cell_moments(mesh,
                                                               positions))
    np.testing.assert_array_equal(moments[0], moments[1])


def test_cold_error_pass_holds_about_one_batch():
    """A cold pass holds one batch of `quadrature.POINT_CHUNK` points (2^18:
    4 MB of points and 4 MB of exact gradients at most), not the points of
    the whole cell set. On the square problem's 4,096-gon resolved to
    h_T <= 2^-9 (4,636 cells, 990 crossed, up to 1,536 points each) the
    traced peak read 16.5 MB with batches of 2^20 points and 6.1 MB with
    batches of 2^18."""
    problem = square_problem(n_segments=4096)
    mesh = interface_loop(problem.initial_mesh(), problem.curve, 2.0 ** -8)
    w = FeFunction(mesh, problem.exact.value(mesh.coords))
    assert mesh.num_cells == 4636
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ErrorIntegrator(problem.exact, problem.curve)(w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_error_integrator_matches_direct_across_the_kink():
    # graded towards the circle until the cells it crosses have h < 0.03 R,
    # as after the first passes of a run: there the 6-point rules on the
    # smooth parts of a crossed cell agree with the uniform rule to
    # round-off. On rect_mesh(16, 16) itself (h = 0.22 R) the two differ by
    # those rules' own error, 3e-9 relative.
    center, radius = (0.3, 0.3), 0.2
    curve = Curve.circle(center, radius, 4096, boundary_gap=0.1)
    mesh = rect_mesh(16, 16)
    for _ in range(6):
        mesh = mesh.refine(interface_cells(mesh, curve))
    for u in (RadialLogSolution(center, radius),
              Poly2D(sympy.sympify("x**3 - x*y + y**2"))):
        w = FeFunction(mesh, u.value(mesh.coords) + 1e-3 * mesh.coords[:, 0])
        direct = reference_energy_error(u, w, curve)
        assert abs(ErrorIntegrator(u, curve)(w) - direct) <= 1e-12 * direct


_KINK_CENTER, _KINK_RADIUS = np.array([0.5, 0.5]), 0.25
_KINK_CURVE = Curve.circle(_KINK_CENTER, _KINK_RADIUS, 1024, boundary_gap=0.25)


def _uniform_moments(u, tri: np.ndarray, depth: int) -> np.ndarray:
    """(V_T, m_T) of one cell by the uniform depth-`depth` rule."""
    bary, wq = quadr.subdivided_rule(depth)
    g = u.gradient(quadr.triangle_points(tri[None], bary).reshape(-1, 2))
    mean = wq @ g
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    return np.r_[area * (wq @ ((g - mean) ** 2).sum(-1)), mean]


@settings(max_examples=60, deadline=None)
# the arc, up to the sagitta outside the chord, crosses level-2 to level-4
# children here that the chord does not
@example(kind="crossed", seg=284, t=0.5, size=1e-4, turn=0.0,
         jitter=[0.0, 0.5, -0.875, 0.0])
@given(kind=st.sampled_from(["crossed", "touching", "missed"]),
       seg=st.integers(0, 1023), t=st.floats(0.0, 1.0),
       size=st.floats(1e-4, 1e-3), turn=st.floats(0.0, 2 * np.pi),
       jitter=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_kink_rule_matches_the_uniform_rule_on_one_cell(kind, seg, t, size,
                                                        turn, jitter):
    # cells of a resolved run's size (square-line ends with h about 1e-3 R
    # along the curve): crossed ones around a point of the polyline, ones
    # that touch it only at a polyline vertex from outside, and ones it
    # misses; the reference is the uniform depth-4 rule where the curve
    # meets the cell and the plain 6-point rule elsewhere
    u = RadialLogSolution(_KINK_CENTER, _KINK_RADIUS)
    start, end = _KINK_CURVE.seg_start[seg], _KINK_CURVE.seg_end[seg]
    normal = (start - _KINK_CENTER) / _KINK_RADIUS
    tangent = np.array([-normal[1], normal[0]])
    if kind == "touching":
        # one outer corner on each side of the normal, within 45 degrees
        spread = np.array([-0.2, 0.2]) - 0.8 * np.array(jitter[:2]) ** 2 \
            * np.array([1.0, -1.0])
        reach = size * (0.6 + 0.4 * np.abs(jitter[2:]))
        tri = start + reach[:, None] * (normal + spread[:, None] * tangent)
        tri = np.vstack([start, tri])
    else:
        angles = turn + 2 * np.pi / 3 * np.arange(3) + 0.4 * np.array(jitter[:3])
        tri = size * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        tri += start + t * (end - start)
        if kind == "missed":
            tri += 3 * size * normal
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    if e1[0] * e2[1] - e1[1] * e2[0] < 0:
        tri = tri[[0, 2, 1]]
    mesh = Mesh.from_arrays(tri, np.array([[0, 1, 2]]))
    crossed = len(interface_cells(mesh, _KINK_CURVE)) == 1
    assert crossed == (kind != "missed")
    want = _uniform_moments(u, tri, fem._KINK_DEPTH if crossed else 0)
    got = ErrorIntegrator(u, _KINK_CURVE)._cell_moments(mesh, np.arange(1))[0]
    # relative to int_T |grad u|^2: a touching cell's V_T is a small
    # centred moment whose round-off is set by the gradient, not by V_T
    energy = want[0] + mesh.areas[0] * want[1:] @ want[1:]
    assert abs(got[0] - want[0]) <= 1e-12 * energy
    assert np.abs(got[1:] - want[1:]).max() \
        <= 1e-12 * np.sqrt(energy / mesh.areas[0])


class _CountingGradient:
    """Zero gradient that counts the points it is asked for."""

    def __init__(self):
        self.points = 0

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        self.points += len(pts)
        return np.zeros_like(pts)


def test_kink_rule_spends_points_only_along_the_curve():
    # a straight segment through the centroid, in 24 directions: the
    # crossed level-3 triangles are split into 6-point leaves, the rest of
    # the cell gets coarser 6-point rules; the uniform rule takes 1,536.
    # A segment that ends at the centroid refines only the half it crosses.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]])
    mesh = Mesh.from_arrays(tri, np.array([[0, 1, 2]]))
    centroid = tri.mean(axis=0)

    def points(ends):
        u = _CountingGradient()
        ErrorIntegrator(u, Curve(ends, closed=False))._cell_moments(
            mesh, np.arange(1))
        return u.points

    for angle in np.linspace(0.1, np.pi + 0.1, 24, endpoint=False):
        d = np.array([np.cos(angle), np.sin(angle)])
        full = points(np.array([centroid - 3 * d, centroid + 3 * d]))
        assert 6 * 4 ** fem._KINK_DEPTH // 8 <= full <= 480
        assert points(np.array([centroid - 3 * d, centroid])) <= 0.7 * full


def _distance_to_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Distance of the points `p` from the segments (a, b), broadcast over
    their leading axes."""
    d = b - a
    t = np.clip(((p - a) * d).sum(-1) / (d * d).sum(-1), 0.0, 1.0)
    return np.linalg.norm(p - a - t[..., None] * d, axis=-1)


@settings(max_examples=60, deadline=None)
# the middle children's margins come from their parents' edges turned by
# half a turn; this segment tells the turned edges from the unturned ones
@example(ends=[0.0, 1.0, 1.0, 0.03125], reach=0.03125)
@given(ends=st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4),
       reach=st.floats(0.0, 0.05))
def test_kink_leaves_reach_every_child_near_the_segment(ends, reach):
    # every depth-4 triangle of the uniform split that the segment crosses,
    # or comes within `reach` of, is a depth-4 leaf of the kink rule (clear
    # of both tests' slacks); a flat cell, so that the margins differ from
    # edge to edge
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.15]])
    a, b = np.array(ends[:2]), np.array(ends[2:])
    t0, t1, meets = clip_segments_to_triangles(a[None], b[None], *tri[:, None])
    assume(meets[0] and t1[0] - t0[0] > 1e-6
           and np.linalg.norm(b - a) > 1e-3)
    owner, pts, scale = fem._kink_leaves(
        tri[None], np.zeros(1, dtype=np.int64),
        quadr.barycentric(tri[None], np.stack([a, b])[None]).T, reach)
    deep = pts[scale == 0.25 ** fem._KINK_DEPTH].mean(axis=1)
    kids = tri[None]
    for _ in range(fem._KINK_DEPTH):
        kids = quadr.split4(kids).reshape(-1, 3, 2)
    t0, t1, meets = clip_segments_to_triangles(
        np.tile(a, (len(kids), 1)), np.tile(b, (len(kids), 1)),
        *np.moveaxis(kids, 1, 0))
    gap = np.minimum(
        _distance_to_segment(kids, a, b).min(axis=1),
        np.min([_distance_to_segment(p, kids[:, k], kids[:, (k + 1) % 3])
                for k in range(3) for p in (a, b)], axis=0))
    near = kids[(meets & (t1 - t0 > 1e-9)) | (gap < reach - 1e-9)]
    assert len(near) > 0
    dist = np.linalg.norm(near.mean(axis=1)[:, None] - deep[None], axis=2)
    assert dist.min(axis=1).max() <= 1e-12


def test_log_gradient_matches_the_masked_formula_bit_for_bit(rng):
    sol = RadialLogSolution((0.3, 0.3), 0.2)
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(20000, 2)),
                          sol.center + 0.2 * np.stack([np.cos(ang),
                                                       np.sin(ang)], 1),
                          sol.center[None, :]])
    d = pts - sol.center
    rho_sq = (d * d).sum(-1)
    outside = rho_sq > sol.radius ** 2
    want = np.zeros_like(d)
    want[outside] = -d[outside] / rho_sq[outside, None]
    assert sol.gradient(pts).tobytes() == want.tobytes()


def test_fe_function_rejects_bad_length():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FeFunction(mesh, np.zeros(mesh.num_vertices + 1))
