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
from mollifem.problems import (RadialLogSolution, SineProduct, lshape_problem,
                               square_problem)

from conftest import (basis_gradients, circle_meets_triangles, csr,
                      element_matrix_form, jittered_mesh, sibling_refinements,
                      uniform_square_system, warm_target)


class Poly2D:
    """Exact-solution stand-in built from a sympy expression; `kink`, a
    circle (center, radius), makes the error pass treat it as kinked there."""

    def __init__(self, expr, kink=None):
        self.kink = kink
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
    k = csr(form_matrix(mesh))
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
    return (keep @ csr(form_matrix(mesh)) @ keep
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
    got = csr(assemble(mesh, None).matrix)
    want = _projected_form(mesh)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


def test_assembly_drops_the_exact_zeros_of_a_right_angled_grid():
    # the off-diagonal of each square's diagonal edge vanishes exactly
    mesh = rect_mesh(7, 5)
    assert (csr(form_matrix(mesh)).data == 0).any()
    assert (csr(assemble(mesh, None).matrix).data != 0).all()


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stiffness_and_gradients_match_the_element_formulas(domain, rounds,
                                                            seed):
    # no coordinate is dyadic, so the edge weights round differently from
    # the element matrices; the gradients keep the element formula's
    # operations and its einsum's summation order, and so its bits
    mesh = jittered_mesh(domain, rounds, seed)
    got, want = csr(form_matrix(mesh)), element_matrix_form(mesh)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    scale = np.abs(want.data).max()
    assert np.abs(got.data - want.data).max() <= 1e-13 * scale
    vals = np.random.default_rng(seed).standard_normal(mesh.num_vertices)
    grads = FeFunction(mesh, vals).cell_gradients
    ref = np.einsum("mdi,mi->md", basis_gradients(mesh), vals[mesh.triangles])
    assert grads.shape == ref.shape and grads.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stiffness_pairs_are_unique_and_mirrored(domain, rounds, seed):
    # the matrix skips CSR's sort and duplicate sum: each directed
    # off-diagonal (i, j) comes once, with its mirror (j, i) of the same
    # bits, and the product matches scipy's CSR of the same triplets
    mesh = jittered_mesh(domain, rounds, seed)
    _, i, j, v = fem._stiffness(mesh)
    n = mesh.num_vertices
    key = i * n + j
    order = np.argsort(key)
    assert (i != j).all() and (np.diff(key[order]) > 0).all()
    mirror = order[np.searchsorted(key[order], j * n + i)]
    np.testing.assert_array_equal(key[mirror], j * n + i)
    assert v[mirror].tobytes() == v.tobytes()
    x = np.random.default_rng(seed).standard_normal(n)
    for mat in (form_matrix(mesh), assemble(mesh, None).matrix):
        got, want = mat @ x, csr(mat) @ x
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _stacked_stiffness(mesh):
    """The stiffness triplets with (3, M) fancy-index copies of the corners
    and edge weights, joined by `np.append`: the oracle of the kernel that
    writes them edge by edge."""
    ex, ey = mesh.edge_vectors
    w = (ex[[1, 2, 0]] * ex[[2, 0, 1]] + ey[[1, 2, 0]] * ey[[2, 0, 1]]) \
        / (4.0 * mesh.areas)
    tw = mesh.twins.T
    v, out = np.where(tw >= 0, w + w.T.ravel()[tw], w), tw < 0
    t = mesh.triangles.T.astype(np.intp)
    a, b = t[[1, 2, 0]], t[[2, 0, 1]]
    i, j, v = np.append(a, b[out]), np.append(b, a[out]), np.append(v, v[out])
    return -np.bincount(i, v, mesh.num_vertices), i, j, v


def _stacked_gradients(w):
    """The cell gradients from one (2, 3, M) block of corner terms."""
    ex, ey = w.mesh.edge_vectors
    t = np.stack((-ey, ex)) / (2.0 * w.mesh.areas)
    t *= w.nodal_values[w.mesh.triangles.T]
    return ((t[:, 0] + t[:, 2]) + t[:, 1]).T


def _argsort_rank_bpx(system):
    """The BPX preconditioner with the inverse permutation by `argsort`."""
    d = system.matrix.diag
    free, level = ~system.mesh.boundary_vertex_mask, system.mesh.vertex_level
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level))
    rank = np.argsort(order)
    parents = rank[system.mesh.vertex_parents[order]]
    waves = [parents[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
    scale = np.where(free, 1.0 / d, 0.0)[order]

    def apply(r):
        x = r[order]
        scaled = []
        for lo, p in zip(ends[-2::-1], waves[::-1]):
            scaled.append(scale[:len(x)] * x)
            x = x[:lo] + np.bincount(p.ravel(), np.repeat(0.5 * x[lo:], 2),
                                     minlength=lo)
        z = scale[:len(x)] * x
        for p in waves:
            z = np.concatenate((z, 0.5 * (z[p[:, 0]] + z[p[:, 1]]))) \
                + scaled.pop()
        return np.where(free, z[rank], r)

    return apply


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["rect", "lshape", "graded"]),
       rounds=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_whole_mesh_kernels_match_the_stacked_formulas_bit_for_bit(
        domain, rounds, seed):
    # the stiffness triplets, the cell gradients and the preconditioner,
    # each against its formula on whole (3, M) blocks; signed zeros among
    # the nodal values check that -e_y / 2|T| and e_y / -2|T| agree
    if domain == "graded":
        mesh = _corner_graded(lshape_mesh(2), 6)
    else:
        mesh = jittered_mesh(domain, rounds, seed)
    for got, want in zip(fem._stiffness(mesh), _stacked_stiffness(mesh)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(mesh.num_vertices)
    vals[rng.random(len(vals)) < 0.3] = 0.0
    vals[rng.random(len(vals)) < 0.1] = -0.0
    w = FeFunction(mesh, vals)
    want = _stacked_gradients(w)
    assert w.cell_gradients.shape == want.shape
    assert w.cell_gradients.tobytes() == want.tobytes()
    system = assemble(mesh, None)
    r = rng.standard_normal(mesh.num_vertices)
    got = fem._bpx_preconditioner(system)(r)
    assert got.tobytes() == _argsort_rank_bpx(system)(r).tobytes()


def test_stiffness_peak_memory_per_cell():
    """`_stiffness` on 100,352 cells, its geometry cached: the traced peak
    above entry reads 108 B a cell (195 with (3, M) fancy-index copies
    joined by `np.append`), of which the output holds 76: i, j and v at 24
    B each, the diagonal at 4 (a vertex to 2 cells)."""
    mesh = rect_mesh(224, 224)
    mesh.areas  # the edge vectors and areas, cached before entry
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fem._stiffness(mesh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 170 * mesh.num_cells


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
    got, want = csr(form_matrix(mesh)), element_matrix_form(mesh)
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
    direct = spla.spsolve(csr(system.matrix).tocsc(), system.rhs)
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
    diag = system.matrix.diag.copy()
    diag[np.flatnonzero(~system.mesh.boundary_vertex_mask)[0]] = 0.0
    mat = dataclasses.replace(system.matrix, diag=diag)
    with pytest.raises(NumericalError, match="non-positive diagonal"):
        solve_galerkin(dataclasses.replace(system, matrix=mat))


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
    mat = dataclasses.replace(system.matrix, v=3.0 * system.matrix.v)
    return dataclasses.replace(system, matrix=mat)


@pytest.mark.parametrize("target", [None, 1e-6])
@pytest.mark.parametrize("fault", ["indefinite", "nan load"])
def test_solve_raises_on_a_cg_breakdown(fault, target):
    system = uniform_square_system(3)
    if fault == "indefinite":
        system = _indefinite(system)
        assert np.linalg.eigvalsh(csr(system.matrix).toarray()).min() < 0
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


def reference_energy_error(u, w: FeFunction) -> float:
    """The direct quadrature sum, Laplace form only: every active cell is
    integrated afresh, cells that u's kink circle meets (by the oracle
    `circle_meets_triangles`) by the subdivided rule of depth
    `fem._KINK_DEPTH`, and each point's |grad(u - w)|^2 is summed."""
    mesh = w.mesh
    depths = np.zeros(mesh.num_cells, dtype=np.int64)
    if getattr(u, "kink", None) is not None:
        hit = circle_meets_triangles(*u.kink, mesh.coords[mesh.triangles])
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
    u = Poly2D(sympy.sympify("x**3 - x*y + y**2"), kink=(center, radius))
    integ = ErrorIntegrator(u)
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    for _ in range(3):
        w = solve_galerkin(assemble(mesh, g))
        direct = reference_energy_error(u, w)
        cached = integ(w)
        assert abs(cached - direct) <= 1e-10 * max(direct, 1.0)
        mesh = mesh.refine(range(0, mesh.num_cells, 5))
    # a second integrator starting cold on the final mesh agrees too
    w = solve_galerkin(assemble(mesh, g))
    cold = ErrorIntegrator(u)(w)
    assert abs(cold - integ(w)) <= 1e-12 * max(cold, 1.0)
    # sibling refinements put different triangles in the same new rows
    first, second = sibling_refinements(rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0),
                                        curve)
    integ(FeFunction(first, u.value(first.coords)))
    w = FeFunction(second, u.value(second.coords))
    cold = ErrorIntegrator(u)(w)
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
    u = Poly2D(sympy.sympify("x**3 - x*y + y**2"), kink=((0.5, 0.5), 0.25))
    mesh = rect_mesh(6, 6, 0.0, 0.0, 1.0, 1.0)
    mesh = mesh.refine(range(0, mesh.num_cells, 2))
    positions = np.arange(mesh.num_cells)
    kink_leaves, batches = fem._kink_leaves, []

    def counted(*args):
        batches.append(len(args[1]))
        return kink_leaves(*args)

    monkeypatch.setattr(fem, "_kink_leaves", counted)
    # one batch, then smaller ones; a cell the circle meets counts the
    # 6 * 4**depth points it can need at most, any other 6. Batches of
    # 3 * 1,536 points hold at most 3 crossed cells or 768 others; at 60
    # points the marking pass runs in batches of 10 cells too
    moments, cuts = [], []
    for size in (1 << 30, 3 * 6 * 4 ** fem._KINK_DEPTH, 60):
        monkeypatch.setattr(quadr, "POINT_CHUNK", size)
        batches.clear()
        moments.append(ErrorIntegrator(u)._cell_moments(mesh, positions))
        cuts.append(len(batches))
    for got in moments[1:]:
        np.testing.assert_array_equal(moments[0], got)
    assert cuts[0] == 1 and 7 < cuts[1] < cuts[2]


def test_cold_error_pass_holds_about_one_batch():
    """A cold pass holds one batch of `quadrature.POINT_CHUNK` points (2^18:
    4 MB of points and 4 MB of exact gradients at most), not the points of
    the whole cell set. On the square problem's mesh resolved to h_T <=
    2^-9 along its 4,096-gon (4,636 cells, 990 of them met by the circle,
    up to 1,536 points each) the traced peak reads 14.2 MB with batches of
    2^20 points and 5.0 MB with batches of 2^18 (16.0 and 5.3 MB when each
    level's points were mapped on their own and then joined, and the exact
    gradient was copied). On `lshape`'s initial mesh (96 cells, 8 met) it
    reads 0.5 MB; it read 2.4 MB when the pass also clipped the curve's
    16,400 pairs on those 8 cells."""
    square = square_problem(n_segments=4096)
    lshape = lshape_problem()
    cases = [(square, interface_loop(square.initial_mesh(), square.curve,
                                     2.0 ** -8), 4636, 990, 10e6),
             (lshape, lshape.initial_mesh(), 96, 8, 6e6)]
    for problem, mesh, cells, crossed, bound in cases:
        assert mesh.num_cells == cells
        assert circle_meets_triangles(*problem.exact.kink, mesh.coords[
            mesh.triangles]).sum() == crossed
        w = FeFunction(mesh, problem.exact.value(mesh.coords))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ErrorIntegrator(problem.exact)(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound


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
              Poly2D(sympy.sympify("x**3 - x*y + y**2"),
                     kink=(center, radius))):
        w = FeFunction(mesh, u.value(mesh.coords) + 1e-3 * mesh.coords[:, 0])
        direct = reference_energy_error(u, w)
        assert abs(ErrorIntegrator(u)(w) - direct) <= 1e-12 * direct


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
# the arc, up to the 1024-gon's sagitta outside the chord, crosses level-2
# to level-4 children here that the chord does not
@example(kind="crossed", seg=284, t=0.5, size=1e-4, turn=0.0,
         jitter=[0.0, 0.5, -0.875, 0.0])
@given(kind=st.sampled_from(["crossed", "touching", "missed"]),
       seg=st.integers(0, 1023), t=st.floats(0.0, 1.0),
       size=st.floats(1e-4, 1e-3), turn=st.floats(0.0, 2 * np.pi),
       jitter=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_kink_rule_matches_the_uniform_rule_on_one_cell(kind, seg, t, size,
                                                        turn, jitter):
    # cells of a resolved run's size (square-line ends with h about 1e-3 R
    # along the curve): crossed ones around a point of an inscribed
    # polygon, ones that touch the circle only at a polygon vertex from
    # outside, and ones it misses; the reference is the uniform depth-4
    # rule where the circle meets the cell (by the oracle) and the plain
    # 6-point rule elsewhere
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
    crossed = circle_meets_triangles(*u.kink, tri[None])[0]
    assert crossed == (kind != "missed")
    want = _uniform_moments(u, tri, fem._KINK_DEPTH if crossed else 0)
    got = ErrorIntegrator(u)._cell_moments(mesh, np.arange(1))[0]
    # relative to int_T |grad u|^2: a touching cell's V_T is a small
    # centred moment whose round-off is set by the gradient, not by V_T
    energy = want[0] + mesh.areas[0] * want[1:] @ want[1:]
    assert abs(got[0] - want[0]) <= 1e-12 * energy
    assert np.abs(got[1:] - want[1:]).max() \
        <= 1e-12 * np.sqrt(energy / mesh.areas[0])


class _CountingGradient:
    """Zero gradient, kinked on the circle `kink`, that counts the points it
    is asked for."""

    def __init__(self, kink):
        self.kink, self.points = kink, 0

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        self.points += len(pts)
        return np.zeros_like(pts)


def test_kink_rule_spends_points_only_along_the_curve():
    # a circle of the cell's size through the centroid, in 24 directions:
    # the crossed level-3 triangles are split into 6-point leaves, the rest
    # of the cell gets coarser 6-point rules; the uniform rule takes 1,536.
    # A circle about a corner that cuts off only that corner refines only
    # there.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]])
    mesh = Mesh.from_arrays(tri, np.array([[0, 1, 2]]))
    centroid = tri.mean(axis=0)

    def points(center, radius):
        u = _CountingGradient((center, radius))
        ErrorIntegrator(u)._cell_moments(mesh, np.arange(1))
        return u.points

    full = []
    for angle in np.linspace(0.1, 2 * np.pi + 0.1, 24, endpoint=False):
        d = np.array([np.cos(angle), np.sin(angle)])
        full.append(points(centroid - d, 1.0))
    assert 6 * 4 ** fem._KINK_DEPTH // 8 <= min(full) <= max(full) <= 480
    for corner in tri:
        assert points(corner, 0.3) <= 0.7 * min(full)


@settings(max_examples=60, deadline=None)
# a circle through a corner, and one that crosses the long bottom side
# twice near its middle
@example(center=[1.5, 0.5], radius=0.5 ** 0.5)
@example(center=[0.45, -0.9], radius=0.95)
@given(center=st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2),
       radius=st.floats(0.01, 1.0))
def test_kink_leaves_reach_every_child_the_circle_meets(center, radius):
    # every depth-4 triangle of the uniform split that the circle meets (by
    # the oracle, clear of its slack) is a depth-4 leaf of the kink rule; a
    # flat cell, so that the children are far from equilateral
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.15]])
    kids = tri[None]
    for _ in range(fem._KINK_DEPTH):
        kids = quadr.split4(kids).reshape(-1, 3, 2)
    near = kids[circle_meets_triangles(center, radius, kids, slack=-1e-6)]
    assume(len(near) > 0)
    one = np.zeros(1, dtype=np.int64)
    owner, pts, scale = fem._kink_leaves(
        Mesh.from_arrays(tri, [[0, 1, 2]]), one, (np.array(center), radius),
        np.ones(1, dtype=bool))
    deep = pts[scale == 0.25 ** fem._KINK_DEPTH].mean(axis=1)
    dist = np.linalg.norm(near.mean(axis=1)[:, None] - deep[None], axis=2)
    assert dist.min(axis=1).max() <= 1e-12


def _masked_log_gradient(sol, pts: np.ndarray) -> np.ndarray:
    """-d / |d|^2 with d = pts - center where |d| > R, else 0."""
    d = pts - sol.center
    rho_sq = (d * d).sum(-1)
    outside = rho_sq > sol.radius ** 2
    want = np.zeros_like(d)
    want[outside] = -d[outside] / rho_sq[outside, None]
    return want


def test_log_gradient_matches_the_masked_formula_bit_for_bit(rng):
    sol = RadialLogSolution((0.3, 0.3), 0.2)
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(20000, 2)),
                          sol.center + 0.2 * np.stack([np.cos(ang),
                                                       np.sin(ang)], 1),
                          sol.center[None, :]])
    want = _masked_log_gradient(sol, pts)
    assert sol.gradient(pts).tobytes() == want.tobytes()


def test_corner_gradient_matches_the_stacked_formula_bit_for_bit(rng):
    # the gradient with the reentrant-corner mode as it was written, each
    # power and column formed on its own and stacked, is the oracle: on
    # random points, the circle, its centre, the origin and the branch
    # cut phi = pi/2, where no expression may divide by zero
    sol = RadialLogSolution((0.5, -0.5), 0.2, corner_mode=True)
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    cut = np.stack([np.zeros(50), rng.uniform(0.0, 1.0, 50)], 1)
    pts = np.concatenate([rng.uniform(-1.0, 1.0, size=(20000, 2)),
                          sol.center + 0.2 * np.stack([np.cos(ang),
                                                       np.sin(ang)], 1),
                          sol.center[None, :], np.zeros((1, 2)), cut])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    phi = np.where(phi < 0.5 * np.pi - 1e-14, phi + 2.0 * np.pi, phi)
    safe = np.maximum(np.sqrt((pts * pts).sum(-1)), 1e-300)
    arg = (2.0 / 3.0) * (phi - 0.5 * np.pi)
    dr = (2.0 / 3.0) * safe ** (-1.0 / 3.0) * np.sin(arg)
    dt = (2.0 / 3.0) * safe ** (-1.0 / 3.0) * np.cos(arg)
    want = _masked_log_gradient(sol, pts) + np.stack(
        [dr * np.cos(phi) - dt * np.sin(phi),
         dr * np.sin(phi) + dt * np.cos(phi)], axis=-1)
    assert (phi[-50:] == 0.5 * np.pi).all()
    assert sol.gradient(pts).tobytes() == want.tobytes()


def test_fe_function_rejects_bad_length():
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FeFunction(mesh, np.zeros(mesh.num_vertices + 1))
