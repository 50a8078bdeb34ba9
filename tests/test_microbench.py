"""Layer micro-benchmarks (pytest-benchmark): each times one layer on a fixed
input, so a regression there shows without running a whole workload.

    pytest tests/test_microbench.py --benchmark-only
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from mollifem.afem import interface_loop, mark
from mollifem.curves import Curve, interface_cells
from mollifem.estimate import estimate, jump_indicator_sq
from mollifem.fem import ErrorIntegrator, FeFunction, assemble, solve_galerkin
from mollifem.forcing import DensityForcing, Kernel, RegularizedForcing
from mollifem.mesh import rect_mesh
from mollifem.problems import SineProduct, lshape_problem, square_problem
from mollifem.vtkio import write_vtk

from conftest import warm_target

R = 0.1024  # the radius of tau = 0.32, stage 2 of the lshape schedule


@pytest.fixture(scope="module")
def lshape_at_r():
    problem = lshape_problem()
    return problem, interface_loop(problem.initial_mesh(), problem.curve, R)


def test_cold_regularized_forcing(benchmark, lshape_at_r):
    problem, mesh = lshape_at_r

    def cold():
        g = RegularizedForcing(problem.curve, Kernel("radial_c1"), R)
        return g.load_vector(mesh), g.data_indicator(mesh)

    # a fixed round count keeps the Tier-1 cost at about half a second
    rhs, d = benchmark.pedantic(cold, rounds=15, warmup_rounds=1)
    # the load carries the line mass f |gamma| = 2 pi (f = 1 / radius)
    assert abs(rhs.sum() - 2.0 * np.pi) < 1e-4
    assert np.all(d >= 0.0) and d.max() > 0.0


@pytest.fixture(scope="module")
def lshape_resolved(lshape_at_r):
    # resolved to h_T <= R/32 along the curve: there, as on the workloads,
    # most near cells are far smaller than r, while on lshape_at_r every
    # near cell has h/r >= 0.43
    problem, mesh = lshape_at_r
    return problem, interface_loop(mesh, problem.curve, R / 16)


def test_cold_regularized_forcing_on_a_resolved_mesh(benchmark,
                                                     lshape_resolved):
    problem, mesh = lshape_resolved
    points = []

    def cold():
        points.clear()
        g = RegularizedForcing(problem.curve, Kernel("radial_c1"), R)
        inner = g.eval
        g.eval = lambda pts: points.append(len(pts)) or inner(pts)
        return g, g.load_vector(mesh), g.data_indicator(mesh)

    # a fixed round count keeps the Tier-1 cost well under a second
    g, rhs, d = benchmark.pedantic(cold, rounds=8, warmup_rounds=1)
    assert abs(rhs.sum() - 2.0 * np.pi) < 1e-4
    assert np.all(d >= 0.0) and d.max() > 0.0
    # the graded rule takes 0.15 of the points of a uniform depth-2
    # (96-point) rule here
    near = g._near(mesh, np.arange(mesh.num_cells))
    assert sum(points) <= 96 * near.sum() / 4


def test_cold_density_forcing_on_100k_cells(benchmark):
    # the forcing layer of the plain (manufactured) runs
    mesh = rect_mesh(224, 224)  # 100,352 cells

    def cold():
        g = DensityForcing(lambda p: 1.0 + np.sin(3.0 * p[:, 0]) * p[:, 1])
        return g.load_vector(mesh), g.data_indicator(mesh)

    # a fixed round count keeps the Tier-1 cost well under a second
    rhs, d = benchmark.pedantic(cold, rounds=5, warmup_rounds=1)
    # the load sums to the integral of the density, 1 + (1 - cos 3) / 6
    assert abs(rhs.sum() - (1.0 + (1.0 - np.cos(3.0)) / 6.0)) < 1e-12
    assert np.all(d > 0.0)


def _fresh(mesh):
    """Setup for a round: a copy of `mesh` with no cached geometry (its edge
    vectors, areas and boundary mask are paid for inside the round), the same
    cells and serials."""
    return (replace(mesh),), {}


def test_assemble_on_100k_cells(benchmark):
    # the stiffness matrix, the boundary lift and the constrained matrix
    mesh = rect_mesh(224, 224)  # 100,352 cells

    def plane(p):
        return 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]

    # a fixed round count keeps the Tier-1 cost well under a second
    system = benchmark.pedantic(lambda m: assemble(m, None, plane),
                                setup=lambda: _fresh(mesh), rounds=8,
                                warmup_rounds=1)
    # the plane is discrete harmonic: its free values solve the system
    u = plane(mesh.coords)
    res = system.matrix @ u - system.rhs
    assert np.abs(res).max() <= 1e-12 * np.abs(system.rhs).max()


def test_estimate_on_100k_cells(benchmark):
    # the gradients, the jumps and the data indicator of a warm forcing
    mesh = rect_mesh(224, 224)  # 100,352 cells
    vals = np.sin(3.0 * mesh.coords[:, 0]) * mesh.coords[:, 1]
    g = DensityForcing(lambda p: 1.0 + p[:, 0])
    g.data_indicator(mesh)  # the records, once; a copy shares its serials

    # a fixed round count keeps the Tier-1 cost well under a second
    ind = benchmark.pedantic(lambda m: estimate(FeFunction(m, vals), g),
                             setup=lambda: _fresh(mesh), rounds=8,
                             warmup_rounds=1)
    assert np.all(ind.data_sq > 0.0) and ind.global_jump > 0.0


def test_mark_on_100k_cells(benchmark):
    # Doerfler marking of the jump indicators of a peak: 11,069 of the
    # 100,352 cells at theta = 0.7, about the share of `smooth-plain`'s
    # largest passes
    mesh = rect_mesh(224, 224)
    x, y = mesh.coords.T
    vals = np.exp(-20.0 * ((x - 0.3) ** 2 + (y - 0.6) ** 2))
    eta = np.sqrt(jump_indicator_sq(FeFunction(mesh, vals)))

    # a fixed round count keeps the Tier-1 cost well under half a second
    marked = benchmark.pedantic(mark, args=(eta, 0.7), rounds=20,
                                warmup_rounds=1)
    sq = np.sort(eta * eta)[::-1]
    assert len(marked) == 11069 and len(np.unique(marked)) == len(marked)
    assert sq[:len(marked)].sum() >= 0.49 * sq.sum() > sq[:len(marked) - 1].sum()


def test_refine_1k_marked_on_100k_cells(benchmark):
    mesh = rect_mesh(224, 224)  # 100,352 cells
    marked = np.arange(0, mesh.num_cells, 100)  # 1,004 cells spread over the mesh

    # a fixed round count keeps the Tier-1 cost well under a second
    fine = benchmark.pedantic(mesh.refine, args=(marked,), rounds=20,
                              warmup_rounds=1)
    assert fine.history[-1].marked == len(marked)
    assert fine.num_cells == mesh.num_cells + fine.history[-1].bisections


def test_refine_every_cell_of_32k_cells(benchmark):
    # the bulk regime next to the closure-heavy one above
    mesh = rect_mesh(128, 128)  # 32,768 cells

    # a fixed round count keeps the Tier-1 cost well under a second
    fine = benchmark.pedantic(mesh.refine, args=(range(mesh.num_cells),),
                              rounds=10, warmup_rounds=1)
    assert fine.num_cells == 2 * mesh.num_cells
    assert fine.history[-1].bisections == mesh.num_cells


def test_cg_solve_on_66k_dofs(benchmark, square_66k):
    # rect_mesh(4, 4) after 12 uniform passes; about 0.15 s a solve, so a
    # fixed round count keeps the Tier-1 cost under a second
    w = benchmark.pedantic(solve_galerkin, args=(square_66k,), rounds=4,
                           warmup_rounds=1)
    res = square_66k.rhs - square_66k.matrix @ w.nodal_values
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(square_66k.rhs)


def test_warm_target_solve_on_66k_dofs(benchmark, square_66k):
    # the adaptive driver's solve: from the tight solution one pass coarser,
    # prolonged, to LAMBDA_ALG times its estimator; about 8 iterations
    guess, target = warm_target(12)
    w = benchmark.pedantic(solve_galerkin, args=(square_66k, guess, target),
                           rounds=8, warmup_rounds=1)
    assert w.residual <= target


def test_cold_error_integrator_on_curve_cells(benchmark):
    # the square problem with a 4,096-gon, the cells it crosses bisected
    # 6 times: 1,790 cells, 352 of them crossed, h about 0.03 R along it
    problem = square_problem(n_segments=4096)
    mesh = problem.initial_mesh()
    for _ in range(6):
        mesh = mesh.refine(interface_cells(mesh, problem.curve))
    w = FeFunction(mesh, problem.exact.value(mesh.coords))

    # a fixed round count keeps the Tier-1 cost well under a second
    err = benchmark.pedantic(lambda: ErrorIntegrator(problem.exact)(w),
                             rounds=8, warmup_rounds=1)
    assert 0.0 < err < 0.5


def test_cold_error_integrator_on_coarse_curve_cells(benchmark):
    # `lshape`'s initial mesh: the circle meets 8 of its 96 cells, each
    # 1,536 points at most, so one batch holds the pass
    problem = lshape_problem()
    mesh = problem.initial_mesh()
    w = FeFunction(mesh, problem.exact.value(mesh.coords))

    # a fixed round count keeps the Tier-1 cost well under a second
    err = benchmark.pedantic(lambda: ErrorIntegrator(problem.exact)(w),
                             rounds=8, warmup_rounds=1)
    # the interpolant's error on these 96 cells reads 1.27164
    assert 1.27 < err < 1.275


def test_cold_error_integrator_without_a_curve(benchmark):
    # the error pass of the plain runs: no cell is crossed, so every cell
    # takes the 6-point rule that starts the kink rule's level loop
    mesh = rect_mesh(8, 8).uniform_refine(10)  # 131,072 cells
    u = SineProduct()
    w = FeFunction(mesh, u.value(mesh.coords))

    # a fixed round count keeps the Tier-1 cost well under a second
    err = benchmark.pedantic(lambda: ErrorIntegrator(u)(w), rounds=5,
                             warmup_rounds=1)
    # the interpolant's error is O(h): 0.0273 on a quarter of the cells
    assert 0.0 < err < 0.02


def test_cold_curve_hits(benchmark, lshape_resolved):
    # the curve's incidence on 90,260 cells, 2,792 of them crossed: as on
    # the workloads' refined meshes, most cells are far from the curve
    problem, mesh = lshape_resolved
    mesh = mesh.uniform_refine(4)
    curve = problem.curve

    def fresh_curve():
        # a copy of the curve per round: its midpoint grid and incidence are
        # paid for inside the round
        return (Curve(curve.points, curve.f, curve.closed),), {}

    # a fixed round count keeps the Tier-1 cost well under a second
    cell, seg, t0, t1 = benchmark.pedantic(lambda c: c.hits(mesh),
                                           setup=fresh_curve, rounds=5,
                                           warmup_rounds=1)
    # the pieces of the closed curve, which lies inside the domain, add up
    # to its length
    length = ((t1 - t0) * curve.seg_lengths[seg]).sum()
    assert abs(length - curve.total_length) <= 1e-12 * curve.total_length
    assert len(np.unique(cell)) == 2792


def test_write_vtk(benchmark, tmp_path):
    # the CLI's output: one point field and four cell fields
    mesh = rect_mesh(16, 16).uniform_refine(8)  # 131,072 cells
    vals = np.sin(3.0 * mesh.coords[:, 0]) * mesh.coords[:, 1]
    cell = np.linspace(0.0, 1.0, mesh.num_cells)
    path = tmp_path / "solution.vtk"

    def write():
        write_vtk(path, mesh, point_data={"solution": vals},
                  cell_data={"generation": mesh.generation,
                             "indicator_total": cell, "indicator_jump": cell,
                             "indicator_data": cell})

    # a fixed round count keeps the Tier-1 cost well under a second
    benchmark.pedantic(write, rounds=5, warmup_rounds=1)
    # 8 bytes a coordinate or field value, 4 an int, and 432 bytes of
    # keyword lines and block newlines
    n, m = mesh.num_vertices, mesh.num_cells
    assert path.stat().st_size == 24 * n + 20 * m + 8 * n + 32 * m + 432
