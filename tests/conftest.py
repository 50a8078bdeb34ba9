"""Shared helpers: brute-force reference quadratures used as oracles,
sibling meshes for per-cell cache checks, and uniformly refined systems
for solver checks.

The reference integrators here are deliberately independent of the package's
quadrature module: plain tensor Gauss-Legendre grids mapped onto triangles.
Slow and simple beats clever when the point is to cross-check.
"""
from __future__ import annotations

import numpy as np
import pytest

from mollifem.fem import DiscreteSystem, assemble
from mollifem.forcing import DensityForcing
from mollifem.mesh import Mesh, interface_cells, rect_mesh


@pytest.fixture(scope="session")
def square_66k() -> DiscreteSystem:
    """`uniform_square_system(12)`: 66,049 dofs, built once per session."""
    return uniform_square_system(12)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def gauss_grid_on_triangle(tri: np.ndarray, n: int):
    """Tensor Gauss points and weights on one triangle via the Duffy map.

    tri is (3, 2). Returns points (n*n, 2) and weights summing to the area.
    """
    x, wx = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    wx = 0.5 * wx
    u, v = np.meshgrid(x, x, indexing="ij")
    w = np.outer(wx, wx) * u  # Duffy Jacobian
    lam1 = 1.0 - u
    lam2 = u * v
    lam0 = 1.0 - lam1 - lam2
    bary = np.stack([lam0.ravel(), lam1.ravel(), lam2.ravel()], axis=1)
    pts = bary @ tri
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    return pts, 2.0 * area * w.ravel()


def integrate_on_mesh(mesh: Mesh, func, n: int = 12) -> float:
    """Integral of func over all active cells by per-cell tensor Gauss."""
    total = 0.0
    for c in range(mesh.num_cells):
        pts, w = gauss_grid_on_triangle(mesh.cell_coords[c], n)
        total += float(w @ np.asarray(func(pts), dtype=np.float64))
    return total


def cell_l2_norms(mesh: Mesh, func, n: int = 12) -> np.ndarray:
    """Per-cell L2 norms of func by the same brute-force rule."""
    out = np.empty(mesh.num_cells)
    for c in range(mesh.num_cells):
        pts, w = gauss_grid_on_triangle(mesh.cell_coords[c], n)
        vals = np.asarray(func(pts), dtype=np.float64)
        out[c] = np.sqrt(max(float(w @ (vals * vals)), 0.0))
    return out


def sibling_refinements(mesh: Mesh, curve) -> tuple[Mesh, Mesh]:
    """Two refinements of `mesh` whose new cells share rows but not
    triangles.

    Each sibling bisects a different cell that meets the curve, then its
    four newest cells, so both siblings create cells near the curve in the
    same trailing rows.
    """
    hit = interface_cells(mesh, curve)
    siblings = []
    for cid in (hit[0], hit[5]):
        fine = mesh.refine([cid])
        siblings.append(fine.refine(range(fine.num_cells - 4, fine.num_cells)))
    return siblings[0], siblings[1]


def uniform_square_system(passes: int) -> DiscreteSystem:
    """Laplace system with a smooth load on the unit square, `rect_mesh(4, 4)`
    after `passes` uniform bisection passes, homogeneous Dirichlet data."""
    mesh = rect_mesh(4, 4).uniform_refine(passes)
    g = DensityForcing(lambda p: 1.0 + np.sin(3.0 * p[:, 0]) * p[:, 1])
    return assemble(mesh, g)
