"""Shared helpers: brute-force reference quadratures, the corner-based
element formulas, an edge-by-edge segment-triangle predicate, the per-pair
segment clip and an exact cell-support test used as oracles, jittered
meshes and sibling meshes for per-cell checks, and uniformly refined
systems with the adaptive driver's warm starts for solver checks.

The reference integrators here are deliberately independent of the package's
quadrature module: plain tensor Gauss-Legendre grids mapped onto triangles.
Slow and simple beats clever when the point is to cross-check.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from mollifem.curves import interface_cells
from mollifem.estimate import estimate
from mollifem.fem import (LAMBDA_ALG, DiscreteSystem, assemble, prolong,
                          solve_galerkin)
from mollifem.forcing import DensityForcing
from mollifem.geometry import _REL_EPS, _TOUCH, cross2
from mollifem.mesh import Mesh, lshape_mesh, rect_mesh


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
        pts, w = gauss_grid_on_triangle(mesh.coords[mesh.triangles[c]], n)
        total += float(w @ np.asarray(func(pts), dtype=np.float64))
    return total


def cell_l2_norms(mesh: Mesh, func, n: int = 12) -> np.ndarray:
    """Per-cell L2 norms of func by the same brute-force rule."""
    out = np.empty(mesh.num_cells)
    for c in range(mesh.num_cells):
        pts, w = gauss_grid_on_triangle(mesh.coords[mesh.triangles[c]], n)
        vals = np.asarray(func(pts), dtype=np.float64)
        out[c] = np.sqrt(max(float(w @ (vals * vals)), 0.0))
    return out


# -- the element formulas from the corners -----------------------------------
# The package derives areas, gradients and stiffness from its cached edge
# vectors; these are the formulas it used on the corner coordinates before,
# kept as the oracle (`jittered_mesh` gives them meshes where rounding shows).


def corner_areas(mesh: Mesh) -> np.ndarray:
    """|T| per cell from corners 0, 1, 2: half the cross product of the
    edges leaving corner 0."""
    p = mesh.coords[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def basis_gradients(mesh: Mesh) -> np.ndarray:
    """(M, 2, 3): column i is the gradient of the hat function of corner i,
    perp(e_i) / 2|T| with e_i the edge opposite corner i."""
    p = mesh.coords[mesh.triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]],
                 axis=2)
    perp = np.stack([-e[:, 1, :], e[:, 0, :]], axis=1)
    perp /= (2.0 * corner_areas(mesh))[:, None, None]
    return perp


def element_matrix_form(mesh: Mesh) -> sp.csr_matrix:
    """The stiffness matrix from the 3 x 3 element matrices
    |T| grad(lambda_i) . grad(lambda_j), all nine entries of each cell."""
    grads = basis_gradients(mesh)
    k_loc = np.einsum("mdi,mdj->mij", grads, grads)
    k_loc *= corner_areas(mesh)[:, None, None]
    tri, n = mesh.triangles, mesh.num_vertices
    return sp.coo_matrix((k_loc.ravel(), (np.repeat(tri, 3, axis=1).ravel(),
                                          np.tile(tri, (1, 3)).ravel())),
                         shape=(n, n)).tocsr()


def jittered_mesh(domain: str, rounds: int, seed: int) -> Mesh:
    """`rect_mesh(5, 3)` or `lshape_mesh(2)` with each vertex moved by up to
    0.15 of a grid step along each axis, so no coordinate is dyadic, then
    `rounds` rounds of bisecting a random quarter of the cells."""
    rng = np.random.default_rng(seed)
    base = rect_mesh(5, 3) if domain == "rect" else lshape_mesh(2)
    step = 1.0 / 5.0 if domain == "rect" else 0.5
    mesh = Mesh.from_arrays(base.coords + rng.uniform(
        -0.15 * step, 0.15 * step, base.coords.shape), base.triangles)
    for _ in range(rounds):
        mesh = mesh.refine(rng.choice(mesh.num_cells,
                                      max(1, mesh.num_cells // 4),
                                      replace=False))
    return mesh


# -- the edge-by-edge segment-triangle predicate ----------------------------
# Inclusive ("touching counts") like the package's clip, but built from
# point-in-triangle and segment-segment tests, each with its own slack scaled
# by the cross products involved: the oracle for `Curve.hits`.


def points_in_triangles(p, t0, t1, t2):
    """Inclusive point-in-triangle test; triangles must be CCW oriented."""
    d0 = cross2(t1 - t0, p - t0)
    d1 = cross2(t2 - t1, p - t1)
    d2 = cross2(t0 - t2, p - t2)
    scale = np.abs(cross2(t1 - t0, t2 - t0))
    eps = _REL_EPS * scale
    return (d0 >= -eps) & (d1 >= -eps) & (d2 >= -eps)


def segments_intersect(a0, a1, b0, b1):
    """Inclusive segment-segment intersection, collinear overlaps included."""
    r = a1 - a0
    s = b1 - b0
    d1 = cross2(r, b0 - a0)
    d2 = cross2(r, b1 - a0)
    d3 = cross2(s, a0 - b0)
    d4 = cross2(s, a1 - b0)
    lr = np.sqrt((r * r).sum(-1))
    ls = np.sqrt((s * s).sum(-1))
    eps = _REL_EPS * (lr * ls + lr + ls)

    straddle_b = (np.minimum(d1, d2) <= eps) & (np.maximum(d1, d2) >= -eps)
    straddle_a = (np.minimum(d3, d4) <= eps) & (np.maximum(d3, d4) >= -eps)
    hit = straddle_a & straddle_b

    collinear = (np.abs(d1) <= eps) & (np.abs(d2) <= eps)
    if np.any(collinear):
        # Project b endpoints onto a and test 1D interval overlap.
        rr = (r * r).sum(-1)
        tb0 = ((b0 - a0) * r).sum(-1)
        tb1 = ((b1 - a0) * r).sum(-1)
        lo = np.minimum(tb0, tb1)
        hi = np.maximum(tb0, tb1)
        teps = eps * (lr + 1.0)
        overlap = (hi >= -teps) & (lo <= rr + teps)
        # Degenerate a (point): on b's line, within b's projection.
        degen = rr <= (eps * eps)
        if np.any(degen):
            ss = (s * s).sum(-1)
            ta = ((a0 - b0) * s).sum(-1)
            on_b = (np.abs(d3) <= eps) & (ta >= -teps) & (ta <= ss + teps)
            overlap = np.where(degen & (ss > 0), on_b, overlap)
        hit = np.where(collinear, overlap, hit)
    return hit


_EDGE_CHUNK = 1 << 15  # pairs per batch of edge tests: bounds their temporaries


def segments_intersect_triangles(s0, s1, t0, t1, t2):
    """True where segment (s0,s1) meets the closed triangle (t0,t1,t2) (CCW)."""
    hit = points_in_triangles(s0, t0, t1, t2) | points_in_triangles(s1, t0, t1, t2)
    rest = np.nonzero(~hit)[0]
    for lo in range(0, len(rest), _EDGE_CHUNK):
        sel = rest[lo:lo + _EDGE_CHUNK]
        a0, a1, u0, u1, u2 = (x[sel] for x in (s0, s1, t0, t1, t2))
        hit[sel] = (segments_intersect(a0, a1, u0, u1)
                    | segments_intersect(a0, a1, u1, u2)
                    | segments_intersect(a0, a1, u2, u0))
    return hit


# -- the per-pair clip -------------------------------------------------------
# The package's clip before it read its factors once per cell and segment:
# every expression per pair, from the raw coordinates. The package's clip
# must give the same bits.


def clip_segments_to_triangles(p0, p1, t0, t1, t2):
    """Clip segments against closed CCW triangles (Cyrus-Beck half-planes).

    Returns (tmin, tmax, meets): the parameter interval of each segment
    inside its triangle, and the inclusive incidence test: meets is True
    where the segment meets the closed triangle, touching included, so the
    interval may be empty (tmax < tmin) by up to `_TOUCH`.
    """
    n = p0.shape[0]
    tmin = np.zeros(n)
    tmax = np.ones(n)
    ok = np.ones(n, dtype=bool)
    d = p1 - p0
    for e0, e1 in ((t0, t1), (t1, t2), (t2, t0)):
        ev = e1 - e0
        c0 = cross2(ev, p0 - e0)  # >= 0 means p0 inside this half-plane
        c1 = cross2(ev, d)
        scale = np.sqrt((ev * ev).sum(-1)) * (np.sqrt((d * d).sum(-1)) + 1.0)
        eps = _REL_EPS * (scale + np.abs(c0))
        par = np.abs(c1) <= eps
        tcut = np.where(par, 0.0, -c0 / np.where(par, 1.0, c1))
        # c1 > 0: constraint satisfied for t >= tcut; c1 < 0: for t <= tcut.
        tmin = np.where(~par & (c1 > 0), np.maximum(tmin, tcut), tmin)
        tmax = np.where(~par & (c1 < 0), np.minimum(tmax, tcut), tmax)
        ok &= ~(par & (c0 < -eps))
    return tmin, tmax, ok & (tmax - tmin >= -_TOUCH)


# -- cells within reach of the mollified forcing ----------------------------
# Candidate (cell, node) pairs from the centroid test that
# `RegularizedForcing._near` made before its bin grid took over (a node within
# reach + circumradius of the centroid, by a kd-tree of the nodes), then an
# exact test of each pair.


def cells_meeting_supports(mesh: Mesh, nodes: np.ndarray, r: float,
                           support: str, rows: np.ndarray) -> np.ndarray:
    """Mask over the cells at `rows`: cells whose closure meets the open
    support of a node, the ball of radius r or the square of half side r
    about it, by more than 1e-9 r."""
    reach = r if support == "ball" else np.sqrt(2.0) * r
    corners = mesh.coords[mesh.triangles[rows]]
    cent = corners.mean(axis=1)
    circ = np.hypot(*(corners - cent[:, None, :]).T).max(axis=0)
    near = cKDTree(nodes).query_ball_point(cent, reach + circ + 1e-12)
    cell = np.repeat(np.arange(len(rows)), [len(n) for n in near])
    p = nodes[np.concatenate([np.array(n, dtype=np.int64) for n in near])]
    tri = mesh.coords[mesh.triangles[rows[cell]]]
    edges = [(tri[:, k], tri[:, (k + 1) % 3]) for k in range(3)]
    if support == "ball":
        inside = np.ones(len(p), dtype=bool)
        dist = np.full(len(p), np.inf)
        for a, b in edges:
            e = b - a
            t = np.clip(((p - a) * e).sum(-1) / (e * e).sum(-1), 0.0, 1.0)
            dist = np.minimum(dist, np.hypot(*(a + t[:, None] * e - p).T))
            inside &= cross2(e, p - a) >= 0.0  # the cells are CCW
        meets = inside | (dist < r * (1.0 - 1e-9))
    else:
        # separating axes: x, y and the normals of the three edges
        axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        axes += [(b - a)[:, ::-1] * [1.0, -1.0] for a, b in edges]
        meets = np.ones(len(p), dtype=bool)
        for n in axes:
            n = np.broadcast_to(n, p.shape)
            t = (tri * n[:, None, :]).sum(-1)
            c = (p * n).sum(-1)
            half = r * np.abs(n).sum(-1)
            slack = 1e-9 * r * np.hypot(*n.T)
            meets &= (t.max(axis=1) > c - half + slack) \
                & (t.min(axis=1) < c + half - slack)
    out = np.zeros(len(rows), dtype=bool)
    out[cell[meets]] = True
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


def square_load() -> DensityForcing:
    """The smooth load of `uniform_square_system`, a fresh forcing."""
    return DensityForcing(lambda p: 1.0 + np.sin(3.0 * p[:, 0]) * p[:, 1])


def uniform_square_system(passes: int) -> DiscreteSystem:
    """Laplace system with `square_load` on the unit square, `rect_mesh(4, 4)`
    after `passes` uniform bisection passes, homogeneous Dirichlet data."""
    return assemble(rect_mesh(4, 4).uniform_refine(passes), square_load())


def warm_target(passes: int) -> tuple[np.ndarray, float]:
    """The adaptive driver's warm start and CG target for
    `uniform_square_system(passes)`: the tight solution one pass coarser,
    prolonged, and LAMBDA_ALG times its estimator."""
    coarse = uniform_square_system(passes - 1)
    w = solve_galerkin(coarse)
    fine = rect_mesh(4, 4).uniform_refine(passes)
    eta = estimate(w, square_load()).global_total
    return prolong(w, fine).nodal_values, LAMBDA_ALG * eta
