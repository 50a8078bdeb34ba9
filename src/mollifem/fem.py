"""P1 Galerkin discretization of the Laplace problem on conforming
triangulations.

Assembly of a(u,v) = int grad(u) . grad(v), non-homogeneous Dirichlet data
by nodal interpolation with symmetric elimination, a preconditioned CG
solve, and cached energy-norm error integration against closed-form
solutions whose gradient kinks across the curve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from . import quadrature as quadr
from .errors import NumericalError
from .mesh import CellCache, Mesh, fill_midpoints, interface_cells, vertex_levels

CG_RTOL = 5e-11


@dataclass
class DiscreteSystem:
    """Assembled linear system with boundary conditions eliminated.

    `matrix` is the SPD operator actually solved (identity rows/columns on
    boundary vertices); `raw_matrix`/`raw_rhs` keep the unconstrained form
    for residual checks.
    """

    mesh: Mesh
    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary_values: np.ndarray
    free_mask: np.ndarray
    raw_matrix: sp.csr_matrix
    raw_rhs: np.ndarray


@dataclass
class FeFunction:
    mesh: Mesh
    nodal_values: np.ndarray

    def __post_init__(self):
        if len(self.nodal_values) != self.mesh.num_vertices:
            raise ValueError("nodal value count does not match the mesh")

    @cached_property
    def cell_gradients(self) -> np.ndarray:
        """Constant gradient per active cell, shape (m, 2)."""
        return np.einsum("mdi,mi->md", _p1_gradients(self.mesh),
                         self.nodal_values[self.mesh.triangles])


def _p1_gradients(mesh: Mesh) -> np.ndarray:
    """Basis gradients per cell: (m, 2, 3) with column i = grad(lambda_i)."""
    p = mesh.cell_coords
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]],
                 axis=2)
    perp = np.stack([-e[:, 1, :], e[:, 0, :]], axis=1)
    return perp / (2.0 * mesh.areas)[:, None, None]


def form_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Unconstrained stiffness matrix of the Laplace form on the P1 space."""
    n = mesh.num_vertices
    tri = mesh.triangles
    grads = _p1_gradients(mesh)
    k_loc = np.einsum("mdi,mdj->mij", grads, grads) \
        * mesh.areas[:, None, None]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(mesh: Mesh, forcing, boundary_data=None) -> DiscreteSystem:
    """Build the discrete Laplace system for the forcing and Dirichlet data.

    `forcing` is any object with a ``load_vector(mesh)`` method (mollified,
    clipped-line or plain density). `boundary_data` maps boundary points
    (n, 2) to values; None means homogeneous.
    """
    n = mesh.num_vertices
    raw = form_matrix(mesh)
    raw_rhs = forcing.load_vector(mesh) if forcing is not None else np.zeros(n)

    bmask = mesh.boundary_vertex_mask
    ubc = np.zeros(n)
    if boundary_data is not None and bmask.any():
        ubc[bmask] = np.asarray(boundary_data(mesh.coords[bmask]),
                                dtype=np.float64)

    free = ~bmask
    rhs = raw_rhs - raw @ ubc
    rhs[bmask] = ubc[bmask]
    keep = sp.diags(free.astype(np.float64))
    mat = keep @ raw @ keep + sp.diags(bmask.astype(np.float64))
    return DiscreteSystem(mesh, mat.tocsr(), rhs, ubc, free, raw, raw_rhs)


def _bpx_preconditioner(system: DiscreteSystem) -> LinearOperator:
    """Additive multilevel (BPX) preconditioner over the bisection genealogy:
    B = F (sum_w P_w D^-1 P_w^T) F + E, with P_w the prolongation from the
    vertices of level <= w (`vertex_levels`; a new vertex takes the mean of
    its parents), D = diag(A), F and E the projections onto free and boundary
    vertices. cond(BA) is bounded on graded NVB grids (Chen-Nochetto-Xu 2012)."""
    d = system.matrix.diagonal()
    if np.any(d <= 0):
        raise NumericalError("non-positive diagonal in assembled matrix")
    free, level = system.free_mask, vertex_levels(system.mesh.vertex_parents)
    # sorted by level, the vertices of levels <= w are the first ends[w]
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level))
    rank = np.argsort(order)
    parents = rank[system.mesh.vertex_parents[order]]
    waves = [parents[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
    scale = np.where(free, 1.0 / d, 0.0)[order]

    def apply(r):
        x = r[order]  # a boundary vertex's parents are boundary vertices
        scaled = []
        for lo, p in zip(ends[-2::-1], waves[::-1]):  # restrict, finest first
            scaled.append(scale[:len(x)] * x)
            x = x[:lo] + np.bincount(p.ravel(), np.repeat(0.5 * x[lo:], 2),
                                     minlength=lo)
        z = scale[:len(x)] * x
        for p in waves:  # prolong, coarsest first
            z = np.concatenate((z, 0.5 * (z[p[:, 0]] + z[p[:, 1]]))) \
                + scaled.pop()
        return np.where(free, z[rank], r)

    return LinearOperator(system.matrix.shape, matvec=apply)


def solve_galerkin(system: DiscreteSystem, initial_guess=None) -> FeFunction:
    """CG solve to relative residual 1e-10; returns the FE solution."""
    mat, rhs = system.matrix, system.rhs
    n = mat.shape[0]
    x0 = None
    if initial_guess is not None and len(initial_guess) == n:
        x0 = np.where(system.free_mask, initial_guess, system.boundary_values)
    x, info = cg(mat, rhs, x0=x0, rtol=CG_RTOL, atol=0.0,
                 maxiter=10 * n, M=_bpx_preconditioner(system))
    if info != 0:
        res = np.linalg.norm(rhs - mat @ x) / max(np.linalg.norm(rhs), 1e-300)
        raise NumericalError(
            f"CG failed to converge (info={info}, relative residual {res:.3e})")
    x[~system.free_mask] = system.boundary_values[~system.free_mask]
    return FeFunction(system.mesh, x)


def prolong(fn: FeFunction, fine: Mesh) -> FeFunction:
    """Transfer nodal values to a refinement of fn's mesh (exact for P1)."""
    nc = fn.mesh.num_vertices
    nf = fine.num_vertices
    if nf < nc or not np.array_equal(fine.coords[:nc], fn.mesh.coords):
        raise ValueError("target mesh is not a refinement of the source mesh")
    vals = np.empty(nf)
    vals[:nc] = fn.nodal_values
    fill_midpoints(vals, fine.vertex_parents, nc)
    return FeFunction(fine, vals)


_KINK_DEPTH = 4
_POINT_CHUNK = 1 << 20  # exact-gradient points per ErrorIntegrator batch


def energy_error(u_exact, w: FeFunction, curve=None) -> float:
    """Energy-norm distance between an exact solution and a FE function,
    by a one-shot ErrorIntegrator."""
    return ErrorIntegrator(u_exact, curve)(w)


class ErrorIntegrator:
    """Energy-norm error |u - w|_{H^1} for FE functions on refined meshes.

    Per cell T it caches the mean gradient m_T of the exact solution and
    V_T = int_T |grad u - m_T|^2, which depend on geometry alone. A P1
    function with gradient g on T then has int_T |grad(u - w)|^2 =
    V_T + |T| |m_T - g|^2: a sum of two nonnegative terms, so no exact
    quadrature is repeated and no large moments cancel. Cells crossed by the
    curve get a recursively subdivided rule so the kink of grad(u) along it
    is integrated accurately.
    """

    def __init__(self, u_exact, curve=None):
        self.exact = u_exact
        self.curve = curve
        self._moments = CellCache((3,))  # V_T, m_T

    def _cell_moments(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """(V_T, m_T) of the active cells at `positions`, shape (n, 3)."""
        out = np.empty((len(positions), 3))
        depths = np.zeros(len(positions), dtype=np.int64)
        if self.curve is not None:
            hit = interface_cells(mesh, self.curve, positions)
            where = np.searchsorted(mesh.active_id_array[positions], hit)
            depths[where] = _KINK_DEPTH
        coords = mesh.cell_coords[positions]
        areas = mesh.areas[positions]
        for d in np.unique(depths):
            grp = np.nonzero(depths == d)[0]
            bary, wq = quadr.subdivided_rule(int(d))
            # batches of whole cells; the sums run along each cell's own
            # points, so the batch size cannot change a moment
            step = max(1, _POINT_CHUNK // len(wq))
            for lo in range(0, len(grp), step):
                sel = grp[lo:lo + step]
                pts = quadr.triangle_points(coords[sel], bary)
                gu = np.array(self.exact.gradient(pts.reshape(-1, 2)),
                              dtype=np.float64).reshape(len(sel), -1, 2)
                mean = np.einsum("mqd,q->md", gu, wq)
                out[sel, 1:] = mean
                # centre our own copy in place: one more batch-sized array
                # would add 16 MB to the peak RSS
                gu -= mean[:, None]
                out[sel, 0] = areas[sel] * np.einsum("mqd,mqd,q->m", gu, gu,
                                                     wq)
        return out

    def __call__(self, w: FeFunction) -> float:
        mesh = w.mesh
        m = self._moments.values(mesh, partial(self._cell_moments, mesh))
        d = m[:, 1:] - w.cell_gradients
        return float(np.sqrt((m[:, 0] + mesh.areas * (d * d).sum(-1)).sum()))
