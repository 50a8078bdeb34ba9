"""P1 Galerkin discretization on conforming triangulations.

Assembly of the symmetric form a(u,v) = int grad(u)^T A grad(v) + c u v,
non-homogeneous Dirichlet data by nodal interpolation with symmetric
elimination, a preconditioned CG solve, and energy-norm error integration
against closed-form solutions whose gradient kinks across the curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from . import quadrature as quadr
from .errors import NumericalError
from .mesh import CellCache, Mesh, fill_midpoints, interface_cells, vertex_levels

CG_RTOL = 5e-11


class BilinearFormSpec:
    """Coefficients of the form. None means A = identity, c = 0.

    a_field maps points (n, 2) to SPD matrices (n, 2, 2); c_field maps
    points to nonnegative scalars (n,).
    """

    def __init__(self, a_field=None, c_field=None):
        self.a_field = a_field
        self.c_field = c_field

    @classmethod
    def laplace(cls) -> "BilinearFormSpec":
        return cls()

    def a_at(self, points: np.ndarray) -> np.ndarray | None:
        if self.a_field is None:
            return None
        return np.asarray(self.a_field(points), dtype=np.float64)

    def c_at(self, points: np.ndarray) -> np.ndarray | None:
        if self.c_field is None:
            return None
        return np.asarray(self.c_field(points), dtype=np.float64)


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


def form_matrix(mesh: Mesh, form: BilinearFormSpec) -> sp.csr_matrix:
    """Unconstrained matrix of the bilinear form on the P1 space."""
    n = mesh.num_vertices
    tri = mesh.triangles
    areas = mesh.areas
    grads = _p1_gradients(mesh)

    if form.a_field is None:
        k_loc = np.einsum("mdi,mdj->mij", grads, grads) * areas[:, None, None]
    else:
        pts = quadr.triangle_points(mesh.cell_coords, quadr.TRI_BARY)
        a_q = form.a_at(pts.reshape(-1, 2)).reshape(mesh.num_cells, -1, 2, 2)
        a_bar = np.einsum("q,mqde->mde", quadr.TRI_WEIGHTS, a_q)
        k_loc = np.einsum("mdi,mde,mej->mij", grads, a_bar, grads) \
            * areas[:, None, None]
    if form.c_field is not None:
        bary, w = quadr.TRI_BARY, quadr.TRI_WEIGHTS
        pts = quadr.triangle_points(mesh.cell_coords, bary)
        c_q = form.c_at(pts.reshape(-1, 2)).reshape(mesh.num_cells, -1)
        k_loc = k_loc + np.einsum("mq,q,qi,qj->mij", c_q, w, bary, bary) \
            * areas[:, None, None]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(mesh: Mesh, form: BilinearFormSpec, forcing,
             boundary_data=None) -> DiscreteSystem:
    """Build the discrete system for the form, forcing and Dirichlet data.

    `forcing` is any object with a ``load_vector(mesh)`` method (mollified,
    clipped-line or plain density). `boundary_data` maps boundary points
    (n, 2) to values; None means homogeneous.
    """
    n = mesh.num_vertices
    raw = form_matrix(mesh, form)
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


def energy_error(u_exact, w: FeFunction, form: BilinearFormSpec,
                 curve=None) -> float:
    """Energy-norm distance between an exact solution and a FE function.

    Cells crossed by the curve get a recursively subdivided rule so the
    kink of grad(u) along it is integrated accurately.
    """
    mesh = w.mesh
    depths = np.zeros(mesh.num_cells, dtype=np.int64)
    if curve is not None:
        hit = interface_cells(mesh, curve)
        depths[np.searchsorted(mesh.active_id_array, hit)] = _KINK_DEPTH

    grads_w = w.cell_gradients()
    total = 0.0
    for d in np.unique(depths):
        sel = np.nonzero(depths == d)[0]
        bary, wq = quadr.subdivided_rule(int(d))
        pts = quadr.triangle_points(mesh.cell_coords[sel], bary)
        flat = pts.reshape(-1, 2)
        gu = np.asarray(u_exact.gradient(flat), dtype=np.float64)
        ge = gu.reshape(len(sel), -1, 2) - grads_w[sel][:, None, :]
        if form.a_field is None:
            dens = (ge * ge).sum(-1)
        else:
            a_q = form.a_at(flat).reshape(len(sel), -1, 2, 2)
            dens = np.einsum("mqd,mqde,mqe->mq", ge, a_q, ge)
        if form.c_field is not None:
            vu = np.asarray(u_exact.value(flat), dtype=np.float64)
            ve = vu.reshape(len(sel), -1) \
                - w.nodal_values[mesh.triangles[sel]] @ bary.T
            dens = dens + form.c_at(flat).reshape(len(sel), -1) * ve * ve
        total += float((mesh.areas[sel] * (dens @ wq)).sum())
    return float(np.sqrt(max(total, 0.0)))


class ErrorIntegrator:
    """Cached energy_error for repeated calls on refined meshes.

    For the plain Laplace form the exact-solution cell moments
    int_T |grad u|^2 and int_T grad u depend on geometry alone, so they are
    cached per cell; the error against any P1 function then needs no further
    exact-solution quadrature. Forms with coefficients fall back to the
    direct routine.
    """

    def __init__(self, u_exact, form: BilinearFormSpec, curve=None):
        self.exact = u_exact
        self.form = form
        self.curve = curve
        self._direct = form.a_field is not None or form.c_field is not None
        self._s0 = CellCache()
        self._s1 = CellCache((2,))

    def _sync(self, mesh: Mesh) -> None:
        fresh = self._s0.missing(mesh, np.arange(mesh.num_cells))
        if len(fresh) == 0:
            return
        depths = np.zeros(len(fresh), dtype=np.int64)
        if self.curve is not None:
            hit = interface_cells(mesh, self.curve, fresh)
            where = np.searchsorted(mesh.active_id_array[fresh], hit)
            depths[where] = _KINK_DEPTH
        coords = mesh.cell_coords[fresh]
        areas = mesh.areas[fresh]
        for d in np.unique(depths):
            grp = np.nonzero(depths == d)[0]
            bary, wq = quadr.subdivided_rule(int(d))
            # batches of whole cells; the sums run along each cell's own
            # points, so the batch size cannot change a moment
            step = max(1, _POINT_CHUNK // len(wq))
            for lo in range(0, len(grp), step):
                sel = grp[lo:lo + step]
                pts = quadr.triangle_points(coords[sel], bary)
                gu = np.asarray(self.exact.gradient(pts.reshape(-1, 2)),
                                dtype=np.float64).reshape(len(sel), -1, 2)
                self._s0.store(mesh, fresh[sel], areas[sel]
                               * np.einsum("mqd,mqd,q->m", gu, gu, wq))
                self._s1.store(mesh, fresh[sel], areas[sel, None]
                               * np.einsum("mqd,q->md", gu, wq))

    def __call__(self, w: FeFunction) -> float:
        if self._direct:
            return energy_error(self.exact, w, self.form, self.curve)
        mesh = w.mesh
        self._sync(mesh)
        positions = np.arange(mesh.num_cells)
        g = w.cell_gradients()
        s0 = self._s0.get(mesh, positions)
        s1 = self._s1.get(mesh, positions)
        total = float(s0.sum()) - 2.0 * float(np.einsum("md,md->", g, s1)) \
            + float((mesh.areas * (g * g).sum(-1)).sum())
        return float(np.sqrt(max(total, 0.0)))
