"""P1 Galerkin discretization of the Laplace problem on conforming
triangulations.

The stiffness of a(u,v) = int grad(u) . grad(v), from three edge weights per
cell as a diagonal and off-diagonal triplets (`SparseMatrix`), and the cell
gradients are whole-mesh kernels that every pass runs: each works on 1-D
rows, one local edge or coordinate at a time, and writes its output once.
Dirichlet data enter by nodal interpolation with symmetric elimination;
the solve is BPX-preconditioned CG (tight, or stopped once the
preconditioned residual norm meets a target the driver derives from the
estimator; it raises NumericalError on a breakdown or at its iteration
cap). Energy-norm errors against closed-form solutions whose gradient kinks
on a circle they name are cached per cell: the cells that circle meets are
split and tested on their corners held as rows of x and y, and each batch
maps its leaves' points into one array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import quadrature as quadr
from .curves import interface_cells  # noqa: F401  (perfbench/layers.py traces it)
from .errors import NumericalError
from .geometry import circle_meets
from .mesh import CellCache, Mesh

CG_RTOL = 5e-11
# the adaptive driver stops CG once sqrt(r^T B r) <= LAMBDA_ALG * estimator
# (Gantner, Haberl, Praetorius, Schimanko, Math. Comp. 90, 2021)
LAMBDA_ALG = 1e-3


@dataclass(frozen=True)
class SparseMatrix:
    """A symmetric matrix by its diagonal and its off-diagonal triplets
    (i, j, v), each (i, j) once: A @ x is a gather and a `bincount`."""

    diag: np.ndarray
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray
    shape = property(lambda self: (len(self.diag),) * 2)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x + np.bincount(self.i, self.v * x.take(self.j), len(x))


@dataclass
class DiscreteSystem:
    """Assembled linear system with boundary conditions eliminated.

    `matrix` is the SPD operator actually solved (identity rows/columns on
    `mesh.boundary_vertex_mask`), and `rhs` holds the Dirichlet values on
    those rows. `form_matrix(mesh)` rebuilds the unconstrained matrix, and
    the forcing's `load_vector(mesh)` returns the unconstrained load.
    """

    mesh: Mesh
    matrix: SparseMatrix
    rhs: np.ndarray

    @cached_property
    def preconditioner(self):
        """`_bpx_preconditioner`, built once: a resumed solve reuses it."""
        return _bpx_preconditioner(self)


@dataclass
class FeFunction:
    """A P1 function by its nodal values. `residual` is set by
    `solve_galerkin`: sqrt(r^T B r) of the solve's residual r = b - A x, B
    the BPX preconditioner; None for any other function."""

    mesh: Mesh
    nodal_values: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        if len(self.nodal_values) != self.mesh.num_vertices:
            raise ValueError("nodal value count does not match the mesh")

    @cached_property
    def cell_gradients(self) -> np.ndarray:
        """Constant gradient per active cell, (m, 2) over rows of x and y:
        (t_0 + t_2) + t_1 with t_i = u_i perp(e_i) / 2|T|, one coordinate at
        a time (e_y / -2|T| has the bits of -e_y / 2|T|)."""
        (ex, ey), q = self.mesh.edge_vectors, 2.0 * self.mesh.areas
        u = [self.nodal_values.take(c) for c in self.mesh.triangles.T]
        g, t = np.empty((2, self.mesh.num_cells)), np.empty_like(q)
        for gd, e, s in zip(g, (ey, ex), (-q, q)):
            np.multiply(np.divide(e[0], s, out=gd), u[0], out=gd)
            for k in (2, 1):
                np.multiply(np.divide(e[k], s, out=t), u[k], out=t)
                gd += t
        return g.T


def _stiffness(mesh: Mesh):
    """The stiffness matrix's diagonal, minus each row's sum, and its
    off-diagonal triplets (i, j, v), each directed (i, j) once. Edge k of a
    cell runs from corner i = k + 1 to j = k + 2, and the cell across runs
    it back, so v sums w_k = e_{k+1} . e_{k+2} / 4|T| over the edge and its
    twin; a boundary edge adds (j, i), after all cells' edges 0, 1, 2."""
    (ex, ey), q, m = mesh.edge_vectors, 4.0 * mesh.areas, mesh.num_cells
    w = np.empty((m, 3))  # by cell, as a twin 3 * row + edge indexes it
    for k in range(3):
        w[:, k] = (ex[k - 2] * ex[k - 1] + ey[k - 2] * ey[k - 1]) / q
    tw, t = mesh.twins.T, mesh.triangles
    k, c = np.nonzero(tw < 0)  # the boundary edges, edge by edge
    v = np.empty(3 * m + len(c))
    for e in range(3):  # a boundary edge reads twin -1 here, and is reset
        np.add(w[:, e], w.take(tw[e]), out=v[e * m:(e + 1) * m])
    v[k * m + c] = v[3 * m:] = w[c, k]
    # intp, the index type of take and bincount
    i = np.concatenate((t[:, 1], t[:, 2], t[:, 0], t[c, k - 1]), dtype=np.intp)
    j = np.concatenate((t[:, 2], t[:, 0], t[:, 1], t[c, k - 2]), dtype=np.intp)
    return -np.bincount(i, v, mesh.num_vertices), i, j, v


def form_matrix(mesh: Mesh) -> SparseMatrix:
    """Unconstrained stiffness matrix of the Laplace form on the P1 space."""
    return SparseMatrix(*_stiffness(mesh))


def assemble(mesh: Mesh, forcing, boundary_data=None) -> DiscreteSystem:
    """Build the discrete Laplace system for the forcing and Dirichlet data.

    `forcing` is any object with a ``load_vector(mesh)`` method (mollified,
    clipped-line or plain density). `boundary_data` maps boundary points
    (n, 2) to values; None means homogeneous.
    """
    n = mesh.num_vertices
    d, i, j, v = _stiffness(mesh)
    rhs = np.zeros(n) if forcing is None else \
        np.array(forcing.load_vector(mesh), dtype=np.float64)

    bmask = mesh.boundary_vertex_mask
    ubc = np.zeros(n)
    if boundary_data is not None:  # else the lift is x - (+0.0) = x
        if bmask.any():
            ubc[bmask] = np.asarray(boundary_data(mesh.coords[bmask]),
                                    dtype=np.float64)
        rhs -= SparseMatrix(d, i, j, v) @ ubc

    # the free-free nonzeros and a unit boundary diagonal; ubc is 0 on free rows
    keep = ~(bmask[i] | bmask[j]) & (v != 0)
    mat = SparseMatrix(np.where(bmask, 1.0, d), i[keep], j[keep], v[keep])
    rhs[bmask] = ubc[bmask]
    return DiscreteSystem(mesh, mat, rhs)


def _bpx_preconditioner(system: DiscreteSystem):
    """Additive multilevel (BPX) preconditioner over the bisection genealogy:
    B = F (sum_w P_w D^-1 P_w^T) F + E, with P_w the prolongation from the
    vertices of level <= w (`Mesh.vertex_level`; a new vertex is the mean of
    its parents), D = diag(A), F and E the projections onto free and boundary
    vertices. cond(BA) is bounded on graded NVB grids (Chen-Nochetto-Xu 2012).
    Returns the function r -> B r."""
    d = system.matrix.diag
    if np.any(d <= 0):
        raise NumericalError("non-positive diagonal in assembled matrix")
    free, level = ~system.mesh.boundary_vertex_mask, system.mesh.vertex_level
    # sorted by level, the vertices of levels <= w are the first ends[w]
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
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

    return apply


def cg(A, b, x0=None, *, M, target=None, maxiter=None, callback=None):
    """Preconditioned CG for the SPD system A x = b, M the function r -> B r
    of an SPD preconditioner B. With no `target` it stops once
    ||r||_2 <= CG_RTOL ||b||_2; with one, once sqrt(r^T B r) <= target (the
    r.z that CG forms anyway; it bounds the energy error ||x* - x||_A up to
    cond(BA)). `callback(x)` runs after every iteration.

    Returns the iterate. A breakdown (p.Ap or r.z not finite and positive, a
    NaN in the data included) or `maxiter` iterations raise NumericalError,
    naming which, the iterations run and the relative residual."""
    maxiter = 10 * len(b) if maxiter is None else maxiter
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    atol = CG_RTOL * np.linalg.norm(b)
    p = rz_old = None

    def failure(kind: str) -> NumericalError:
        res = np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1e-300)
        return NumericalError(f"CG failed to converge ({kind} after {it} "
                              f"iterations, relative residual {res:.3e})")
    for it in range(maxiter + 1):
        if target is None and np.linalg.norm(r) <= atol:
            return x
        z = M(r)
        rz = r @ z
        if target is not None and rz <= target * target:
            return x
        if not (np.isfinite(rz) and rz > 0):
            raise failure("breakdown")
        if it == maxiter:
            raise failure("iteration cap")
        if p is None:
            p = z
        else:
            p *= rz / rz_old
            p += z
        q = A @ p
        pq = p @ q
        if not (np.isfinite(pq) and pq > 0):
            raise failure("breakdown")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rz_old = rz
        if callback is not None:
            callback(x)


def solve_galerkin(system: DiscreteSystem, initial_guess=None,
                   target: float | None = None) -> FeFunction:
    """CG solve; returns the FE solution with its `residual`. With no
    `target`, to relative residual ||r||_2 <= `CG_RTOL` ||b||_2; with one,
    until sqrt(r^T B r) <= target, B the BPX preconditioner."""
    mat, rhs = system.matrix, system.rhs
    n, boundary = mat.shape[0], system.mesh.boundary_vertex_mask
    x0 = None
    if initial_guess is not None:
        if len(initial_guess) != n:
            raise ValueError(f"initial guess has {len(initial_guess)} values, "
                             f"the system {n}")
        x0 = np.where(boundary, rhs, initial_guess)
    bpx = system.preconditioner
    x = cg(mat, rhs, x0=x0, M=bpx, target=target)
    x[boundary] = rhs[boundary]
    r = rhs - mat @ x
    return FeFunction(system.mesh, x, float(np.sqrt(max(r @ bpx(r), 0.0))))


def prolong(fn: FeFunction, fine: Mesh) -> FeFunction:
    """Transfer nodal values to a refinement of fn's mesh (exact for P1)."""
    nc = fn.mesh.num_vertices
    nf = fine.num_vertices
    if nf < nc or not np.array_equal(fine.coords[:nc], fn.mesh.coords):
        raise ValueError("target mesh is not a refinement of the source mesh")
    vals = np.empty(nf)
    vals[:nc] = fn.nodal_values
    new, level = np.arange(nc, nf), fine.vertex_level[nc:]
    for wave in np.flatnonzero(np.bincount(level)):  # ends have lower levels
        v = new[level == wave]
        a, b = fine.vertex_parents[v].T
        vals[v] = 0.5 * (vals[a] + vals[b])
    return FeFunction(fine, vals)


_KINK_DEPTH = 4


def energy_error(u_exact, w: FeFunction) -> float:
    """|u_exact - w|_{H^1} by a one-shot ErrorIntegrator."""
    return ErrorIntegrator(u_exact)(w)


def _kink_leaves(mesh: Mesh, rows: np.ndarray, kink, crossed: np.ndarray):
    """Leaves (owner, 6 points, area / owner's) of the error rule on the
    cells at `rows`, by level, then owner; `crossed` marks the cells that
    the circle `kink` = (center, radius) meets. A 4-split child of a
    crossed cell counts as crossed when the circle meets it
    (`geometry.circle_meets`). Corners are rows of x and y (2, 3, n), the
    children parent by parent, and every level's points are mapped into
    one array."""
    xy, owner, levels = mesh.corners(rows), np.arange(len(rows)), []
    for level in range(_KINK_DEPTH):
        levels.append((xy, owner, ~crossed, quadr.TRI_BARY))
        if level + 1 == _KINK_DEPTH or not crossed.any():
            break
        # (x | y, child, corner, parent) -> (x | y, corner, parent, child)
        xy = quadr.split4(xy[..., crossed]).transpose(0, 2, 3, 1)
        xy = xy.reshape(2, 3, -1)
        owner = np.repeat(owner[crossed], 4)
        crossed = circle_meets(*kink, *xy)
    # every deepest child is a leaf: their rules make the parent's depth-1 rule
    levels.append((xy, owner, crossed, quadr.subdivided_rule(1)[0]))
    owner = [np.repeat(o[keep], len(b) // 6) for _, o, keep, b in levels]
    ends = np.cumsum([0] + [len(o) for o in owner])
    pts = np.empty((ends[-1], 6, 2))
    for (xy, _, keep, b), lo, hi in zip(levels, ends, ends[1:]):
        c, out = xy[..., keep, None], pts[lo:hi].reshape(-1, len(b), 2)
        # `quadr.triangle_points`' map, in place, one coordinate at a time
        for d, o in enumerate((out[..., 0], out[..., 1])):
            np.multiply(b[:, 0], c[d, 0], out=o)
            o += b[:, 1] * c[d, 1]
            o += b[:, 2] * c[d, 2]
    scale = np.repeat(0.25 ** np.arange(len(levels)), np.diff(ends))
    return np.concatenate(owner), pts, scale


class ErrorIntegrator:
    """Energy-norm error |u - w|_{H^1} for FE functions on refined meshes.

    Per cell T it caches the mean gradient m_T of the exact solution and
    V_T = int_T |grad u - m_T|^2, which depend on geometry alone. A P1
    function with gradient g on T then has int_T |grad(u - w)|^2 =
    V_T + |T| |m_T - g|^2: a sum of two nonnegative terms, so no exact
    quadrature is repeated and no large moments cancel. Where grad(u) kinks
    is read from the solution: its `kink`, a circle (center, radius), or
    none when it has no such attribute. The leaves of `_kink_leaves` put
    that circle on depth-`_KINK_DEPTH` leaves.
    """

    def __init__(self, u_exact):
        self.exact, self.kink = u_exact, getattr(u_exact, "kink", None)
        self._moments = CellCache((3,))  # V_T, m_T

    def _cell_moments(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """(V_T, m_T) of the active cells at `positions`, shape (n, 3), in
        `quadr.batches` of whole cells: a cell the circle meets is priced at
        the 6 * 4^`_KINK_DEPTH` points it may need, any other at 6, and each
        sum runs over one cell's points in one order, whatever the batch."""
        n = len(positions)
        crossed = np.zeros(n, dtype=bool)
        if self.kink is not None:
            for lo, hi in quadr.batches(np.full(n, 6)):
                crossed[lo:hi] = circle_meets(
                    *self.kink, *mesh.corners(positions[lo:hi]))
        cost = np.where(crossed, 6 * 4 ** _KINK_DEPTH, 6)
        areas, out, wq = mesh.areas[positions], np.empty((n, 3)), quadr.TRI_WEIGHTS
        for lo, hi in quadr.batches(cost):
            owner, pts, scale = _kink_leaves(mesh, positions[lo:hi], self.kink,
                                             crossed[lo:hi])
            gu = np.asarray(self.exact.gradient(pts.reshape(-1, 2)),
                            dtype=np.float64).reshape(len(owner), -1, 2)
            part = np.einsum("lqd,q->ld", gu, wq) * scale[:, None]
            out[lo:hi, 1:] = mean = np.stack([np.bincount(owner, p, hi - lo)
                                              for p in part.T], axis=1)
            # centred in place: one more batch-sized array raises peak RSS
            for d, m in enumerate(mean.take(owner, axis=0).T):
                gu[..., d] -= m[:, None]
            part = np.einsum("lqd,lqd,q->l", gu, gu, wq) * scale
            out[lo:hi, 0] = areas[lo:hi] * np.bincount(owner, part, hi - lo)
        return out

    def __call__(self, w: FeFunction) -> float:
        mesh = w.mesh
        m = self._moments.values(mesh, partial(self._cell_moments, mesh))
        d = m[:, 1:] - w.cell_gradients
        return float(np.sqrt((m[:, 0] + mesh.areas * (d * d).sum(-1)).sum()))
