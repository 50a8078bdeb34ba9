"""Mollification kernels and load descriptions for the line source.

Three right-hand-side flavours are understood by assembly and estimation:

* :class:`RegularizedForcing` — the mollified density
  ``F_r(x) = \\int_gamma f(y) delta_r(y - x) ds_y`` with
  ``delta_r(x) = r^-2 psi(x / r)``;
* :class:`LineForcing` — the unmollified line source, integrated exactly by
  clipping curve segments against cells (used by the baseline driver);
* :class:`DensityForcing` — a plain area density (manufactured problems).

Each exposes ``load_vector`` (P1 load vector) and ``data_indicator``
(per-cell data-oscillation term of the estimator).
"""
from __future__ import annotations

import logging
from functools import lru_cache, cached_property

import numpy as np
from scipy.integrate import quad

from . import quadrature as quadr
from .curves import Curve, SegmentedData
from .errors import NumericalError
from .geometry import clip_segments_to_triangles
from .mesh import CellCache, Mesh, cells_near_curve, curve_cell_pairs

logger = logging.getLogger("mollifem")

KERNEL_FAMILIES = ("radial_c1", "tensor_cinf", "tensor_linf")

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=200)


def r_of_tau(tau: float) -> float:
    """Mollification radius coupled to the outer tolerance, r = tau^2."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau * tau


@lru_cache(maxsize=None)
def _radial_c1_const() -> float:
    # 1 / integral of (1 + cos(pi|x|)) over the unit ball.
    val, _ = quad(lambda s: s * (1.0 + np.cos(np.pi * s)), 0.0, 1.0, **_QUAD_OPTS)
    return 1.0 / (2.0 * np.pi * val)


def _cinf_profile_raw(t: float) -> float:
    u = 1.0 - t * t
    if u <= 0.0:
        return 0.0
    return float(np.exp(1.0 - 1.0 / u))


@lru_cache(maxsize=None)
def _cinf_1d_norm() -> float:
    val, _ = quad(_cinf_profile_raw, -1.0, 1.0, **_QUAD_OPTS)
    return val


class Kernel:
    """Normalized mollifier profile psi with unit-scale support."""

    def __init__(self, family: str):
        if family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        self.family = family
        self.support = "ball" if family == "radial_c1" else "square"
        if family == "radial_c1":
            self.c_norm = _radial_c1_const()
        elif family == "tensor_cinf":
            self.c_norm = 1.0 / _cinf_1d_norm() ** 2
        else:
            self.c_norm = 0.25

    @classmethod
    def make(cls, family: str) -> "Kernel":
        return cls(family)

    def _psi_1d(self, t: np.ndarray) -> np.ndarray:
        if self.family == "tensor_cinf":
            u = 1.0 - t * t
            out = np.zeros_like(t)
            ok = u > 0
            out[ok] = np.exp(1.0 - 1.0 / u[ok]) / _cinf_1d_norm()
            return out
        # tensor_linf
        return np.where(np.abs(t) < 1.0, 0.5, 0.0)

    def psi(self, x: np.ndarray) -> np.ndarray:
        """psi at points of shape (..., 2)."""
        x = np.asarray(x, dtype=np.float64)
        return self.psi_xy(x[..., 0], x[..., 1])

    def psi_xy(self, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """psi at points given by their coordinate arrays."""
        if self.family == "radial_c1":
            s2 = x0 * x0 + x1 * x1
            out = np.zeros_like(s2)
            ok = s2 <= 1.0
            out[ok] = self.c_norm * (1.0 + np.cos(np.pi * np.sqrt(s2[ok])))
            return out
        return self._psi_1d(x0) * self._psi_1d(x1)

    def delta(self, r: float, x: np.ndarray) -> np.ndarray:
        """delta_r(x) = r^-2 psi(x / r)."""
        if r <= 0:
            raise ValueError("r must be positive")
        x = np.asarray(x, dtype=np.float64)
        return self.psi(x / r) / (r * r)

    @cached_property
    def moments(self) -> tuple[float, np.ndarray]:
        """(M0, M1) = (int psi, int u psi du), by composite Gauss quadrature."""
        if self.family == "radial_c1":
            # polar: integrand is analytic in s
            ncell, gx, gw = 64, quadr.GAUSS4_X, quadr.GAUSS4_W
            edges = np.linspace(0.0, 1.0, ncell + 1)
            s = (edges[:-1, None] + np.diff(edges)[:, None] * gx[None, :]).ravel()
            w = (np.diff(edges)[:, None] * gw[None, :]).ravel()
            prof = self.c_norm * (1.0 + np.cos(np.pi * s))
            m0 = 2.0 * np.pi * float((s * prof * w).sum())
            ang = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1).mean(axis=0)
            m1 = float((s * s * prof * w).sum()) * 2.0 * np.pi * dirs
            return m0, m1
        ncell, gx, gw = 200, quadr.GAUSS4_X, quadr.GAUSS4_W
        edges = np.linspace(-1.0, 1.0, ncell + 1)
        t = (edges[:-1, None] + np.diff(edges)[:, None] * gx[None, :]).ravel()
        w = (np.diff(edges)[:, None] * gw[None, :]).ravel()
        p = self._psi_1d(t)
        i0 = float((p * w).sum())
        i1 = float((t * p * w).sum())
        return i0 * i0, np.array([i1 * i0, i0 * i1])


def kernel_moment_check(kernel: Kernel, order: int, r: float = 1.0,
                        sample_points=None) -> float:
    """Max defect of the moment condition of the given order over sample points.

    Order 0: |int delta_r(x - y) dy - 1|; order 1: the same for first moments,
    which reduces to |x (M0 - 1) + r M1| by substitution.
    """
    if order not in (0, 1):
        raise ValueError("moment order must be 0 or 1")
    if r <= 0:
        raise ValueError("r must be positive")
    m0, m1 = kernel.moments
    if order == 0:
        return abs(m0 - 1.0)
    if sample_points is None:
        g = np.linspace(-1.0, 1.0, 5)
        sample_points = np.array([(a, b) for a in g for b in g])
    pts = np.asarray(sample_points, dtype=np.float64).reshape(-1, 2)
    defect = pts * (m0 - 1.0) + r * m1[None, :]
    return float(np.abs(defect).max())


# -- per-cell records shared by the curve forcings --------------------------


class _CurveForcing:
    """One record per cell: the three load entries int_T F phi_i and the data
    square, integrated the first time either is asked for. Cells out of
    `reach` of the curve hold zeros. Subclasses give
    `_cell_integrals(mesh, positions) -> (n, 4)`."""

    def __init__(self, curve: Curve, data: SegmentedData, reach: float = 0.0):
        if data.curve is not curve:
            raise ValueError("data is attached to a different curve")
        self.curve = curve
        self.data = data
        self.reach = reach
        self._cells = CellCache((4,))

    def _records(self, mesh: Mesh) -> np.ndarray:
        positions = np.arange(mesh.num_cells)
        fresh = self._cells.missing(mesh, positions)
        if len(fresh):
            rec = np.zeros((len(fresh), 4))
            near = cells_near_curve(mesh, self.curve, fresh, self.reach)
            rec[near] = self._cell_integrals(mesh, fresh[near])
            self._cells.store(mesh, fresh, rec)
        return self._cells.get(mesh, positions)

    def load_vector(self, mesh: Mesh) -> np.ndarray:
        load = self._records(mesh)[:, :3]
        return np.bincount(mesh.triangles.ravel(), weights=load.ravel(),
                           minlength=mesh.num_vertices)


def _subdivision_depths(h: np.ndarray, r: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        d = np.ceil(np.log2(np.maximum(h, 1e-300) / r))
    return (np.maximum(d, 0) + 2).astype(np.int64)


# Quadrature points per batch of cells, and point-node pairs per kernel
# batch (temporaries of this size stay in cache). Every reduction below runs
# along one row, so neither size can change a result.
_POINT_CHUNK = 1 << 18
_PAIR_CHUNK = 1 << 16


class RegularizedForcing(_CurveForcing):
    """Mollified line source F_r for a fixed radius r."""

    def __init__(self, curve: Curve, data: SegmentedData, kernel: Kernel, r: float):
        if r <= 0:
            raise ValueError("r must be positive")
        super().__init__(curve, data, float(r))
        if r >= curve.boundary_gap:
            logger.warning("mollification radius %.3g >= boundary gap %.3g; "
                           "density overlaps the domain boundary", r, curve.boundary_gap)
        self.kernel = kernel
        self.r = float(r)
        self._build_nodes()

    def _build_nodes(self) -> None:
        # Curve quadrature: composite 4-point Gauss on arc-length pieces of
        # length <= r/4.  Pieces chain across polyline joints so the node
        # count tracks length/r, not the segment count; joints turning more
        # than ~0.01 rad force a piece boundary so no piece straddles a kink.
        target = self.r / 4.0
        lengths = self.curve.seg_lengths
        cum = np.concatenate(([0.0], np.cumsum(lengths)))
        total = cum[-1]
        tang = (self.curve.seg_end - self.curve.seg_start) \
            / np.maximum(lengths, 1e-300)[:, None]
        dots = np.einsum("ij,ij->i", tang[:-1], tang[1:])
        sharp = cum[1:-1][dots < np.cos(0.01)]
        n_pieces = max(1, int(np.ceil(total / target)))
        breaks = np.unique(np.concatenate(
            (np.linspace(0.0, total, n_pieces + 1), sharp)))
        a, b = breaks[:-1], breaks[1:]
        keep = (b - a) > 1e-12 * total
        a, b = a[keep], b[keep]
        gx, gw = quadr.GAUSS4_X, quadr.GAUSS4_W
        s = (a[:, None] + (b - a)[:, None] * gx[None, :]).ravel()
        w = ((b - a)[:, None] * gw[None, :]).ravel()
        seg = np.clip(np.searchsorted(cum, s, side="right") - 1,
                      0, len(lengths) - 1)
        frac = (s - cum[seg]) / np.maximum(lengths[seg], 1e-300)
        self.node_xy = self.curve.seg_start[seg] + frac[:, None] \
            * (self.curve.seg_end[seg] - self.curve.seg_start[seg])
        self.node_w = w
        self.node_fw = self.data.values[seg] * w
        lo = self.node_xy.min(axis=0) - 2 * self.r
        self._grid_origin = lo
        keys = np.floor((self.node_xy - lo) / self.r).astype(np.int64)
        bins: dict[tuple[int, int], list[int]] = {}
        for i, (kx, ky) in enumerate(keys):
            bins.setdefault((int(kx), int(ky)), []).append(i)
        self._bins = {k: np.array(v, dtype=np.int64) for k, v in bins.items()}
        self._hood_cache: dict[tuple[int, int], tuple] = {}

    def _neighborhood(self, kx: int, ky: int) -> tuple:
        """Nodes of the 3x3 bins around bin (kx, ky): x / r, y / r, f w."""
        key = (kx, ky)
        got = self._hood_cache.get(key)
        if got is None:
            parts = [self._bins[(kx + dx, ky + dy)]
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     if (kx + dx, ky + dy) in self._bins]
            nodes = np.concatenate(parts) if parts \
                else np.empty(0, dtype=np.int64)
            xy = self.node_xy[nodes] / self.r
            got = (xy[:, 0].copy(), xy[:, 1].copy(), self.node_fw[nodes])
            self._hood_cache[key] = got
        return got

    def eval(self, points: np.ndarray) -> np.ndarray:
        """F_r at points (n, 2); zero outside the r-neighborhood of gamma.

        Each value depends on its own point only, not on the batch."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        out = np.zeros(len(pts))
        r = self.r
        keys = np.floor((pts - self._grid_origin) / r).astype(np.int64)
        comp = keys[:, 0] * (1 << 32) + keys[:, 1]
        order = np.argsort(comp, kind="stable")
        comp_sorted = comp[order]
        starts = np.flatnonzero(np.r_[True, comp_sorted[1:] != comp_sorted[:-1]])
        stops = np.r_[starts[1:], len(comp_sorted)]
        px, py = pts[:, 0] / r, pts[:, 1] / r
        for s, e in zip(starts, stops):
            idx = order[s:e]
            xs, ys, fw = self._neighborhood(int(keys[idx[0], 0]),
                                            int(keys[idx[0], 1]))
            if len(fw) == 0:
                continue
            step = max(1, _PAIR_CHUNK // len(fw))
            for lo in range(0, len(idx), step):
                sub = idx[lo:lo + step]
                vals = self.kernel.psi_xy(xs - px[sub, None],
                                          ys - py[sub, None])
                out[sub] = np.einsum("pk,k->p", vals, fw)
        return out / (r * r)

    def _cell_integrals(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """int_T F_r phi_i (i = 0, 1, 2) and int_T F_r^2 per cell."""
        out = np.empty((len(positions), 4))
        depths = _subdivision_depths(mesh.h_sizes[positions], self.r)
        coords = mesh.cell_coords[positions]
        areas = mesh.areas[positions]
        for d in np.unique(depths):
            grp = np.nonzero(depths == d)[0]
            bary, w = quadr.subdivided_rule(int(d))
            step = max(1, _POINT_CHUNK // len(w))
            for lo in range(0, len(grp), step):
                sel = grp[lo:lo + step]
                pts = quadr.triangle_points(coords[sel], bary)
                g = self.eval(pts.reshape(-1, 2)).reshape(len(sel), len(w))
                out[sel, :3] = areas[sel, None] \
                    * np.einsum("mq,q,qi->mi", g, w, bary)
                out[sel, 3] = areas[sel] * np.einsum("mq,mq,q->m", g, g, w)
        return out

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        """d(T) = h_T ||F_r||_{L2(T)} for all active cells."""
        return mesh.h_sizes * np.sqrt(self._records(mesh)[:, 3])


class DensityForcing:
    """Plain area density g(x), integrated with the standard cell rule."""

    def __init__(self, func, name: str = "density"):
        self.func = func
        self.name = name

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return np.asarray(self.func(pts), dtype=np.float64)

    def load_vector(self, mesh: Mesh) -> np.ndarray:
        rhs = np.zeros(mesh.num_vertices)
        bary, w = quadr.TRI_BARY, quadr.TRI_WEIGHTS
        pts = quadr.triangle_points(mesh.cell_coords, bary)
        g = self.eval(pts.reshape(-1, 2)).reshape(mesh.num_cells, len(w))
        loc = mesh.areas[:, None] * np.einsum("mq,q,qi->mi", g, w, bary)
        np.add.at(rhs, mesh.triangles.ravel(), loc.ravel())
        return rhs

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        bary, w = quadr.TRI_BARY, quadr.TRI_WEIGHTS
        pts = quadr.triangle_points(mesh.cell_coords, bary)
        g = self.eval(pts.reshape(-1, 2)).reshape(mesh.num_cells, len(w))
        sq = mesh.areas * ((g * g) @ w)
        return mesh.h_sizes * np.sqrt(np.maximum(sq, 0.0))


class LineForcing(_CurveForcing):
    """Exact (clipped) line source; data indicator is the surrogate
    h_T^(1/2) ||f||_{L2(T cap gamma)}.

    Clipping results are cached per cell, so repeated refinement passes only
    touch newly created cells.
    """

    def _cell_integrals(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """int_{T cap gamma} f phi_i (i = 0, 1, 2) and int_{T cap gamma} f^2."""
        out = np.zeros((len(positions), 4))
        ci, si = curve_cell_pairs(mesh, self.curve, positions)
        if len(ci) == 0:
            return out
        p = mesh.cell_coords
        t0, t1, ok = clip_segments_to_triangles(
            self.curve.seg_start[si], self.curve.seg_end[si],
            p[ci, 0], p[ci, 1], p[ci, 2],
        )
        ci, si, t0, t1 = ci[ok], si[ok], t0[ok], t1[ok]
        rows = np.searchsorted(positions, ci)
        gx, gw = quadr.GAUSS3_X, quadr.GAUSS3_W
        a = self.curve.seg_start[si]
        d = self.curve.seg_end[si] - a
        tt = t0[:, None] + (t1 - t0)[:, None] * gx[None, :]
        pts = a[:, None, :] + tt[..., None] * d[:, None, :]
        lam = _barycentric(p[ci], pts)
        length = (t1 - t0) * self.curve.seg_lengths[si]
        f = self.data.values[si]
        np.add.at(out[:, :3], rows,
                  np.einsum("p,q,pqi->pi", length * f, gw, lam))
        np.add.at(out[:, 3], rows, length * f ** 2)
        np.maximum(out[:, 3], 0.0, out=out[:, 3])
        return out

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        return np.sqrt(mesh.h_sizes * self._records(mesh)[:, 3])


def _barycentric(cells: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of pts (m, q, 2) w.r.t. cells (m, 3, 2)."""
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    v0 = (b - a)[:, None, :]
    v1 = (c - a)[:, None, :]
    v2 = pts - a[:, None, :]
    det = (v0[..., 0] * v1[..., 1] - v0[..., 1] * v1[..., 0])
    l1 = (v2[..., 0] * v1[..., 1] - v2[..., 1] * v1[..., 0]) / det
    l2 = (v0[..., 0] * v2[..., 1] - v0[..., 1] * v2[..., 0]) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
