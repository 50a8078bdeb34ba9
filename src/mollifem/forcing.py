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
from .mesh import CellCache, Mesh, curve_cell_pairs

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
        if self.family == "radial_c1":
            s = np.sqrt((x * x).sum(-1))
            out = np.zeros_like(s)
            ok = s <= 1.0
            out[ok] = self.c_norm * (1.0 + np.cos(np.pi * s[ok]))
            return out
        return self._psi_1d(x[..., 0]) * self._psi_1d(x[..., 1])

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


# -- geometry helpers shared by the load classes ---------------------------


def _cells_near_curve(mesh: Mesh, curve: Curve, reach: float) -> np.ndarray:
    """Positions of active cells possibly within `reach` of the polyline."""
    p = mesh.cell_coords
    cent = p.mean(axis=1)
    circ = np.sqrt(((p - cent[:, None, :]) ** 2).sum(-1)).max(axis=1)
    dist, _ = curve.vertex_tree.query(cent)
    return np.nonzero(dist <= reach + circ + 0.5 * curve.max_seg_len + 1e-12)[0]


def _subdivision_depths(h: np.ndarray, r: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        d = np.ceil(np.log2(np.maximum(h, 1e-300) / r))
    return (np.maximum(d, 0) + 2).astype(np.int64)


_POINT_CHUNK = 1 << 20


class RegularizedForcing:
    """Mollified line source F_r for a fixed radius r."""

    def __init__(self, curve: Curve, data: SegmentedData, kernel: Kernel, r: float):
        if r <= 0:
            raise ValueError("r must be positive")
        if data.curve is not curve:
            raise ValueError("data is attached to a different curve")
        if r >= curve.boundary_gap:
            logger.warning("mollification radius %.3g >= boundary gap %.3g; "
                           "density overlaps the domain boundary", r, curve.boundary_gap)
        self.curve = curve
        self.data = data
        self.kernel = kernel
        self.r = float(r)
        self._build_nodes()
        self._load = CellCache((3,))
        self._dsq = CellCache()

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
        self._grid_cell = self.r
        keys = np.floor((self.node_xy - lo) / self.r).astype(np.int64)
        bins: dict[tuple[int, int], list[int]] = {}
        for i, (kx, ky) in enumerate(keys):
            bins.setdefault((int(kx), int(ky)), []).append(i)
        self._bins = {k: np.array(v, dtype=np.int64) for k, v in bins.items()}
        self._hood_cache: dict[tuple[int, int], np.ndarray] = {}

    def _neighborhood(self, kx: int, ky: int) -> np.ndarray:
        key = (kx, ky)
        got = self._hood_cache.get(key)
        if got is None:
            parts = [self._bins[(kx + dx, ky + dy)]
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     if (kx + dx, ky + dy) in self._bins]
            got = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            self._hood_cache[key] = got
        return got

    def eval(self, points: np.ndarray) -> np.ndarray:
        """F_r at points (n, 2); zero outside the r-neighborhood of gamma."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        out = np.zeros(len(pts))
        keys = np.floor((pts - self._grid_origin) / self._grid_cell).astype(np.int64)
        comp = keys[:, 0] * (1 << 32) + keys[:, 1]
        order = np.argsort(comp, kind="stable")
        comp_sorted = comp[order]
        starts = np.flatnonzero(np.r_[True, comp_sorted[1:] != comp_sorted[:-1]])
        stops = np.r_[starts[1:], len(comp_sorted)]
        r = self.r
        for s, e in zip(starts, stops):
            idx = order[s:e]
            kx, ky = int(keys[idx[0], 0]), int(keys[idx[0], 1])
            nodes = self._neighborhood(kx, ky)
            if len(nodes) == 0:
                continue
            xy, fw = self.node_xy[nodes], self.node_fw[nodes]
            # cap the points-by-nodes broadcast at a few million entries
            step = max(1, _POINT_CHUNK // len(nodes))
            for lo in range(0, len(idx), step):
                sub = idx[lo:lo + step]
                diff = xy[None, :, :] - pts[sub][:, None, :]
                vals = self.kernel.psi(diff / r) / (r * r)
                out[sub] = vals @ fw
        return out

    # -- load and indicator integrals -------------------------------------

    def _cell_integrals(self, mesh: Mesh, positions: np.ndarray,
                        want_load: bool, want_sq: bool):
        """Per-cell integrals of F_r against P1 basis functions and of F_r^2."""
        load = np.zeros((len(positions), 3)) if want_load else None
        sq = np.zeros(len(positions)) if want_sq else None
        if len(positions) == 0:
            return load, sq
        depths = _subdivision_depths(mesh.h_sizes[positions], self.r)
        coords = mesh.cell_coords[positions]
        areas = mesh.areas[positions]
        for d in np.unique(depths):
            grp = np.nonzero(depths == d)[0]
            bary, w = quadr.subdivided_rule(int(d))
            nq = len(w)
            step = max(1, _POINT_CHUNK // nq)
            for lo in range(0, len(grp), step):
                sel = grp[lo:lo + step]
                pts = quadr.triangle_points(coords[sel], bary)
                g = self.eval(pts.reshape(-1, 2)).reshape(len(sel), nq)
                if load is not None:
                    load[sel] = areas[sel, None] * np.einsum("mq,q,qi->mi", g, w, bary)
                if sq is not None:
                    sq[sel] = areas[sel] * ((g * g) @ w)
        return load, sq

    def load_vector(self, mesh: Mesh) -> np.ndarray:
        rhs = np.zeros(mesh.num_vertices)
        near = _cells_near_curve(mesh, self.curve, self.r)
        if len(near) == 0:
            return rhs
        fresh = near[self._load.missing(mesh, near)]
        if len(fresh):
            load, _ = self._cell_integrals(mesh, fresh, True, False)
            self._load.store(mesh, fresh, load)
        np.add.at(rhs, mesh.triangles[near].ravel(),
                  self._load.get(mesh, near).ravel())
        return rhs

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        """d(T) = h_T ||F_r||_{L2(T)} for all active cells."""
        positions = np.arange(mesh.num_cells)
        fresh = self._dsq.missing(mesh, positions)
        if len(fresh):
            near = np.zeros(mesh.num_cells, dtype=bool)
            near[_cells_near_curve(mesh, self.curve, self.r)] = True
            compute = near[fresh]
            _, sq = self._cell_integrals(mesh, fresh[compute], False, True)
            dsq = np.zeros(len(fresh))
            dsq[compute] = np.maximum(sq, 0.0)
            self._dsq.store(mesh, fresh, dsq)
        return mesh.h_sizes * np.sqrt(self._dsq.get(mesh, positions))


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


class LineForcing:
    """Exact (clipped) line source; data indicator is the surrogate
    h_T^(1/2) ||f||_{L2(T cap gamma)}.

    Clipping results are cached per cell, so repeated refinement passes only
    touch newly created cells.
    """

    def __init__(self, curve: Curve, data: SegmentedData):
        if data.curve is not curve:
            raise ValueError("data is attached to a different curve")
        self.curve = curve
        self.data = data
        self._load = CellCache((3,))
        self._lsq = CellCache()

    def _clipped(self, mesh: Mesh, positions=None):
        """(cell position, segment id, tmin, tmax) for clipped pieces."""
        ci, si = curve_cell_pairs(mesh, self.curve, positions)
        if len(ci) == 0:
            e = np.empty(0)
            return ci, si, e, e
        p = mesh.cell_coords
        t0, t1, ok = clip_segments_to_triangles(
            self.curve.seg_start[si], self.curve.seg_end[si],
            p[ci, 0], p[ci, 1], p[ci, 2],
        )
        return ci[ok], si[ok], t0[ok], t1[ok]

    def load_vector(self, mesh: Mesh) -> np.ndarray:
        rhs = np.zeros(mesh.num_vertices)
        near = _cells_near_curve(mesh, self.curve, 0.0)
        if len(near) == 0:
            return rhs
        posns = near[self._load.missing(mesh, near)]
        if len(posns):
            loc = np.zeros((len(posns), 3))
            ci, si, t0, t1 = self._clipped(mesh, posns)
            if len(ci):
                gx, gw = quadr.GAUSS3_X, quadr.GAUSS3_W
                a = self.curve.seg_start[si]
                d = self.curve.seg_end[si] - a
                tt = t0[:, None] + (t1 - t0)[:, None] * gx[None, :]
                pts = a[:, None, :] + tt[..., None] * d[:, None, :]
                lam = _barycentric(mesh.cell_coords[ci], pts)
                seg_w = (t1 - t0) * self.curve.seg_lengths[si] \
                    * self.data.values[si]
                contrib = np.einsum("p,q,pqi->pi", seg_w, gw, lam)
                row_of = {int(p): k for k, p in enumerate(posns)}
                rows = np.array([row_of[int(c)] for c in ci], dtype=np.int64)
                np.add.at(loc, rows, contrib)
            self._load.store(mesh, posns, loc)
        np.add.at(rhs, mesh.triangles[near].ravel(),
                  self._load.get(mesh, near).ravel())
        return rhs

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        positions = np.arange(mesh.num_cells)
        fresh = self._lsq.missing(mesh, positions)
        if len(fresh):
            near = np.zeros(mesh.num_cells, dtype=bool)
            near[_cells_near_curve(mesh, self.curve, 0.0)] = True
            compute = near[fresh]
            posns = fresh[compute]
            acc = np.zeros(len(posns))
            if len(posns):
                ci, si, t0, t1 = self._clipped(mesh, posns)
                if len(ci):
                    piece = (t1 - t0) * self.curve.seg_lengths[si] \
                        * self.data.values[si] ** 2
                    row_of = {int(p): k for k, p in enumerate(posns)}
                    rows = np.array([row_of[int(c)] for c in ci],
                                    dtype=np.int64)
                    np.add.at(acc, rows, piece)
            lsq = np.zeros(len(fresh))
            lsq[compute] = np.maximum(acc, 0.0)
            self._lsq.store(mesh, fresh, lsq)
        return np.sqrt(mesh.h_sizes * self._lsq.get(mesh, positions))


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
