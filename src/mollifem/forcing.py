"""Mollification kernels and load descriptions for the line source.

Three right-hand-side flavours are understood by assembly and estimation:

* :class:`RegularizedForcing` — the mollified density
  ``F_r(x) = \\int_gamma f(y) delta_r(y - x) ds_y`` with
  ``delta_r(x) = r^-2 psi(x / r)``;
* :class:`LineForcing` — the unmollified line source, integrated exactly by
  clipping curve segments against cells (the ``baseline`` algorithm);
* :class:`DensityForcing` — a plain area density (manufactured problems).

Each exposes ``load_vector`` (P1 load vector) and ``data_indicator``
(per-cell data-oscillation term of the estimator). The two area forcings
share one cell rule (:class:`_CellForcing`), differing in where and how deep.
"""
from __future__ import annotations

import logging
from functools import cached_property, partial

import numpy as np

from . import quadrature as quadr
from .curves import Curve
from .geometry import BinGrid
from .mesh import CellCache, Mesh

logger = logging.getLogger("mollifem")

KERNEL_FAMILIES = ("radial_c1", "tensor_cinf", "tensor_linf")


def r_of_tau(tau: float) -> float:
    """Mollification radius coupled to the outer tolerance, r = tau^2."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau * tau


# 1 / int (1 + cos(pi|x|)) over the unit ball = 1 / (pi - 4/pi), and the
# integral of exp(1 - 1/(1 - t^2)) over (-1, 1): the two kernels' norming
# constants, correctly rounded (mpmath). A test re-derives both.
_RADIAL_C1_NORM = 0.5352307308831128
_CINF_1D_NORM = 1.2069003224378763

# 1 + cos(pi sqrt(u)) = w^2 Q(w), w = 1 - u in [0, 1]: Q is the degree-9
# Chebyshev interpolant in 2u - 1 at 64 Chebyshev points (mpmath, 50 digits;
# the next coefficient is 2.3e-18) in powers of w. A test re-derives it.
_RADIAL_Q = (1.2337005501361697, 0.6168502750680854, 0.1318619140164897,
             0.01620248744143571, 0.0013066578553756006,
             7.480176498674405e-05, 3.2041152563756932e-06,
             1.0670419437840645e-07, 2.830084790415768e-09,
             6.792151346045246e-11)


def _radial_profile(w: np.ndarray, q=_RADIAL_Q) -> np.ndarray:
    """w^2 (q[0] + ... + q[9] w^9): 1 + cos(pi sqrt(1 - w)) to a few ulps
    for q = _RADIAL_Q, whose terms are all positive."""
    p = q[-1] * w
    for c in q[-2::-1]:
        p += c
        p *= w
    p *= w
    return p


class Kernel:
    """Normalized mollifier profile psi with unit-scale support."""

    def __init__(self, family: str):
        if family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        self.family = family
        self.support = "ball" if family == "radial_c1" else "square"
        # tensor_linf jumps at the support's edge, so its quadrature error
        # only halves with each subdivision level
        self.continuous = family != "tensor_linf"
        self._q = tuple(_RADIAL_C1_NORM * c for c in _RADIAL_Q)

    def _psi_1d(self, t: np.ndarray) -> np.ndarray:
        if self.family == "tensor_cinf":
            # clamped off the support, where exp(1 - 1/0) = 0
            with np.errstate(divide="ignore"):
                u = 1.0 - np.minimum(t * t, 1.0)
                return np.exp(1.0 - 1.0 / u) / _CINF_1D_NORM
        # tensor_linf
        return np.where(np.abs(t) < 1.0, 0.5, 0.0)

    def psi(self, x: np.ndarray) -> np.ndarray:
        """psi at points of shape (..., 2)."""
        x = np.array(x, dtype=np.float64)  # a copy: psi_xy overwrites it
        return self.psi_xy(x[..., 0], x[..., 1])

    def psi_xy(self, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """psi at points given by coordinate arrays, which it may overwrite."""
        if self.family == "radial_c1":
            x0 *= x0
            x1 *= x1
            x0 += x1  # w = 1 - min(x0^2 + x1^2, 1)
            w = np.maximum(np.subtract(1.0, x0, out=x0), 0.0, out=x0)
            return _radial_profile(w, self._q)
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
            prof = _RADIAL_C1_NORM * (1.0 + np.cos(np.pi * s))
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


def kernel_moment_check(kernel: Kernel, order: int, r: float = 1.0) -> float:
    """Max defect of the moment condition of the given order on a 5 x 5 grid.

    Order 0: |int delta_r(x - y) dy - 1|; order 1: the same for first moments,
    which reduces to |x (M0 - 1) + r M1| by substitution, x in [-1, 1]^2.
    """
    if order not in (0, 1):
        raise ValueError("moment order must be 0 or 1")
    if r <= 0:
        raise ValueError("r must be positive")
    m0, m1 = kernel.moments
    if order == 0:
        return abs(m0 - 1.0)
    g = np.linspace(-1.0, 1.0, 5)
    pts = np.array([(a, b) for a in g for b in g])
    defect = pts * (m0 - 1.0) + r * m1[None, :]
    return float(np.abs(defect).max())


# -- per-cell records shared by all forcings --------------------------------


class _CellForcing:
    """One record per cell: the three load entries int_T F phi_i and the data
    square int_T F^2, integrated the first time either is asked for. An area
    forcing gives `eval(points)` and `_depths(mesh, positions)`, the depth of
    the subdivided rule on each cell, or -1 on a cell it does not reach;
    `LineForcing` gives its own `_cell_integrals`."""

    def __init__(self):
        self._cells = CellCache((4,))

    def _records(self, mesh: Mesh) -> np.ndarray:
        return self._cells.values(mesh, partial(self._cell_integrals, mesh))

    def load_vector(self, mesh: Mesh) -> np.ndarray:
        load = self._records(mesh)[:, :3]
        return np.bincount(mesh.triangles.ravel(), weights=load.ravel(),
                           minlength=mesh.num_vertices)

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        """d(T) = h_T ||F||_{L2(T)} for all active cells."""
        return mesh.h_sizes * np.sqrt(self._records(mesh)[:, 3])

    def _cell_integrals(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """int_T F phi_i (i = 0, 1, 2) and int_T F^2 for the cells at
        `positions`, by depth in batches of about `quadr.POINT_CHUNK` points;
        each is a sum over its own cell's points, so no batch changes its bits."""
        out = np.zeros((len(positions), 4))
        depths = self._depths(mesh, positions)
        for d in np.setdiff1d(depths, -1):
            grp = np.flatnonzero(depths == d)
            bary, w = quadr.subdivided_rule(int(d))
            step = max(1, quadr.POINT_CHUNK // len(w))
            for lo in range(0, len(grp), step):
                sel = grp[lo:lo + step]
                cells = positions[sel]
                pts = quadr.triangle_points(mesh.coords[mesh.triangles[cells]], bary)
                g = self.eval(pts.reshape(-1, 2)).reshape(len(sel), len(w))
                areas = mesh.areas[cells]
                out[sel, :3] = areas[:, None] \
                    * np.einsum("mq,q,qi->mi", g, w, bary)
                out[sel, 3] = areas * np.einsum("mq,mq,q->m", g, g, w)
        return out


def _subdivision_depths(h: np.ndarray, r: float,
                        continuous: bool = True) -> np.ndarray:
    """Depth of the subdivided rule for cells of size h = |T|^(1/2), with
    x = log2(h / r): ceil(x) + 2 where h > r. For a continuous kernel a
    cell with h <= r gets max(0, ceil(x / 2) + 2): 6 points at h/r <= 1/16,
    24 up to 1/4 and 96 up to 1, each class within 1e-5 of a depth-5 rule
    for h/r <= 1/2 (tests/test_forcing.py). A discontinuous kernel keeps
    depth 2 there."""
    with np.errstate(divide="ignore"):
        x = np.log2(np.maximum(h, 1e-300) / r)
    d = np.maximum(np.ceil(x), np.ceil(x / 2) if continuous else 0)
    return np.maximum(d + 2, 0).astype(np.int64)


# Fine bins per radius, and (point, node) pairs per kernel batch (temporaries
# this size stay in cache). A value is a row sum of a length set by its bin,
# so no batch size changes it.
_BINS_PER_R = 8
_PAIR_CHUNK = 1 << 15


class RegularizedForcing(_CellForcing):
    """Mollified line source F_r for a fixed radius r."""

    def __init__(self, curve: Curve, kernel: Kernel, r: float):
        if r <= 0:
            raise ValueError("r must be positive")
        super().__init__()
        self.curve = curve
        if r >= curve.boundary_gap:
            logger.warning("mollification radius %.3g >= boundary gap %.3g; "
                           "density overlaps the domain boundary", r, curve.boundary_gap)
        self.kernel = kernel
        self.r = float(r)
        self._reach = 1.0 if kernel.support == "ball" else np.sqrt(2.0)
        self._build_nodes()
        self._build_bins()

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
        self.node_fw = self.curve.f[seg] * w

    def _build_bins(self) -> None:
        """Bins of side r / n = r / _BINS_PER_R, in units of r, from 3 r below
        the nodes. A bin lists, in node order, every node whose support meets
        it: at most n bins away along each axis and within reach (the
        support's circumradius) + half a bin diagonal of its centre. A bin
        with k nodes is row `_row[b]` of `_tables[k]` (x / r, y / r, f w)."""
        n = _BINS_PER_R
        xy = self.node_xy / self.r
        lo = np.floor(xy.min(axis=0)) - 3.0
        off = np.indices((2 * n + 1, 2 * n + 1)).reshape(2, -1).T - n
        bins = (np.floor((xy - lo) * n).astype(int)[:, None]
                + off).reshape(-1, 2)
        node = np.repeat(np.arange(len(xy)), len(off))
        d = lo + (bins + 0.5) / n - xy[node]
        keep = np.hypot(*d.T) <= self._reach + np.sqrt(0.5) / n + 1e-9
        self.grid = BinGrid(lo, 1.0 / n, bins[keep])
        node = node[keep][self.grid.order]  # by bin, node
        count = np.diff(self.grid.first)
        self._row = np.zeros(len(count), dtype=np.int32)
        self._tables = []
        for k in range(count.max() + 1):
            sel = np.flatnonzero(count == k)
            self._row[sel] = np.arange(len(sel))
            ent = node[(self.grid.first[sel, None] + np.arange(k)).ravel()]
            self._tables.append(tuple(v[ent].reshape(len(sel), k) for v in
                                      (xy[:, 0], xy[:, 1], self.node_fw)))

    def _near(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """Mask over the cells at `positions` whose bounding box meets a bin
        that lists a node: `eval` is zero in every other bin."""
        p = mesh.coords[mesh.triangles[positions]]
        lo, hi = p.min(axis=1).T / self.r, p.max(axis=1).T / self.r
        return self.grid.box(lo, hi)[1] > 0

    def _depths(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        depths = _subdivision_depths(mesh.h_sizes[positions], self.r,
                                     self.kernel.continuous)
        return np.where(self._near(mesh, positions), depths, -1)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """F_r at points (n, 2); zero outside the r-neighborhood of gamma.

        Each value depends on its own point only, not on the batch."""
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2) / self.r
        b = np.ravel_multi_index(self.grid.bin_of(p).T, self.grid.shape)
        count, row = self.grid.first[b + 1] - self.grid.first[b], self._row[b]
        # points grouped by count (a radix sort while counts fit 16 bits)
        order = np.argsort(count.astype(np.min_scalar_type(len(self._tables))),
                           kind="stable")
        groups = np.split(order, np.cumsum(
            np.bincount(count, minlength=len(self._tables)))[:-1])
        out = np.zeros(len(p))
        for k, sel in enumerate(groups[1:], 1):
            x, y, fw = self._tables[k]
            step = max(1, _PAIR_CHUNK // k)
            for lo in range(0, len(sel), step):
                sub = sel[lo:lo + step]
                rs = row[sub]
                dx = np.take(x, rs, axis=0)
                dx -= p[sub, :1]
                dy = np.take(y, rs, axis=0)
                dy -= p[sub, 1:]
                out[sub] = np.einsum("pk,pk->p", self.kernel.psi_xy(dx, dy),
                                     np.take(fw, rs, axis=0))
        return out / (self.r * self.r)


class DensityForcing(_CellForcing):
    """Plain area density g(x), integrated with the standard cell rule."""

    def __init__(self, func):
        super().__init__()
        self.func = func

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return np.asarray(self.func(pts), dtype=np.float64)

    def _depths(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        return np.zeros(len(positions), dtype=np.int64)  # the 6-point rule


class LineForcing(_CellForcing):
    """Exact (clipped) line source; data indicator is the surrogate
    h_T^(1/2) ||f||_{L2(T cap gamma)}.

    The clipped pieces come from the curve's incidence store (`Curve.hits`),
    and the integrals are cached per cell, so repeated refinement passes only
    touch newly created cells.
    """

    def __init__(self, curve: Curve):
        super().__init__()
        self.curve = curve

    def _cell_integrals(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """int_{T cap gamma} f phi_i (i = 0, 1, 2) and int_{T cap gamma} f^2."""
        rows, si, t0, t1 = self.curve.hits(mesh, positions)
        piece = t1 - t0 > 1e-14  # touching pairs carry no length
        rows, si, t0, t1 = rows[piece], si[piece], t0[piece], t1[piece]
        gx, gw = quadr.GAUSS3_X, quadr.GAUSS3_W
        a = self.curve.seg_start[si]
        d = self.curve.seg_end[si] - a
        tt = t0[:, None] + (t1 - t0)[:, None] * gx[None, :]
        pts = a[:, None, :] + tt[..., None] * d[:, None, :]
        lam = quadr.barycentric(mesh.coords[mesh.triangles[positions[rows]]], pts)
        length = (t1 - t0) * self.curve.seg_lengths[si]
        f = self.curve.f[si]
        part = np.einsum("p,q,pqi->pi", length * f, gw, lam)
        # each cell sums its pieces in the order of the pairs
        return np.stack([np.bincount(rows, x, len(positions)) for x in
                         (*part.T, length * f ** 2)], axis=1)

    def data_indicator(self, mesh: Mesh) -> np.ndarray:
        return np.sqrt(mesh.h_sizes * self._records(mesh)[:, 3])
