"""Planar predicates, and the bin grid behind every spatial query.

Vectorized over pair arrays; inputs are float64 arrays of shape (..., 2).
The segment clip reads per-segment and per-cell factors, formed once, and
gathers them per pair.
"""
from __future__ import annotations

import numpy as np

# Relative slack for sign tests; scaled by the magnitude of the cross products
# involved so that the predicates are invariant under uniform scaling.
_REL_EPS = 1e-12
# A segment touches a cell when its clipped parameter interval is empty by at
# most this: far above the round-off of the cuts, and a fraction of the
# segment, so the test does not change under uniform scaling. Without it,
# exact touches (a polyline vertex on a cell's corner or edge) can be lost.
_TOUCH = 1e-9


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def segment_factors(start: np.ndarray, end: np.ndarray):
    """What the clip reads of each segment start -> end, formed once: the
    start, the direction d and |d| + 1."""
    d = end - start
    return start, d, np.sqrt((d * d).sum(-1)) + 1.0


def cell_factors(corners: np.ndarray):
    """What the clip reads of each CCW triangle, formed once: its corners k
    = 0, 1, 2 (3, m, 2), the edge vectors from corner k to k + 1 and their
    lengths (3, m)."""
    edges = np.roll(corners, -1, axis=0) - corners
    return corners, edges, np.sqrt((edges * edges).sum(-1))


def clip_pairs(segments, cells, seg: np.ndarray, cell: np.ndarray):
    """Clip segment seg[i] against closed triangle cell[i] (Cyrus-Beck
    half-planes), for each pair i; `segments` and `cells` are the factors of
    `segment_factors` and `cell_factors`, gathered here per pair.

    Returns (tmin, tmax, meets): the parameter interval of each segment
    inside its triangle, and the inclusive incidence test: meets is True
    where the segment meets the closed triangle, touching included, so the
    interval may be empty (tmax < tmin) by up to `_TOUCH`.
    """
    # `take` gathers rows several times faster than indexing does
    p0, d, dlen1 = (x.take(seg, axis=0) for x in segments)
    n = len(seg)
    tmin = np.zeros(n)
    tmax = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for e0, ev, elen in zip(*cells):
        e0, ev, elen = (x.take(cell, axis=0) for x in (e0, ev, elen))
        c0 = cross2(ev, p0 - e0)  # >= 0 means p0 inside this half-plane
        c1 = cross2(ev, d)
        eps = _REL_EPS * (elen * dlen1 + np.abs(c0))
        par = np.abs(c1) <= eps
        tcut = np.where(par, 0.0, -c0 / np.where(par, 1.0, c1))
        # c1 > 0: constraint satisfied for t >= tcut; c1 < 0: for t <= tcut.
        tmin = np.where(~par & (c1 > 0), np.maximum(tmin, tcut), tmin)
        tmax = np.where(~par & (c1 < 0), np.minimum(tmax, tcut), tmax)
        ok &= ~(par & (c0 < -eps))
    return tmin, tmax, ok & (tmax - tmin >= -_TOUCH)


class BinGrid:
    """Entries on square bins, entry e in bin ij[e] >= 0, up to a ring of
    empty bins: bin (i, j) covers lo + side * [i, i + 1) x [j, j + 1). Bin
    b = i * shape[1] + j holds order[first[b]:first[b + 1]]; entries[i, j]
    counts the entries in the bins [0, i) x [0, j) (a summed-area table)."""

    def __init__(self, lo, side: float, ij: np.ndarray):
        self.lo, self.side, self.shape = lo, side, ij.max(axis=0) + 2
        fid = np.ravel_multi_index(ij.T, self.shape)
        count = np.bincount(fid, minlength=self.shape.prod())
        self.order = np.argsort(fid, kind="stable")
        self.first = np.concatenate(([0], np.cumsum(count)))
        self.entries = np.pad(count.reshape(self.shape).cumsum(
            axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32), (1, 0))

    def bin_of(self, p: np.ndarray) -> np.ndarray:
        """Bin (i, j) of each point, clipped to the grid."""
        return np.clip(np.floor((p - self.lo) / self.side), 0,
                       self.shape - 1).astype(np.int64)

    def box(self, lo, hi, pad: float = 0.0):
        """Bins [i0, i1) x [j0, j1) holding each box [lo - pad, hi + pad],
        lo and hi given as rows of x and y (bin_of is monotone), and the
        number of entries in each box's bins. One axis at a time and in
        int32, to save memory."""
        def bins(v, a):  # `bin_of` along axis a
            return np.clip(np.floor((v - self.lo[a]) / self.side), 0,
                           self.shape[a] - 1).astype(np.int32)
        i0, j0 = bins(lo[0] - pad, 0), bins(lo[1] - pad, 1)
        i1, j1 = bins(hi[0] + pad, 0) + 1, bins(hi[1] + pad, 1) + 1
        s, n = self.entries.ravel(), self.entries.shape[1]
        count = s[i1 * n + j1]
        count -= s[i0 * n + j1]
        count -= s[i1 * n + j0]
        count += s[i0 * n + j0]
        return (i0, j0, i1, j1), count
