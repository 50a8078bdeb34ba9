"""Planar predicates, and the bin grid behind every spatial query.

Vectorized over pair arrays; inputs are float64 arrays of shape (..., 2).
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


class BinGrid:
    """Entries on square bins, entry e in bin ij[e] >= 0, up to a ring of
    empty bins: bin (i, j) covers lo + side * [i, i + 1) x [j, j + 1). Bin
    b = i * shape[1] + j holds order[first[b]:first[b + 1]]; occupied[i, j]
    counts the bins in [0, i) x [0, j) that hold one (a summed-area table)."""

    def __init__(self, lo, side: float, ij: np.ndarray):
        self.lo, self.side, self.shape = lo, side, ij.max(axis=0) + 2
        fid = np.ravel_multi_index(ij.T, self.shape)
        count = np.bincount(fid, minlength=self.shape.prod())
        self.order = np.argsort(fid, kind="stable")
        self.first = np.concatenate(([0], np.cumsum(count)))
        self.occupied = np.pad((count > 0).reshape(self.shape).cumsum(
            axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32), (1, 0))

    def bin_of(self, p: np.ndarray) -> np.ndarray:
        """Bin (i, j) of each point, clipped to the grid."""
        return np.clip(np.floor((p - self.lo) / self.side), 0,
                       self.shape - 1).astype(np.int64)

    def box(self, lo: np.ndarray, hi: np.ndarray):
        """Bins [i0, i1) x [j0, j1) holding each box [lo, hi] (bin_of is
        monotone), and a mask of the boxes whose bins hold an entry."""
        (i0, j0), (i1, j1) = self.bin_of(lo).T, (self.bin_of(hi) + 1).T
        s = self.occupied
        return (i0, j0, i1, j1), \
            s[i1, j1] - s[i0, j1] - s[i1, j0] + s[i0, j0] > 0
