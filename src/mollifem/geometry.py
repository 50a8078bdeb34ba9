"""Planar predicates, and the bin grid behind every spatial query.

Vectorized over pairs or cells. The segment clip reads what the curve and
the mesh already hold: each segment's ends and length, each cell's corners
and edge vectors; the circle test reads corners alone, as rows of x and y
(3, n), one side at a time.
"""
from __future__ import annotations

import numpy as np

# Relative slack for sign tests; scaled by the magnitude of the cross products
# involved so that the predicates are invariant under uniform scaling.
_REL_EPS = 1e-12
# A segment touches a cell when its clipped parameter interval is empty by at
# most this, and a circle a cell when their squared distances miss its
# squared radius by at most this fraction: far above the round-off, and
# relative, so the tests do not change under uniform scaling. Without it,
# exact touches (a polyline vertex on a cell's corner or edge) can be lost.
_TOUCH = 1e-9


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def clip_pairs(curve, mesh, seg: np.ndarray, row: np.ndarray):
    """Clip segment seg[i] of `curve` against the closed cell at row[i] of
    `mesh` (Cyrus-Beck half-planes), for each pair i. Each segment's start,
    end and length are read from the curve, each cell's corners and its
    edge vectors (`Mesh.edge_vectors`, CCW) from the mesh, and both are
    gathered here per pair.

    Returns (tmin, tmax, meets): the parameter interval of each segment
    inside its triangle, and the inclusive incidence test: meets is True
    where the segment meets the closed triangle, touching included, so the
    interval may be empty (tmax < tmin) by up to `_TOUCH`.
    """
    # `take` gathers rows several times faster than indexing does
    p0 = curve.seg_start.take(seg, axis=0)
    d = curve.seg_end.take(seg, axis=0) - p0
    dlen1 = curve.seg_lengths.take(seg) + 1.0
    n = len(seg)
    tmin = np.zeros(n)
    tmax = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for k in range(3):  # the mesh's edge k - 1 runs from corner k to k + 1
        e0 = mesh.coords.take(mesh.triangles[:, k].take(row), axis=0)
        ev = mesh.edge_vectors[:, k - 1].take(row, axis=1).T
        elen = np.sqrt((ev * ev).sum(-1))
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


def clip_slack(length):
    """How far outside each edge line of a cell `clip_pairs` may keep a
    point of a segment of `length` (`Curve._candidates` turns this into a
    distance from the cell, by the cell's shape).

    Let the clip keep the segment S(t) = p + t d, t in [0, 1], with [tmin,
    tmax], and take q = S(min(tmin, 1)). Against each edge e of the cell, q
    is
    - inside, if the edge cuts the range from below (tcut <= tmin);
    - at most _TOUCH |d| outside, if it cuts the range from above, since
      tcut >= tmax >= tmin - _TOUCH and |c1| <= |e| |d|;
    - at most 2 eps / |e| outside, if it is parallel (|c1| <= eps, kept
      only when c0 >= -eps). The `+ 1` in eps = _REL_EPS (|e| (|d| + 1) +
      |c0|) makes this an absolute length, 2 _REL_EPS (|d| + 1).
    The clip's rounding, a few ulps of the coordinates, of |d| and of |e|,
    stays below _REL_EPS (|d| + 1) for coordinates below 100 in magnitude,
    so q lies within _TOUCH |d| + 3 _REL_EPS (|d| + 1) of every edge line.
    """
    return _TOUCH * length + 3 * _REL_EPS * (length + 1)


def circle_meets(center, radius: float, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Whether the circle of `radius` about `center` meets each closed CCW
    triangle, its corners given as rows of x and y, `x` and `y` (3, n):
    the triangle's nearest point lies within the radius (or the triangle
    holds the centre), and its farthest point, a corner, does not. Each
    side compares a squared distance with the squared radius widened by
    `_TOUCH`, so a triangle the circle only touches counts."""
    vx, vy = x - center[0], y - center[1]
    near, far, holds = np.inf, 0.0, True
    for k in range(3):  # side k runs from corner k to corner k + 1
        ax, ay, bx, by = vx[k], vy[k], vx[k - 2], vy[k - 2]
        ex, ey = bx - ax, by - ay
        t = np.clip(-(ax * ex + ay * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        px, py = ax + t * ex, ay + t * ey
        near = np.minimum(near, px * px + py * py)
        far = np.maximum(far, ax * ax + ay * ay)
        holds = holds & (ax * by - ay * bx >= 0)
    r2 = radius * radius
    return (holds | (near <= r2 * (1 + _TOUCH))) & (far >= r2 * (1 - _TOUCH))


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

    def bin_of(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Bin index along `axis` of the coordinates `v`, clipped to the
        grid, in int32."""
        return np.clip(np.floor((v - self.lo[axis]) / self.side), 0,
                       self.shape[axis] - 1).astype(np.int32)

    def box(self, lo, hi, pad: float = 0.0):
        """Bins [i0, i1) x [j0, j1) holding each box [lo - pad, hi + pad],
        lo and hi given as rows of x and y (bin_of is monotone), and the
        number of entries in each box's bins. One axis at a time, to save
        memory."""
        i0, j0 = self.bin_of(lo[0] - pad, 0), self.bin_of(lo[1] - pad, 1)
        i1, j1 = self.bin_of(hi[0] + pad, 0) + 1, self.bin_of(hi[1] + pad, 1) + 1
        s, n = self.entries.ravel(), self.entries.shape[1]
        count = s[i1 * n + j1]
        count -= s[i0 * n + j1]
        count -= s[i1 * n + j0]
        count += s[i0 * n + j0]
        return (i0, j0, i1, j1), count
