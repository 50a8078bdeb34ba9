"""Planar predicates used by the mesh and curve machinery.

All tests are inclusive ("touching counts") and vectorized over pair arrays.
Inputs are float64 arrays of shape (..., 2).
"""
from __future__ import annotations

import numpy as np

# Relative slack for sign tests; scaled by the magnitude of the cross products
# involved so that the predicates are invariant under uniform scaling.
_REL_EPS = 1e-12


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


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
        # Degenerate a (point): fall back to b-side projection.
        degen = rr <= (eps * eps)
        if np.any(degen):
            ss = (s * s).sum(-1)
            ta = ((a0 - b0) * s).sum(-1)
            overlap = np.where(degen & (ss > 0), (ta >= -teps) & (ta <= ss + teps), overlap)
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


def clip_segments_to_triangles(p0, p1, t0, t1, t2):
    """Clip segments against closed CCW triangles.

    Returns (tmin, tmax, valid): parameter interval of each segment inside its
    triangle; valid is False where the intersection is empty or degenerate.
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
    ok &= tmax - tmin > 1e-14
    return tmin, tmax, ok
