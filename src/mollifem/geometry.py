"""Planar predicates used by the curve's incidence store and the error rule.

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
