"""Quadrature rules on triangles and segments, plus uniform subdivision tables."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Symmetric 6-point rule on the reference triangle, exact for degree 4.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_BARY = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
TRI_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])  # sums to 1

# 4-point Gauss-Legendre nodes and weights mapped to [0, 1].
_G4 = np.array([0.339981043584856, 0.861136311594053])
_G4W = np.array([0.652145154862546, 0.347854845137454])
GAUSS4_X = np.concatenate([(1 - _G4[::-1]) / 2, (1 + _G4) / 2])
GAUSS4_W = np.concatenate([_G4W[::-1], _G4W]) / 2

# Points per batch of a cold per-cell pass (`batches`): temporaries scale with
# it, not the mesh. Each pass prices its items in points of about 120 B.
POINT_CHUNK = 1 << 18


def batches(cost: np.ndarray):
    """The (lo, hi) runs, end to end, of consecutive items whose costs sum to
    at most `POINT_CHUNK`, each as long as that allows, or one item alone."""
    end, lo = np.cumsum(cost), 0
    while lo < len(end):
        cap = end[lo] - cost[lo] + POINT_CHUNK  # the most `end` may reach
        hi = max(lo + 1, int(np.searchsorted(end, cap, "right")))
        yield lo, hi
        lo = hi


def split4(corners: np.ndarray) -> np.ndarray:
    """Midpoint children (..., 4, 3, k) of triangles (..., 3, k): those at
    corners 0, 1, 2, then the middle one, each oriented as its parent."""
    t0, t1, t2 = corners[..., 0, :], corners[..., 1, :], corners[..., 2, :]
    m01, m12, m02 = (t0 + t1) / 2, (t1 + t2) / 2, (t0 + t2) / 2
    kids = ((t0, m01, m02), (m01, t1, m12), (m02, m12, t2), (m01, m12, m02))
    return np.stack([np.stack(k, axis=-2) for k in kids], axis=-3)


@lru_cache(maxsize=None)
def subdivided_rule(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """6-point rule applied on every cell of a depth-`depth` uniform 4-split.

    Returns (bary, weights): barycentric points (Q, 3) w.r.t. the parent
    triangle and weights (Q,) summing to 1, with Q = 6 * 4**depth.
    """
    corners = np.eye(3)[None, :, :]
    for _ in range(depth):
        corners = np.moveaxis(split4(corners), 1, 0).reshape(-1, 3, 3)
    bary = np.einsum("qc,scb->sqb", TRI_BARY, corners).reshape(-1, 3)
    w = np.tile(TRI_WEIGHTS, corners.shape[0]) / corners.shape[0]
    return bary, w


def triangle_points(xy: np.ndarray, bary: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Map barycentric points (Q, 3) into the cells whose corners are rows of
    x and y (2, 3, m), as `Mesh.corners` gives them -> (m, Q, 2), written
    into `out` when it is given."""
    if out is None:
        out = np.empty((xy.shape[-1], len(bary), 2))
    # one coordinate at a time, so the inner loops run over the Q points
    c = xy[..., None]
    for d in (0, 1):
        o = out[..., d]
        np.multiply(bary[:, 0], c[d, 0], out=o)
        o += bary[:, 1] * c[d, 1]
        o += bary[:, 2] * c[d, 2]
    return out
