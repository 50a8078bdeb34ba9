"""Polyline curves carrying piecewise line-source data.

The immersed curve gamma is always handled through its polyline
discretization; a circle is represented by an inscribed regular polygon.
Curve objects are immutable and own the spatial indexes used for proximity
and intersection queries.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

_GRID_RES = 256  # spatial hash resolution along the longer bbox axis


class Curve:
    """Connected polyline, optionally closed."""

    def __init__(self, points, closed: bool = True, boundary_gap: float = 1.0):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("points must have shape (n >= 2, 2)")
        if boundary_gap <= 0:
            raise ValueError("boundary_gap must be positive")
        self.points = pts
        self.closed = bool(closed)
        self.boundary_gap = float(boundary_gap)
        if self.total_length <= 0:
            raise ValueError("curve has zero length")

    @classmethod
    def circle(cls, center, radius: float, n_segments: int = 2 ** 14,
               boundary_gap: float = 1.0) -> "Curve":
        """Inscribed regular polygon approximating a circle."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        if n_segments < 3:
            raise ValueError("need at least 3 segments")
        t = 2 * np.pi * np.arange(n_segments) / n_segments
        pts = np.column_stack([center[0] + radius * np.cos(t),
                               center[1] + radius * np.sin(t)])
        return cls(pts, closed=True, boundary_gap=boundary_gap)

    @property
    def num_segments(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    @cached_property
    def seg_start(self) -> np.ndarray:
        return self.points if self.closed else self.points[:-1]

    @cached_property
    def seg_end(self) -> np.ndarray:
        return np.roll(self.points, -1, axis=0) if self.closed else self.points[1:]

    @cached_property
    def seg_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.seg_end - self.seg_start, axis=1)

    @cached_property
    def total_length(self) -> float:
        return float(self.seg_lengths.sum())

    @cached_property
    def max_seg_len(self) -> float:
        return float(self.seg_lengths.max())

    @cached_property
    def vertex_tree(self) -> cKDTree:
        return cKDTree(self.points)

    # -- spatial hash over segments ---------------------------------------

    @cached_property
    def _grid(self):
        lo = np.minimum(self.seg_start, self.seg_end).min(axis=0)
        hi = np.maximum(self.seg_start, self.seg_end).max(axis=0)
        span = max(float((hi - lo).max()), 1e-30)
        cell = span / _GRID_RES
        bins: dict[tuple[int, int], list[int]] = {}
        s_lo = np.floor((np.minimum(self.seg_start, self.seg_end) - lo) / cell).astype(np.int64)
        s_hi = np.floor((np.maximum(self.seg_start, self.seg_end) - lo) / cell).astype(np.int64)
        for i in range(self.num_segments):
            for ix in range(s_lo[i, 0], s_hi[i, 0] + 1):
                for iy in range(s_lo[i, 1], s_hi[i, 1] + 1):
                    bins.setdefault((ix, iy), []).append(i)
        return lo, cell, {k: np.array(v, dtype=np.int64) for k, v in bins.items()}

    def grid_query(self, xmin, ymin, xmax, ymax) -> np.ndarray:
        """Segment ids whose grid bins overlap the given box (superset)."""
        lo, cell, bins = self._grid
        ix0 = int(np.floor((xmin - lo[0]) / cell))
        ix1 = int(np.floor((xmax - lo[0]) / cell))
        iy0 = int(np.floor((ymin - lo[1]) / cell))
        iy1 = int(np.floor((ymax - lo[1]) / cell))
        ix0, ix1 = max(ix0, 0), min(ix1, _GRID_RES)
        iy0, iy1 = max(iy0, 0), min(iy1, _GRID_RES)
        out = [bins[(ix, iy)]
               for ix in range(ix0, ix1 + 1)
               for iy in range(iy0, iy1 + 1)
               if (ix, iy) in bins]
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(out))


class SegmentedData:
    """Line-source density f, piecewise constant per curve segment."""

    def __init__(self, curve: Curve, values):
        self.curve = curve
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0:
            v = np.full(curve.num_segments, float(v))
        if v.shape != (curve.num_segments,):
            raise ValueError("need one value per curve segment")
        self.values = v

    @classmethod
    def constant(cls, curve: Curve, value: float) -> "SegmentedData":
        return cls(curve, value)
