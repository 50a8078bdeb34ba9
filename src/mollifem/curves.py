"""Polyline curves carrying piecewise line-source data.

The immersed curve gamma is always handled through its polyline
discretization; a circle is represented by an inscribed regular polygon.
Curve objects are immutable and own the spatial index of their segments used
for proximity and intersection queries.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree


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
    def midpoint_tree(self) -> cKDTree:
        """kd-tree of the segment midpoints; a segment that comes within rho
        of x has its midpoint within rho + max_seg_len / 2 of x."""
        return cKDTree(0.5 * (self.seg_start + self.seg_end))


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
