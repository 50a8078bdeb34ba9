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
        """Origin, bin width, and the segment ids of each bin as CSR
        (``members[start[b]:start[b + 1]]``, ascending) over bins
        ``b = ix * (_GRID_RES + 1) + iy``, with each member's `_box_bins`
        flags."""
        s_lo = np.minimum(self.seg_start, self.seg_end)
        s_hi = np.maximum(self.seg_start, self.seg_end)
        lo = s_lo.min(axis=0)
        cell = max(float((s_hi.max(axis=0) - lo).max()), 1e-30) / _GRID_RES
        seg, b, flags = _box_bins(np.floor((s_lo - lo) / cell).astype(np.int64),
                                  np.floor((s_hi - lo) / cell).astype(np.int64))
        order = np.argsort(b, kind="stable")
        start = np.searchsorted(b[order], np.arange((_GRID_RES + 1) ** 2 + 1))
        return lo, cell, start, seg[order], flags[order]

    def grid_query(self, box_lo: np.ndarray, box_hi: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(box index, segment id) pairs whose grid bins overlap each
        box (n, 2) corners; a superset of the segments meeting the box.
        Pairs are unique and sorted by box, then segment."""
        lo, cell, start, members, member_flags = self._grid
        i0 = np.maximum(np.floor((box_lo - lo) / cell).astype(np.int64), 0)
        i1 = np.minimum(np.floor((box_hi - lo) / cell).astype(np.int64),
                        _GRID_RES)
        box, b, flags = _box_bins(i0, i1)
        count = start[b + 1] - start[b]
        at = np.repeat(start[b] - np.cumsum(count) + count, count) \
            + np.arange(count.sum())
        # list a pair only in the lowest bin that the box and segment share
        keep = (np.repeat(flags, count) | member_flags[at]) == 3
        pair = np.sort(np.repeat(box, count)[keep] * self.num_segments
                       + members[at[keep]])
        return pair // self.num_segments, pair % self.num_segments


def _box_bins(i0: np.ndarray, i1: np.ndarray) -> tuple[np.ndarray, ...]:
    """(box index, bin, flags) for each bin of the inclusive integer boxes
    ``i0[j] .. i1[j]`` (n, 2); an empty box has none. Flag 1 marks a bin in
    its box's lowest column, flag 2 one in its lowest row."""
    ny = np.maximum(i1[:, 1] - i0[:, 1] + 1, 0)
    count = np.maximum(i1[:, 0] - i0[:, 0] + 1, 0) * ny
    box = np.repeat(np.arange(len(count)), count)
    j = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
    col, row = j // ny[box], j % ny[box]
    flags = ((col == 0) | ((row == 0) << 1)).astype(np.int8)
    return box, (i0[box, 0] + col) * (_GRID_RES + 1) + i0[box, 1] + row, flags


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
