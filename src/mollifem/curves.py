"""Polyline curves carrying the line-source density.

The immersed curve gamma is always handled through its polyline
discretization; a circle is represented by an inscribed regular polygon.
A curve's points and its density f, piecewise constant per segment, never
change. It owns a bin grid of its segment midpoints, used for proximity
queries, and the incidence of its segments and the cells of the last mesh
asked about (`Curve.hits`), the one place where the program decides which
cells the curve meets; `interface_cells` reads it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import BinGrid, clip_segments_to_triangles
from .mesh import Mesh, match_serials


class Curve:
    """Connected polyline, optionally closed, with the line-source density
    `f`: one value per segment, read-only."""

    # how far the curve the polyline stands for may stray from a segment;
    # `circle` records the sagitta of its inscribed polygon
    sagitta = 0.0

    def __init__(self, points, f=1.0, closed: bool = True,
                 boundary_gap: float = 1.0):
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
        f = np.array(f, dtype=np.float64)  # a copy: the caller's stays writable
        if f.ndim == 0:
            f = np.full(self.num_segments, float(f))
        if f.shape != (self.num_segments,):
            raise ValueError("need one value per curve segment")
        f.flags.writeable = False
        self.f = f
        self._serials = np.array([-1])  # a sentinel entry no serial matches
        self._hits = (np.empty(0, np.int32), np.empty(0, np.int32),
                      np.empty(0), np.empty(0))

    @classmethod
    def circle(cls, center, radius: float, n_segments: int = 2 ** 14, f=1.0,
               boundary_gap: float = 1.0) -> "Curve":
        """Inscribed regular polygon approximating a circle."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        if n_segments < 3:
            raise ValueError("need at least 3 segments")
        t = 2 * np.pi * np.arange(n_segments) / n_segments
        pts = np.column_stack([center[0] + radius * np.cos(t),
                               center[1] + radius * np.sin(t)])
        curve = cls(pts, f, closed=True, boundary_gap=boundary_gap)
        curve.sagitta = radius * (1.0 - np.cos(np.pi / n_segments))
        return curve

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
    def midpoint_grid(self) -> BinGrid:
        """The n segment midpoints, `extent` wide, on bins of side max(extent /
        (4 sqrt(n)), longest segment): about 16 bins a segment."""
        mid = 0.5 * (self.seg_start + self.seg_end)
        side = max(np.ptp(mid, axis=0).max() / (4.0 * np.sqrt(len(mid))),
                   self.max_seg_len)
        lo = mid.min(axis=0) - side
        return BinGrid(lo, side, np.floor((mid - lo) / side).astype(np.int64))

    def hits(self, mesh: Mesh, rows: np.ndarray | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The incidence of the segments and the cells of `mesh`: (cell,
        seg, t0, t1) for each pair whose segment meets the closed cell,
        touching included (`clip_segments_to_triangles`), by cell, then by
        ascending segment. [t0, t1] is the part of the segment's parameter
        range inside the cell, empty where the two only touch. With `rows`
        (ascending), the pairs of the cells at `rows` alone, each cell given
        by its place in `rows`. The arrays are read-only.

        The pairs of the last mesh asked about are kept, keyed by cell
        serial (`match_serials`): only cells that mesh lacks are clipped.
        """
        if self._serials is not mesh.serial:  # a mesh's serial array never changes
            fresh = match_serials(self._serials, mesh.serial)[1]
            row, gone = match_serials(mesh.serial, self._serials)
            row[gone] = -1  # each known cell's row in `mesh`, or -1
            cell, seg, t0, t1 = self._hits
            cell = row[cell]
            on = cell >= 0
            ci, si = self._candidates(mesh, fresh)
            p = mesh.coords[mesh.triangles[ci].T]  # corners 0, 1, 2
            a, b, meets = clip_segments_to_triangles(
                self.seg_start[si], self.seg_end[si], *p)
            hits = [np.concatenate((x[on], y[meets])) for x, y in
                    ((cell, ci), (seg, si), (t0, a), (t1, b))]
            # kept and fresh pairs each ascend by cell, segments in order;
            # cells and segments are stored as int32: 24 B a pair
            order = np.argsort(hits[0], kind="stable")
            cell, seg, t0, t1 = (x[order] for x in hits)
            self._hits = (cell.astype(np.int32), seg.astype(np.int32), t0, t1)
            for x in self._hits:
                x.flags.writeable = False
            self._serials = mesh.serial
        if rows is None:
            return self._hits
        place = np.full(mesh.num_cells, -1)
        place[rows] = np.arange(len(rows))
        cell = place[self._hits[0]]
        sel = cell >= 0
        return (cell[sel], *(x[sel] for x in self._hits[1:]))

    def _candidates(self, mesh: Mesh, rows: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(row, segment) pairs of the cells at `rows` (ascending), by row,
        then by ascending segment: a segment is a candidate of a cell when
        its midpoint lies within circumradius + half the longest segment of
        the cell's centroid, so every pair that meets is one. A cell whose
        ball's box meets a midpoint tests one run of them per bin row."""
        p = mesh.coords[mesh.triangles[rows]]
        cent = (p[:, 0] + p[:, 1] + p[:, 2]) / 3  # the bits of p.mean(axis=1)
        d = p - cent[:, None, :]
        reach = (np.sqrt((d[..., 0] ** 2 + d[..., 1] ** 2).max(axis=1))
                 + 0.5 * self.max_seg_len + 1e-12)[:, None]
        grid = self.midpoint_grid
        (i0, j0, i1, j1), near = grid.box(cent - reach, cent + reach)
        cell, i = _ranges(i0, np.where(near, i1, i0))  # rows of near boxes
        b = i * grid.shape[1]
        run, e = _ranges(grid.first[b + j0[cell]], grid.first[b + j1[cell]])
        cell, seg = cell[run], grid.order[e]
        d = 0.5 * (self.seg_start[seg] + self.seg_end[seg]) - cent[cell]
        ball = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) <= reach[cell, 0]
        key = np.sort(cell[ball] * self.num_segments + seg[ball])
        return rows[key // self.num_segments], key % self.num_segments


def interface_cells(mesh: Mesh, curve: Curve) -> np.ndarray:
    """Rows of the cells whose closure meets the curve polyline, ascending."""
    return np.unique(curve.hits(mesh)[0])


def _ranges(start: np.ndarray, stop: np.ndarray):
    """The ranges [start[k], stop[k]) end to end, and the k of each value."""
    k = np.repeat(np.arange(len(start)), stop - start)
    return k, np.arange(len(k)) + (stop - np.cumsum(stop - start))[k]

