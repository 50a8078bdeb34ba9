"""Polyline curves carrying the line-source density.

The immersed curve gamma is always handled through its polyline
discretization; a circle is represented by an inscribed regular polygon.
A curve's points and its density f, piecewise constant per segment, never
change. It owns a bin grid of its segment midpoints and the bounding boxes
of its segments, used for proximity queries. `Curve.pairs` is the one place
where the program decides which cells the curve meets: it clips the cells
it is given, and keeps nothing. Its two readers, `interface_cells` and the
line source, each keep what they need per cell in a `mesh.CellCache`, so
each clips a cell once.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import quadrature as quadr
from .geometry import BinGrid, clip_pairs, clip_slack
from .mesh import CellCache, Mesh

_CLIP_POINTS = 2  # a midpoint `Curve.pairs` lists holds about 178 B in its clip


class Curve:
    """Connected polyline, optionally closed, with the line-source density
    `f`: one value per segment, read-only."""

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
        self._meets = CellCache()  # 1 where the cell meets the curve

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
        return cls(pts, f, closed=True, boundary_gap=boundary_gap)

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

    @cached_property
    def seg_boxes(self) -> np.ndarray:
        """(4, n): x lo, y lo, x hi, y hi of each segment's bounding box,
        widened by the segment's slack in the clip (`_candidates`)."""
        a, b, w = self.seg_start, self.seg_end, clip_slack(self.seg_lengths)
        return np.concatenate([np.minimum(a, b).T - w, np.maximum(a, b).T + w])

    def pairs(self, mesh: Mesh, rows: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(k, seg, t0, t1) for each pair of a segment and a cell at `rows`
        (ascending, not empty) whose closures meet, touching included
        (`geometry.clip_pairs`), k the cell's place in `rows`, by k, then by
        ascending segment. [t0, t1] is the part of the segment's parameter
        range inside the cell, empty where the two only touch.

        The cells are queried once (`_query`) and clipped against their
        `_candidates` in `quadrature.batches`, a cell priced at
        `_CLIP_POINTS` a midpoint that the query lists.
        """
        query = self._query(mesh, rows)
        out = []
        for lo, hi in quadr.batches(_CLIP_POINTS * query[-1]):
            k, seg = self._candidates(*(x[..., lo:hi] for x in query))
            k += lo
            t0, t1, meets = clip_pairs(self, mesh, seg, rows[k])
            out.append((k[meets], seg[meets], t0[meets], t1[meets]))
        return tuple(np.concatenate(x) for x in zip(*out))

    def _query(self, mesh: Mesh, rows: np.ndarray):
        """(box, i0, j0, i1, j1, count): the boxes of the cells at `rows`
        (`Mesh.boxes`), widened as `_candidates` says, and `BinGrid.box` of
        the midpoints that a segment whose box meets one can have."""
        box = mesh.boxes(rows)
        w = clip_slack(self.max_seg_len)
        margin = (box[2] - box[0]) ** 2 + (box[3] - box[1]) ** 2
        margin = w * (3 * margin / (2 * mesh.areas[rows]) - 1)
        box[:2] -= margin
        box[2:] += margin
        bins, count = self.midpoint_grid.box(
            box[:2], box[2:], pad=0.5 * self.max_seg_len + 2 * w)
        return box, *bins, count

    def _candidates(self, box, i0, j0, i1, j1, count,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(k, segment) pairs of the cells whose `_query` (or a slice of it)
        is given, k the cell's place in it, by k, then by ascending segment:
        a segment is a candidate of a cell when their bounding boxes,
        widened by the margins below, meet.

        The margins cover the clip's slack, so every pair that meets is a
        candidate. A point q the clip keeps of a segment lies within w =
        `geometry.clip_slack` of its length of every edge line of the cell.
        Those points form the cell scaled by 1 + w / rho about its incentre,
        rho the inradius, so q is within w h / rho of the cell's box, h the
        longest edge. As the perimeter is at most 3 h and h^2 at most D^2,
        the box's squared diagonal, h / rho <= k = 3 D^2 / (2 |T|)
        (`Mesh.areas`). A segment's box is widened by its w, and the cell's
        by W (k - 1), W the w of the longest segment: together by w + W (k -
        1) >= w k, so the two boxes meet.

        A cell's query box is its widened box grown by half the longest
        segment and 2 W, which holds the midpoint of every widened segment
        box it meets. A cell whose query box holds no midpoint is dropped in
        four lookups (`BinGrid.box`); each other cell tests one run of
        midpoints per bin row of that box.
        """
        grid, sb = self.midpoint_grid, self.seg_boxes
        cell, i = _ranges(i0, np.where(count > 0, i1, i0))  # near boxes' rows
        b = i * grid.shape[1]
        run, e = _ranges(grid.first[b + j0[cell]], grid.first[b + j1[cell]])
        cell, seg = cell[run], grid.order[e]
        meet = np.ones(len(seg), dtype=bool)
        for k in (0, 1):
            meet &= sb[k].take(seg) <= box[k + 2].take(cell)
            meet &= box[k].take(cell) <= sb[k + 2].take(seg)
        return np.divmod(np.sort(cell[meet] * self.num_segments + seg[meet]),
                         self.num_segments)


def interface_cells(mesh: Mesh, curve: Curve) -> np.ndarray:
    """Rows of the cells whose closure meets the curve polyline, ascending;
    a flag per cell, kept on the curve, so each cell is clipped once."""
    return np.flatnonzero(curve._meets.values(mesh, lambda rows: np.bincount(
        curve.pairs(mesh, rows)[0], minlength=len(rows)) > 0))


def _ranges(start: np.ndarray, stop: np.ndarray):
    """The ranges [start[k], stop[k]) end to end, and the k of each value."""
    k = np.repeat(np.arange(len(start)), stop - start)
    return k, np.arange(len(k)) + (stop - np.cumsum(stop - start))[k]

