"""Polyline curves carrying the line-source density.

The immersed curve gamma is always handled through its polyline
discretization; a circle is represented by an inscribed regular polygon.
A curve's points and its density f, piecewise constant per segment, never
change. It owns a bin grid of its segment midpoints and the bounding boxes
of its segments, used for proximity queries, and the incidence of its
segments and the cells of the last mesh asked about (`Curve.hits`), the
one place where the program decides which cells the curve meets;
`interface_cells` reads it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import quadrature as quadr
from .geometry import (_REL_EPS, _TOUCH, BinGrid, cell_factors, clip_pairs,
                       segment_factors)
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

    @cached_property
    def seg_factors(self):
        """What the clip reads of each segment (`segment_factors`)."""
        return segment_factors(self.seg_start, self.seg_end)

    @cached_property
    def seg_boxes(self) -> np.ndarray:
        """(4, n): x lo, y lo, x hi, y hi of each segment's bounding box,
        widened by the segment's slack in the clip (`_candidates`)."""
        a, b, w = self.seg_start, self.seg_end, _slack(self.seg_lengths)
        return np.concatenate([np.minimum(a, b).T - w, np.maximum(a, b).T + w])

    def hits(self, mesh: Mesh, rows: np.ndarray | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The incidence of the segments and the cells of `mesh`: (cell,
        seg, t0, t1) for each pair whose segment meets the closed cell,
        touching included (`geometry.clip_pairs`), by cell, then by
        ascending segment. [t0, t1] is the part of the segment's parameter
        range inside the cell, empty where the two only touch. With `rows`
        (ascending), the pairs of the cells at `rows` alone, each cell given
        by its place in `rows`. The arrays are read-only.

        The pairs of the last mesh asked about are kept, keyed by cell
        serial (`match_serials`): only cells that mesh lacks are clipped,
        against their `_candidates`, in batches of whole cells of about
        `quadrature.POINT_CHUNK` midpoints listed by their bin queries.
        """
        if self._serials is not mesh.serial:  # a mesh's serial array never changes
            fresh = match_serials(self._serials, mesh.serial)[1]
            count = self._query(mesh, fresh)[2]
            start = np.cumsum(count) - count
            cuts = np.flatnonzero(np.diff(start // quadr.POINT_CHUNK,
                                          prepend=-1))
            del count, start
            hits = []
            for lo, hi in zip(cuts, np.append(cuts[1:], len(fresh))):
                ci, si = self._candidates(mesh, fresh[lo:hi])
                new = np.diff(ci, prepend=-1) > 0  # a cell's first pair
                cells = cell_factors(mesh.coords.take(
                    mesh.triangles[ci[new]].T, axis=0))
                a, b, meets = clip_pairs(self.seg_factors, cells, si,
                                         np.cumsum(new) - 1)
                hits.append((ci[meets], si[meets], a[meets], b[meets]))
            row, gone = match_serials(mesh.serial, self._serials)
            row[gone] = -1  # each known cell's row in `mesh`, or -1
            cell, seg, t0, t1 = self._hits
            cell = row[cell]
            on = cell >= 0
            hits.insert(0, (cell[on], seg[on], t0[on], t1[on]))
            # kept and fresh pairs each ascend by cell, segments in order;
            # cells and segments are stored as int32: 24 B a pair
            hits = [np.concatenate(x) for x in zip(*hits)]
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

    def _query(self, mesh: Mesh, rows: np.ndarray):
        """The boxes of the cells at `rows`, widened as `_candidates` says,
        (4, m) like `seg_boxes`, and `BinGrid.box` of the midpoints that a
        segment whose box meets one can have."""
        tri = mesh.triangles.take(rows, axis=0)
        box = np.empty((4, len(rows)))
        edges = []
        for k in (0, 1):  # one coordinate at a time, to save memory
            c = mesh.coords[:, k][tri]
            lo, hi = box[k], box[k + 2]
            np.minimum(np.minimum(c[:, 0], c[:, 1], out=lo), c[:, 2], out=lo)
            np.maximum(np.maximum(c[:, 0], c[:, 1], out=hi), c[:, 2], out=hi)
            edges.append((c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]))
            del c
        del tri
        (ux, vx), (uy, vy) = edges
        area2 = np.abs(ux * vy - uy * vx)  # twice the cell's area
        del edges, ux, vx, uy, vy
        w = _slack(self.max_seg_len)
        margin = (box[2] - box[0]) ** 2 + (box[3] - box[1]) ** 2
        margin = w * (3 * margin / area2 - 1)
        box[:2] -= margin
        box[2:] += margin
        return box, *self.midpoint_grid.box(
            box[:2], box[2:], pad=0.5 * self.max_seg_len + 2 * w)

    def _candidates(self, mesh: Mesh, rows: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(row, segment) pairs of the cells at `rows` (ascending), by row,
        then by ascending segment: a segment is a candidate of a cell when
        their bounding boxes, widened by the margins below, meet.

        The margins cover the clip's slack, so every pair that meets is a
        candidate. Let the clip keep the segment S(t) = p + t d, t in
        [0, 1], with [tmin, tmax], and take q = S(min(tmin, 1)). Against
        each edge e of the cell, q is
        - inside, if the edge cuts the range from below (tcut <= tmin);
        - at most _TOUCH |d| outside, if it cuts the range from above,
          since tcut >= tmax >= tmin - _TOUCH and |c1| <= |e| |d|;
        - at most 2 eps / |e| outside, if it is parallel (|c1| <= eps,
          kept only when c0 >= -eps). The `+ 1` in eps = _REL_EPS (|e|
          (|d| + 1) + |c0|) makes this an absolute length, 2 _REL_EPS
          (|d| + 1).
        So q lies within w0 = _TOUCH |d| + 2 _REL_EPS (|d| + 1) of every
        edge line. Those points form the cell scaled by 1 + w0 / rho about
        its incentre, rho the inradius, so q is within w0 h / rho of the
        cell's box, h the longest edge. As the perimeter is at most 3 h and
        h^2 at most D^2, the box's squared diagonal, h / rho <= k =
        3 D^2 / (2 |T|). The clip's rounding, a few ulps of the coordinates,
        of |d| and of h, stays below _REL_EPS (|d| + 1) for coordinates
        below 100 in magnitude, so w = _TOUCH |d| + 3 _REL_EPS (|d| + 1)
        (`_slack`) bounds how far q is from every edge line. A segment's
        box is widened by its w, and the cell's by W (k - 1), W the w of the
        longest segment: together by w + W (k - 1) >= w k, so the two boxes
        meet.

        A cell's query box is its widened box grown by half the longest
        segment and 2 W, which holds the midpoint of every widened segment
        box it meets. A cell whose query box holds no midpoint is dropped in
        four lookups (`BinGrid.box`); each other cell tests one run of
        midpoints per bin row of that box.
        """
        box, (i0, j0, i1, j1), count = self._query(mesh, rows)
        grid, sb = self.midpoint_grid, self.seg_boxes
        cell, i = _ranges(i0, np.where(count > 0, i1, i0))  # near boxes' rows
        b = i * grid.shape[1]
        run, e = _ranges(grid.first[b + j0[cell]], grid.first[b + j1[cell]])
        cell, seg = cell[run], grid.order[e]
        meet = np.ones(len(seg), dtype=bool)
        for k in (0, 1):
            meet &= sb[k].take(seg) <= box[k + 2].take(cell)
            meet &= box[k].take(cell) <= sb[k + 2].take(seg)
        key = np.sort(cell[meet] * self.num_segments + seg[meet])
        return rows[key // self.num_segments], key % self.num_segments


def interface_cells(mesh: Mesh, curve: Curve) -> np.ndarray:
    """Rows of the cells whose closure meets the curve polyline, ascending."""
    return np.unique(curve.hits(mesh)[0])


def _slack(length):
    """How far outside a cell the clip may keep a segment of `length`, up
    to the cell's shape (`Curve._candidates`)."""
    return _TOUCH * length + 3 * _REL_EPS * (length + 1)


def _ranges(start: np.ndarray, stop: np.ndarray):
    """The ranges [start[k], stop[k]) end to end, and the k of each value."""
    k = np.repeat(np.arange(len(start)), stop - start)
    return k, np.arange(len(k)) + (stop - np.cumsum(stop - start))[k]

