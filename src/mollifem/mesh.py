"""Conforming triangle meshes with newest-vertex bisection.

A ``Mesh`` is immutable: :meth:`Mesh.refine` returns a new mesh. It keeps
its cells alone, as rows of integer arrays: a cell's row is its id in every
API. Refinement keeps the rows it leaves alone in their order and appends the
new cells in creation order, and each cell carries a ``serial`` that no other
triangle of the process ever gets, so per-cell caches survive refinement.
Vertices are only ever created (as edge midpoints), never removed, so the
vertex count equals the P1 space dimension.

Cell-local numbering: edge ``i`` is the edge opposite vertex ``i``, and
``neighbours[c, i]`` is the cell across it (-1 on the boundary). Bisection
splits the tagged refinement edge at its midpoint; children are stored with
the new vertex first, so their refinement edge tag is always 0 (the edge
opposite the newest vertex).
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import NonTerminationError
from .geometry import segments_intersect_triangles

if TYPE_CHECKING:
    from .curves import Curve

_MAX_BISECTIONS = 10_000_000
_serials_issued = 0  # cell serials are drawn from here and never reused
_KEY = 1 << 32  # edge key lo * _KEY + hi of vertex ids lo < hi
_PENDING = -2  # neighbour of a half edge whose other side is not cut yet


@dataclass(frozen=True, slots=True)
class RefineRecord:
    marked: int
    bisections: int


def _growable(x: np.ndarray) -> array:
    """A copy of `x` as a flat Python array of the same item type."""
    out = array(x.dtype.char)
    out.frombytes(memoryview(np.ascontiguousarray(x)).cast("B"))
    return out


def _new_serials(n: int) -> np.ndarray:
    global _serials_issued
    _serials_issued += n
    return np.arange(_serials_issued - n, _serials_issued, dtype=np.int64)


def vertex_levels(vertex_parents: np.ndarray, start: int = 0) -> np.ndarray:
    """0 for initial vertices and those below `start`, else
    ``1 + max(level[a], level[b])`` for the midpoint of edge (a, b)."""
    level = np.zeros(len(vertex_parents), dtype=np.int64)
    v = start + np.flatnonzero(vertex_parents[start:, 0] >= 0)
    a, b = vertex_parents[v].T
    while True:  # after pass w, levels up to w are final
        new = 1 + np.maximum(level[a], level[b])
        if np.array_equal(new, level[v]):
            return level
        level[v] = new


def fill_midpoints(values: np.ndarray, vertex_parents: np.ndarray,
                   start: int) -> None:
    """Set ``values[v] = 0.5 * (values[a] + values[b])`` for each vertex
    ``v >= start`` bisecting edge (a, b), level by level."""
    level = vertex_levels(vertex_parents, start)
    for wave in range(1, level.max(initial=0) + 1):
        a, b = vertex_parents[level == wave].T
        values[level == wave] = 0.5 * (values[a] + values[b])


@dataclass(frozen=True, eq=False, repr=False)
class Mesh:
    """Immutable conforming triangulation; see module docstring."""

    coords: np.ndarray  # (V, 2)
    vertex_parents: np.ndarray  # (V, 2) ends of the bisected edge; -1 if initial
    triangles: np.ndarray  # (M, 3) CCW vertex ids of each cell
    refinement_edge: np.ndarray  # (M,) local index of the edge to bisect
    generation: np.ndarray  # (M,) bisections since the initial cell
    neighbours: np.ndarray  # (M, 3) row across each local edge; -1 boundary
    # 2 * creation rank of each edge, + 1 in the second cell to own it: the
    # jump estimator visits interior edges in creation order, first cell
    # first, which fixes the order (and the bits) of its per-cell sums
    edge_order: np.ndarray  # (M, 3)
    serial: np.ndarray  # (M,) ascending; names one triangle for the process
    history: tuple = ()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arrays(cls, coords, triangles, refinement_edges=None) -> "Mesh":
        """Build an initial mesh from vertex coordinates and vertex triples.

        Triangles are reoriented CCW if needed. Without explicit tags the
        refinement edge of each cell is its longest edge, ties broken by the
        lowest opposite-vertex id. The input must be conforming.
        """
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        tris = np.array(triangles, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (n, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= len(coords):
            raise ValueError("triangle vertex id out of range")

        p = coords[tris]
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        if np.any(area2 == 0.0):
            raise ValueError("degenerate triangle in input")
        flip = area2 < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]

        if refinement_edges is None:
            p = coords[tris]
            lens = np.linalg.norm(p[:, [1, 2, 0]] - p[:, [2, 0, 1]], axis=2)
            tied = lens >= lens.max(axis=1, keepdims=True) * (1 - 1e-12)
            opp = np.where(tied, tris, np.iinfo(np.int64).max)
            tags = np.argmin(opp, axis=1)
        else:
            tags = np.asarray(refinement_edges, dtype=np.int64)
            if tags.shape != (len(tris),) or tags.min() < 0 or tags.max() > 2:
                raise ValueError("refinement_edges must be per-cell values in {0,1,2}")

        # pair up the cells of each edge; flat index 3 * cell + local edge
        # is the creation rank, the first owner in that order is slot 0
        a, b = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
        key = np.minimum(a, b) * len(coords) + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
        count = np.diff(np.r_[first, len(key)])
        if count.max(initial=0) > 2:
            f = order[first[np.argmax(count)]]
            raise ValueError(f"edge {(int(min(a[f], b[f])), int(max(a[f], b[f])))}"
                             f" shared by {count.max()} cells")
        slot = np.arange(len(key)) - np.repeat(first, count)
        edge_order = np.empty(len(key), dtype=np.int32)
        edge_order[order] = 2 * np.repeat(order[first], count) + slot
        neighbours = np.full(len(key), -1, dtype=np.int32)
        f0, f1 = order[first[count == 2]], order[first[count == 2] + 1]
        neighbours[f0], neighbours[f1] = f1 // 3, f0 // 3

        n = len(tris)
        return cls(coords, np.full((len(coords), 2), -1, dtype=np.int32),
                   tris.astype(np.int32), tags.astype(np.int8),
                   np.zeros(n, dtype=np.int16), neighbours.reshape(n, 3),
                   edge_order.reshape(n, 3), _new_serials(n))

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_cells(self) -> int:
        return len(self.triangles)

    @cached_property
    def cell_coords(self) -> np.ndarray:
        return self.coords[self.triangles]

    @cached_property
    def areas(self) -> np.ndarray:
        p = self.cell_coords
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    @cached_property
    def h_sizes(self) -> np.ndarray:
        """Cell size h_T = |T|^(1/2)."""
        return np.sqrt(self.areas)

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        cell, k = np.nonzero(self.neighbours < 0)
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.triangles[cell][np.arange(3) != k[:, None]]] = True
        return mask

    @cached_property
    def interior_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts (E,2), left cell, right cell) for interior edges, in
        creation order; `left` is the edge's first owner and each edge's
        vertex pair is ascending."""
        nb, order = self.neighbours, self.edge_order
        cell, k = np.nonzero((nb >= 0) & (order % 2 == 0))
        rank = order[cell, k] // 2
        # creation ranks are distinct, so a scatter sorts them in O(rank range)
        at = np.full(int(rank.max(initial=-1)) + 1, -1, dtype=np.int64)
        at[rank] = np.arange(len(rank))
        e = at[at >= 0]
        cell, k = cell[e], k[e]
        ends = self.triangles[cell][np.arange(3) != k[:, None]].reshape(-1, 2)
        return np.sort(ends, axis=1), cell, nb[cell, k]

    def total_marked(self) -> int:
        """Sum of marked-set sizes over all refine calls (complexity accounting)."""
        return sum(r.marked for r in self.history)

    def is_conforming(self) -> bool:
        """True when no cell has an edge that has been bisected (no
        hanging node). Refinement keeps meshes conforming; this is a check."""
        split = np.sort(self.vertex_parents[self.vertex_parents[:, 0] >= 0], axis=1)
        edges = np.sort(self.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
        key = np.array([self.num_vertices, 1])
        return not np.isin(edges @ key, split @ key).any()

    # -- refinement -------------------------------------------------------

    def refine(self, marked: Iterable[int]) -> "Mesh":
        """Bisect the cells at the marked rows and restore conformity by
        closure; an empty marked set returns the mesh unchanged.

        The marked cells are bisected in ascending row, then a FIFO queue
        bisects every queued cell with a bisected edge until none is left.
        That order fixes the numbering of new vertices, which the bits of the
        solver's sums depend on. The new mesh keeps the cells left alone in
        their order, then the new cells in creation order.
        """
        marked_list = sorted({int(i) for i in marked})
        if not marked_list:
            return self
        m_rows = self.num_cells
        if not 0 <= marked_list[0] <= marked_list[-1] < m_rows:
            raise ValueError(f"marked rows {marked_list[0]}..{marked_list[-1]} "
                             f"are not all inside [0, {m_rows})")

        nv = self.num_vertices
        # working rows: the cells of this mesh, then every cell created here;
        # Python arrays: element access without numpy scalars, cheap appends
        V, NB, EO, T, G = (_growable(x) for x in (
            self.triangles, self.neighbours, self.edge_order,
            self.refinement_edge, self.generation))
        A = array("b", bytes([1]) * m_rows)  # alive

        split: dict[int, int] = {}  # edge -> midpoint; the input has no cut edge
        pending: dict[int, int] = {}  # half edge key -> its only owner so far
        bisections = 0
        vparents: list[int] = []
        # the edge of highest rank is never split: its cells hold it still
        seq = int(self.edge_order.max()) // 2 + 1
        queue = deque(marked_list)
        popped = 0
        while queue:
            cid = queue.popleft()
            popped += 1
            if not A[cid]:
                continue
            c0 = 3 * cid
            v = V[c0], V[c0 + 1], V[c0 + 2]
            if popped > len(marked_list):  # closure: bisect only hanging cells
                x, y, z = v
                if not ((x * _KEY + y if x < y else y * _KEY + x) in split
                        or (y * _KEY + z if y < z else z * _KEY + y) in split
                        or (z * _KEY + x if z < x else x * _KEY + z) in split):
                    continue

            e = T[cid]
            p, a, b = v[e], v[(e + 1) % 3], v[(e + 2) % 3]
            n_ab = NB[c0 + e]
            n_pa, o_pa = NB[c0 + (e + 2) % 3], EO[c0 + (e + 2) % 3]
            n_bp, o_bp = NB[c0 + (e + 1) % 3], EO[c0 + (e + 1) % 3]
            key = a * _KEY + b if a < b else b * _KEY + a
            c1, c2 = len(A), len(A) + 1
            m = split.get(key)
            if m is None:  # first cut of (a, b): a new vertex
                m = nv
                nv += 1
                vparents += (a, b)
                split[key] = m
                o_am, o_mb = 2 * seq, 2 * seq + 2
                seq += 2
                if n_ab >= 0:  # the other side will cut (a, b) later
                    x_am = x_mb = _PENDING
                    pending[a * _KEY + m] = c1
                    pending[b * _KEY + m] = c2
                    queue.append(n_ab)
                else:
                    x_am = x_mb = -1
            else:  # the other side cut (a, b) first: join its halves
                # both halves are still pending: the cell that cut (a, b)
                # queued this side before its own children, and this side
                # cuts (a, b) within two bisections, before a child of that
                # cell can have a half as its refinement edge
                halves = []
                for end, child in ((a, c1), (b, c2)):
                    x = pending.pop(end * _KEY + m)
                    x0 = 3 * x
                    k = x0 if V[x0] != end and V[x0] != m else \
                        x0 + 1 if V[x0 + 1] != end and V[x0 + 1] != m else x0 + 2
                    NB[k] = child
                    halves += (x, EO[k] | 1)
                x_am, o_am, x_mb, o_mb = halves
            o_pm = 2 * seq
            seq += 1

            V.extend((m, p, a, m, b, p))
            NB.extend((n_pa, x_am, c2, n_bp, c1, x_mb))
            EO.extend((o_pa, o_am, o_pm, o_bp, o_pm + 1, o_mb))
            T.extend((0, 0))
            G.extend((G[cid] + 1, G[cid] + 1))
            A[cid] = 0
            A.extend((1, 1))
            # the outer edges (p, a) and (b, p) pass to the children
            for n, child, u in ((n_pa, c1, a), (n_bp, c2, b)):
                if n >= 0:
                    r = 3 * n
                    k = r if NB[r] == cid else r + 1 if NB[r + 1] == cid else r + 2
                    NB[k] = child
                elif n == _PENDING:
                    pending[p * _KEY + u if p < u else u * _KEY + p] = child
            queue.append(c1)
            queue.append(c2)
            bisections += 1
            if bisections > _MAX_BISECTIONS:
                raise NonTerminationError("closure exceeded bisection cap")

        coords = np.concatenate((self.coords, np.empty((nv - self.num_vertices, 2))))
        vertex_parents = np.concatenate(
            (self.vertex_parents, np.array(vparents, dtype=np.int32).reshape(-1, 2)))
        fill_midpoints(coords, vertex_parents, self.num_vertices)
        # keep the live working rows; row[-1] = -1 maps the boundary to itself
        live = np.flatnonzero(np.frombuffer(A, dtype=np.int8))
        row = np.full(len(A) + 1, -1, dtype=np.int32)
        row[live] = np.arange(len(live))
        V, NB, EO = (np.frombuffer(x, dtype=x.typecode).reshape(-1, 3)[live]
                     for x in (V, NB, EO))
        T, G = (np.frombuffer(x, dtype=x.typecode)[live] for x in (T, G))
        kept = live[live < m_rows]
        return Mesh(coords, vertex_parents, V, T, G, row[NB], EO,
                    np.concatenate((self.serial[kept],
                                    _new_serials(len(live) - len(kept)))),
                    self.history + (RefineRecord(len(marked_list), bisections),))

    def uniform_refine(self, passes: int = 1) -> "Mesh":
        mesh = self
        for _ in range(passes):
            mesh = mesh.refine(range(mesh.num_cells))
        return mesh


class CellCache:
    """Per-cell values of the cells of the last mesh asked about, keyed by
    serial: a serial names one triangle for the life of the process, so a
    cell that a refinement leaves alone hits its entry and no other does."""

    def __init__(self, shape: tuple[int, ...] = ()):
        self._serials = np.array([-1])  # a sentinel entry no serial matches
        self._values = np.zeros((1, *shape))

    def values(self, mesh: Mesh, compute) -> np.ndarray:
        """Values of all cells of `mesh` (read-only). The cells with no entry
        are filled from `compute(rows)` over their rows (ascending)."""
        serial = mesh.serial
        at = np.minimum(np.searchsorted(self._serials, serial),
                        len(self._serials) - 1)
        out = self._values[at]
        fresh = np.flatnonzero(self._serials[at] != serial)
        if len(fresh):
            out[fresh] = compute(fresh)
        out.flags.writeable = False
        self._serials, self._values = serial, out
        return out


# -- structured initial meshes -------------------------------------------


def _grid_triangles(nx: int, ny: int) -> np.ndarray:
    """Two triangles per square of an (nx + 1) x (ny + 1) vertex grid, square
    by square along rows, each split along its rising diagonal."""
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    return np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)


def rect_mesh(nx: int, ny: int, x0: float = 0.0, y0: float = 0.0,
              x1: float = 1.0, y1: float = 1.0) -> Mesh:
    """Uniform triangulation of a rectangle, squares split along one diagonal."""
    xx, yy = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    return Mesh.from_arrays(np.column_stack([xx.ravel(), yy.ravel()]),
                            _grid_triangles(nx, ny))


def lshape_mesh(n: int) -> Mesh:
    """Uniform triangulation of (-1,1)^2 minus the closed first quadrant square.

    ``n`` is the number of squares per unit length (square side 1/n).
    """
    xs = np.linspace(-1.0, 1.0, 2 * n + 1)
    xx, yy = np.meshgrid(xs, xs)
    mid = (xs[:-1] + xs[1:]) / 2
    keep = ~((mid[:, None] > 0) & (mid[None, :] > 0)).ravel()
    tris = _grid_triangles(2 * n, 2 * n).reshape(-1, 2, 3)[keep]
    used, tris = np.unique(tris.ravel(), return_inverse=True)
    return Mesh.from_arrays(np.column_stack([xx.ravel(), yy.ravel()])[used],
                            tris.reshape(-1, 3))


# -- curve queries --------------------------------------------------------


def _centroid_balls(mesh: Mesh, rows: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Centroid of each cell at `rows` and the radius about it that reaches
    the cell's farthest vertex: the ball holds the whole cell."""
    p = mesh.cell_coords[rows]
    cent = p.mean(axis=1)
    return cent, np.sqrt(((p - cent[:, None, :]) ** 2).sum(-1)).max(axis=1)


def cells_near(mesh: Mesh, tree, rows: np.ndarray,
               reach: float) -> np.ndarray:
    """Mask over the cells at `rows`: cells whose centroid lies within
    reach + circumradius of a point of the kd-tree `tree`."""
    cent, circ = _centroid_balls(mesh, rows)
    bound = reach + circ + 1e-12
    # an upper bound prunes the tree search far from the points; cells are
    # grouped by bound within a factor of two so that small cells are not
    # searched to the reach of large ones
    dist = np.empty(len(cent))
    group = np.floor(np.log2(bound))
    for g in np.unique(group):
        sel = group == g
        dist[sel], _ = tree.query(
            cent[sel], distance_upper_bound=np.nextafter(bound[sel].max(),
                                                         np.inf))
    return dist <= bound


def curve_cell_pairs(mesh: Mesh, curve: "Curve",
                     rows: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (cell row, segment id) pairs near the curve.

    A conservative superset: every cell/segment pair that actually intersects
    is included. A segment is a candidate of a cell when its midpoint lies
    within circumradius + half the longest segment of the cell's centroid.
    Pairs are unique and come in the order of `rows` (all cells, ascending,
    by default), then by ascending segment.
    """
    scan = np.arange(mesh.num_cells, dtype=np.int64) if rows is None \
        else np.asarray(rows, dtype=np.int64)
    cent, circ = _centroid_balls(mesh, scan)
    hits = curve.midpoint_tree.query_ball_point(
        cent, circ + 0.5 * curve.max_seg_len + 1e-12, return_sorted=True)
    count = np.fromiter(map(len, hits), np.int64, len(hits))
    seg = np.fromiter(chain.from_iterable(hits), np.int64, count.sum())
    return np.repeat(scan, count), seg


def curve_hit_pairs(mesh: Mesh, curve: "Curve",
                    rows: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of `curve_cell_pairs`, in its order, whose segment meets
    the closed cell by the inclusive segment-triangle test."""
    ci, si = curve_cell_pairs(mesh, curve, rows)
    p = np.moveaxis(mesh.cell_coords[ci], 1, 0)  # corners 0, 1, 2
    hit = segments_intersect_triangles(curve.seg_start[si], curve.seg_end[si], *p)
    return ci[hit], si[hit]


def interface_cells(mesh: Mesh, curve: "Curve",
                    rows: np.ndarray | None = None) -> np.ndarray:
    """Rows of the cells (of `rows`, if given) whose closure meets the curve
    polyline, ascending."""
    return np.unique(curve_hit_pairs(mesh, curve, rows)[0])


def interface_diameter(mesh: Mesh, cells: np.ndarray) -> float:
    """max h_T over the cells at rows `cells` (0.0 for an empty set)."""
    return float(mesh.h_sizes[cells].max(initial=0.0))
