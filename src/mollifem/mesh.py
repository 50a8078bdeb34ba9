"""Conforming triangle meshes with newest-vertex bisection.

A ``Mesh`` is immutable: :meth:`Mesh.refine` returns a new mesh that shares
the full cell genealogy, so every active cell's ancestor chain terminates at
a cell of the initial triangulation. Vertices are only ever created (as edge
midpoints), never removed, so the vertex count equals the P1 space
dimension.

Cell-local numbering: edge ``i`` is the edge opposite vertex ``i``. Bisection
splits the tagged refinement edge at its midpoint; children are stored with
the new vertex first, so their refinement edge tag is always 0 (the edge
opposite the newest vertex).
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import NonTerminationError
from .geometry import segments_intersect_triangles

if TYPE_CHECKING:
    from .curves import Curve

logger = logging.getLogger("mollifem")

_MAX_BISECTIONS = 10_000_000


@dataclass(frozen=True, slots=True)
class Cell:
    """One triangle in the refinement forest (active or already bisected)."""

    id: int
    vertices: tuple[int, int, int]
    refinement_edge: int
    generation: int
    parent: int | None
    root: int
    path: int  # genealogy bits rooted at 1; child c appends bit c


@dataclass(frozen=True, slots=True)
class RefineRecord:
    op: str
    marked: int
    bisections: int
    active_after: int


def _ekey(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class Mesh:
    """Immutable conforming triangulation; see module docstring."""

    def __init__(self, coords, cells, active_ids, edge_cells, split_edges,
                 vertex_parents, history):
        self.coords = coords
        self.cells = cells
        self.active_ids = active_ids
        self.edge_cells = edge_cells
        self.split_edges = split_edges
        self.vertex_parents = vertex_parents
        self.history = history

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
            lens = np.stack(
                [
                    np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
                    np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
                    np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
                ],
                axis=1,
            )
            tied = lens >= lens.max(axis=1, keepdims=True) * (1 - 1e-12)
            opp = np.where(tied, tris, np.iinfo(np.int64).max)
            tags = np.argmin(opp, axis=1)
        else:
            tags = np.asarray(refinement_edges, dtype=np.int64)
            if tags.shape != (len(tris),) or tags.min() < 0 or tags.max() > 2:
                raise ValueError("refinement_edges must be per-cell values in {0,1,2}")

        cells = [
            Cell(i, tuple(int(v) for v in tris[i]), int(tags[i]), 0, None, i, 1)
            for i in range(len(tris))
        ]
        edge_cells: dict[tuple[int, int], tuple[int, ...]] = {}
        for c in cells:
            v = c.vertices
            for a, b in ((v[1], v[2]), (v[2], v[0]), (v[0], v[1])):
                k = _ekey(a, b)
                edge_cells[k] = edge_cells.get(k, ()) + (c.id,)
        for k, adj in edge_cells.items():
            if len(adj) > 2:
                raise ValueError(f"edge {k} shared by {len(adj)} cells")

        return cls(coords, cells, list(range(len(cells))), edge_cells, {},
                   [None] * len(coords), ())

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_cells(self) -> int:
        return len(self.active_ids)

    @property
    def num_created(self) -> int:
        return len(self.cells)

    @cached_property
    def active_id_array(self) -> np.ndarray:
        return np.array(self.active_ids, dtype=np.int64)

    @cached_property
    def active_cells(self) -> list[Cell]:
        return [self.cells[i] for i in self.active_ids]

    @cached_property
    def triangles(self) -> np.ndarray:
        return np.array([c.vertices for c in self.active_cells], dtype=np.int64)

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
    def generations(self) -> np.ndarray:
        return np.array([c.generation for c in self.active_cells], dtype=np.int64)

    @cached_property
    def boundary_edges(self) -> list[tuple[int, int]]:
        return [k for k, adj in self.edge_cells.items() if len(adj) == 1]

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        for a, b in self.boundary_edges:
            mask[a] = True
            mask[b] = True
        return mask

    @cached_property
    def interior_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts (E,2), left cell position, right cell position) for interior edges."""
        verts, left, right = [], [], []
        for k, adj in self.edge_cells.items():
            if len(adj) == 2:
                verts.append(k)
                left.append(adj[0])
                right.append(adj[1])
        ids = self.active_id_array
        return (np.array(verts, dtype=np.int64).reshape(-1, 2),
                np.searchsorted(ids, left), np.searchsorted(ids, right))

    def total_marked(self) -> int:
        """Sum of marked-set sizes over all refine calls (complexity accounting)."""
        return sum(r.marked for r in self.history if r.op == "refine")

    def is_conforming(self) -> bool:
        for c in self.active_cells:
            v = c.vertices
            for a, b in ((v[1], v[2]), (v[2], v[0]), (v[0], v[1])):
                if _ekey(a, b) in self.split_edges:
                    return False
        return True

    # -- refinement -------------------------------------------------------

    def refine(self, marked: Iterable[int]) -> "Mesh":
        """Bisect the marked cells and restore conformity by closure.

        Marked ids must be active cells of this mesh; an empty marked set
        returns the mesh unchanged.
        """
        marked_list = sorted({int(i) for i in marked})
        if not marked_list:
            return self
        inactive = ~np.isin(marked_list, self.active_id_array)
        if inactive.any():
            raise ValueError("unknown or inactive cell id "
                             f"{marked_list[int(np.argmax(inactive))]}")

        reg = list(self.cells)
        n0 = len(self.coords)
        new_coords: list[np.ndarray] = []
        edge_cells = dict(self.edge_cells)
        split = dict(self.split_edges)
        vparents = list(self.vertex_parents)
        active = set(self.active_ids)
        queue: deque[int] = deque()
        nbis = 0
        old_coords = self.coords

        def coord_of(vid: int) -> np.ndarray:
            return old_coords[vid] if vid < n0 else new_coords[vid - n0]

        def bisect(cid: int) -> None:
            nonlocal nbis
            cell = reg[cid]
            e = cell.refinement_edge
            v = cell.vertices
            p, a, b = v[e], v[(e + 1) % 3], v[(e + 2) % 3]
            key = _ekey(a, b)
            m = split.get(key)
            if m is None:
                m = n0 + len(new_coords)
                new_coords.append(0.5 * (coord_of(a) + coord_of(b)))
                vparents.append((a, b))
                split[key] = m
            c1, c2 = len(reg), len(reg) + 1
            gen = cell.generation + 1
            reg.append(Cell(c1, (m, p, a), 0, gen, cid, cell.root, cell.path * 2))
            reg.append(Cell(c2, (m, b, p), 0, gen, cid, cell.root, cell.path * 2 + 1))
            active.discard(cid)
            active.add(c1)
            active.add(c2)

            rest = tuple(x for x in edge_cells[key] if x != cid)
            if rest:
                edge_cells[key] = rest
                queue.extend(rest)  # neighbor now has a hanging node
            else:
                del edge_cells[key]
            for old, new in ((_ekey(p, a), c1), (_ekey(p, b), c2)):
                edge_cells[old] = tuple(new if x == cid else x for x in edge_cells[old])
            for k2, owner in ((_ekey(a, m), c1), (_ekey(m, b), c2)):
                edge_cells[k2] = edge_cells.get(k2, ()) + (owner,)
            edge_cells[_ekey(p, m)] = (c1, c2)
            queue.append(c1)
            queue.append(c2)
            nbis += 1

        for cid in marked_list:
            if cid in active:
                bisect(cid)
        while queue:
            cid = queue.popleft()
            if cid not in active:
                continue
            v = reg[cid].vertices
            if (_ekey(v[1], v[2]) in split or _ekey(v[2], v[0]) in split
                    or _ekey(v[0], v[1]) in split):
                bisect(cid)
            if nbis > _MAX_BISECTIONS:
                raise NonTerminationError("closure exceeded bisection cap")

        coords = np.vstack([old_coords, np.array(new_coords)]) if new_coords else old_coords
        history = self.history + (RefineRecord("refine", len(marked_list), nbis, len(active)),)
        return Mesh(coords, reg, sorted(active), edge_cells, split, vparents,
                    history)

    def uniform_refine(self, passes: int = 1) -> "Mesh":
        mesh = self
        for _ in range(passes):
            mesh = mesh.refine(mesh.active_ids)
        return mesh


class CellCache:
    """Per-cell values keyed by cell id and checked against the cell's triangle.

    Sibling refinements of one mesh reuse creation-order ids for different
    triangles, so each entry also stores the ordered vertex coordinates it
    was computed for; a lookup hits only where they match the mesh's cell
    exactly. Bisection computes every midpoint the same way, so a cell
    reached through any refinement lineage hits its own entry.
    """

    def __init__(self, shape: tuple[int, ...] = ()):
        self._coords = np.empty((0, 3, 2))  # NaN rows never match: no entry
        self._values = np.empty((0, *shape))

    def _reserve(self, n: int) -> None:
        if len(self._coords) < n:
            n = max(n, 2 * len(self._coords))
            coords = np.full((n, 3, 2), np.nan)
            coords[:len(self._coords)] = self._coords
            values = np.full((n, *self._values.shape[1:]), np.nan)
            values[:len(self._values)] = self._values
            self._coords, self._values = coords, values

    def missing(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """Indices into `positions` (active cell positions) whose cell has no
        entry computed for its current triangle."""
        self._reserve(mesh.num_created)
        ids = mesh.active_id_array[positions]
        same = self._coords[ids] == mesh.cell_coords[positions]
        return np.nonzero(~same.all(axis=(1, 2)))[0]

    def store(self, mesh: Mesh, positions: np.ndarray, values) -> None:
        self._reserve(mesh.num_created)
        ids = mesh.active_id_array[positions]
        self._coords[ids] = mesh.cell_coords[positions]
        self._values[ids] = values

    def get(self, mesh: Mesh, positions: np.ndarray) -> np.ndarray:
        """Cached values; every position must have been stored for this mesh."""
        return self._values[mesh.active_id_array[positions]]


# -- structured initial meshes -------------------------------------------


def rect_mesh(nx: int, ny: int, x0: float = 0.0, y0: float = 0.0,
              x1: float = 1.0, y1: float = 1.0) -> Mesh:
    """Uniform triangulation of a rectangle, squares split along one diagonal."""
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    tris = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10, v01 = v00 + 1, v00 + nx + 1
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Mesh.from_arrays(coords, tris)


def lshape_mesh(n: int) -> Mesh:
    """Uniform triangulation of (-1,1)^2 minus the closed first quadrant square.

    ``n`` is the number of squares per unit length (square side 1/n).
    """
    xs = np.linspace(-1.0, 1.0, 2 * n + 1)
    coords_full = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="xy")])
    keep_tris = []
    for j in range(2 * n):
        for i in range(2 * n):
            cx = (xs[i] + xs[i + 1]) / 2
            cy = (xs[j] + xs[j + 1]) / 2
            if cx > 0 and cy > 0:
                continue
            v00 = j * (2 * n + 1) + i
            v10, v01 = v00 + 1, v00 + 2 * n + 1
            v11 = v01 + 1
            keep_tris.append((v00, v10, v11))
            keep_tris.append((v00, v11, v01))
    used = sorted({v for t in keep_tris for v in t})
    remap = {v: i for i, v in enumerate(used)}
    tris = [(remap[a], remap[b], remap[c]) for a, b, c in keep_tris]
    return Mesh.from_arrays(coords_full[used], tris)


# -- curve queries --------------------------------------------------------


def cells_near_curve(mesh: Mesh, curve: "Curve", positions: np.ndarray,
                     reach: float = 0.0) -> np.ndarray:
    """Mask over active cell `positions`: cells possibly within `reach` of
    the polyline (centroid within reach + circumradius + half the longest
    segment of a curve vertex)."""
    p = mesh.cell_coords[positions]
    cent = p.mean(axis=1)
    circ = np.sqrt(((p - cent[:, None, :]) ** 2).sum(-1)).max(axis=1)
    bound = reach + circ + 0.5 * curve.max_seg_len + 1e-12
    # an upper bound prunes the tree search far from the curve; cells are
    # grouped by bound within a factor of two so that small cells are not
    # searched to the reach of large ones
    dist = np.empty(len(cent))
    group = np.floor(np.log2(bound))
    for g in np.unique(group):
        sel = group == g
        dist[sel], _ = curve.vertex_tree.query(
            cent[sel], distance_upper_bound=np.nextafter(bound[sel].max(),
                                                         np.inf))
    return dist <= bound


def curve_cell_pairs(mesh: Mesh, curve: "Curve",
                     positions: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (active cell position, segment id) pairs near the curve.

    A conservative superset: every cell/segment pair that actually intersects
    is included. Cells are prefiltered by centroid distance to the polyline
    vertices, segments by the curve's spatial hash over the cell's bbox.
    Restricting to given active cell positions keeps incremental callers from
    rescanning the whole mesh.
    """
    scan = np.arange(mesh.num_cells, dtype=np.int64) if positions is None \
        else np.asarray(positions, dtype=np.int64)
    cand = scan[cells_near_curve(mesh, curve, scan)]
    coords = mesh.cell_coords
    cell_idx, seg_idx = [], []
    for posn in cand:
        tri = coords[posn]
        segs = curve.grid_query(tri[:, 0].min(), tri[:, 1].min(),
                                tri[:, 0].max(), tri[:, 1].max())
        if len(segs):
            cell_idx.append(np.full(len(segs), posn, dtype=np.int64))
            seg_idx.append(segs)
    if not cell_idx:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(cell_idx), np.concatenate(seg_idx)


def interface_cells(mesh: Mesh, curve: "Curve",
                    positions: np.ndarray | None = None) -> np.ndarray:
    """Ids of active cells whose closure meets the curve polyline.

    Uses exact inclusive segment-triangle intersection tests against the
    discretized curve. An explicit positions array restricts the scan.
    """
    ci, si = curve_cell_pairs(mesh, curve, positions)
    if len(ci) == 0:
        return np.empty(0, dtype=np.int64)
    p = mesh.cell_coords
    hit = segments_intersect_triangles(
        curve.seg_start[si], curve.seg_end[si],
        p[ci, 0], p[ci, 1], p[ci, 2],
    )
    pos_hit = np.unique(ci[hit])
    return mesh.active_id_array[pos_hit]


def interface_diameter(mesh: Mesh, cells: np.ndarray) -> float:
    """max h_T over the given cell ids (0.0 for an empty set)."""
    if len(cells) == 0:
        return 0.0
    pos = np.searchsorted(mesh.active_id_array, cells)
    return float(mesh.h_sizes[pos].max())
