"""Conforming triangle meshes with newest-vertex bisection.

A ``Mesh`` is immutable: :meth:`Mesh.refine` returns a new mesh. It keeps
its cells alone, as rows of integer arrays: a cell's row is its id in every
API. Refinement keeps the rows it leaves alone in their order and appends the
children of the refined cells, parent by parent in row order; each split edge
gets one new vertex, numbered in the order of the edges' first owners (by row,
then local edge). Each cell carries a ``serial`` that no other triangle of the
process ever gets, so per-cell caches survive refinement. Vertices are only
ever created (as edge midpoints, each recording its edge and its bisection
level), never removed, so the vertex count equals the P1 space dimension.

Cell-local numbering: edge ``i`` is the edge opposite vertex ``i``, from
vertex i + 1 to i + 2 (the geometry cached per mesh is these edge vectors),
and ``twins[c, i]`` is 3 * row + local edge of the same edge in the cell
across it (-1 on the boundary). Bisection splits the tagged refinement edge
at its midpoint; children are stored with the new vertex first, so their
refinement edge tag is always 0 (the edge opposite the newest vertex).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

_serials_issued = 0  # cell serials are drawn from here and never reused


@dataclass(frozen=True, slots=True)
class RefineRecord:
    marked: int
    bisections: int


def _pair(tris: np.ndarray, n_vertices: int) -> np.ndarray:
    """For each local edge of the triangles `tris` (n, 3), the flat index
    3 * cell + edge of the other edge on the same two vertices, or -1.
    Three edges on one pair raise."""
    # edge k of a cell runs from its corner k + 1 to its corner k + 2
    a, b = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
    key = np.minimum(a, b).astype(np.int64)
    key *= n_vertices
    key += np.maximum(a, b)
    order = np.argsort(key)
    key = key[order]
    same = key[1:] == key[:-1]
    if (same[1:] & same[:-1]).any():
        i = np.argmax(same[1:] & same[:-1])
        f = order[i]
        raise ValueError(f"edge {(int(min(a[f], b[f])), int(max(a[f], b[f])))}"
                         f" shared by {np.count_nonzero(key == key[i])} cells")
    partner = np.full(len(key), -1, dtype=np.int32)
    first, second = order[:-1][same], order[1:][same]
    partner[first], partner[second] = second, first
    return partner.reshape(-1, 3)


def _remap(twins: np.ndarray, row: np.ndarray) -> np.ndarray:
    """3 * row[r] + e for each twin 3 * r + e (-1 stays, as row[-1] = -1);
    numpy's // 3 is several times faster than its % 3."""
    r = twins // 3
    return twins + 3 * (row.take(r) - r)


def _new_serials(n: int) -> np.ndarray:
    global _serials_issued
    _serials_issued += n
    return np.arange(_serials_issued - n, _serials_issued, dtype=np.int64)


@dataclass(frozen=True, eq=False, repr=False)
class Mesh:
    """Immutable conforming triangulation; see module docstring."""

    coords: np.ndarray  # (V, 2)
    vertex_parents: np.ndarray  # (V, 2) ends of the bisected edge; -1 if initial
    vertex_level: np.ndarray  # (V,) 0 if initial, else 1 + max over the ends
    triangles: np.ndarray  # (M, 3) CCW vertex ids of each cell
    refinement_edge: np.ndarray  # (M,) local index of the edge to bisect
    generation: np.ndarray  # (M,) bisections since the initial cell
    twins: np.ndarray  # (M, 3) 3 * row + edge of each edge across; -1 boundary
    serial: np.ndarray  # (M,) ascending; names one triangle for the process
    history: tuple = ()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arrays(cls, coords, triangles) -> "Mesh":
        """Build an initial mesh from vertex coordinates and vertex triples.

        Triangles are reoriented CCW if needed. The refinement edge of each
        cell is its longest edge, ties broken by the lowest opposite-vertex
        id. The input must be conforming.
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

        p = coords[tris]
        lens = np.linalg.norm(p[:, [1, 2, 0]] - p[:, [2, 0, 1]], axis=2)
        tied = lens >= lens.max(axis=1, keepdims=True) * (1 - 1e-12)
        opp = np.where(tied, tris, np.iinfo(np.int64).max)
        tags = np.argmin(opp, axis=1)

        n = len(tris)
        return cls(coords, np.full((len(coords), 2), -1, dtype=np.int32),
                   np.zeros(len(coords), dtype=np.int16),
                   tris.astype(np.int32), tags.astype(np.int8),
                   np.zeros(n, dtype=np.int16), _pair(tris, len(coords)),
                   _new_serials(n))

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_cells(self) -> int:
        return len(self.triangles)

    @property
    def neighbours(self) -> np.ndarray:
        """(M, 3) row of the cell across each local edge; -1 on the boundary."""
        return self.twins // 3

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """(2, 3, M): x and y of edge k, corner k + 1 to k + 2, of each cell."""
        e = np.empty((2, 3, self.num_cells))
        for d in range(2):
            c = self.coords[:, d][self.triangles]
            for k in range(3):
                np.subtract(c[:, k - 1], c[:, k - 2], out=e[d, k])
        return e

    @cached_property
    def areas(self) -> np.ndarray:
        (_, ex1, ex2), (_, ey1, ey2) = self.edge_vectors
        return 0.5 * (ex1 * ey2 - ex2 * ey1)

    @cached_property
    def h_sizes(self) -> np.ndarray:
        """Cell size h_T = |T|^(1/2)."""
        return np.sqrt(self.areas)

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        cell, k = np.nonzero(self.twins < 0)
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.triangles[cell][np.arange(3) != k[:, None]]] = True
        return mask

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

        The result is the unique conforming newest-vertex refinement in which
        every marked cell is bisected. Each split edge gets one new vertex;
        the new vertices are numbered in the order of their edges' first
        owners, by row and then by local edge. The new mesh keeps the cells
        left alone in their order, then the children of the refined cells,
        parent by parent in row order.
        """
        front = marked if isinstance(marked, np.ndarray) \
            else np.fromiter(marked, np.int64)
        if not len(front):
            return self
        m_rows, nv = self.num_cells, self.num_vertices
        if not 0 <= front.min() <= front.max() < m_rows:
            raise ValueError(f"marked rows {front.min()}..{front.max()} "
                             f"are not all inside [0, {m_rows})")
        tri, tw, ref = self.triangles, self.twins, self.refinement_edge

        # closure: a refined cell splits its refinement edge, and a cell with
        # a split edge is refined, so the cell across that edge is refined
        refined = np.zeros(m_rows, dtype=bool)
        refined[front] = True
        n_marked = int(np.count_nonzero(refined))
        while len(front):
            across = tw[front, ref[front]] // 3
            front = across[(across >= 0) & ~refined[across]]
            refined[front] = True
        cells = np.flatnonzero(refined)
        # the row and local edge across each edge (-1 and 2 on the boundary)
        nbr, nbe = np.divmod(tw[cells], 3)
        # an edge is split when it is the refinement edge of a refined cell
        # on either side of it
        split = (np.arange(3) == ref[cells][:, None]) | (
            (nbr >= 0) & refined[nbr] & (ref[nbr] == nbe))

        # one new vertex per split edge, numbered at its first owner
        own = split & ((nbr < 0) | (nbr > cells[:, None]))
        mid = np.full(split.shape, -1, dtype=np.int32)
        mid[own] = nv + np.arange(np.count_nonzero(own))
        c, k = np.nonzero(split & ~own)
        mid[c, k] = mid[np.searchsorted(cells, nbr[c, k]), nbe[c, k]]
        c, k = np.nonzero(own)
        ends = np.take_along_axis(tri[cells[c]], (k[:, None] + [1, 2]) % 3,
                                  axis=1)

        # split each cell by its pattern: the first bisection halves the
        # refinement edge (a, b) at m, then the children (m, p, a) and
        # (m, b, p) bisect their own refinement edges (p, a) at q and
        # (b, p) at s where those are split; children list the new vertex
        # first, so their refinement edge is local edge 0
        rot = (ref[cells][:, None] + np.arange(3, dtype=np.int8)) % 3
        pabmsq = np.take_along_axis(np.concatenate((tri[cells], mid), axis=1),
                                    np.concatenate((rot, rot + 3), axis=1), axis=1)
        q, s = pabmsq[:, 5] >= 0, pabmsq[:, 4] >= 0
        keep = np.stack([~q, q, q, ~s, s, s], axis=1)
        # (m, p, a), (q, m, p), (q, a, m), (m, b, p), (s, m, b), (s, p, m)
        kids = pabmsq[:, [[3, 0, 1], [5, 3, 0], [5, 1, 3],
                          [3, 2, 0], [4, 3, 2], [4, 0, 3]]][keep]
        depth = np.array([1, 2, 2, 1, 2, 2], dtype=np.int16)
        gen = (self.generation[cells][:, None] + depth)[keep]

        # twins: kept rows map through `row`, and the children pair their
        # edges with each other and with the kept cells next to the refined
        # ones
        kept = ~refined
        n_kept = m_rows - len(cells)
        row = np.full(m_rows + 1, -1, dtype=np.int32)
        row[:-1][kept] = np.arange(n_kept, dtype=np.int32)
        halo = np.zeros(m_rows + 1, dtype=bool)
        halo[nbr] = True
        halo = np.flatnonzero(halo[:-1] & kept)
        partner = _pair(np.concatenate((kids, tri[halo])), nv + len(ends))
        new_row = np.concatenate((n_kept + np.arange(len(kids), dtype=np.int32),
                                  row[np.append(halo, -1)]))
        across = _remap(partner, new_row)
        # np.compress picks (M, 3) rows several times faster than a mask
        twins = np.concatenate((_remap(np.compress(kept, tw, axis=0), row),
                                across[:len(kids)]))
        h, k = np.nonzero(partner[len(kids):] >= 0)
        twins[row[halo[h]], k] = across[len(kids) + h, k]

        coords = 0.5 * (self.coords[ends[:, 0]] + self.coords[ends[:, 1]])
        return Mesh(np.concatenate((self.coords, coords)),
                    np.concatenate((self.vertex_parents, ends)),
                    np.concatenate((self.vertex_level,
                                    1 + self.vertex_level[ends].max(axis=1))),
                    np.concatenate((np.compress(kept, tri, axis=0), kids)),
                    np.concatenate((ref[kept], np.zeros(len(kids), np.int8))),
                    np.concatenate((self.generation[kept], gen)), twins,
                    np.concatenate((self.serial[kept], _new_serials(len(kids)))),
                    self.history + (RefineRecord(n_marked,
                                                 len(kids) - len(cells)),))

    def uniform_refine(self, passes: int = 1) -> "Mesh":
        mesh = self
        for _ in range(passes):
            mesh = mesh.refine(range(mesh.num_cells))
        return mesh


def match_serials(known: np.ndarray, serial: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `serial` sits in the ascending `known` (an index into
    `known`, meaningless for the rest), and the positions of the serials
    that `known` lacks, ascending. A serial names one triangle for the life
    of the process, so a cell that a refinement leaves alone is found and
    no other cell is."""
    at = np.minimum(np.searchsorted(known, serial), len(known) - 1)
    return at, np.flatnonzero(known[at] != serial)


class CellCache:
    """Per-cell values of the cells of the last mesh asked about, keyed by
    serial (`match_serials`)."""

    def __init__(self, shape: tuple[int, ...] = ()):
        self._serials = np.array([-1])  # a sentinel entry no serial matches
        self._values = np.zeros((1, *shape))

    def values(self, mesh: Mesh, compute) -> np.ndarray:
        """Values of all cells of `mesh` (read-only). The cells with no entry
        are filled from `compute(rows)` over their rows (ascending)."""
        if self._serials is mesh.serial:  # a mesh's serial array never changes
            return self._values
        at, fresh = match_serials(self._serials, mesh.serial)
        out = self._values[at]
        if len(fresh):
            out[fresh] = compute(fresh)
        out.flags.writeable = False
        self._serials, self._values = mesh.serial, out
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
