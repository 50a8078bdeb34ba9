"""Residual a posteriori indicators for the P1 discretization.

Per cell T the jump part j(T) collects h_F ||[grad W] . n||^2_{L2(F)} over
the edges of T (interior edges only, both neighbours count the edge), the
data part is d(T) = h_T ||g||_{L2(T)}, and e(T)^2 = j(T)^2 + d(T)^2. The
Laplacian of a P1 function vanishes inside each cell, so no separate volume
residual term appears.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import FeFunction
from .mesh import Mesh


@dataclass(frozen=True)
class IndicatorSet:
    """Squared per-cell indicators, one per cell row."""

    jump_sq: np.ndarray
    data_sq: np.ndarray

    @cached_property
    def jump(self) -> np.ndarray:
        return np.sqrt(self.jump_sq)

    @cached_property
    def data(self) -> np.ndarray:
        return np.sqrt(self.data_sq)

    @cached_property
    def total(self) -> np.ndarray:
        return np.sqrt(self.jump_sq + self.data_sq)

    @property
    def global_jump(self) -> float:
        return float(np.sqrt(self.jump_sq.sum()))

    @property
    def global_data(self) -> float:
        return float(np.sqrt(self.data_sq.sum()))

    @property
    def global_total(self) -> float:
        return float(np.sqrt(self.jump_sq.sum() + self.data_sq.sum()))


def jump_indicator_sq(mesh: Mesh, w: FeFunction) -> np.ndarray:
    """Per-cell j(T)^2, one per cell row."""
    jsq = np.zeros(mesh.num_cells)
    verts, left, right = mesh.interior_edge_arrays
    if len(verts) == 0:
        return jsq
    grads = w.cell_gradients
    tang = mesh.coords[verts[:, 1]] - mesh.coords[verts[:, 0]]
    h_f = np.sqrt((tang * tang).sum(-1))
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / h_f[:, None]
    # the flux jump is constant along the edge
    norm_sq = h_f * ((grads[left] - grads[right]) * normal).sum(-1) ** 2
    contrib = h_f * norm_sq
    np.add.at(jsq, left, contrib)
    np.add.at(jsq, right, contrib)
    return jsq


def estimate(mesh: Mesh, w: FeFunction, forcing) -> IndicatorSet:
    """Jump and data indicators for the current Galerkin solution."""
    jsq = jump_indicator_sq(mesh, w)
    d = forcing.data_indicator(mesh)
    return IndicatorSet(jsq, d * d)
