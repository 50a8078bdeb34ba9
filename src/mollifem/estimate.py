"""Residual a posteriori indicators for the P1 discretization.

Per cell T the jump part j(T) collects h_F ||[grad W] . n||^2_{L2(F)} over
the edges of T (interior edges only, both neighbours count the edge), edge
by edge on rows of the cell gradients and the mesh's edge vectors; the data
part is d(T) = h_T ||g||_{L2(T)}, and e(T)^2 = j(T)^2 + d(T)^2. The
Laplacian of a P1 function vanishes inside each cell, so no separate volume
residual term appears.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import FeFunction


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


def jump_indicator_sq(w: FeFunction) -> np.ndarray:
    """Per-cell j(T)^2 on `w.mesh`, one per cell row: each cell sums its
    interior edges in local order."""
    mesh = w.mesh
    (gx, gy), (ex, ey) = w.cell_gradients.T, mesh.edge_vectors
    jsq = np.zeros(mesh.num_cells)
    for k, n in enumerate(mesh.twins.T // 3):  # -1 on the boundary
        # the flux jump is constant along edge k, and with the edge vector
        # e_k as tangent, h_F^2 (jump . n)^2 = (jump x e_k)^2
        cross = (gx - gx.take(n)) * ey[k]
        cross -= (gy - gy.take(n)) * ex[k]
        cross *= cross
        cross[n < 0] = 0.0  # before the sum: the twin -1 read the last cell
        jsq += cross
    return jsq


def estimate(w: FeFunction, forcing) -> IndicatorSet:
    """Jump and data indicators of the Galerkin solution `w` on its mesh."""
    jsq = jump_indicator_sq(w)
    d = forcing.data_indicator(w.mesh)
    return IndicatorSet(jsq, d * d)
