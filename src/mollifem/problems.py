"""Built-in benchmark problems with closed-form solutions.

Each problem bundles the domain mesh factory, the immersed circle carrying
its flux density f, Dirichlet boundary values, and the exact solution used for the
energy-error column. The exact solutions are continuous across the circle
with normal-derivative jump equal to f, and harmonic elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import Curve
from .forcing import DensityForcing
from .mesh import Mesh, lshape_mesh, rect_mesh

PROBLEM_NAMES = ("lshape", "square", "smooth")

DEFAULT_SEGMENTS = 2 ** 14


class RadialLogSolution:
    """u = -ln|x-c| outside the circle of radius R about c, -ln R inside;
    optionally plus the reentrant-corner mode rho^(2/3) sin(2(phi-pi/2)/3)."""

    def __init__(self, center, radius: float, corner_mode: bool = False):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.corner_mode = corner_mode
        self.kink = (self.center, self.radius)  # where the gradient jumps

    def _log_part(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self.center
        rho = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        return np.where(rho > self.radius, -np.log(np.maximum(rho, 1e-300)),
                        -np.log(self.radius))

    def _log_grad(self, pts: np.ndarray) -> np.ndarray:
        """-(x - c) / |x - c|^2 outside the circle, 0 inside: only the
        points outside are divided."""
        dx, dy = pts[:, 0] - self.center[0], pts[:, 1] - self.center[1]
        rho_sq = dx * dx + dy * dy
        out = np.zeros_like(pts)
        m = np.flatnonzero(rho_sq > self.radius ** 2)
        rho_sq = rho_sq[m]
        out[m, 0] = -dx[m] / rho_sq
        out[m, 1] = -dy[m] / rho_sq
        return out

    @staticmethod
    def _polar(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """rho and phi, phi moved past the branch cut at pi/2."""
        x, y = pts[:, 0], pts[:, 1]
        phi = np.arctan2(y, x)
        phi = np.where(phi < 0.5 * np.pi - 1e-14, phi + 2.0 * np.pi, phi)
        return np.sqrt(x * x + y * y), phi

    def _corner_part(self, pts: np.ndarray) -> np.ndarray:
        rho, phi = self._polar(pts)
        return rho ** (2.0 / 3.0) * np.sin((2.0 / 3.0) * (phi - 0.5 * np.pi))

    def _corner_grad(self, pts: np.ndarray) -> np.ndarray:
        rho, phi = self._polar(pts)
        arg = (2.0 / 3.0) * (phi - 0.5 * np.pi)
        scale = (2.0 / 3.0) * np.maximum(rho, 1e-300) ** (-1.0 / 3.0)
        dr, dt = scale * np.sin(arg), scale * np.cos(arg)
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        out = np.empty_like(pts)
        out[:, 0] = dr * cos_p - dt * sin_p
        out[:, 1] = dr * sin_p + dt * cos_p
        return out

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        out = self._log_part(pts)
        if self.corner_mode:
            out = out + self._corner_part(pts)
        return out

    def gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        out = self._log_grad(pts)
        if self.corner_mode:
            out += self._corner_grad(pts)
        return out


class SineProduct:
    """u = sin(pi x) sin(pi y), vanishing on the unit-square boundary."""

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        sx, sy = np.sin(np.pi * pts[:, 0]), np.sin(np.pi * pts[:, 1])
        cx, cy = np.cos(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1)

    def laplacian_density(self, points) -> np.ndarray:
        return 2.0 * np.pi ** 2 * self.value(points)


@dataclass
class TestProblem:
    name: str
    curve: Curve | None
    boundary_data: Callable | None
    exact: object | None
    initial_mesh: Callable[[], Mesh]
    density: object | None = None


def _circle_problem(name: str, center, radius: float, gap: float,
                    corner_mode: bool, initial_mesh, n_segments: int):
    """f = 1/radius on the circle of `radius` about `center`, `gap` from the
    boundary, with the exact solution RadialLogSolution."""
    curve = Curve.circle(center, radius, n_segments, f=1.0 / radius,
                         boundary_gap=gap)
    exact = RadialLogSolution(center, radius, corner_mode=corner_mode)
    return TestProblem(name=name, curve=curve, boundary_data=exact.value,
                       exact=exact, initial_mesh=initial_mesh)


def lshape_problem(n_segments: int = DEFAULT_SEGMENTS,
                   initial_divisions: int = 4) -> TestProblem:
    """L-shaped domain (-1,1)^2 minus the closed first-quadrant square,
    circle of radius 0.2 about (0.5,-0.5), f = 1/radius."""
    return _circle_problem("lshape", (0.5, -0.5), 0.2, 0.5 - 0.2, True,
                           lambda: lshape_mesh(initial_divisions), n_segments)


def square_problem(n_segments: int = DEFAULT_SEGMENTS,
                   initial_divisions: int = 16) -> TestProblem:
    """Unit square, circle of radius 0.2 about (0.3,0.3), f = 1/radius."""
    return _circle_problem(
        "square", (0.3, 0.3), 0.2, 0.3 - 0.2, False,
        lambda: rect_mesh(initial_divisions, initial_divisions,
                          0.0, 0.0, 1.0, 1.0), n_segments)


def smooth_problem(initial_divisions: int = 8) -> TestProblem:
    """No curve: manufactured smooth load on the unit square."""
    exact = SineProduct()
    return TestProblem(
        name="smooth",
        curve=None,
        boundary_data=None,
        exact=exact,
        initial_mesh=lambda: rect_mesh(initial_divisions, initial_divisions,
                                       0.0, 0.0, 1.0, 1.0),
        density=DensityForcing(exact.laplacian_density),
    )


def make_problem(name: str, n_segments: int = DEFAULT_SEGMENTS,
                 initial_divisions: int | None = None) -> TestProblem:
    if name == "lshape":
        return lshape_problem(n_segments, initial_divisions or 4)
    if name == "square":
        return square_problem(n_segments, initial_divisions or 16)
    if name == "smooth":
        return smooth_problem(initial_divisions or 8)
    raise ValueError(f"unknown problem {name!r}; pick one of {PROBLEM_NAMES}")
