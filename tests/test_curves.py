"""Polyline curve container, per-segment data, and the incidence store."""
from __future__ import annotations

import numpy as np
import pytest

from mollifem.afem import interface_loop
from mollifem.curves import Curve, interface_cells
from mollifem.fem import ErrorIntegrator, FeFunction
from mollifem.forcing import LineForcing
from mollifem.problems import square_problem


def test_circle_closes_and_length_converges():
    c = Curve.circle((0.0, 0.0), 1.0, 4096, boundary_gap=1.0)
    assert c.num_segments == 4096
    np.testing.assert_allclose(c.seg_end[:-1], c.seg_start[1:], atol=1e-15)
    np.testing.assert_allclose(c.seg_end[-1], c.seg_start[0], atol=1e-15)
    # inscribed polygon perimeter: 2 n sin(pi / n)
    expect = 2 * 4096 * np.sin(np.pi / 4096)
    assert abs(c.total_length - expect) < 1e-10
    # the sagitta: how far the circle strays from a chord, at its midpoint
    mid = 0.5 * (c.seg_start + c.seg_end)
    assert abs(c.sagitta - (1.0 - np.linalg.norm(mid, axis=1)).max()) < 1e-15


def test_open_polyline_segments():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    c = Curve(pts, closed=False)
    assert c.num_segments == 2
    np.testing.assert_allclose(c.seg_lengths, [1.0, 2.0], atol=1e-15)
    assert abs(c.total_length - 3.0) < 1e-15
    assert abs(c.max_seg_len - 2.0) < 1e-15
    assert c.sagitta == 0.0


def test_curve_density_is_one_read_only_value_per_segment():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="one value per curve segment"):
        Curve(pts, np.array([1.0]), closed=False)
    np.testing.assert_array_equal(Curve(pts, 2.5).f, [2.5, 2.5, 2.5])
    f = np.array([1.0, -2.0])
    c = Curve(pts, f, closed=False)
    np.testing.assert_array_equal(c.f, f)
    assert f.flags.writeable and not c.f.flags.writeable
    np.testing.assert_array_equal(Curve.circle((0.0, 0.0), 1.0, 8, f=3.0).f,
                                  np.full(8, 3.0))


def test_circle_boundary_gap_recorded():
    c = Curve.circle((0.5, -0.5), 0.2, 64, boundary_gap=0.3)
    assert abs(c.boundary_gap - 0.3) < 1e-15


class _CountingCandidates:
    """A curve's `_candidates` that records the centroids of the cells it is
    asked about."""

    def __init__(self, candidates):
        self.candidates, self.centres = candidates, []

    def __call__(self, mesh, rows):
        self.centres.append(mesh.coords[mesh.triangles[rows]].mean(axis=1))
        return self.candidates(mesh, rows)


def test_each_fresh_cell_is_queried_once_per_curve():
    # the three readers of the incidence on two meshes of a lineage: each
    # cell's candidates are queried (and clipped) once, by whichever reader
    # comes first
    problem = square_problem(n_segments=512)
    curve = problem.curve
    counted = curve._candidates = _CountingCandidates(curve._candidates)
    error = ErrorIntegrator(problem.exact, curve)
    line = LineForcing(curve)
    mesh = problem.initial_mesh()
    seen = []
    for _ in range(2):
        if seen:
            mesh = mesh.refine(interface_cells(mesh, curve))
        interface_cells(mesh, curve)
        error(FeFunction(mesh, problem.exact.value(mesh.coords)))
        line.load_vector(mesh)
        seen.append(mesh)
    queried = np.concatenate(counted.centres)
    serial = np.concatenate([m.serial for m in seen])
    _, first = np.unique(serial, return_index=True)
    rows = np.concatenate([np.arange(m.num_cells) for m in seen])[first]
    owner = np.repeat(np.arange(len(seen)), [m.num_cells for m in seen])[first]
    want = np.concatenate([m.coords[m.triangles[rows[owner == k]]].mean(axis=1)
                           for k, m in enumerate(seen)])
    assert len(queried) == len(want) == len(first)
    np.testing.assert_array_equal(np.unique(queried, axis=0),
                                  np.unique(want, axis=0))
    # a later stage's interface loop starts on a mesh the curve has seen:
    # it queries only the cells its own refinements create
    last = seen[-1]
    counted.centres.clear()
    assert interface_loop(last, curve, 1.0) is last
    assert not counted.centres
    fine = interface_loop(last, curve, 0.5 * last.h_sizes[
        interface_cells(last, curve)].max())
    assert sum(map(len, counted.centres)) == fine.serial[-1] - last.serial[-1]
