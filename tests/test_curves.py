"""Polyline curve container, spatial queries, and per-segment data."""
from __future__ import annotations

import numpy as np
import pytest

from mollifem.curves import _GRID_RES, Curve, SegmentedData


def test_circle_closes_and_length_converges():
    c = Curve.circle((0.0, 0.0), 1.0, 4096, boundary_gap=1.0)
    assert c.num_segments == 4096
    np.testing.assert_allclose(c.seg_end[:-1], c.seg_start[1:], atol=1e-15)
    np.testing.assert_allclose(c.seg_end[-1], c.seg_start[0], atol=1e-15)
    # inscribed polygon perimeter: 2 n sin(pi / n)
    expect = 2 * 4096 * np.sin(np.pi / 4096)
    assert abs(c.total_length - expect) < 1e-10


def test_open_polyline_segments():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    c = Curve(pts, closed=False)
    assert c.num_segments == 2
    np.testing.assert_allclose(c.seg_lengths, [1.0, 2.0], atol=1e-15)
    assert abs(c.total_length - 3.0) < 1e-15
    assert abs(c.max_seg_len - 2.0) < 1e-15


def test_grid_query_returns_superset(rng):
    c = Curve.circle((0.2, -0.1), 0.7, 512, boundary_gap=0.5)
    box_lo = rng.uniform(-1.2, 1.2, size=(50, 2))
    box_hi = box_lo + rng.uniform(0.05, 0.6, size=(50, 2))
    box, seg = c.grid_query(box_lo, box_hi)
    # unique pairs, ordered by box, then segment
    key = box * c.num_segments + seg
    assert np.all(np.diff(key) > 0)
    lo = np.minimum(c.seg_start, c.seg_end)
    hi = np.maximum(c.seg_start, c.seg_end)
    for j, ((x0, y0), (x1, y1)) in enumerate(zip(box_lo, box_hi)):
        brute = np.nonzero((hi[:, 0] >= x0) & (lo[:, 0] <= x1)
                           & (hi[:, 1] >= y0) & (lo[:, 1] <= y1))[0]
        assert set(brute.tolist()) <= set(seg[box == j].tolist())


def test_grid_query_pairs_are_those_sharing_a_bin(rng):
    # each pair is listed once even where the box and the long segments of
    # a coarse random polyline share many bins
    c = Curve(rng.uniform(-1.0, 1.0, size=(40, 2)), closed=False)
    box_lo = rng.uniform(-1.3, 1.3, size=(300, 2))
    box_hi = box_lo + rng.uniform(0.0, 0.5, size=(300, 2))
    box, seg = c.grid_query(box_lo, box_hi)
    lo, cell = c._grid[:2]
    s_lo = np.floor((np.minimum(c.seg_start, c.seg_end) - lo) / cell)
    s_hi = np.floor((np.maximum(c.seg_start, c.seg_end) - lo) / cell)
    b_lo = np.maximum(np.floor((box_lo - lo) / cell), 0)
    b_hi = np.minimum(np.floor((box_hi - lo) / cell), _GRID_RES)
    share = ((np.maximum(b_lo[:, None], s_lo[None]) <=
              np.minimum(b_hi[:, None], s_hi[None])).all(axis=2))
    want_box, want_seg = np.nonzero(share)
    assert len(want_box) > 300
    np.testing.assert_array_equal(box, want_box)
    np.testing.assert_array_equal(seg, want_seg)


def test_segmented_data_length_mismatch_rejected():
    c = Curve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=False)
    with pytest.raises(ValueError):
        SegmentedData(c, np.array([1.0]))


def test_circle_boundary_gap_recorded():
    c = Curve.circle((0.5, -0.5), 0.2, 64, boundary_gap=0.3)
    assert abs(c.boundary_gap - 0.3) < 1e-15
