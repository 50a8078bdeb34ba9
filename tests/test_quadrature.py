"""Exactness checks against closed-form monomial integrals.

Over the reference triangle {x,y >= 0, x+y <= 1} the monomial integral is
int x^a y^b = a! b! / (a+b+2)!; the rules are compared to that directly.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mollifem import quadrature as quadr

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def exact_monomial(a: int, b: int) -> float:
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def rule_integral(bary: np.ndarray, w: np.ndarray, a: int, b: int) -> float:
    pts = quadr.triangle_points(REF[None], bary)[0]
    # weights are normalized to the unit measure; area of REF is 1/2
    return 0.5 * float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))


def test_base_rule_weights_and_location():
    assert abs(quadr.TRI_WEIGHTS.sum() - 1.0) < 1e-15
    assert np.all(quadr.TRI_BARY >= 0.0)
    np.testing.assert_allclose(quadr.TRI_BARY.sum(axis=1), 1.0, atol=1e-14)


def test_base_rule_exact_through_degree_four():
    for a in range(5):
        for b in range(5 - a):
            got = rule_integral(quadr.TRI_BARY, quadr.TRI_WEIGHTS, a, b)
            assert abs(got - exact_monomial(a, b)) < 1e-15, (a, b)


def test_base_rule_not_exact_at_degree_five():
    got = rule_integral(quadr.TRI_BARY, quadr.TRI_WEIGHTS, 5, 0)
    assert abs(got - exact_monomial(5, 0)) > 1e-9


def test_subdivided_rule_counts_and_weights():
    for depth in range(4):
        bary, w = quadr.subdivided_rule(depth)
        assert len(w) == 6 * 4 ** depth
        assert bary.shape == (len(w), 3)
        assert abs(w.sum() - 1.0) < 1e-13
        assert np.all(bary >= -1e-14)


def test_subdivided_rule_keeps_polynomial_exactness():
    bary, w = quadr.subdivided_rule(2)
    for a in range(5):
        for b in range(5 - a):
            got = rule_integral(bary, w, a, b)
            assert abs(got - exact_monomial(a, b)) < 1e-14, (a, b)


def test_subdivided_rule_converges_on_kinked_integrand():
    # |x + y - c| has a kink; an irrational c keeps the kink line off every
    # subdivision edge, so deeper subdivision must shrink the error.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = 1.0 / np.sqrt(2.0)

    def quad_err(depth: int) -> float:
        bary, w = quadr.subdivided_rule(depth)
        pts = quadr.triangle_points(tri[None], bary)[0]
        val = 0.5 * float(w @ np.abs(pts.sum(axis=1) - c))
        # with s = x+y the level-set measure is s ds and c^2 = 1/2, so the
        # integral int_0^1 |s - c| s ds collapses to (1 - c) / 3
        return abs(val - (1.0 - c) / 3.0)

    errs = [quad_err(d) for d in (0, 2, 4)]
    assert errs[1] < 0.5 * errs[0]
    assert errs[2] < 0.5 * errs[1]


def test_triangle_points_affine_map():
    tri = np.array([[[1.0, 1.0], [3.0, 1.0], [1.0, 5.0]]])
    bary = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [1 / 3, 1 / 3, 1 / 3]])
    pts = quadr.triangle_points(tri, bary)
    np.testing.assert_allclose(pts[0, :3], tri[0], atol=1e-14)
    np.testing.assert_allclose(pts[0, 3], tri[0].mean(axis=0), atol=1e-14)
    # the same bits as the plain barycentric sum, whatever the batch
    rng = np.random.default_rng(5)
    for depth in range(4):
        bary, _ = quadr.subdivided_rule(depth)
        for m in (1, 2, 9):
            cells = rng.uniform(-3.0, 3.0, size=(m, 3, 2))
            np.testing.assert_array_equal(
                quadr.triangle_points(cells, bary),
                np.einsum("qc,mcx->mqx", bary, cells))


def test_gauss_line_rules():
    # GAUSS4 on [0,1] is exact through degree 7
    xs, ws, deg = quadr.GAUSS4_X, quadr.GAUSS4_W, 7
    assert abs(ws.sum() - 1.0) < 1e-14
    for p in range(deg + 1):
        got = float(ws @ xs ** p)
        assert abs(got - 1.0 / (p + 1)) < 1e-14, p
    beyond = float(ws @ xs ** (deg + 1))
    assert abs(beyond - 1.0 / (deg + 2)) > 1e-9


@given(cost=st.lists(st.integers(0, 40), max_size=60),
       chunk=st.integers(1, 50))
def test_batches_cover_the_items_in_order_within_the_budget(cost, chunk):
    # every item once, in order; a run of two or more items costs at most
    # the budget, and the next item would take it over
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadr, "POINT_CHUNK", chunk)
        runs = list(quadr.batches(np.array(cost, dtype=np.int64)))
    assert [i for lo, hi in runs for i in range(lo, hi)] == list(range(len(cost)))
    for lo, hi in runs:
        assert hi == lo + 1 or sum(cost[lo:hi]) <= chunk
        assert hi == len(cost) or sum(cost[lo:hi + 1]) > chunk
