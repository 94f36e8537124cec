"""Metric measure spaces and excursions: validation, the Vervaat sampler,
truncated excursion distances, box discrepancy, and the graph coupling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graphlim import combinat as C
from graphlim import graphs as G
from graphlim import mmspace as M


def _const_excursion(value: float, m: int) -> M.ExcursionGrid:
    vals = np.full(m + 1, float(value))
    vals[0] = vals[-1] = 0.0
    return M.ExcursionGrid(vals)


# ---------------------------------------------------------------------------
# FiniteMmSpace
# ---------------------------------------------------------------------------


def test_finite_mmspace_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    M.FiniteMmSpace(good, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        M.FiniteMmSpace(good, np.array([0.7, 0.2]))  # weights not a distribution
    with pytest.raises(ValueError):
        M.FiniteMmSpace(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        M.FiniteMmSpace(np.array([[0.1, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        M.FiniteMmSpace(asym, np.array([0.5, 0.5]))


def test_finite_mmspace_triangle_violation():
    dist = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(ValueError):
        M.FiniteMmSpace(dist, np.full(3, 1 / 3))


def test_finite_mmspace_rejects_non_finite():
    weights = np.full(2, 0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="distances must be finite"):
            M.FiniteMmSpace(np.array([[0.0, bad], [bad, 0.0]]), weights)
        with pytest.raises(ValueError, match="weights must be finite"):
            M.FiniteMmSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([bad, 0.5]))


def test_infinite_point_does_not_hide_triangle_violation():
    # d(0,2) = 5 > d(0,1) + d(1,2); alone, these three points are rejected
    # by the triangle check, and a fourth point at infinite distance used
    # to turn every slack into NaN and let the space through
    three = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        M.FiniteMmSpace(three, np.full(3, 1 / 3))
    four = np.full((4, 4), math.inf)
    four[:3, :3] = three
    four[3, 3] = 0.0
    with pytest.raises(ValueError, match="distances must be finite"):
        M.FiniteMmSpace(four, np.full(4, 0.25))


def test_from_graph_scales_distances():
    g = G.inversion_graph(C.Permutation((2, 4, 1, 3)))  # path 1-3-2-4
    s = M.from_graph(g, 0.5)
    assert s.dist[0, 2] == 0.5
    assert s.dist[0, 1] == 1.0
    assert s.dist[0, 3] == 1.5
    assert np.allclose(s.weights, 0.25)


def test_from_graph_rejects_disconnected():
    g = G.UGraph.empty(3)
    with pytest.raises(ValueError):
        M.from_graph(g, 1.0)


# ---------------------------------------------------------------------------
# excursions
# ---------------------------------------------------------------------------


def test_excursion_grid_validation():
    with pytest.raises(ValueError):
        M.ExcursionGrid(np.array([0.0, 1.0, 0.1]))  # nonzero end
    with pytest.raises(ValueError):
        M.ExcursionGrid(np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        M.ExcursionGrid(np.array([0.0, 0.0]))  # too short


def test_sample_excursion_shape_and_positivity():
    rng = np.random.default_rng(0)
    for m in (8, 64, 257):
        e = M.sample_excursion(m, rng)
        assert e.values.size == m + 1
        assert e.values[0] == 0.0 and e.values[-1] == 0.0
        assert (e.values >= 0.0).all()
        assert e.values.max() > 0.0


def test_sample_excursion_mean_integral():
    rng = np.random.default_rng(1)
    vals = [M.excursion_integral(M.sample_excursion(1024, rng), 1) for _ in range(3000)]
    mean = float(np.mean(vals))
    target = math.sqrt(math.pi / 8.0)
    # the m-step discretization biases the mean down by O(m^{-1/2})
    assert abs(mean - target) < 0.04


def test_excursion_integral_trapezoid():
    e = _const_excursion(2.0, 10)
    assert M.excursion_integral(e, 1) == pytest.approx(2.0 * 9 / 10)
    assert M.excursion_integral(e, 2) == pytest.approx(4.0 * 9 / 10)
    with pytest.raises(ValueError):
        M.excursion_integral(e, 0)


def test_excursion_distance_constant_and_additive():
    e = _const_excursion(4.0, 20)
    # d(x, y) = (y - x) / 4 exactly for interior windows
    assert M.excursion_distance(e, 0.25, 0.75, 0.1) == pytest.approx(0.5 / 4.0, abs=1e-12)
    d1 = M.excursion_distance(e, 0.25, 0.4321, 0.1)
    d2 = M.excursion_distance(e, 0.4321, 0.75, 0.1)
    total = M.excursion_distance(e, 0.25, 0.75, 0.1)
    assert d1 + d2 == pytest.approx(total, abs=1e-9)
    assert M.excursion_distance(e, 0.3, 0.3, 0.1) == 0.0


def test_excursion_distance_validation():
    e = _const_excursion(1.0, 16)
    with pytest.raises(ValueError):
        M.excursion_distance(e, 0.05, 0.5, 0.1)  # x below delta
    with pytest.raises(ValueError):
        M.excursion_distance(e, 0.5, 0.96, 0.1)  # y above 1 - delta
    with pytest.raises(ValueError):
        M.excursion_distance(e, 0.6, 0.4, 0.1)  # unordered
    with pytest.raises(ValueError):
        M.excursion_distance(e, 0.3, 0.5, 0.0)  # delta must be positive


def test_excursion_distance_interior_zero_gives_inf():
    vals = np.zeros(17)
    vals[1:8] = 1.0
    vals[9:16] = 1.0  # vals[8] = 0 interior
    e = M.ExcursionGrid(vals)
    assert math.isinf(M.excursion_distance(e, 0.25, 0.75, 0.1))


# ---------------------------------------------------------------------------
# box discrepancy
# ---------------------------------------------------------------------------


def _space(dist):
    n = dist.shape[0]
    return M.FiniteMmSpace(dist, np.full(n, 1.0 / n))


def test_box_discrepancy_identity_and_shift():
    dist = np.array(
        [
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ]
    )
    s1 = _space(dist)
    diag = [(i, i) for i in range(3)]
    assert M.box_discrepancy(s1, s1, diag) == 0.0
    shifted = dist + 0.25
    np.fill_diagonal(shifted, 0.0)
    s2 = _space(shifted)
    assert M.box_discrepancy(s1, s2, diag) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        M.box_discrepancy(s1, s2, [])
    with pytest.raises(ValueError):
        M.box_discrepancy(s1, s2, [(0, 5)])


def test_sampled_distance_matrix():
    rng = np.random.default_rng(2)
    s = _space(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sub = M.sampled_distance_matrix(s, 6, rng)
    assert sub.shape == (6, 6)
    assert np.allclose(sub, sub.T)
    assert (np.diag(sub) == 0).all()
    with pytest.raises(ValueError):
        M.sampled_distance_matrix(s, 1, rng)


# ---------------------------------------------------------------------------
# graph coupling
# ---------------------------------------------------------------------------


def test_gp_box_estimate_unit_structure():
    rng = np.random.default_rng(3)
    w = C.sample_irreducible_dyck(400, rng)
    disc, defect = M.gp_box_estimate_unit(w, True, 0.1, 512, rng)
    assert defect == pytest.approx(0.2)
    assert 0.0 <= disc < 1.0
    with pytest.raises(ValueError):
        M.gp_box_estimate_unit(C.DyckPath("UDUD"), True, 0.1, 64, rng)
    with pytest.raises(ValueError):
        M.gp_box_estimate_unit(w, True, 0.0, 64, rng)


def test_gp_box_estimate_unit_deterministic_in_coupled_mode():
    w = C.sample_irreducible_dyck(300, np.random.default_rng(4))
    d1, _ = M.gp_box_estimate_unit(w, True, 0.1, 256, np.random.default_rng(5))
    d2, _ = M.gp_box_estimate_unit(w, True, 0.1, 256, np.random.default_rng(99))
    assert d1 == d2  # coupled regime ignores the rng


def test_gp_box_estimate_shrinks_with_n():
    rng = np.random.default_rng(6)
    small = np.median(
        [
            M.gp_box_estimate_unit(C.sample_irreducible_dyck(200, rng), True, 0.1, 512, rng)[0]
            for _ in range(5)
        ]
    )
    large = np.median(
        [
            M.gp_box_estimate_unit(C.sample_irreducible_dyck(4000, rng), True, 0.1, 512, rng)[0]
            for _ in range(5)
        ]
    )
    assert large < small
