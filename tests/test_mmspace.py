"""Excursions and metric checks: validation, the Vervaat sampler, truncated
excursion distances, and the box-distance coupling of a graph with its
excursion, against a dense oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from graphlim import combinat as C
from graphlim import graphs as G
from graphlim import mmspace as M
from test_experiments import _peak_mib


def _const_excursion(value: float, m: int) -> M.ExcursionGrid:
    vals = np.full(m + 1, float(value))
    vals[0] = vals[-1] = 0.0
    return M.ExcursionGrid(vals)


# ---------------------------------------------------------------------------
# finite mm-space checks (the two k-point spaces of the box estimate)
# ---------------------------------------------------------------------------


def test_finite_mmspace_triangle_violation():
    dist = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(ValueError, match="triangle inequality violated$"):
        M._check_triangle(lambda i, j: dist[i, j], 3)
    # squared gaps break the inequality whenever the middle point lies
    # between the outer two: scanned in full up to 200 points, on random
    # triples above
    for n, message in ((200, "violated$"), (201, "spot check")):
        M._check_triangle(lambda i, j: np.abs(i - j).astype(np.float64), n)
        with pytest.raises(ValueError, match=message):
            M._check_triangle(lambda i, j: ((i - j) ** 2).astype(np.float64), n)


def test_check_triangle_rejects_nan_slack():
    # the point at infinite distance makes slack entries NaN (inf - inf);
    # they must not hide the violation among the first three points
    inf = math.inf
    dist = np.array(
        [
            [0.0, 1.0, 5.0, inf],
            [1.0, 0.0, 1.0, inf],
            [5.0, 1.0, 0.0, inf],
            [inf, inf, inf, 0.0],
        ]
    )
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="triangle inequality violated"):
        M._check_triangle(lambda i, j: dist[i, j], 4)


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


def _normal_rule_excursion(m: int, rng: np.random.Generator) -> np.ndarray:
    """The Vervaat excursion with its increments drawn by ``rng.normal``."""
    walk = np.cumsum(rng.normal(0.0, math.sqrt(1.0 / m), size=m))
    bridge = np.concatenate(([0.0], walk)) - np.arange(m + 1) / m * walk[-1]
    j = int(np.argmin(bridge[:m]))
    exc = np.concatenate((bridge[j:m], bridge[: j + 1])) - bridge[j]
    exc[0] = exc[-1] = 0.0
    return np.maximum(exc, 0.0)


@pytest.mark.parametrize("m", [2, 3, 2048, 32768])
def test_sample_excursion_equals_the_normal_rule_bit_for_bit(m):
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = M.sample_excursion(m, rng).values
        assert np.array_equal(got.view(np.uint64), _normal_rule_excursion(m, ref).view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


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


def test_excursion_distance_interior_zero_raises():
    vals = np.zeros(17)
    vals[1:8] = 1.0
    vals[9:16] = 1.0  # vals[8] = 0 interior
    e = M.ExcursionGrid(vals)
    with pytest.raises(ValueError, match="vanishes"):
        M.excursion_distance(e, 0.25, 0.75, 0.1)


def _full_prefix_cumulative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # 1/e and the trapezoid prefix over all m cells, then read at each point
    m = values.size - 1
    pos = xs * m
    cell = np.clip(np.floor(pos + 1e-12).astype(np.int64), 0, m - 1)
    g = np.zeros(m + 1)
    g[1:m] = 1.0 / values[1:m]
    prefix = np.zeros(m)
    prefix[2:m] = np.cumsum(0.5 * (g[1 : m - 1] + g[2:m])) / m
    theta = pos - cell
    g_at = (1.0 - theta) * g[cell] + theta * g[cell + 1]
    return prefix[cell] + 0.5 * theta / m * (g[cell] + g_at)


@pytest.mark.parametrize("m", [3, 64, 2048])
def test_grid_cumulative_equals_the_full_prefix_bit_for_bit(m):
    # the prefix stops at the last cell read; points in the first and last
    # interior cells, on grid points, and x == y
    rng = np.random.default_rng(m)
    e = M.sample_excursion(m, rng)
    first = (1 + rng.random(3)) / m
    last = (m - 2 + rng.random(3)) / m
    grid = np.array([1.0, m - 2.0]) / m
    for xs in (first, last, grid, np.concatenate([first, last]), np.array([first[0], first[0]]),
               np.array([last[1], last[1]]), np.array([first[2], last[0]])):
        got = M._grid_cumulative(e.values, xs)
        assert np.array_equal(got.view(np.uint64), _full_prefix_cumulative(e.values, xs).view(np.uint64))
    # an interior zero at t_(m-1), past the cells read once m > 3, still raises
    vals = e.values.copy()
    vals[m - 1] = 0.0
    with pytest.raises(ValueError, match="vanishes"):
        M._grid_cumulative(vals, first)


def test_excursion_distance_boundary_cell_gives_inf():
    # delta < 1/m lets a point into a boundary cell, where 1/e is
    # interpolated from the divergent end value
    e = _const_excursion(1.0, 16)
    assert math.isinf(M.excursion_distance(e, 0.05, 0.5, 0.05))
    assert math.isinf(M.excursion_distance(e, 0.5, 0.96, 0.04))
    assert M.excursion_distance(e, 1 / 16, 15 / 16, 0.05) == pytest.approx(7 / 8, rel=1e-12)


def test_excursion_distance_matches_quadrature_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        m = int(rng.integers(4, 3000))
        e = M.sample_excursion(m, rng)
        x, y = np.sort(rng.uniform(2 / m, 1 - 2 / m, 2))
        got = M.excursion_distance(e, float(x), float(y), 2 / m)
        assert got == pytest.approx(oracles.excursion_distance(e.values, float(x), float(y)), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# box discrepancy
# ---------------------------------------------------------------------------


def test_box_discrepancy_identity_and_shift():
    # the dense oracle that gp_box_estimate_unit is compared with below
    dist = np.array(
        [
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ]
    )
    diag = [(i, i) for i in range(3)]
    assert oracles.box_discrepancy(dist, dist, diag) == 0.0
    shifted = dist + 0.25
    np.fill_diagonal(shifted, 0.0)
    assert oracles.box_discrepancy(dist, shifted, diag) == 0.25
    assert oracles.box_discrepancy(dist, dist, [(0, 0), (2, 1)]) == 1.0


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
        M.gp_box_estimate_unit(C.parse_dyck("UDUD"), True, 0.1, 64, rng)
    with pytest.raises(ValueError):
        M.gp_box_estimate_unit(w, True, 0.0, 64, rng)
    for delta, m in ((0.5, 64), (0.45, 4)):  # one grid point: no pair to compare
        with pytest.raises(ValueError, match="at least 2 grid points"):
            M.gp_box_estimate_unit(w, True, delta, m, rng)


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


def _dense_box_estimate(w, e_from_w, delta, m, rng):
    # the dense construction: both k x k metrics, compared under the
    # identity relation by the oracle
    n = w.size
    h, f = C._heights_arrays(w.steps)
    xs = M._truncated_grid(delta, m)
    verts = np.minimum(1 + np.floor(xs * n).astype(np.int64), n)
    upper = G._table_distances(G._distances_from(f, verts), verts)
    dist_g = np.add(upper, upper.T, dtype=np.float64) / math.sqrt(n)
    if e_from_w:
        mid = np.minimum(1 + np.floor(np.arange(1, m) / m * n).astype(np.int64), n)
        vals = np.zeros(m + 1)
        vals[1:m] = h[mid - 1] / math.sqrt(2.0 * n)
        exc = M.ExcursionGrid(vals)
    else:
        exc = M.sample_excursion(m, rng)
    cum = M._grid_cumulative(exc.values, xs)
    for r, c in ((0, xs.size // 2), (1, xs.size - 2)):
        if r < c:  # a single pair at k = 2
            assert abs(cum[c] - cum[r]) == pytest.approx(M.excursion_distance(exc, xs[r], xs[c], delta), rel=1e-9)
    dist_e = np.abs(np.subtract.outer(cum, cum)) / math.sqrt(2.0)
    return oracles.box_discrepancy(dist_g, dist_e, [(i, i) for i in range(xs.size)])


@pytest.mark.parametrize(
    "n, m, delta",
    [
        (100, 400, 0.05),  # k = 361 > n: repeated sources; two row blocks, the last partial
        (2000, 400, 0.05),  # k = 361 < n
        (700, 1024, 1025 / 4096),  # k = 512, a whole number of row blocks
        (90, 128, 0.1),  # k = 103 <= 200: one block, full triangle check
        (30, 400, 0.05),  # k = 361 >> n: about 12 grid points per vertex
        (2000, 16, 0.1),  # k = 13 << n: several walk points share a step column
        (50, 4, 0.3),  # k = 2: a single pair
    ],
)
@pytest.mark.parametrize("e_from_w", [True, False])
def test_gp_box_estimate_unit_matches_dense_spaces(n, m, delta, e_from_w):
    rng = np.random.default_rng(n + m)
    for _ in range(3):
        w = C.sample_irreducible_dyck(n, rng)
        seed = int(rng.integers(1 << 32))
        disc, defect = M.gp_box_estimate_unit(w, e_from_w, delta, m, np.random.default_rng(seed))
        assert defect == 2.0 * delta
        assert disc == _dense_box_estimate(w, e_from_w, delta, m, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [10, 17, 31, 300])
def test_box_rank_lookup_equals_searchsorted(n):
    xs = M._box_grid(1 / 32, 64)
    verts = np.minimum(1 + np.floor(xs * n).astype(np.int64), n)
    table = G._distances_from(C._heights_arrays(C._irreducible_dyck_steps(n, np.random.default_rng(n)))[1], verts)
    if n < 32:  # the edge values 1 and n both start and end walks
        assert table.min() == 1 and table.max() == n
    rank = np.searchsorted(verts, np.arange(n + 1), side="right")
    assert np.array_equal(rank[table], np.searchsorted(verts, table, side="right"))


def test_gp_box_estimate_unit_memory():
    # the int32 k x L jump-walk table (k = 1844 grid points, L = 198 step
    # columns) and one row block's masked run ends peak at 3.4 MiB; an int64
    # table with run ends gathered by nonzero peaked at 7.5 MiB, and a single
    # dense k x k int64 matrix (26 MiB) would not come close
    w = C.sample_irreducible_dyck(16000, np.random.default_rng(8))
    assert _peak_mib(lambda: M.gp_box_estimate_unit(w, True, 0.05, 2048, np.random.default_rng(9))) <= 4


def test_full_triangle_check_memory_is_bounded():
    # k = 200 grid points, the largest full check: its slack is formed a few
    # i rows at a time and peaks under 3 MiB; one (k, k, k) float64 slack
    # traced about 120 MiB
    w = C.sample_irreducible_dyck(1000, np.random.default_rng(8))
    assert M._box_grid(0.05, 222).size == 200
    assert _peak_mib(lambda: M.gp_box_estimate_unit(w, True, 0.05, 222, np.random.default_rng(9))) <= 4
