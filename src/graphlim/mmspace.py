"""Discretized excursions and box-distance estimation for unit interval
graphs.

Excursions live on the uniform grid t_i = i/m as m+1 nonnegative values
pinned to 0 at both ends; the excursion metric d_e(x, y) = integral of 1/e
over [x, y] diverges at the endpoints, so every evaluation carries a
mandatory truncation level delta and requests touching [0, delta) or
(1-delta, 1] are rejected.

One quadrature, :func:`_grid_cumulative`, serves the two-point distance
and the box estimate: trapezoids of the linear interpolant of 1/e, summed
from t_1, so O(1/m) accurate, exact for constant integrands and additive in
the integration bounds.  It needs e > 0 at every interior grid point (an
interior zero raises ValueError); a point in a boundary cell, where 1/e is
interpolated from the divergent end value, has distance inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .combinat import DyckPath, _heights_arrays
from .graphs import _distances_from

__all__ = [
    "ExcursionGrid",
    "sample_excursion",
    "excursion_distance",
    "excursion_integral",
    "gp_box_estimate_unit",
]

_TRIANGLE_TOL = 1e-9
_FULL_TRIANGLE_LIMIT = 200
_SPOT_CHECK_TRIPLES = 2000
_SPOT_CHECK_CHUNK = 512  # triples a pair call sees: the graph pair gathers a row of steps for each
_SLACK_ROWS = 4  # i rows of the full check's (i, j, l) slack: 1.2 MiB at n = 200
_BOX_BLOCK_ROWS = 256


def _check_triangle(pair: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int) -> None:
    """Triangle inequality of pair(i, j) on n points, in full or spot-checked."""
    if n <= _FULL_TRIANGLE_LIMIT:
        # i rows at a time: a pair may gather a row of steps per (i, j)
        idx = np.arange(n)
        blocks = range(0, n, _SLACK_ROWS)
        d = np.concatenate([pair(idx[r : r + _SLACK_ROWS, None], idx[None, :]) for r in blocks])
        for r in blocks:
            slack = d[r : r + _SLACK_ROWS, :, None] + d[None, :, :]
            slack -= d[r : r + _SLACK_ROWS, None, :]
            if not slack.min() >= -_TRIANGLE_TOL:  # a NaN slack fails too
                raise ValueError("triangle inequality violated")
        return
    check_rng = np.random.default_rng(0xD15C)
    triples = check_rng.integers(0, n, size=(3, _SPOT_CHECK_TRIPLES))
    for c in range(0, _SPOT_CHECK_TRIPLES, _SPOT_CHECK_CHUNK):
        i, j, k = triples[:, c : c + _SPOT_CHECK_CHUNK]
        if not (pair(i, j) + pair(j, k) - pair(i, k)).min() >= -_TRIANGLE_TOL:
            raise ValueError("triangle inequality violated (spot check)")


@dataclass(frozen=True, eq=False)
class ExcursionGrid:
    """Nonnegative values on the grid t_i = i/m, zero at both ends."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 3:
            raise ValueError("values must be a 1-d array of length m+1, m >= 2")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("excursion must start and end at 0")
        if v.min() < 0.0:
            raise ValueError("excursion values must be nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.size - 1


def sample_excursion(m: int, rng: np.random.Generator) -> ExcursionGrid:
    """Discrete excursion: Gaussian bridge of m steps, cyclically shifted so
    its minimum sits at the origin (Vervaat construction)."""
    if m < 2:
        raise ValueError("grid size m must be >= 2")
    steps = rng.standard_normal(m)
    steps *= math.sqrt(1.0 / m)  # the floats of rng.normal(0, sqrt(1/m), m)
    bridge = np.zeros(m + 1)
    np.cumsum(steps, out=bridge[1:])
    bridge -= np.arange(m + 1.0) / m * bridge[-1]  # a float ramp: an int one divides 3x slower
    j = int(np.argmin(bridge[:m]))
    exc = np.concatenate((bridge[j:m], bridge[: j + 1])) - bridge[j]
    exc[0] = exc[-1] = 0.0
    np.maximum(exc, 0.0, out=exc)
    return ExcursionGrid(exc)


def excursion_distance(e: ExcursionGrid, x: float, y: float, delta: float) -> float:
    """Truncated excursion metric: integral of 1/e over [x, y].

    Requires 0 < delta <= x <= y <= 1 - delta; the integrand diverges at the
    endpoints of the excursion, so untruncated requests are rejected.  The
    quadrature is :func:`_grid_cumulative`'s, additive up to rounding:
    d(x, z) = d(x, y) + d(y, z).  A point in a boundary cell (x < 1/m or
    y > 1 - 1/m) gives inf, and an excursion that vanishes at an interior
    grid point raises ValueError.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if not (delta <= x <= y <= 1.0 - delta):
        raise ValueError("need delta <= x <= y <= 1 - delta")
    if x == y:
        return 0.0
    m = e.m
    if x * m < 1.0 or y * m > m - 1.0:
        return math.inf
    c = _grid_cumulative(e.values, np.array([x, y]))
    return float(c[1] - c[0])


def excursion_integral(e: ExcursionGrid, k: int) -> float:
    """Trapezoidal integral of e(t)^k over [0, 1]."""
    if k < 1:
        raise ValueError("power k must be >= 1")
    v = e.values**k
    return float((v.sum() - 0.5 * (v[0] + v[-1])) / e.m)


def _truncated_grid(delta: float, m: int) -> np.ndarray:
    """Grid points delta, delta + 1/m, ..., up to 1 - delta."""
    count = int(math.floor((1.0 - 2.0 * delta) * m + 1e-9)) + 1
    return delta + np.arange(count) / m


def _box_grid(delta: float, m: int) -> np.ndarray:
    """The truncated grid of :func:`gp_box_estimate_unit`, checked to hold a
    pair of points to compare, all off the two boundary cells."""
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 0.5]")
    if m < 2:
        raise ValueError("grid size m must be >= 2")
    xs = _truncated_grid(delta, m)
    if xs.size < 2:
        raise ValueError("delta and m must leave at least 2 grid points in [delta, 1 - delta]")
    cells = np.floor(xs * m + 1e-12)
    if cells.min() < 1 or cells.max() > m - 2:
        raise ValueError("truncation level must keep the grid off the boundary cells")
    return xs


def _grid_cumulative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Excursion integral of 1/e from t_1 to each grid point, in one cumulative
    pass, so that d_e(x_r, x_c) = |c_r - c_c|.

    Requires every grid point to lie at least one cell away from the ends,
    where 1/e diverges (:func:`_box_grid` checks this).  Every interior value
    is checked, but 1/e and the prefix are formed only up to the last cell
    read; the running sum is sequential, so each prefix is the full one's.
    """
    m = values.size - 1
    pos = xs * m
    cell = np.clip(np.floor(pos + 1e-12).astype(np.int64), 0, m - 1)
    if values[1:m].min() <= 0.0:
        raise ValueError("excursion vanishes inside the truncated window")
    top = int(cell.max()) + 1  # g is read at cell + 1 <= top <= m
    end = min(top + 1, m)  # g[m] stays 0
    g = np.zeros(top + 1)
    g[1:end] = 1.0 / values[1:end]
    prefix = np.zeros(top)  # prefix[i] = integral from t_1 to t_i, 1 <= i < top
    prefix[2:top] = np.cumsum(0.5 * (g[1 : top - 1] + g[2:top])) / m
    theta = pos - cell
    g_at = (1.0 - theta) * g[cell] + theta * g[cell + 1]
    return prefix[cell] + 0.5 * theta / m * (g[cell] + g_at)


def gp_box_estimate_unit(
    w: DyckPath, e_from_w: bool, delta: float, m: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Box-distance upper-bound data for a unit interval graph vs the excursion
    metric, via the coupling on the common truncated grid.

    The relation pairs vertex v_{1+floor(xn)} (graph metric scaled by
    1/sqrt(n)) with grid point x (excursion metric (1/sqrt(2)) d_e) for
    x = delta, delta + 1/m, ..., 1 - delta.  With e_from_w the continuum
    side is the path's own rescaled height profile h_w / sqrt(2n) (the
    coupled regime); otherwise an independent sampled excursion.  Returns
    (discrepancy, mass defect 2*delta); the box distance is bounded by the
    max of the two.

    Equal, bit for bit, to the largest |d_G(a, b) - d_e(a, b)| over the two
    dense k x k metrics, without building them.  Both are symmetric, so pairs
    a < b suffice.  Row a of d_G is a nondecreasing step function of b with at
    most L steps (the jump-walk table's columns) and the excursion cumulative
    c is nondecreasing, so on a run of equal d_G the value
    |d / sqrt(n) - |(c_a - c_b) / sqrt(2)|| is monotone in b (each IEEE
    operation is) and peaks at an end of the run: O(k L) work, no k x k
    array.  Both metrics are checked against the triangle inequality.
    """
    if not w.is_irreducible():
        raise ValueError("Dyck path must be irreducible")
    xs = _box_grid(delta, m)
    n = w.size
    h, f = _heights_arrays(w.steps)
    verts = np.minimum(1 + np.floor(xs * n).astype(np.int64), n)
    table = _distances_from(f, verts)

    if e_from_w:
        mid = np.minimum(1 + np.floor(np.arange(1, m) / m * n).astype(np.int64), n)
        vals = np.zeros(m + 1)
        vals[1:m] = h[mid - 1] / math.sqrt(2.0 * n)
        exc = ExcursionGrid(vals)
    else:
        exc = sample_excursion(m, rng)
    cum = _grid_cumulative(exc.values, xs)
    if not np.isfinite(cum).all():  # a NaN would slip past the order check below
        raise ValueError("distances must be finite")
    if np.any(cum[1:] < cum[:-1]):
        raise ValueError("excursion cumulative decreases along the grid")

    k = xs.size
    _check_triangle(
        lambda i, j: np.count_nonzero(table[np.minimum(i, j)] < verts[np.maximum(i, j), None], axis=-1)
        / math.sqrt(n),
        k,
    )
    _check_triangle(lambda i, j: np.abs(cum[i] - cum[j]) / math.sqrt(2.0), k)
    rank = np.searchsorted(verts, np.arange(n + 1), side="right").astype(np.int32)  # grid vertices <= v
    steps = table.shape[1]
    dist = np.arange(steps) / math.sqrt(n)  # scaled graph distance of step column t
    edge = np.empty((min(k, _BOX_BLOCK_ROWS), steps + 1), dtype=np.int32)
    disc = 0.0
    for r0 in range(0, k, _BOX_BLOCK_ROWS):
        rows = min(_BOX_BLOCK_ROWS, k - r0)
        e = edge[:rows]
        e[:, 0] = np.arange(r0 + 1, r0 + 1 + rows)
        np.take(rank, table[r0 : r0 + rows], out=e[:, 1:], mode="clip")  # in range; "raise" buffers out
        # row r0 + a has distance t on columns e[a, t] .. e[a, t + 1] - 1, a run
        # that is live when nonempty; an empty run may start at k, past the grid
        live = e[:, 1:] != e[:, :-1]
        for ends in (e[:, :-1], e[:, 1:] - 1):
            rule = cum.take(ends, mode="clip")
            np.subtract(cum[r0 : r0 + rows, None], rule, out=rule)
            rule /= math.sqrt(2.0)  # |a| / s == |a / s|: rounding is symmetric
            np.subtract(dist, np.abs(rule, out=rule), out=rule)
            disc = max(disc, float(np.abs(rule, out=rule).max(where=live, initial=0.0)))
    return disc, 2.0 * delta
