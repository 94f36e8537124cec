"""The two limit graphons, their edge rule, and exact clique densities.

A graphon is named by its seed family, ``"perm"`` or ``"circle"``.  A
latent point is a pair (a, b) in [0,1]^2, and one broadcasting rule,
:func:`_adjacent`, gives both graphons.  perm: the pair is two independent
uniform coordinates, and two points are adjacent iff (a1 - a2)(b1 - b2) < 0.
circle: the pair is the endpoints of a chord at angles 2*pi*a, 2*pi*b, and
two points are adjacent iff the chords interleave, lo1 < lo2 < hi1 < hi2 or
lo2 < lo1 < hi2 < hi1 with (lo, hi) each chord's (min, max).  Tie contract:
every inequality is strict, so any coincidence (a null event under Lebesgue
sampling, such as a shared endpoint or a chord with a == b) gives 0.  Both
graphons are {0,1}-valued and symmetric by construction.

Clique densities are exact rationals (:class:`fractions.Fraction`); floats
appear only at reporting edges.  Step graphons hold a float cell matrix in
[0, 1] so that averages of adjacency matrices can be housed by the same
type as single graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import UGraph

__all__ = [
    "StepGraphon",
    "clique_density",
    "step_graphon",
    "write_pgm",
    "write_matrix_csv",
]

_FAMILIES = ("perm", "circle")


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Step graphon of a labeled graph: cell (i, j) is the adjacency of
    vertices i, j (or an average of such indicators, in [0, 1]).

    A read-only float64 array is taken as is; anything else is copied and
    the copy made read-only."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.cells, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("cells must be a square matrix")
        if c.size and (np.any(c != c.T) or c.min() < 0.0 or c.max() > 1.0):
            raise ValueError("cells must be symmetric with entries in [0, 1]")
        if c.flags.writeable:
            c = c.copy()
            c.setflags(write=False)
        object.__setattr__(self, "cells", c)

    @property
    def n(self) -> int:
        return self.cells.shape[0]


def _adjacent(family: str, a1, b1, a2, b2):
    """Edge indicator of the family's graphon at (a1, b1) and (a2, b2).

    Takes scalars or arrays, broadcast against each other, and returns a
    bool of their broadcast shape; the tie contract is the module's.
    """
    if family == "perm":
        return (a1 - a2) * (b1 - b2) < 0
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)
    return ((lo1 < lo2) & (lo2 < hi1) & (hi1 < hi2)) | ((lo2 < lo1) & (lo1 < hi2) & (hi2 < hi1))


def clique_density(family: str, k: int) -> Fraction:
    """Exact limit density of k-cliques: 1/k! (perm), 2^k k!/(2k)! (circle)."""
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if family == "perm":
        return Fraction(1, math.factorial(k))
    return Fraction(2**k * math.factorial(k), math.factorial(2 * k))


def step_graphon(g: UGraph, vertex_order: Sequence[int]) -> StepGraphon:
    """Step graphon of g with rows/columns arranged by the given vertex order.

    vertex_order is a permutation of 1..n; cell (i, j) is the adjacency of
    the i-th and j-th vertices in that order.
    """
    order = list(vertex_order)
    if sorted(order) != list(range(1, g.n + 1)):
        raise ValueError("vertex_order must be a permutation of 1..n")
    idx = np.asarray(order, dtype=np.int64) - 1
    cells = g.adj[np.ix_(idx, idx)].astype(np.float64)
    cells.setflags(write=False)
    return StepGraphon(cells)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def write_pgm(matrix: np.ndarray, path) -> None:
    """8-bit binary PGM (P5) heatmap: value round(255 * (1 - cell)).

    Cells in [0, 1]; 0 maps to white (255), 1 to black (0), means to gray.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if m.size and (m.min() < 0.0 or m.max() > 1.0):
        raise ValueError("cells must lie in [0, 1]")
    gray = np.round(255.0 * (1.0 - m)).astype(np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    if hasattr(path, "write"):
        path.write(header + gray.tobytes())
    else:
        with open(path, "wb") as fh:
            fh.write(header + gray.tobytes())


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    m = np.asarray(matrix)
    if np.issubdtype(m.dtype, np.bool_) or np.issubdtype(m.dtype, np.integer):
        np.savetxt(path, m.astype(np.int64), fmt="%d", delimiter=",")
    else:
        np.savetxt(path, m, fmt="%.10g", delimiter=",")
