"""Limit graphons: evaluation, sampling laws, exact clique densities,
step graphons and exports."""

from __future__ import annotations

import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from graphlim import combinat as C
from graphlim import graphon as W
from graphlim import graphs as G

from oracles import graphon_value


def test_edge_rule_matches_scalar_reference():
    # the grid holds shared endpoints, degenerate chords (a == b), both
    # endpoint orders (wrap-around arcs) and both 0 and 1; random points
    # cover the generic case
    vals = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    grid = np.array(list(itertools.product(vals, repeat=4)))
    rows = np.concatenate([grid, np.random.default_rng(4).random((2000, 4))])
    a1, b1, a2, b2 = rows.T
    for family in ("perm", "circle"):
        expected = [graphon_value(family, (r[0], r[1]), (r[2], r[3])) for r in rows.tolist()]
        assert expected == [graphon_value(family, (r[2], r[3]), (r[0], r[1])) for r in rows.tolist()]
        assert W._adjacent(family, a1, b1, a2, b2).astype(int).tolist() == expected
        assert W._adjacent(family, a2, b2, a1, b1).astype(int).tolist() == expected


def _edge(family, p, q):
    # the edge rule at one pair of latent chords, checked both ways round
    # and against the scalar oracle
    edge = int(W._adjacent(family, *p, *q))
    assert int(W._adjacent(family, *q, *p)) == edge
    assert graphon_value(family, p, q) == edge
    return edge


def test_eval_perm_graphon():
    p, q = (0.1, 0.9), (0.2, 0.3)
    assert _edge("perm", p, q) == 1
    assert _edge("perm", p, p) == 0
    assert _edge("perm", p, (0.2, 0.95)) == 0  # concordant pair


def test_eval_circle_graphon():
    a = (0.0, 0.5)
    assert _edge("circle", a, (0.25, 0.75)) == 1
    assert _edge("circle", a, (0.1, 0.2)) == 0  # nested chords
    assert _edge("circle", (0.9, 0.2), (0.1, 0.5)) == 1  # wrap-around arc
    assert _edge("circle", a, (0.5, 0.9)) == 0  # shared endpoint
    # an inside-XOR rule without the tie check would join these two chords
    assert _edge("circle", a, (0.0, 0.25)) == 0


def test_clique_density_exact():
    for k in range(1, 6):
        assert W.clique_density("perm", k) == Fraction(1, math.factorial(k))
        assert W.clique_density("circle", k) == Fraction(
            2**k * math.factorial(k), math.factorial(2 * k)
        )
    assert W.clique_density("perm", 1) == 1
    assert W.clique_density("circle", 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        W.clique_density("other", 2)


def _sample_graph(family, k, rng):
    """Graph on k vertices under the family's edge rule at uniform latent points."""
    a, b = rng.random((k, 2)).T
    return G.UGraph(W._adjacent(family, a[:, None], b[:, None], a[None, :], b[None, :]))


def test_sample_graph_shape_and_symmetry():
    rng = np.random.default_rng(0)
    g = _sample_graph("perm", 6, rng)
    assert g.n == 6
    g1 = _sample_graph("circle", 1, rng)
    assert g1.n == 1 and g1.edge_count() == 0


def test_sample_graph_edge_probability():
    rng = np.random.default_rng(1)
    reps = 20000
    perm_edges = sum(_sample_graph("perm", 2, rng).edge_count() for _ in range(reps))
    assert abs(perm_edges / reps - 0.5) < 0.02
    circ_edges = sum(_sample_graph("circle", 2, rng).edge_count() for _ in range(reps))
    assert abs(circ_edges / reps - 1 / 3) < 0.02


def test_sample_graph_triangle_law_matches_exhaustive():
    # on 3 vertices the isomorphism class is the edge count; compare with
    # the exhaustive law of uniform seeds of size 3
    rng = np.random.default_rng(2)
    reps = 30000
    for family, seeds in (
        ("perm", [G.inversion_graph(p) for p in map(C.Permutation, __import__("itertools").permutations((1, 2, 3)))]),
        ("circle", [G.circle_graph(m) for m in C.iter_matchings(3)]),
    ):
        expected = np.zeros(4)
        for g in seeds:
            expected[g.edge_count()] += 1
        expected = expected / expected.sum() * reps
        observed = np.zeros(4)
        for _ in range(reps):
            observed[_sample_graph(family, 3, rng).edge_count()] += 1
        _, p = scipy.stats.chisquare(observed, expected)
        assert p > 1e-3, (family, observed, expected)


def test_step_graphon_reorders_adjacency():
    g = G.inversion_graph(C.Permutation((2, 4, 1, 3)))
    s = W.step_graphon(g, (1, 2, 3, 4))
    assert s.cells[0, 2] == 1.0 and s.cells[0, 1] == 0.0
    s2 = W.step_graphon(g, (4, 3, 2, 1))
    assert s2.cells[3, 1] == 1.0
    with pytest.raises(ValueError):
        W.step_graphon(g, (1, 1, 2, 3))


def test_step_graphon_validation():
    with pytest.raises(ValueError):
        W.StepGraphon(np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        W.StepGraphon(np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range


def test_step_graphon_keeps_read_only_cells_and_freezes_a_copy_of_writeable_ones():
    frozen = np.array([[0.0, 0.5], [0.5, 0.0]])
    frozen.setflags(write=False)
    assert W.StepGraphon(frozen).cells is frozen
    cells = frozen.copy()
    s = W.StepGraphon(cells)
    cells[0, 1] = 1.0
    assert s.cells[0, 1] == 0.5 and not s.cells.flags.writeable


def test_write_pgm_golden_bytes():
    buf = io.BytesIO()
    W.write_pgm(np.array([[0.0, 1.0], [1.0, 0.5]]), buf)
    data = buf.getvalue()
    assert data == b"P5\n2 2\n255\n" + bytes([255, 0, 0, 128])


def test_write_pgm_to_path(tmp_path):
    path = tmp_path / "x.pgm"
    W.write_pgm(np.zeros((3, 3)), path)
    assert path.read_bytes().startswith(b"P5\n3 3\n255\n")


def test_write_matrix_csv_roundtrip(tmp_path):
    mat = np.array([[0.0, 1.25], [3.5, 2.0]])
    path = tmp_path / "m.csv"
    W.write_matrix_csv(mat, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.allclose(back, mat)
