"""Graph layer: builders, distances, cliques, primality predicates and
canonical forms, against brute-force oracles."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphlim import combinat as C
from graphlim import graphs as G


def _edges(g: G.UGraph) -> set[frozenset[int]]:
    return {frozenset(e) for e in g.edges()}


def _graph_from_edges(n, edges):
    return G.UGraph.from_edges(n, [tuple(sorted(e)) for e in edges])


def _random_graph(n, p, rng):
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return G.UGraph(adj | adj.T)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_ugraph_validation():
    with pytest.raises(ValueError):
        G.UGraph(np.array([[False, True], [False, False]]))  # asymmetric
    with pytest.raises(ValueError):
        G.UGraph(np.array([[True]]))  # loop
    with pytest.raises(ValueError):
        G.UGraph(np.zeros((2, 3), dtype=bool))


def test_inversion_graph_examples():
    g = G.inversion_graph(C.Permutation((2, 4, 1, 3)))
    assert _edges(g) == {frozenset((1, 3)), frozenset((2, 3)), frozenset((2, 4))}  # path
    g = G.inversion_graph(C.Permutation((3, 4, 1, 2)))
    assert _edges(g) == {
        frozenset((1, 3)),
        frozenset((1, 4)),
        frozenset((2, 3)),
        frozenset((2, 4)),
    }  # 4-cycle
    k4 = G.inversion_graph(C.Permutation((4, 3, 2, 1)))
    assert k4.edge_count() == 6
    empty = G.inversion_graph(C.Permutation((1, 2, 3, 4)))
    assert empty.edge_count() == 0


def test_inversion_graph_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = C.sample_permutation(n, rng)
        assert _edges(G.inversion_graph(p)) == oracles.inversion_edges(p.mapping)


def test_circle_graph_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = C.sample_matching(n, rng)
        assert _edges(G.circle_graph(m)) == oracles.circle_edges(m.partner)


def test_circle_graph_examples():
    k3 = G.circle_graph(C.parse_matching("1-4 2-5 3-6"))
    assert k3.edge_count() == 3
    empty = G.circle_graph(C.parse_matching("1-2 3-4 5-6"))
    assert empty.edge_count() == 0


@pytest.mark.parametrize("n", [1, 2, 63, 64])
def test_builders_equal_across_input_int_types(n):
    # entries are compared on int8 lanes up to n = 63 and int16 lanes from 64
    rng = np.random.default_rng(n)
    images = np.array([rng.permutation(n) + 1 for _ in range(3)])
    partners = C._sample_matchings_batch(n, 3, rng) + 1
    inversion = [G._inversion_adj(images.astype(t)) for t in (np.int16, np.int32, np.int64)]
    circle = [G._circle_adj(partners.astype(t)) for t in (np.int16, np.int32, np.int64)]
    ends = [G._chord_endpoints(partners.astype(t)) for t in (np.int16, np.int32, np.int64)]
    assert [_edge_set(a) for a in inversion[0]] == [oracles.inversion_edges(tuple(r)) for r in images.tolist()]
    assert [_edge_set(a) for a in circle[0]] == [oracles.circle_edges(tuple(r)) for r in partners.tolist()]
    for got in inversion[1:]:
        assert np.array_equal(got, inversion[0])
    for got in circle[1:]:
        assert np.array_equal(got, circle[0])
    for left, right in ends:
        assert np.array_equal(left, ends[0][0]) and np.array_equal(right, ends[0][1])
        assert np.array_equal(np.take_along_axis(partners, left - 1, axis=1), right)


@pytest.mark.parametrize("n, lane", [(63, np.int8), (64, np.int16), (16383, np.int16), (16384, np.int32)])
def test_chord_lanes_switch_where_2n_plus_1_stops_fitting(n, lane):
    # chord i pairs i with i + n, so the right endpoints reach 2n
    partner = np.concatenate([np.arange(n + 1, 2 * n + 1), np.arange(1, n + 1)])
    left, right = G._chord_endpoints(partner[None])
    assert left.dtype == right.dtype == lane
    assert np.array_equal(left[0], np.arange(1, n + 1))
    assert np.array_equal(right[0], np.arange(n + 1, 2 * n + 1))


def test_unit_interval_graph_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        w = C.sample_dyck(n, rng)
        assert _edges(G.unit_interval_graph(w)) == oracles.unit_interval_edges(w.steps)


def test_unit_interval_graph_example():
    g = G.unit_interval_graph(C.DyckPath("UUDUDD"))
    assert _edges(g) == {frozenset((1, 2)), frozenset((2, 3))}


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_bfs_and_all_pairs_match_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        g = _random_graph(n, 0.4, rng)
        brute = oracles.brute_bfs_all(n, _edges(g))
        ours = G.all_pairs_distances(g)
        for i in range(n):
            for j in range(n):
                assert ours[i, j] == brute[i][j]


def _scipy_distances(g: G.UGraph) -> np.ndarray:
    import scipy.sparse.csgraph

    return scipy.sparse.csgraph.shortest_path(
        scipy.sparse.csr_matrix(g.adj), method="D", unweighted=True
    )


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300])
def test_all_pairs_distances_bytes_equal_scipy_dijkstra(n):
    # n crosses the 64-bit word edges of the bitset BFS; the complete graph
    # runs in 2 blocks at n = 255 and 256 and in 1-word blocks from n = 257
    # under the gather budget, and the path at n = 300 fills 9 bit planes
    rng = np.random.default_rng(n)
    graphs = [G.UGraph(np.zeros((n, n), dtype=bool)), G.UGraph.complete(n)]
    graphs += [_random_graph(n, p, rng) for p in (0.002, 0.01, 0.05, 0.3)]
    if n >= 3:
        path = np.eye(n, k=1, dtype=bool)
        graphs.append(G.UGraph(path | path.T))
        cycle = path | np.eye(n, k=1 - n, dtype=bool)
        graphs.append(G.UGraph(cycle | cycle.T))
    if n >= 2:
        # two random blocks with no edge between them
        a = _random_graph(n, 0.1, rng).adj
        half = rng.random(n) < 0.5
        graphs.append(G.UGraph(a & (half[:, None] == half[None, :])))
        graphs.append(G.unit_interval_graph(C.sample_irreducible_dyck(n, rng)))
        graphs.append(G.unit_interval_graph(C.sample_dyck(n, rng)))
    for g in graphs:
        ours = G.all_pairs_distances(g)
        want = _scipy_distances(g) if n else np.zeros((0, 0))
        assert (ours.dtype, ours.shape) == (want.dtype, want.shape)
        assert ours.tobytes() == want.tobytes()


def test_all_pairs_distances_memory_is_bounded():
    # measured peaks at n = 1000: 16.9 MiB on this circle graph (336k
    # adjacency entries) and 10.4 MiB on this unit interval graph, of which
    # 7.6 MiB is the float64 result; the per-level work is one gathered
    # (nnz + n, words) uint64 array, words = 1 on the circle graph and 2 on
    # the unit interval one, plus one (n, words) plane per bit of the depth
    rng = np.random.default_rng(23)
    circle = G.circle_graph(C.sample_matching(1000, rng))
    unit = G.unit_interval_graph(C.sample_irreducible_dyck(1000, rng))
    G.all_pairs_distances(G.UGraph.complete(3))
    for g, bound in ((circle, 24), (unit, 12)):
        tracemalloc.start()
        try:
            G.all_pairs_distances(g)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= bound, (g.n, peak)


def test_unit_interval_adj_memory_is_bounded():
    # measured peak at n = 3000: 17.2 MiB, two n x n bool arrays; the int64
    # n x n gap matrix it replaced made it 94 MiB
    f = C._heights_arrays(C._irreducible_dyck_steps(3000, np.random.default_rng(24)))[1]
    G._unit_interval_adj(f[None])
    tracemalloc.start()
    try:
        G._unit_interval_adj(f[None])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 24, peak


def test_unit_distance_formula_vs_bfs():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        w = C.sample_irreducible_dyck(n, rng)
        g = G.unit_interval_graph(w)
        dmat = G.all_pairs_distances(g)
        for _ in range(10):
            i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
            assert G.unit_distance_formula(w, i, j) == dmat[i - 1, j - 1]


def test_unit_distance_formula_requires_irreducible():
    with pytest.raises(ValueError):
        G.unit_distance_formula(C.DyckPath("UDUD"), 1, 2)


def test_unit_distance_formula_integer_hop_counting():
    # U^6 (DU)^5 D^6 has constant window f(i) = 5 at the start; the distance
    # from 1 to 6 is one hop even though the window fractions sum to 1.0
    # with float round-up (0.2 * 5 > 1 in binary); the integer recursion
    # must return 1
    w = C.DyckPath("U" * 6 + "DU" * 5 + "D" * 6)
    h, f = C._heights_arrays(w.steps)
    assert f[0] == 5
    assert G.unit_distance_formula(w, 1, 6) == 1
    g = G.unit_interval_graph(w)
    dmat = G.all_pairs_distances(g)
    n = w.size
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert G.unit_distance_formula(w, i, j) == dmat[i - 1, j - 1]


def _jump_walk(word: str, sources) -> np.ndarray:
    _, f = C._heights_arrays(word)
    sources = np.asarray(sources, dtype=np.int64)
    return G._table_distances(G._distances_from(f, sources), sources)


def test_jump_walk_matches_bfs_oracle_on_all_irreducible_words():
    for n in range(1, 8):
        for word in oracles.all_dyck_words(n):
            if not oracles.brute_irreducible(word):
                continue
            brute = np.array(oracles.brute_bfs_all(n, oracles.unit_interval_edges(word)))
            assert np.array_equal(_jump_walk(word, range(1, n + 1)), np.triu(brute, 1))


def test_jump_walk_with_repeated_sources():
    # fewer vertices than grid points, as in gp_box_estimate_unit at small n:
    # repeated sources are at distance 0 from each other
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = C.sample_irreducible_dyck(50, rng)
        brute = np.array(oracles.brute_bfs_all(50, oracles.unit_interval_edges(w.steps)))
        sources = np.sort(rng.integers(1, 51, size=64))
        expected = np.triu(brute[np.ix_(sources - 1, sources - 1)], 1)
        assert np.array_equal(_jump_walk(w.steps, sources), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_jump_walk_matches_all_pairs_distances(n, k, seed):
    rng = np.random.default_rng(seed)
    w = C.sample_irreducible_dyck(n, rng)
    sources = np.sort(rng.integers(1, n + 1, size=k))
    dmat = G.all_pairs_distances(G.unit_interval_graph(w))
    expected = np.triu(dmat[np.ix_(sources - 1, sources - 1)], 1)
    assert np.array_equal(_jump_walk(w.steps, sources), expected)


def test_jump_walk_rejects_reducible_word():
    # UD | UUDD: vertex 1 has no forward neighbour, so a walk from it stalls
    with pytest.raises(ValueError, match="stalls at vertex 1"):
        _jump_walk("UDUUDD", [1, 3])
    # walks that stay inside one factor are fine
    assert _jump_walk("UDUUDD", [2, 3])[0, 1] == 1


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def test_count_cliques_unit_closed_form():
    # 100 words of sizes 1..20, reducible words included, k = 1..5
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        w = C.sample_dyck(n, rng)
        edges = _edges(G.unit_interval_graph(w))
        for k in range(1, 6):
            assert G.count_cliques_unit(w, k) == oracles.brute_clique_count(n, edges, k), (w.steps, k)


def test_fast_clique_counters_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        p = C.sample_permutation(n, rng)
        m = C.sample_matching(n, rng)
        gp = G.inversion_graph(p)
        gm = G.circle_graph(m)
        for k in range(1, 6):
            assert G.clique_count_inversion(p, k) == oracles.brute_clique_count(n, _edges(gp), k), (p, k)
            assert G.clique_count_circle(m, k) == oracles.brute_clique_count(n, _edges(gm), k), (m, k)


def test_fast_clique_counters_moderate_size():
    rng = np.random.default_rng(8)
    p = C.sample_permutation(300, rng)
    assert G.clique_count_inversion(p, 1) == 300
    total_pairs = math.comb(300, 2)
    inv = G.clique_count_inversion(p, 2)
    assert 0 < inv < total_pairs
    m = C.sample_matching(250, rng)
    assert G.clique_count_circle(m, 1) == 250
    assert G.clique_count_circle(m, 2) == G.circle_graph(m).edge_count()


def test_decreasing_permutation_clique_counts():
    p = C.Permutation((5, 4, 3, 2, 1))
    for k in range(1, 6):
        assert G.clique_count_inversion(p, k) == math.comb(5, k)


def test_clique_counters_match_brute_force():
    cases = [(perm, None) for n in range(1, 6) for perm in itertools.permutations(range(1, n + 1))]
    cases += [(None, partner) for n in range(1, 5) for partner in oracles.all_matchings(n)]
    rng = np.random.default_rng(21)
    for n in range(6, 10):
        for _ in range(6):
            cases.append((C.sample_permutation(n, rng).mapping, C.sample_matching(n, rng).partner))
    for mapping, partner in cases:
        if mapping is not None:
            n, edges = len(mapping), oracles.inversion_edges(mapping)
            for k in range(1, n + 2):
                got = G.clique_count_inversion(C.Permutation(mapping), k)
                assert got == oracles.brute_clique_count(n, edges, k), (mapping, k)
        if partner is not None:
            n, edges = len(partner) // 2, oracles.circle_edges(partner)
            for k in range(1, n + 2):
                got = G.clique_count_circle(C.Matching(partner), k)
                assert got == oracles.brute_clique_count(n, edges, k), (partner, k)


_SEEDS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(2 * n)))
)


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.integers(1, 7))
def test_clique_counters_match_dense_oracle(seeds, k):
    mapping, shuffle = (tuple(s) for s in seeds)
    partner = [0] * len(shuffle)
    for a, b in zip(shuffle[0::2], shuffle[1::2]):  # consecutive points of a shuffle pair up
        partner[a], partner[b] = b + 1, a + 1
    partner = tuple(partner)
    assert G.clique_count_inversion(C.Permutation(mapping), k) == oracles.dense_clique_count_inversion(mapping, k)
    assert G.clique_count_circle(C.Matching(partner), k) == oracles.dense_clique_count_circle(partner, k)


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 63, 64, 65, 255, 256, 257])
def test_circle_clique_count_matches_dense_oracle_at_block_edges(n):
    # sizes one below, at and one past the running sum's row blocks
    # (combinat._RUN_BLOCK = 32) and the reduction's row chunks (_ROW_CHUNK = 256)
    assert (C._RUN_BLOCK, G._ROW_CHUNK) == (32, 256)
    m = C.sample_matching(n, np.random.default_rng(1000 + n))
    for k in range(1, 6):
        assert G.clique_count_circle(m, k) == oracles.dense_clique_count_circle(m.partner, k), k


@pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 64, 65])
def test_running_sum_equals_cumsum(rows):
    # row counts below, at and one past one and two blocks; bool rows cast
    # to int16, and transposed int rows
    rng = np.random.default_rng(rows)
    bools, ints = rng.random((rows, 7)) < 0.5, rng.integers(-50, 50, (5, rows))
    for table, dtype in ((bools, np.int16), (ints.T, np.int64)):
        out = np.empty(table.shape, dtype=dtype)
        assert G._running_sum(table, out) is out
        assert np.array_equal(out, np.cumsum(table, axis=0, dtype=dtype))


def test_circle_clique_count_memory_is_bounded():
    # measured peak at n = 1000, k = 3: 2.9 MiB, the int16 (n+1) x n running
    # sum table and one chunk of rows; the n x n gather and the whole-matrix
    # einsum it replaced made it 4.8 MiB
    m = C.sample_matching(1000, np.random.default_rng(25))
    want = G.clique_count_circle(m, 3)
    tracemalloc.start()
    try:
        assert G.clique_count_circle(m, 3) == want
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 3.5, peak


def _all_crossing(n, swap=False):
    # chord i pairs i with i + n; swap=True nests chords 1 and 2 (K_n minus {1, 2})
    partner = [i + n for i in range(1, n + 1)] + list(range(1, n + 1))
    if swap:
        partner[0], partner[1], partner[n], partner[n + 1] = n + 2, n + 1, 2, 1
    return C.Matching(tuple(partner))


def _decreasing(n, swap=False):
    # swap=True exchanges the first two values (K_n minus {1, 2})
    mapping = list(range(n, 0, -1))
    if swap:
        mapping[0], mapping[1] = mapping[1], mapping[0]
    return C.Permutation(tuple(mapping))


def test_complete_graph_clique_counts():
    for n in range(1, 13):
        for k in range(1, n + 2):
            assert G.clique_count_circle(_all_crossing(n), k) == math.comb(n, k)
            assert G.clique_count_inversion(_decreasing(n), k) == math.comb(n, k)


def test_clique_counts_are_exact_past_float64():
    # binom(64, 20) ~ 1.96e16 > 2^53: exact integers, not a float guard
    want = math.comb(64, 20)
    assert want > 2**53
    assert G.clique_count_inversion(_decreasing(64), 20) == want
    assert G.clique_count_circle(_all_crossing(64), 20) == want
    assert type(G.clique_count_circle(_all_crossing(64), 20)) is int


@pytest.mark.parametrize("n, k", [(80, 30), (67, 33)])
def test_clique_counts_past_int64_raise(n, k):
    # binom(67, 33) ~ 1.42e19 lies between 2^63 and 2^64
    assert math.comb(n, k) >= 2**63
    with pytest.raises(ValueError, match="2\\^63"):
        G.clique_count_inversion(_decreasing(n), k)
    with pytest.raises(ValueError, match="2\\^63"):
        G.clique_count_circle(_all_crossing(n), k)


@pytest.mark.parametrize("k", [52, 60, 65, 69, 70])
def test_clique_counts_with_k_near_n(k):
    # at n = 70 the chains of about 35 vertices number up to binom(70, 35) > 2^63,
    # far more than the final count: the partial sums must not wrap
    n = 70
    assert math.comb(n, n // 2) > 2**63
    want = math.comb(n, k) - math.comb(n - 2, k - 2)
    assert want < 2**63
    assert G.clique_count_inversion(_decreasing(n, swap=True), k) == want
    assert G.clique_count_circle(_all_crossing(n, swap=True), k) == want
    assert G.clique_count_inversion(_decreasing(n), k) == math.comb(n, k)
    assert G.clique_count_circle(_all_crossing(n), k) == math.comb(n, k)


_STACKS = st.integers(1, 12).flatmap(lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(_STACKS, st.integers(1, 6))
def test_stacked_inversion_counts_match_dense_oracle(rows, k):
    want = [oracles.dense_clique_count_inversion(tuple(r), k) for r in rows]
    assert G._inversion_clique_counts(np.array(rows), k) == want


@pytest.mark.parametrize("n, k", [(64, 20), (70, 52)])
def test_stacked_inversion_counts_beside_a_decreasing_row(n, k):
    # binom(64, 20) > 2^53 is counted in int64; at n = 70 the chain bound
    # binom(70, 35) > 2^63 makes the whole stack count in Python ints
    half = n // 2
    rows = [
        range(1, n + 1),  # increasing: no edge
        _decreasing(n).mapping,
        _decreasing(n, swap=True).mapping,
        [*range(half, 0, -1), *range(n, half, -1)],  # two decreasing runs, the second above the first
    ]
    want = [0, math.comb(n, k), math.comb(n, k) - math.comb(n - 2, k - 2), 2 * math.comb(half, k)]
    got = G._inversion_clique_counts(np.array([list(r) for r in rows]), k)
    assert got == want
    assert all(type(c) is int for c in got)


def test_stacked_inversion_counts_raise_if_any_row_reaches_2_63():
    rows = np.array([np.arange(1, 68), np.arange(67, 0, -1), np.arange(1, 68)])
    assert math.comb(67, 33) >= 2**63
    with pytest.raises(ValueError, match="2\\^63"):
        G._inversion_clique_counts(rows, 33)


@pytest.mark.parametrize("chunk", [1, 100, 1 << 17])
def test_stacked_inversion_counts_in_blocks_of_rows(monkeypatch, chunk):
    # one row per block, two rows per block (the last one short), one block
    monkeypatch.setattr(G, "_CHAIN_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    rows = np.array([rng.permutation(9) + 1 for _ in range(11)])
    want = [oracles.dense_clique_count_inversion(tuple(r), 3) for r in rows.tolist()]
    assert G._inversion_clique_counts(rows, 3) == want


def test_clique_counters_memory_is_bounded():
    # the float64 rules held n x n float64 matrices (about 9 and 25 MiB here)
    rng = np.random.default_rng(22)
    p = C.sample_permutation(1000, rng)
    m = C.sample_matching(1000, rng)
    for count, seed in ((G.clique_count_inversion, p), (G.clique_count_circle, m)):
        count(seed, 3)
        tracemalloc.start()
        try:
            count(seed, 3)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 8, (count.__name__, peak)


# ---------------------------------------------------------------------------
# modules and splits
# ---------------------------------------------------------------------------


def test_is_modular_prime_matches_oracle():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        g = _random_graph(n, 0.5, rng)
        assert G._modular_prime_flags(g.adj[None])[0] == oracles.brute_modular_prime(n, _edges(g))


def test_simple_iff_prime_small():
    for n in range(1, 6):
        for mp in itertools.permutations(range(1, n + 1)):
            p = C.Permutation(mp)
            assert C.is_simple(p) == G._modular_prime_flags(G.inversion_graph(p).adj[None])[0]


def test_is_split_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(4, 8))
        g = _random_graph(n, 0.5, rng)
        for size in range(2, n - 1):
            for side in itertools.combinations(range(1, n + 1), size):
                mask = np.zeros(n, dtype=bool)
                mask[np.asarray(side) - 1] = True
                expected = oracles.brute_is_split(n, _edges(g), set(side))
                assert G._split_flags(g.adj[None], mask[None])[0, 0] == expected


def test_is_split_prime_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        g = _random_graph(n, 0.5, rng)
        assert G.is_split_prime(g) == oracles.brute_split_prime(n, _edges(g))


def test_split_prime_iff_indecomposable_small():
    for n in range(1, 6):
        for m in C.iter_matchings(n):
            assert G.is_split_prime(G.circle_graph(m)) == C.is_indecomposable(m)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def test_canonical_form_matches_brute():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        g = _random_graph(n, 0.5, rng)
        assert G.canonical_form(g) == oracles.brute_canonical_code(n, _edges(g))


def _seed_graph_stacks(n):
    """Every inversion, circle and unit-interval adjacency stack of size n,
    each with the oracle's edge sets."""
    images = np.array(list(itertools.permutations(range(1, n + 1))))
    partners = C._matching_partners(n)
    words = [w.steps for w in C.iter_dyck_paths(n)]
    f = np.array([C._heights_arrays(w)[1] for w in words])
    return [
        (G._inversion_adj(images), [oracles.inversion_edges(tuple(r)) for r in images.tolist()]),
        (G._circle_adj(partners), [oracles.circle_edges(tuple(r)) for r in partners.tolist()]),
        (G._unit_interval_adj(f), [oracles.unit_interval_edges(w) for w in words]),
    ]


def _edge_set(adj):
    return {frozenset((int(i) + 1, int(j) + 1)) for i, j in zip(*np.nonzero(np.triu(adj, 1)))}


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_rules_match_oracles_on_every_seed(n, monkeypatch):
    # small blocks, so that block boundaries fall inside every stack
    monkeypatch.setattr(G, "_CODE_CHUNK", 700)
    monkeypatch.setattr(G, "_SCAN_CHUNK", 3000)
    for adj, edge_sets in _seed_graph_stacks(n):
        assert [_edge_set(a) for a in adj] == edge_sets
        codes = [G._code_text(int(c), n) for c in G._canonical_codes(adj)]
        assert codes == [oracles.brute_canonical_code(n, e) for e in edge_sets]
        primes = G._split_prime_flags(adj).tolist()
        assert primes == [oracles.brute_split_prime(n, e) for e in edge_sets]
        primes = G._modular_prime_flags(adj).tolist()
        assert primes == [oracles.brute_modular_prime(n, e) for e in edge_sets]


def test_stacked_rules_match_oracles_on_random_graphs():
    rng = np.random.default_rng(21)
    for n in range(0, 11):
        stack = np.array([_random_graph(n, p, rng).adj for p in np.linspace(0.1, 0.9, 9)])
        edge_sets = [_edge_set(a) for a in stack]
        if n <= 8:
            picked = range(len(stack)) if n <= 7 else (0, 4)  # the n = 8 oracle is slow
            codes = G._canonical_codes(stack[list(picked)])
            assert [G._code_text(int(c), n) for c in codes] == [
                oracles.brute_canonical_code(n, edge_sets[i]) for i in picked
            ]
        assert G._split_prime_flags(stack).tolist() == [oracles.brute_split_prime(n, e) for e in edge_sets]
        assert G._modular_prime_flags(stack).tolist() == [oracles.brute_modular_prime(n, e) for e in edge_sets]


def test_canonical_form_is_isomorphism_invariant():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = _random_graph(n, 0.5, rng)
        perm = rng.permutation(n)
        relabeled = G.UGraph(g.adj[np.ix_(perm, perm)])
        assert G.canonical_form(g) == G.canonical_form(relabeled)


def test_canonical_form_separates_nonisomorphic():
    path = _graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])
    star = _graph_from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert G.canonical_form(path) != G.canonical_form(star)


def test_canonical_form_guard():
    with pytest.raises(ValueError):
        G.canonical_form(G.UGraph.empty(9))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_graph_text_roundtrip():
    g = _graph_from_edges(5, [(1, 2), (2, 3), (4, 5)])
    assert G.parse_graph(G.format_graph(g)) == g
    assert G.format_graph(g) == "n=5; 1-2 2-3 4-5"
    assert G.parse_graph("n=3;") == G.UGraph.empty(3)
    with pytest.raises(ValueError):
        G.parse_graph("5; 1-2")
    with pytest.raises(ValueError):
        G.parse_graph("n=3; 1-4")


def test_adjacency_csv_roundtrip(tmp_path):
    g = _graph_from_edges(4, [(1, 3), (2, 3), (2, 4)])
    path = tmp_path / "g.csv"
    G.write_adjacency_csv(g, path)
    assert G.read_adjacency_csv(path) == g


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_unit_interval_graph_is_interval_like(n, seed):
    # vertices adjacent in a unit interval graph span a clique interval:
    # i ~ j with i < j implies i ~ l for all i < l < j
    rng = np.random.default_rng(seed)
    w = C.sample_dyck(n, rng)
    g = G.unit_interval_graph(w)
    for i, j in g.edges():
        for mid in range(i + 1, j):
            assert g.adj[i - 1, mid - 1]
