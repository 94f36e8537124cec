"""Undirected graphs built from permutations, matchings, and Dyck paths.

Vertices are labelled ``1..n`` in every public interface, matching the seed
conventions of :mod:`graphlim.combinat` (vertex i of an inversion graph is
position i of the permutation; vertex i of a circle graph is the chord with
the i-th smallest left endpoint; vertex i of a unit interval graph is the
i-th up step).  Adjacency matrices are plain boolean numpy arrays whose row
``t`` corresponds to vertex ``t + 1``.

The exhaustive predicates (modular/split primality, canonical forms) are
verification tools: they enumerate subsets or relabelings outright and carry
hard size guards.  They exist to check structural equivalences at small n,
not to scale.

Text formats: an edge list ``"n=5; 1-2 2-3"`` (1-based, edges sorted) and an
adjacency-matrix CSV of 0/1 entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .combinat import (
    DyckPath,
    Matching,
    Permutation,
    _heights_arrays,
    _running_sum,
)

__all__ = [
    "UGraph",
    "inversion_graph",
    "circle_graph",
    "unit_interval_graph",
    "all_pairs_distances",
    "unit_distance_formula",
    "count_cliques_unit",
    "clique_count_inversion",
    "clique_count_circle",
    "is_split_prime",
    "canonical_form",
    "parse_graph",
    "format_graph",
    "write_adjacency_csv",
    "read_adjacency_csv",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UGraph:
    """Simple undirected graph: symmetric boolean adjacency, false diagonal."""

    adj: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.adj, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.shape[0] and np.any(a != a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("diagonal must be false (no loops)")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    @classmethod
    def complete(cls, n: int) -> "UGraph":
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(adj)

    @classmethod
    def empty(cls, n: int) -> "UGraph":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UGraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop {u}-{v} not allowed")
            adj[u - 1, v - 1] = adj[v - 1, u - 1] = True
        return cls(adj)

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adj, 1))
        return [(int(i) + 1, int(j) + 1) for i, j in zip(iu, ju)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return self.adj.shape == other.adj.shape and bool(np.all(self.adj == other.adj))

    def __hash__(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"UGraph(n={self.n}, edges={self.edge_count()})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _lanes(values: np.ndarray, n: int) -> np.ndarray:
    """Seed-object entries of size n in the smallest signed integer type that
    holds 2n + 1 (int16 up to n = 16383): n x n compares on narrow lanes."""
    return values.astype(_int_type(2 * n + 1), copy=False)


def _inversion_adj(images: np.ndarray) -> np.ndarray:
    """Inversion adjacency of a stack of one-line notations, (B, n) -> (B, n, n).

    Edge {i, j} for i < j iff sigma(i) > sigma(j).  The values of a row are
    distinct, so that is (i < j) != (sigma(i) < sigma(j)), on and off the
    diagonal, with no transposed pass.
    """
    n = images.shape[-1]
    s = _lanes(images, n)
    idx = np.arange(n)
    return (idx[:, None] < idx) ^ (s[..., :, None] < s[..., None, :])


def inversion_graph(p: Permutation) -> UGraph:
    """Graph on positions 1..n with an edge at every inversion of p.

    Edge {i, j} for i < j iff sigma(i) > sigma(j).
    """
    return UGraph(_inversion_adj(np.asarray(p.mapping, dtype=np.int64)[None])[0])


def _chord_endpoints(partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right endpoints of the chords, sorted by left endpoint.

    Takes 1-based partner arrays along the last axis, (..., 2n) -> two (..., n),
    both in the lane type of ``_lanes``.
    """
    two_n = partner.shape[-1]
    partner = _lanes(partner, two_n // 2)
    shape = (*partner.shape[:-1], two_n // 2)
    flat = np.flatnonzero(partner > np.arange(1, two_n + 1, dtype=partner.dtype))
    return (flat % two_n + 1).astype(partner.dtype).reshape(shape), partner.ravel()[flat].reshape(shape)


def _circle_adj(partner: np.ndarray) -> np.ndarray:
    """Circle-graph adjacency of a stack of partner arrays, (B, 2n) -> (B, n, n).

    Two chords are adjacent iff exactly one endpoint of one lies between the
    endpoints of the other.  With chords ranked by left endpoint, chords i
    and j cross iff their spans overlap, l_j < r_i and l_i < r_j, and neither
    nests in the other: r_i < r_j when i < j, so (i < j) ^ (r_j < r_i).  The
    diagonal fails the last test.  Six passes over the (B, n, n) bools.
    """
    left, right = _chord_endpoints(partner)
    l_i, r_i = left[..., :, None], right[..., :, None]
    l_j, r_j = left[..., None, :], right[..., None, :]
    idx = np.arange(left.shape[-1], dtype=left.dtype)
    adj = l_j < r_i
    adj &= l_i < r_j
    unnested = r_j < r_i
    unnested ^= idx[:, None] < idx
    adj &= unnested
    return adj


def circle_graph(m: Matching) -> UGraph:
    """Intersection graph of the chords of m; vertex i is the i-th chord.

    Chords are ranked by smaller endpoint; two chords are adjacent iff they
    cross, i.e. exactly one endpoint of one lies between the endpoints of
    the other.
    """
    return UGraph(_circle_adj(np.asarray(m.partner, dtype=np.int64)[None])[0])


def _unit_interval_adj(f: np.ndarray) -> np.ndarray:
    """Unit-interval adjacency from forward degrees, (B, n) -> (B, n, n)."""
    idx = np.arange(f.shape[-1])
    # only bool n x n arrays, 1 byte per entry (about 190 MiB peak at n = 10^4)
    upper = idx <= idx[:, None] + f[..., :, None]
    upper &= idx > idx[:, None]
    return upper | upper.swapaxes(-1, -2)


def unit_interval_graph(w: DyckPath) -> UGraph:
    """Unit interval graph of a Dyck path: edge {v_i, v_j}, i < j, iff j <= i + f(i).

    Reducible words are accepted and produce disconnected graphs, one
    component per irreducible factor.
    """
    _, f = _heights_arrays(w.steps)
    return UGraph(_unit_interval_adj(f[None])[0])


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


# uint64 words gathered per BFS level (1 MiB); a graph with more closed-
# neighbourhood entries than this gathers one word per entry
_BFS_GATHER_WORDS = 1 << 17


def all_pairs_distances(g: UGraph) -> np.ndarray:
    """Matrix of BFS distances (float, np.inf for disconnected pairs).

    A bit-parallel BFS from all sources at once (Then et al., "The More the
    Merrier", PVLDB 8(4), 2014), run on blocks of 64 x words sources.  Bit b
    of word w in row v of ``reach`` says that v is within the current radius
    of source lo + 64w + b; one level ORs the words of each closed
    neighbourhood together, and a block ends at the first level that adds no
    bit.  The bits a level adds are ORed into bit plane p for each bit p set
    in the level number, so a pair's distance is read once per block from
    its bits in the planes.  words is the gather budget over the number of
    closed-neighbourhood entries, between 1 and ceil(n / 64): a random unit
    interval graph of up to a few hundred vertices runs as one block, a dense
    graph of a thousand gathers one word per entry.

    The work is levels x (n + 2m) x ceil(n/64) words, so this loses to a
    per-source search on sparse graphs of large diameter: a 1000-vertex path
    takes about 0.2 s on a 2-core host.  Dense graphs and graphs of diameter
    O(1) or about sqrt(n) (random perm, circle and unit interval graphs) are
    its case.
    """
    n = g.n
    flat = np.flatnonzero(g.adj | np.eye(n, dtype=bool))
    cols = (flat % n).astype(np.int32)
    starts = np.searchsorted(flat, np.arange(n) * n)
    words = max(1, min(_BFS_GATHER_WORDS // max(flat.size, 1), -(-n // 64)))
    dist = np.empty((n, n))
    for lo in range(0, n, 64 * words):
        k = min(64 * words, n - lo)
        bit = np.arange(k)
        reach = np.zeros((n, words), dtype=np.uint64)
        reach[lo + bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        planes: list[np.ndarray] = []
        level = 0
        while True:
            grown = np.bitwise_or.reduceat(reach.take(cols, 0), starts, 0)
            new = grown ^ reach
            if not new.any():
                break
            level += 1
            if level & (level - 1) == 0:
                planes.append(new)  # level 2^p opens plane p
            else:
                for p in range(len(planes)):
                    if level >> p & 1:
                        planes[p] |= new
            reach = grown
        depth = np.zeros((n, 64 * words), dtype=np.int32)
        for p, plane in enumerate(planes):
            depth += np.left_shift(_bits(plane), p, dtype=np.int32)
        dist[lo : lo + k] = np.where(_bits(reach)[:, :k], depth[:, :k], np.inf).T
    return dist


def _bits(words: np.ndarray) -> np.ndarray:
    """(n, w) uint64 words as (n, 64w) 0/1 uint8: bit b of word j is column 64j + b."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")


def unit_distance_formula(w: DyckPath, i: int, j: int) -> int:
    """Graph distance in the unit interval graph of w, by the jump recursion.

    With i_0 = i and i_{m+1} = i_m + f(i_m), the distance from v_i to v_j
    (i < j) is ceil(sum_{k=i}^{j-1} 1 / f(max jump <= k)).  Each full window
    [i_m, i_{m+1}) contributes exactly 1 to the sum and the final partial
    window contributes a value in (0, 1], so the ceiling equals the number
    of jumps needed to reach or pass j.  The jump count is what is computed
    here: summing the fractions in floating point can cross a ceiling
    boundary (five terms of 1/5 already exceed 1.0), so no floats are used.

    Arguments may be given in either order; i == j gives 0.
    """
    if not w.is_irreducible():
        raise ValueError("Dyck path must be irreducible (graph connected)")
    n = w.size
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"vertex out of range 1..{n}")
    _, f = _heights_arrays(w.steps)
    sources = np.asarray(sorted((i, j)))
    return int(_table_distances(_distances_from(f, sources), sources)[0, 1])


def _distances_from(f: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Jump walks from sorted 1-based sources, as a k x L table of step columns.

    Column t holds where each walk is after t jumps of g(i) = min(i + f(i), n),
    up to the first column that is all at or past sources[-1].  The distance
    from v_{sources[a]} to a later v_j is the number of points of row a before
    j.  g is nondecreasing, so columns are sorted.  A walk that would stall
    (f(i) = 0 at a vertex it must pass: a reducible word) raises ValueError.
    """
    n = f.size
    first, last = int(sources[0]), int(sources[-1])
    stalls = np.flatnonzero(f[first - 1 : last - 1] == 0)
    if stalls.size:
        raise ValueError(f"jump walk stalls at vertex {first + int(stalls[0])}: the word is reducible")
    jump = np.minimum(np.arange(n + 1) + np.concatenate(([0], f)), n)  # jump[v] = g(v)
    cols = [np.asarray(sources, dtype=np.int64)]
    while cols[-1][0] < last:
        cols.append(jump[cols[-1]])
    return np.stack(cols, axis=1)


def _table_distances(table: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """The k x k distances of a walk table: D[a, b] from v_{sources[a]} to
    v_{sources[b]} for a < b, 0 on and below the diagonal.  Each walk point
    marks the first column beyond it, and a running sum counts the marks."""
    k = sources.size
    marks = np.searchsorted(sources, table, side="right") + (k + 1) * np.arange(k)[:, None]
    dist = np.bincount(marks.ravel(), minlength=k * (k + 1)).reshape(k, k + 1)[:, :k]
    return np.cumsum(dist, axis=1)


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


def count_cliques_unit(w: DyckPath, k: int) -> int:
    """Cliques of size k in the unit interval graph of w: sum_i binom(f(i), k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _, f = _heights_arrays(w.steps)
    return sum(math.comb(int(fi), k - 1) for fi in f)


def _int_type(bound: int) -> np.dtype:
    """Smallest signed integer dtype holding 0..bound; object (Python ints) past int64.

    Chain counts on at most k of n vertices, and their partial sums, are at
    most binom(n, min(k, n // 2)): the chain counters take that bound."""
    return np.min_scalar_type(-bound - 1)


def _checked_count(count, k: int) -> int:
    if int(count) >= 2**63:
        raise ValueError(f"the {k}-clique count reaches 2^63")
    return int(count)


# (row x position x merge level) entries per block of the stacked chain
# count; its merge tables hold about 17 bytes per entry, about 2 MiB a block
_CHAIN_CHUNK = 1 << 17


def _inversion_clique_counts(images: np.ndarray, k: int) -> list[int]:
    """Cliques of size k in the inversion graph of each row of a (B, n) stack
    of one-line notations (permutations of 1..n), counted as decreasing chains.

    v_1 = 1, v_{j+1}(i) = sum of v_j(h) over h < i with sigma(h) > sigma(i),
    count = sum_i v_k(i).  Each of the k-1 dominance sums merges blocks of
    width 1, 2, 4, ...: in a block pair sorted by decreasing value, a running
    sum of the left half's v serves the right half.  A row's merge order at
    one width is one argsort of its (block, -value) keys.  Rows share every
    numpy call through flat row offsets, in blocks of _CHAIN_CHUNK entries:
    each row is padded to whole block pairs with a slot whose v is 0, and the
    right half gathers that slot too, so one cumsum per block pair gives the
    running sums.  O(k n log n) time per row in exact integers; ValueError
    if any row's count is >= 2^63.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    b, n = images.shape
    if k > n:
        return [0] * b
    depth = (n - 1).bit_length()
    dtype = _int_type(math.comb(n, min(k, n // 2)))
    keys = _int_type(n * n)
    pos = np.arange(n, dtype=keys)
    counts: list[int] = []
    step = max(1, _CHAIN_CHUNK // (n * max(depth, 1)))
    for lo in range(0, b, step):
        s = images[lo : lo + step].astype(keys)
        rows = s.shape[0]
        zero = rows * n  # the slot past the last row, where v stays 0
        levels = []  # per width: padded gather, block pair length, targets, their padded slots
        for width in (1 << j for j in range(depth)):
            pair = 2 * width
            length = -(-n // pair) * pair
            order = np.argsort(pos // pair * n - s, axis=1)
            right = (order & width) != 0
            order += n * np.arange(rows)[:, None]
            gather = np.full((rows, length), zero)
            gather[:, :n] = np.where(right, zero, order)
            slots = np.flatnonzero(right)
            levels.append((gather, pair, order.ravel()[slots], slots + slots // n * (length - n)))
        v = np.ones(zero + 1, dtype=dtype)
        v[zero] = 0
        for _ in range(k - 1):
            nxt = np.zeros(zero + 1, dtype=dtype)
            for gather, pair, targets, slots in levels:
                run = np.cumsum(v[gather].reshape(-1, pair), axis=1, dtype=dtype)
                nxt[targets] += run.ravel()[slots]
            v = nxt
        counts += [_checked_count(c, k) for c in v[:zero].reshape(rows, n).sum(axis=1, dtype=dtype)]
    return counts


def clique_count_inversion(p: Permutation, k: int) -> int:
    """Cliques of size k in the inversion graph, counted as decreasing chains
    (the one-row case of ``_inversion_clique_counts``): O(k n log n) time and
    O(n log n) memory in exact integers; ValueError if the count is >= 2^63.
    """
    return _inversion_clique_counts(np.asarray(p.mapping, dtype=np.int64)[None], k)[0]


# rows of E^p per chunk of the circle count's reduction (its gathers hold at
# most _ROW_CHUNK x n entries)
_ROW_CHUNK = 256


def clique_count_circle(m: Matching, k: int) -> int:
    """Cliques of size k in the circle graph, counted as dominance chains.

    Chords sorted by left endpoint, pi the rank of the right one: a k-clique is
    a chain a < ... < z with pi increasing and z < tau(a) = #{left < right(a)}.
    With E the dominance mask (a < c, pi(a) < pi(c)), k-1 = p+q, q = (k-1)//2:
    count = sum_{a,c} E^p[a, c] C_q[tau(a), c], C_q[t, c] = sum_{z<t} E^q[c, z]
    (a running sum of the rows of (E^q)^T, built from the transposed compare,
    then a row gather at tau).  E^2 counts points in a rectangle of the 2-D
    prefix table of pi, so k <= 5 takes O(n^2) time and memory in int16/int32/
    int64 arrays; larger k multiplies exact integer matrices.  The sum runs
    over chunks of _ROW_CHUNK rows of E^p, so no n x n gather is held: at
    k = 3 the peak is the (n+1) x n table (about 2 MiB at n = 1000).  Raises
    ValueError if the count is >= 2^63.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = m.size
    if k == 1:
        return n
    if k > n:
        return 0
    left, right = _chord_endpoints(np.asarray(m.partner, dtype=np.int64))
    pi = np.argsort(np.argsort(right)).astype(_int_type(n))
    tau = np.searchsorted(left, right)
    idx = np.arange(n, dtype=pi.dtype)
    dtype = _int_type(math.comb(n, min(k, n // 2)))
    q = (k - 1) // 2
    p = k - 1 - q

    def dominance(rows: slice, compare) -> np.ndarray:  # np.less: rows of E; np.greater: of E^T
        out = compare(idx[rows, None], idx)
        out &= compare(pi[rows, None], pi)
        return out

    def prefix(table_t: np.ndarray, bound: int) -> np.ndarray:  # out[t, c] = sum_{z<t} table_t[z, c]
        out = np.zeros((n + 1, n), dtype=_int_type(bound))
        _running_sum(table_t, out[1:])
        return out

    if p >= 2:  # below[b, c] = #{b' < b : pi(b') < pi(c)}; E^2 by inclusion-exclusion
        e = dominance(slice(None), np.less)
        below = prefix(pi[:, None] < pi, n)
        diag = below[idx, idx].astype(_int_type(2 * n))
        e2 = np.where(e, diag + diag[:, None] - below[1:] - below[:n].T, 0)
        del below  # not held through the sum

    def power(j: int) -> np.ndarray:
        if j < 3:
            return e if j == 1 else e2
        half = np.linalg.matrix_power(e2.astype(dtype), j // 2)
        return half @ e.astype(dtype) if j % 2 else half

    if q == 1:
        table = prefix(dominance(slice(None), np.greater), n - 1)
    elif q >= 2:
        table = prefix(power(q).T, math.comb(n - 1, q))
    lhs = power(p) if p >= 2 else None

    def chunk_sum(rows: slice) -> int:  # a chunk's arrays go before the next one's
        gathered = idx < tau[rows, None] if q == 0 else table[tau[rows]]
        if p == 1:  # rows of E are 0/1, so the product keeps the gather's type
            return int(np.multiply(gathered, dominance(rows, np.less), out=gathered).sum(dtype=dtype))
        return int(np.einsum("ij,ij->", lhs[rows], gathered, dtype=dtype))

    return _checked_count(sum(chunk_sum(slice(lo, lo + _ROW_CHUNK)) for lo in range(0, n, _ROW_CHUNK)), k)


# ---------------------------------------------------------------------------
# Modules and splits
# ---------------------------------------------------------------------------

_SUBSET_SCAN_LIMIT = 16
_SCAN_CHUNK = 1 << 20  # cells (graph x subset x vertex or vertex pair) per block of a subset scan


def _subset_masks(n: int, lo: int, hi: int) -> np.ndarray:
    """Boolean (C, n) masks of the subsets of n vertices with lo..hi members,
    in increasing order of their bit patterns (vertex t + 1 is bit t)."""
    masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    size = masks.sum(axis=1)
    return masks[(size >= lo) & (size <= hi)]


def _neighbour_count_scan(adj: np.ndarray, subsets: np.ndarray, rule, out: np.ndarray) -> np.ndarray:
    """Fill `out` with rule(seen, degree), block by block of a (B, n, n)
    stack, where seen[b, v, s] counts the neighbours of vertex v in subset s
    of the (n, C) boolean `subsets` and degree[b, v] is v's degree.

    One integer product per block of graphs; blocks keep `seen` under
    _SCAN_CHUNK cells.  Counts stay below n, so int16 holds them, at half
    the memory of int32 and with a faster product.
    """
    members = subsets.astype(np.int16)
    step = max(1, _SCAN_CHUNK // max(members.size, 1))
    for lo in range(0, adj.shape[0], step):
        block = adj[lo : lo + step].astype(np.int16)
        out[lo : lo + step] = rule(block @ members, block.sum(axis=2, dtype=np.int16))
    return out


def _modular_prime_flags(adj: np.ndarray) -> np.ndarray:
    """Modular primality of every graph in a (B, n, n) stack (subset scan).

    A set M of 2..n-1 vertices is a module iff every vertex outside M sees
    none of M or all of it.
    """
    n = adj.shape[-1]
    blocks = _subset_masks(n, 2, n - 1).T
    size = blocks.sum(axis=0, dtype=np.int16)

    def prime(seen, degree):
        return ((seen > 0) & (seen < size) & ~blocks).any(axis=1).all(axis=1)

    return _neighbour_count_scan(adj, blocks, prime, np.empty(adj.shape[0], dtype=bool))


def _split_flags(adj: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Which cuts are splits, for a (B, n, n) adjacency stack and (C, n)
    boolean side-1 masks S; returns (B, C).

    A cut is a split iff its cut-set is complete bipartite between the
    vertices it touches on either side (an empty cut-set qualifies).  With
    c1(v) the neighbours in S of a vertex v outside S, and c2(u) those
    outside S of a vertex u in S, that is: the cut's edges, the sum of c1
    over the vertices outside S, equal |{u in S : c2(u) > 0}| times
    |{v outside S : c1(v) > 0}|.
    """
    inside = sides.T
    outside = ~inside

    def split(seen, degree):
        touched = np.count_nonzero((seen < degree[:, :, None]) & inside, axis=1)
        touched *= np.count_nonzero((seen > 0) & outside, axis=1)
        np.multiply(seen, outside, out=seen)
        return seen.sum(axis=1) == touched

    return _neighbour_count_scan(adj, inside, split, np.empty((adj.shape[0], sides.shape[0]), dtype=bool))


def _split_prime_flags(adj: np.ndarray) -> np.ndarray:
    """Split primality of every graph in a (B, n, n) stack (cut scan).

    Cuts with a side of fewer than 2 vertices are trivial and skipped.  The
    sides of 2..n-2 vertices pair off with their complements, row i with
    row C-1-i, so the first half (vertex n on side 2) visits each cut once.
    """
    sides = _subset_masks(adj.shape[-1], 2, adj.shape[-1] - 2)
    return ~_split_flags(adj, sides[: sides.shape[0] // 2]).any(axis=1)


def is_split_prime(g: UGraph) -> bool:
    """No split with both sides of size >= 2 exists (cut scan, n <= 16)."""
    n = g.n
    if n > _SUBSET_SCAN_LIMIT:
        raise ValueError(f"split-primality scan is limited to n <= {_SUBSET_SCAN_LIMIT} (got n={n})")
    return bool(_split_prime_flags(g.adj[None])[0])


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

_CANONICAL_LIMIT = 8
_CODE_CHUNK = 1 << 18  # graph x relabeling codes per block of the code pass


def _canonical_codes(adj: np.ndarray) -> np.ndarray:
    """Minimal upper-triangle codes of a (B, n, n) adjacency stack, as integers.

    The code of a relabeling reads the upper triangle of the relabeled
    matrix row by row, first entry as the most significant bit.  Entry t of
    that reading is the pair {order[i], order[j]} of the original graph, so
    every relabeling is one column of weights over the graph's own upper
    triangle, and one matrix product gives all codes of a block of graphs.
    The sums are of distinct powers of two below 2^28 (n <= 8), so float64
    holds them exactly.  Blocks keep the product under _CODE_CHUNK entries.
    """
    b, n = adj.shape[0], adj.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    if iu.size == 0:
        return np.zeros(b, dtype=np.int64)
    order = np.array(list(itertools.permutations(range(n))))
    slot = np.zeros((n, n), dtype=np.int64)
    slot[iu, ju] = slot[ju, iu] = np.arange(iu.size)
    weights = np.zeros((iu.size, order.shape[0]))
    weights[slot[order[:, iu], order[:, ju]], np.arange(order.shape[0])[:, None]] = np.exp2(
        np.arange(iu.size - 1, -1, -1)
    )
    upper = adj[:, iu, ju].astype(np.float64)
    codes = np.empty(b, dtype=np.int64)
    step = max(1, _CODE_CHUNK // order.shape[0])
    for lo in range(0, b, step):
        codes[lo : lo + step] = (upper[lo : lo + step] @ weights).min(axis=1)
    return codes


def _code_text(code: int, n: int) -> str:
    """A canonical code as its n(n-1)/2-character bit string."""
    length = n * (n - 1) // 2
    return format(code, f"0{length}b") if length else ""


def canonical_form(g: UGraph) -> str:
    """Lexicographically minimal upper-triangle code over all relabelings.

    The code is n(n-1)/2 characters, the rows of the upper triangle
    concatenated; two graphs on n vertices are isomorphic iff their codes
    are equal.  Factorial-time scan, n <= 8.
    """
    n = g.n
    if n > _CANONICAL_LIMIT:
        raise ValueError(f"canonical_form is limited to n <= {_CANONICAL_LIMIT} (got n={n})")
    return _code_text(int(_canonical_codes(g.adj[None])[0]), n)


# ---------------------------------------------------------------------------
# Text and CSV formats
# ---------------------------------------------------------------------------


def format_graph(g: UGraph) -> str:
    """One-line edge list, e.g. ``"n=4; 1-2 2-3"``; isolated vertices implied by n."""
    edges = " ".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n};" + (f" {edges}" if edges else "")


def parse_graph(text: str) -> UGraph:
    head, _, tail = text.strip().partition(";")
    head = head.strip()
    if not head.startswith("n="):
        raise ValueError(f"expected 'n=<count>;' prefix, got {head!r}")
    try:
        n = int(head[2:])
    except ValueError as exc:
        raise ValueError(f"bad vertex count in {head!r}") from exc
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = []
    for token in tail.split():
        a, _, b = token.partition("-")
        try:
            edges.append((int(a), int(b)))
        except ValueError as exc:
            raise ValueError(f"bad edge token {token!r}") from exc
    return UGraph.from_edges(n, edges)


def write_adjacency_csv(g: UGraph, path) -> None:
    np.savetxt(path, g.adj.astype(np.int8), fmt="%d", delimiter=",")


def read_adjacency_csv(path) -> UGraph:
    mat = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    return UGraph(mat.astype(bool))
