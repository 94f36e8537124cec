"""Independent brute-force oracles used to freeze expected test values.

Everything here is written directly from definitions, deliberately not
sharing algorithms or helper code with the package: subset scans, string
filters and itertools enumeration, plus the dense chain-matrix clique rule
(the package's own counters use a different one).  Oracles are slow and
meant for small sizes.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def brute_is_simple(mapping: tuple[int, ...]) -> bool:
    """No interval of length 2..n-1 maps onto an interval.

    The values are distinct, so a window's image is an interval iff its
    largest and smallest values differ by the window's length - 1; each
    window's extremes extend those of the window one shorter.
    """
    n = len(mapping)
    for start in range(n):
        lo = hi = mapping[start]
        for end in range(start + 1, n):
            lo, hi = min(lo, mapping[end]), max(hi, mapping[end])
            if hi - lo == end - start and end - start < n - 1:
                return False
    return True


def inversion_edges(mapping: tuple[int, ...]) -> set[frozenset[int]]:
    n = len(mapping)
    return {
        frozenset((i + 1, j + 1))
        for i in range(n)
        for j in range(i + 1, n)
        if mapping[i] > mapping[j]
    }


# ---------------------------------------------------------------------------
# matchings (as partner tuples, 1-based points)
# ---------------------------------------------------------------------------


def all_matchings(n: int) -> list[tuple[int, ...]]:
    """All fixed-point-free involutions of [2n], by pairing the largest
    unused point each time (different construction from the package)."""
    out: list[tuple[int, ...]] = []

    def rec(free: list[int], partner: dict[int, int]) -> None:
        if not free:
            out.append(tuple(partner[i] for i in range(1, 2 * n + 1)))
            return
        a = free[-1]
        for idx in range(len(free) - 1):
            b = free[idx]
            partner[a], partner[b] = b, a
            rec([p for p in free if p not in (a, b)], partner)
            del partner[a], partner[b]

    rec(list(range(1, 2 * n + 1)), {})
    return out


def sequential_pairing(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Partner tuple of a uniform matching of size n by sequential pairing.

    The smallest free point is paired with a uniform choice among the other
    free points; every matching has probability 1/(2n-1)!!.  This was the
    package's matching sampler before it paired consecutive positions of a
    shuffle, so reports pinned under that draw stream stay reproducible with
    this rule patched in.
    """
    free = list(range(1, 2 * n + 1))
    partner = [0] * (2 * n)
    while free:
        r = int(rng.integers(1, len(free)))  # len(free) is even, >= 2
        i = free[0]
        j = free.pop(r)
        free.pop(0)
        partner[i - 1] = j
        partner[j - 1] = i
    return tuple(partner)


def chords(partner: tuple[int, ...]) -> list[tuple[int, int]]:
    """Chords as (left, right) sorted by left endpoint."""
    seen = set()
    cs = []
    for i, p in enumerate(partner, start=1):
        a, b = min(i, p), max(i, p)
        if (a, b) not in seen:
            seen.add((a, b))
            cs.append((a, b))
    return sorted(cs)


def brute_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    a, b = c1
    c, d = c2
    return a < c < b < d or c < a < d < b


def circle_edges(partner: tuple[int, ...]) -> set[frozenset[int]]:
    cs = chords(partner)
    return {
        frozenset((i + 1, j + 1))
        for i in range(len(cs))
        for j in range(i + 1, len(cs))
        if brute_cross(cs[i], cs[j])
    }


def cut_side(g1: int, g2: int, g3: int, g4: int) -> set[int]:
    """The points of (g1, g2] and (g3, g4], for cut gaps g1 <= g2 <= g3 <= g4
    (gap g between points g and g+1, gap 0 before point 1)."""
    return set(range(g1 + 1, g2 + 1)) | set(range(g3 + 1, g4 + 1))


def closed_side_k(partner: tuple[int, ...], side: set[int]) -> int | None:
    """k when no chord joins `side` to the rest and 2 <= k <= n-2, where k
    counts the chords of whichever part misses point 1; None otherwise."""
    two_n = len(partner)
    if any((partner[i - 1] in side) != (i in side) for i in range(1, two_n + 1)):
        return None
    away = len(side if 1 not in side else set(range(1, two_n + 1)) - side) // 2
    return away if 2 <= away <= two_n // 2 - 2 else None


def brute_is_decomposable(partner: tuple[int, ...]) -> bool:
    """Is the matching k-decomposable for some k in [2, n-2]?  Tries the side
    of every 4-multiset of cut gaps."""
    return any(
        closed_side_k(partner, cut_side(*cuts)) is not None
        for cuts in itertools.combinations_with_replacement(range(len(partner)), 4)
    )


def xyz_stats(partner: tuple[int, ...]) -> tuple[int, int, int]:
    """(x, y, z) of a 1-based partner tuple, one point at a time.

    x counts points with m(i) = i+1 (mod 2n), y those with m(j) = j+2, and
    z counts index pairs k < l <= 2n with l-k != +-1 (mod 2n) such that
    {m(k), m(k+1)} = {l, l+1} (mod 2n).
    """
    two_n = len(partner)
    x = sum(1 for i in range(1, two_n + 1) if (partner[i - 1] - i - 1) % two_n == 0)
    y = sum(1 for j in range(1, two_n + 1) if (partner[j - 1] - j - 2) % two_n == 0)
    z = 0
    for k in range(1, two_n):
        a, b = partner[k - 1], partner[k]  # m(k), m(k+1); k < 2n, so no wrap
        if (b - a - 1) % two_n == 0:
            ell = a
        elif (a - b - 1) % two_n == 0:
            ell = b
        else:
            continue
        if k < ell <= two_n and (ell - k) % two_n not in (1, two_n - 1):
            z += 1
    return x, y, z


def phi_inverse(
    big: tuple[int, ...], mark: int, small: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Glue a marked matching and a plain one into a k-decomposed matching,
    k = len(small) / 2 - 1.

    The marked chord {a, b} of big (mark is one of its points; it may not
    hold point 1) and the chord {1, t} of small are removed.  The ring reads
    big's arc b+1 .. a-1 round the circle (c1), small's 2 .. t-1 (c2), big's
    a+1 .. b-1 (c3) and small's t+1 .. end (c4), and is labelled clockwise
    from big's point 1.  Returns the partner tuple and the parts
    (c1, c2, c3, c4) in those labels.
    """
    a, b = sorted((mark, big[mark - 1]))
    t = small[0]
    parts = (
        [("b", p % len(big) + 1) for p in range(b, a + len(big) - 1)],
        [("s", p) for p in range(2, t)],
        [("b", p) for p in range(a + 1, b)],
        [("s", p) for p in range(t + 1, len(small) + 1)],
    )
    ring = [point for part in parts for point in part]
    start = ring.index(("b", 1))
    label = {point: (pos - start) % len(ring) + 1 for pos, point in enumerate(ring)}
    partner = [0] * len(ring)
    for side, mates in (("b", big), ("s", small)):
        for x, y in enumerate(mates, 1):
            if (side, x) in label:
                partner[label[(side, x)] - 1] = label[(side, y)]
    return tuple(partner), tuple(tuple(label[point] for point in part) for part in parts)


# ---------------------------------------------------------------------------
# limit graphons (latent points as (a, b) pairs in [0, 1]^2)
# ---------------------------------------------------------------------------


def _on_arc(t: float, lo: float, hi: float) -> bool:
    """Whether t lies strictly inside the arc from lo to hi (increasing direction)."""
    if lo < hi:
        return lo < t < hi
    return t > lo or t < hi


def graphon_value(family: str, p: tuple[float, float], q: tuple[float, float]) -> int:
    """The {0,1} graphon value at latent points p and q, one pair at a time.

    perm: 1 iff (p.a - q.a)(p.b - q.b) < 0.  circle: a degenerate chord or a
    shared endpoint gives 0; otherwise 1 iff exactly one endpoint of q lies
    on the arc from p.a to p.b.
    """
    (pa, pb), (qa, qb) = p, q
    if family == "perm":
        return 1 if (pa - qa) * (pb - qb) < 0 else 0
    if pa == pb or qa == qb or {pa, pb} & {qa, qb}:
        return 0
    return 1 if _on_arc(qa, pa, pb) != _on_arc(qb, pa, pb) else 0


# ---------------------------------------------------------------------------
# Dyck paths (strings of U/D)
# ---------------------------------------------------------------------------


def all_dyck_words(n: int) -> list[str]:
    words = []
    for bits in itertools.product("UD", repeat=2 * n):
        h = 0
        ok = True
        for c in bits:
            h += 1 if c == "U" else -1
            if h < 0:
                ok = False
                break
        if ok and h == 0:
            words.append("".join(bits))
    return words


def brute_irreducible(word: str) -> bool:
    h = 0
    for c in word[:-1]:
        h += 1 if c == "U" else -1
        if h == 0:
            return False
    return True


def _cycle_lemma_cut(word: str) -> str:
    """A U/D word of sum -1 rotated to start just after its first prefix-sum
    minimum, with its final D dropped."""
    height, low, cut = 0, 1, 0
    for pos, c in enumerate(word):
        height += 1 if c == "U" else -1
        if height < low:
            low, cut = height, pos + 1
    return (word[cut:] + word[:cut])[:-1]


def cycle_lemma_dyck_word(n: int, rng: np.random.Generator) -> str:
    """Uniform Dyck word of size n >= 0 by the cycle lemma, on strings.

    The generator shuffles n ones followed by n + 1 minus-ones as int8, the
    package's draw stream before it drew words from fair bits; the shuffle
    is read as U/D text and cut by the cycle lemma.  Reports pinned under
    that stream stay reproducible with this rule patched in.
    """
    shuffled = rng.permutation(np.array([1] * n + [-1] * (n + 1), dtype=np.int8))
    return _cycle_lemma_cut("".join("U" if s > 0 else "D" for s in shuffled.tolist()))


def fair_bits_dyck_word(n: int, rng: np.random.Generator) -> str:
    """Uniform Dyck word of size n >= 0 from fair bits, on strings.

    n = 0 draws nothing.  Otherwise the 2n + 1 leading bits of
    ceil((2n + 1) / 8) bytes, most significant bit first, are read as U for
    1 and D for 0.  If the ups are not n, |#U - n| positions of the majority
    letter, picked by ``rng.choice`` without replacement among that letter's
    positions in order, are swapped to the other letter; the word is then
    cut by the cycle lemma.
    """
    if n == 0:
        return ""
    size = 2 * n + 1
    bits = "".join(f"{byte:08b}" for byte in rng.bytes((size + 7) // 8))[:size]
    word = ["U" if b == "1" else "D" for b in bits]
    excess = word.count("U") - n
    if excess:
        major, minor = ("U", "D") if excess > 0 else ("D", "U")
        side = [pos for pos, c in enumerate(word) if c == major]
        for pick in rng.choice(len(side), abs(excess), replace=False).tolist():
            word[side[pick]] = minor
    return _cycle_lemma_cut("".join(word))


def irreducible_dyck_word(n: int, rng: np.random.Generator) -> str:
    """U + (fair-bits word of size n-1) + D; "UD" draws nothing."""
    return "UD" if n == 1 else "U" + fair_bits_dyck_word(n - 1, rng) + "D"


def connected_uig_word(n: int, rng: np.random.Generator) -> str:
    """The smaller of an irreducible word and its mirror, kept outright when
    they are equal and with probability 1/2 otherwise."""
    while True:
        word = irreducible_dyck_word(n, rng)
        mirrored = word[::-1].translate(str.maketrans("UD", "DU"))
        if word == mirrored:
            return word
        if rng.random() < 0.5:
            return min(word, mirrored)


def log_unit_interval_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log d C_d for d = 0..n, log U_0..log U_n) by the Euler transform
    t U_t = sum_k a_k U_{t-k}, a_k = sum_{d|k} d C_d, kept in log space
    throughout: a log-sum-exp over all t terms for every t, O(n^2) exp
    calls.  C_d = (Catalan(d-1) + binom(d-1, floor((d-1)/2))) / 2 by lgamma."""
    log_dc = np.full(n + 1, -np.inf)
    log_a = np.full(n + 1, -np.inf)
    for d in range(1, n + 1):
        k = d - 1
        log_cat = math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.lgamma(k + 2)
        log_bin = math.lgamma(d) - math.lgamma(k // 2 + 1) - math.lgamma(d - k // 2)
        log_dc[d] = math.log(d) + float(np.logaddexp(log_cat, log_bin) - math.log(2.0))
        log_a[d::d] = np.logaddexp(log_a[d::d], log_dc[d])
    log_u = np.zeros(n + 1)
    for t in range(1, n + 1):
        terms = log_a[1 : t + 1] + log_u[t - 1 :: -1]
        peak = terms.max()
        log_u[t] = peak + math.log(np.exp(terms - peak).sum()) - math.log(t)
    return log_dc, log_u


def unit_interval_edges(word: str) -> set[frozenset[int]]:
    """Edges straight from the definition: i ~ j (i < j) iff fewer than
    f(i) := #ups strictly between up_i and down_i separate them."""
    ups, downs = [], []
    for pos, c in enumerate(word):
        (ups if c == "U" else downs).append(pos)
    n = len(ups)
    edges = set()
    for i in range(n):
        f_i = sum(1 for u in ups if ups[i] < u < downs[i])
        for j in range(i + 1, min(i + f_i, n - 1) + 1):
            edges.add(frozenset((i + 1, j + 1)))
    return edges


# ---------------------------------------------------------------------------
# graphs from edge sets over vertices 1..n
# ---------------------------------------------------------------------------


def brute_bfs_all(n: int, edges: set[frozenset[int]]) -> list[list[float]]:
    adj = {v: set() for v in range(1, n + 1)}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    dist = []
    for s in range(1, n + 1):
        d = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in d:
                    d[u] = d[v] + 1
                    queue.append(u)
        dist.append([d.get(v, float("inf")) for v in range(1, n + 1)])
    return dist


def brute_clique_count(n: int, edges: set[frozenset[int]], k: int) -> int:
    if k == 1:
        return n
    count = 0
    for sub in itertools.combinations(range(1, n + 1), k):
        if all(frozenset(p) in edges for p in itertools.combinations(sub, 2)):
            count += 1
    return count


def dense_clique_count_inversion(mapping: tuple[int, ...], k: int) -> int:
    """k-cliques of the inversion graph as decreasing k-chains: k-1 products
    of the n x n dominance matrix with a vector.  Entries count chains, at
    most 2^n, so int64 is exact for n <= 62."""
    n = len(mapping)
    assert n <= 62
    s = np.asarray(mapping, dtype=np.int64)
    idx = np.arange(n)
    dom = ((idx[:, None] < idx) & (s[:, None] > s)).astype(np.int64)
    v = np.ones(n, dtype=np.int64)
    for _ in range(k - 1):
        v = dom.T @ v
    return int(v.sum())


def dense_clique_count_circle(partner: tuple[int, ...], k: int) -> int:
    """k-cliques of the circle graph: dominance chains of chords (left and
    right endpoints both increasing) from the (k-1)-th power of the dominance
    matrix, kept where the last left endpoint precedes the first right one.
    Entries of the j-th power, j < k, count chains on j + 1 chords, so they
    and their partial sums are at most binom(n, min(k, n // 2)): int64 is
    exact for n <= 62, and wherever that bound is below 2^63."""
    n = len(partner) // 2
    assert n <= 62 or math.comb(n, min(k, n // 2)) < 2**63
    if k == 1:
        return n
    lr = np.asarray(chords(partner), dtype=np.int64).reshape(n, 2)
    left, right = lr[:, 0], lr[:, 1]
    dom = ((left[:, None] < left) & (right[:, None] < right)).astype(np.int64)
    power = np.linalg.matrix_power(dom, k - 1)
    return int((power * (left[None, :] < right[:, None])).sum())


def brute_is_module(n: int, edges: set[frozenset[int]], block: set[int]) -> bool:
    outside = [v for v in range(1, n + 1) if v not in block]
    for v in outside:
        links = {frozenset((v, u)) in edges for u in block}
        if len(links) > 1:
            return False
    return True


def brute_modular_prime(n: int, edges: set[frozenset[int]]) -> bool:
    for size in range(2, n):
        for block in itertools.combinations(range(1, n + 1), size):
            if brute_is_module(n, edges, set(block)):
                return False
    return True


def brute_is_split(n: int, edges: set[frozenset[int]], side: set[int]) -> bool:
    other = set(range(1, n + 1)) - side
    cut1 = {a for a in side if any(frozenset((a, b)) in edges for b in other)}
    cut2 = {b for b in other if any(frozenset((a, b)) in edges for a in side)}
    return all(frozenset((a, b)) in edges for a in cut1 for b in cut2)


def brute_split_prime(n: int, edges: set[frozenset[int]]) -> bool:
    if n < 4:
        return True
    verts = list(range(1, n + 1))
    for size in range(2, n - 1):
        for rest in itertools.combinations(verts[1:], size - 1):
            side = {verts[0], *rest}
            if brute_is_split(n, edges, side):
                return False
    return True


def brute_canonical_code(n: int, edges: set[frozenset[int]]) -> str:
    """Lexicographically least upper-triangle adjacency string over all
    vertex orderings, by full enumeration."""
    best = None
    for order in itertools.permutations(range(1, n + 1)):
        bits = "".join(
            "1" if frozenset((order[i], order[j])) in edges else "0"
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return best if best is not None else ""


def components(n: int, edges: set[frozenset[int]]) -> list[list[int]]:
    """Vertex sets of the connected components (1-based), each sorted,
    ordered by least vertex."""
    dist = brute_bfs_all(n, edges)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        least = min(u for u in range(n) if dist[v][u] != float("inf"))
        groups.setdefault(least, []).append(v + 1)
    return list(groups.values())


# ---------------------------------------------------------------------------
# metric spaces (dense distance matrices, 0-based points)
# ---------------------------------------------------------------------------


def box_discrepancy(d1: np.ndarray, d2: np.ndarray, relation: list[tuple[int, int]]) -> float:
    """Largest |d1[i, i'] - d2[j, j']| over pairs (i, j), (i', j') of the relation."""
    i, j = np.array(relation).T
    return float(np.abs(d1[np.ix_(i, i)] - d2[np.ix_(j, j)]).max())


def excursion_distance(values: np.ndarray, x: float, y: float) -> float:
    """Integral of 1/e over [x, y], 1/m <= x <= y <= 1 - 1/m, for e given on
    the grid t_i = i/m: trapezoids on the nodes x, every grid point strictly
    inside (x, y), and y, with 1/e interpolated linearly between the
    interior grid points (which must be positive)."""
    m = len(values) - 1
    grid = np.arange(1, m) / m
    inv = 1.0 / np.asarray(values[1:m], dtype=np.float64)
    nodes = np.concatenate(([x], grid[(grid > x) & (grid < y)], [y]))
    g = np.interp(nodes, grid, inv)
    return float(np.sum(np.diff(nodes) * (g[1:] + g[:-1])) / 2.0)
