"""Verification harness: exhaustive small-n structure checks and seeded Monte
Carlo reproductions of the limit statements, plus uniform samplers for
connected and general unit interval graphs.

Every experiment is a pure function of its parameters and the state of the
supplied generator: the first action is to draw a 63-bit master seed, which
is recorded in the report and drives the child streams.  Most drivers draw
one child per repetition (``SeedSequence(master).spawn``);
``mc_poisson_xyz`` and ``heatmap_experiment`` draw one child per chunk of
repetitions, and the exact suite draws from ``default_rng(master)``.
Aggregation is order-independent, so results are bit-identical for any
thread count.

Large-n caveat, stated once: uniform permutation graphs and circle graphs
are not sampled directly (counting them is open); Monte Carlo experiments
use uniform seed objects, whose graph statistics have the same limits.
Reports carry this note in their params.

Counting of unit interval graphs is exact (big integers).  The multiset
sampler draws every decomposition step from log-space float64 weights
(relative error ~1e-12 against the exact counts, far below any statistical
resolution here), one uniform per step.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import statistics
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import combinat, graphon, graphs, mmspace
from .combinat import (
    DyckPath,
    _heights_arrays,
    _matching_buffers,
    _sample_matchings_batch,
    _xyz_batch,
)
from .graphs import UGraph

__all__ = [
    "EstimateRecord",
    "Report",
    "mc_clique_density",
    "mc_poisson_xyz",
    "mc_indecomposable_rate",
    "exact_enumeration_suite",
    "sample_connected_unit_interval_graph",
    "count_connected_unit_interval_graphs",
    "count_unit_interval_graphs",
    "sample_unit_interval_graph",
    "largest_component_stats",
    "mc_unit_clique_scaling",
    "heatmap_experiment",
    "verify_distance_formula",
    "verify_gp",
]

_SEED_SPACE = 2**63


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRecord:
    label: str
    value: float
    stderr: float | None = None


@dataclass
class Report:
    """Machine-readable experiment outcome.

    JSON schema: {name, params, seed, estimates: [{label, value, stderr}],
    pass, threshold}; a details object is appended only when there is
    supporting material (histograms, counterexamples).
    """

    name: str
    params: dict
    seed: int
    estimates: list[EstimateRecord]
    passed: bool | None
    threshold: str | None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON payload; a non-finite value or stderr becomes None (null)."""
        out = {
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "estimates": [
                {"label": e.label, "value": _finite_or_none(e.value), "stderr": _finite_or_none(e.stderr)}
                for e in self.estimates
            ],
            "pass": self.passed,
            "threshold": self.threshold,
        }
        if self.details:
            out["details"] = self.details
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def get(self, label: str) -> EstimateRecord:
        for e in self.estimates:
            if e.label == label:
                return e
        raise KeyError(label)


def _finite_or_none(x: float | None) -> float | None:
    return x if x is None or math.isfinite(x) else None


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(_SEED_SPACE))


def _child_rngs(master: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(master).spawn(count)]


def _map_reps(
    fn: Callable[[int, np.random.Generator], object],
    master: int | tuple[int, ...],
    reps: int | tuple[int, ...],
    threads: int,
) -> list:
    """fn(rep_index, child_rng) for each rep; order of results is by index.

    ``master`` and ``reps`` are ints, or equal-length tuples of segments that
    share one pool: segment j holds ``reps[j]`` reps drawn from
    ``SeedSequence(master[j]).spawn(reps[j])``, indexed after segment j - 1.
    ``min(threads, total reps)`` workers take the next index from a shared
    counter (one worker runs inline).  After a failure no worker takes a new
    index, and the failure with the lowest index is raised, as a serial run
    would raise it: every lower index was taken before it and has run.
    """
    if not isinstance(reps, tuple):
        master, reps = (master,), (reps,)
    rngs = [g for m, count in zip(master, reps, strict=True) for g in _child_rngs(m, count)]
    workers = min(threads, len(rngs))
    if workers <= 1:
        return [fn(i, g) for i, g in enumerate(rngs)]
    out: list = [None] * len(rngs)
    failures: dict[int, BaseException] = {}
    indices = iter(range(len(rngs)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(indices, None)
            if i is None:
                return
            try:
                out[i] = fn(i, rngs[i])
            except Exception as exc:
                with lock:
                    failures[i] = exc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = [pool.submit(work) for _ in range(workers)]
    for worker in running:
        worker.result()
    if failures:
        raise failures[min(failures)]
    return out


# A rep that touches fewer array cells than this runs inline: there a second
# worker costs more in thread switches and GIL hand-offs than it saves.
_INLINE_CELLS = 1 << 18


def _rep_threads(threads: int, cells: int) -> int:
    """Workers for a _map_reps call whose reps touch `cells` cells each:
    `threads`, or 1 below _INLINE_CELLS.  Every pooled driver asks here."""
    return threads if cells >= _INLINE_CELLS else 1


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, as the exact fraction h / lcm.

    This is scipy's ``ks_2samp(a, b).statistic`` whenever max(n_a, n_b) <=
    10,000, where its exact mode rounds d to h / lcm; above that scipy returns
    the unrounded float, which agrees within 1e-15.  A NaN gives NaN.
    """
    a, b = np.sort(a), np.sort(b)
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sorting puts NaN last
        return math.nan
    na, nb = a.size, b.size
    g = math.gcd(na, nb)
    pooled = np.concatenate([a, b])
    ca = np.searchsorted(a, pooled, side="right")
    cb = np.searchsorted(b, pooled, side="right")
    # ca/na - cb/nb = (ca * nb/g - cb * na/g) / lcm, with an integer numerator
    h = int(np.abs(ca * (nb // g) - cb * (na // g)).max())
    return h / (na // g * nb)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    if v.size < 2:
        return mean, 0.0
    return mean, float(v.std(ddof=1) / math.sqrt(v.size))


_SEED_MODEL_NOTE = (
    "large-n samples use uniform seed objects (permutations/matchings), "
    "whose graph statistics share the limit of the uniform-graph model"
)


# ---------------------------------------------------------------------------
# Clique densities
# ---------------------------------------------------------------------------


def mc_clique_density(
    family: str,
    n: int,
    k: int,
    reps: int,
    rng: np.random.Generator,
    tol: float | None = None,
    threads: int = 1,
) -> Report:
    """Mean k-clique density of uniform-seed graphs of size n over reps draws.

    Densities are count / binom(n, k); the pass flag compares the mean to
    the exact limit density within tol (default: three standard errors).
    A rep is one seed draw (a permutation of n cells, or a matching of 2n
    cells), so the draws run inline at every allowed n.  Perm reps are
    counted as one stack; circle reps are counted one by one after the
    draws, so one count's n x n tables are alive at a time.
    """
    if family not in ("perm", "circle"):
        raise ValueError("family must be 'perm' or 'circle'")
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    if not 1 <= n <= 3000:
        raise ValueError("n must be in 1..3000")
    if k > n:
        raise ValueError("k must be <= n")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if tol is not None and not tol >= 0:
        raise ValueError("tol must be >= 0")
    if tol is None and reps < 2:
        raise ValueError("reps must be >= 2 unless tol is given")
    master = _master_seed(rng)
    total = math.comb(n, k)

    if family == "perm":
        draws = _map_reps(lambda _, child: combinat.sample_permutation(n, child).mapping, master, reps,
                          _rep_threads(threads, n))
        counts = graphs._inversion_clique_counts(np.array(draws), k)
    else:
        draws = _map_reps(lambda _, child: combinat.sample_matching(n, child), master, reps,
                          _rep_threads(threads, 2 * n))
        counts = [graphs.clique_count_circle(m, k) for m in draws]
    dens = np.asarray([count / total for count in counts])
    mean, se = _mean_se(dens)
    limit = float(graphon.clique_density(family, k))
    eff_tol = tol if tol is not None else 3.0 * max(se, 1e-15)
    return Report(
        name="mc_clique_density",
        params={"family": family, "n": n, "k": k, "reps": reps, "note": _SEED_MODEL_NOTE},
        seed=master,
        estimates=[
            EstimateRecord("density_mean", mean, se),
            EstimateRecord("limit_density", limit, None),
        ],
        passed=abs(mean - limit) <= eff_tol,
        threshold=f"|mean - {limit:.6g}| <= {eff_tol:.3g}",
    )


# ---------------------------------------------------------------------------
# Poisson statistics of matchings
# ---------------------------------------------------------------------------


_XYZ_BLOCK_KEYS = 1 << 17  # sort keys per block of a chunk: 1 MiB of int64, cache-sized


def mc_poisson_xyz(n: int, reps: int, max_moment: int, rng: np.random.Generator, threads: int = 1) -> Report:
    """Empirical law of the (x, y, z) statistics of uniform matchings of size n.

    Reports means, the probability of (0,0,0), and all joint factorial
    moments E[(X)_r (Y)_s (Z)_t] with 1 <= r+s+t <= max_moment; in the limit
    the three statistics are independent Poisson(1), so the means and
    moments approach 1 and the zero probability approaches e^-3.  Matchings
    are drawn in chunks of `chunk_rows`, one child generator per chunk, so
    the chunk size is part of the draw stream: changing it changes the report.
    Each chunk is drawn and reduced to x/y/z in blocks of about
    _XYZ_BLOCK_KEYS sort keys, all from the chunk's generator; `rng.random`
    fills rows in order, so the blocks draw the same numbers as one call and
    are not part of the draw stream.  A block's keys, floats and partners stay
    in cache: on a 2-core host a 1,000-row chunk at n = 2000 takes about
    110 ms at one thread, against 180 ms as one stack, and the traced peak
    is a few blocks (under 4 MiB) rather than a chunk (61 MiB).  A chunk's
    blocks share one set of buffers: fresh arrays per block are faulted in
    again whenever the allocator hands freed pages back to the OS, which it
    does in some processes and not in others, and at n = 2000 those faults
    (about 40,000 a call) took a call from about 0.14 s to 0.20 s.  A rep is
    one chunk of chunk_rows rows of 2n cells (4·10⁶ at n = 2000).
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    master = _master_seed(rng)
    chunk_rows = min(reps, max(1, 4_000_000 // (2 * n)))
    n_chunks = (reps + chunk_rows - 1) // chunk_rows
    block_rows = max(1, _XYZ_BLOCK_KEYS // (2 * n))

    def one(i: int, child: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        rows = min(chunk_rows, reps - i * chunk_rows)
        buffers = _matching_buffers(n, min(block_rows, rows))
        blocks = []
        for lo in range(0, rows, block_rows):
            partner = _sample_matchings_batch(n, min(block_rows, rows - lo), child, buffers)
            blocks.append(_xyz_batch(partner, scratch=buffers[2][: partner.shape[0]]))
        return blocks

    workers = _rep_threads(threads, chunk_rows * 2 * n)
    blocks = itertools.chain.from_iterable(_map_reps(one, master, n_chunks, workers))
    x, y, z = map(np.concatenate, zip(*blocks))

    estimates = []
    ok = True
    for label, arr in (("mean_x", x), ("mean_y", y), ("mean_z", z)):
        mean, se = _mean_se(arr)
        estimates.append(EstimateRecord(label, mean, se))
        ok &= abs(mean - 1.0) <= 0.05
    zero = ((x == 0) & (y == 0) & (z == 0)).astype(np.float64)
    p0, p0_se = _mean_se(zero)
    estimates.append(EstimateRecord("p_xyz_zero", p0, p0_se))
    ok &= abs(p0 - math.exp(-3.0)) <= 0.01

    def falling(arr: np.ndarray, r: int) -> np.ndarray:
        out = np.ones(arr.shape, dtype=np.float64)
        for t in range(r):
            out *= arr - t
        return out

    for r, s, t in itertools.product(range(max_moment + 1), repeat=3):
        if not 1 <= r + s + t <= max_moment:
            continue
        vals = falling(x, r) * falling(y, s) * falling(z, t)
        mean, se = _mean_se(vals)
        estimates.append(EstimateRecord(f"fmom_{r}{s}{t}", mean, se))
        ok &= abs(mean - 1.0) <= 0.1
    return Report(
        name="mc_poisson_xyz",
        params={"n": n, "reps": reps, "max_moment": max_moment},
        seed=master,
        estimates=estimates,
        passed=bool(ok),
        threshold="means within 1±0.05, P(0,0,0) within e^-3±0.01, factorial moments within 1±0.1",
    )


def mc_indecomposable_rate(
    n: int,
    reps: int,
    rng: np.random.Generator,
    threads: int = 1,
) -> Report:
    """Fraction of uniform matchings of size n that are indecomposable.  A
    rep is one matching of 2n cells, so reps run inline below n = 2^17."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    master = _master_seed(rng)

    def one(_: int, child: np.random.Generator) -> float:
        return 1.0 if combinat.is_indecomposable(combinat.sample_matching(n, child)) else 0.0

    flags = np.asarray(_map_reps(one, master, reps, _rep_threads(threads, 2 * n)))
    rate, se = _mean_se(flags)
    limit = math.exp(-3.0)
    passed = abs(rate - limit) <= 0.01 and rate > math.exp(-4.0)
    return Report(
        name="mc_indecomposable_rate",
        params={"n": n, "reps": reps},
        seed=master,
        estimates=[EstimateRecord("indecomposable_rate", rate, se)],
        passed=passed,
        threshold="within e^-3 ± 0.01 and strictly above e^-4",
    )


# ---------------------------------------------------------------------------
# Exhaustive verification suite
# ---------------------------------------------------------------------------


def _canonical_classes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isomorphism classes of a stack of graphs, from their canonical codes.

    Returns each row's class number, with classes numbered in order of first
    appearance, and each class's first row (increasing).
    """
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    return np.argsort(by_first)[inverse], first[by_first]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of entries 0..width: the row read as digits in
    base width + 1, so one-to-one while (width + 1)^width < 2^63 (width <= 15)."""
    weights = (rows.shape[1] + 1) ** np.arange(rows.shape[1], dtype=np.int64)
    return rows @ weights


def _key_index(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position in `keys` (distinct) of each query key; a key missing from
    `keys` gets some position, so compare."""
    order = np.argsort(keys)
    return order[np.minimum(np.searchsorted(keys, query, sorter=order), len(keys) - 1)]


_CUT_SCAN_CHUNK = 1 << 19  # cut set x matching entries per block of the scan


def _matching_cut_scan(partner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every consistent (matching, cut set) pair with k in [2, n-2], scanning
    each matching (1-based partner rows) against every 4-multiset of cut gaps.

    A cut set g1 <= g2 <= g3 <= g4 is consistent with a matching iff the
    matching maps the side (g1, g2] + (g3, g4] onto itself, and k counts the
    chords away from point 1.  With the side as a bitmask over the points,
    the image's bitmask is one matrix product for a block of matchings (sums
    of distinct powers of two below 2^12, exact in float64).  Returns each
    pair's row (int32), cut set (int8) and k (int8), ordered by row.
    """
    two_n = partner.shape[1]
    n = two_n // 2
    pref = np.arange(two_n)[None, :] < np.arange(two_n + 1)[:, None]
    cut_sets = np.array(list(itertools.combinations_with_replacement(range(two_n), 4)), dtype=np.int8)
    masks = np.logical_xor.reduce(pref[cut_sets], axis=1)
    pop = masks.sum(axis=1)
    k_side = np.where(masks[:, 0], n - pop // 2, pop // 2)
    keep = (k_side >= 2) & (k_side <= n - 2)
    cut_sets, masks, k_side = cut_sets[keep], masks[keep], k_side[keep].astype(np.int8)
    side_code = masks @ (1 << np.arange(two_n))
    side_bits = masks.T.astype(np.float64)
    point_bits = np.exp2(partner - 1)
    row, at = [], []
    step = max(1, _CUT_SCAN_CHUNK // max(1, masks.shape[0]))
    for lo in range(0, partner.shape[0], step):
        # flat positions then divmod: row-major like np.nonzero, about 4x faster on 2-D
        r, c = np.divmod(np.flatnonzero(point_bits[lo : lo + step] @ side_bits == side_code), masks.shape[0])
        row.append((r + lo).astype(np.int32))
        at.append(c.astype(np.int32))
    at = np.concatenate(at)
    return np.concatenate(row), cut_sets[at], k_side[at]


def _phi_failure(partner: np.ndarray, cuts: np.ndarray, match_rows: dict[int, np.ndarray]) -> str | None:
    """None iff phi maps the k-decomposed matchings of one k (partner rows
    with their cut sets) one-to-one onto the product set, else the first pair
    whose image is wrong or shared, or the number of images missed.

    The product set is every matching of size n-k+1, marked at the smaller
    end of a chord that misses point 1, times every matching of size k+1,
    both read from the exhaustive lists in `match_rows`.  An image is found
    in those lists, and checked to be there, by its row key.
    """
    big, mark, small = combinat._phi_rows(partner, cuts)
    big_rows, small_rows = match_rows[big.shape[1] // 2], match_rows[small.shape[1] // 2]
    width = big_rows.shape[1]
    marks = (big_rows > np.arange(1, width + 1)) & (np.arange(width) > 0)
    big_keys, small_keys = _row_keys(big_rows), _row_keys(small_rows)
    big_query, small_query = _row_keys(big), _row_keys(small)
    i, j = _key_index(big_keys, big_query), _key_index(small_keys, small_query)
    at = np.clip(mark, 1, width) - 1
    image = (i * width + at) * small_rows.shape[0] + j
    hits = np.bincount(image, minlength=marks.size * small_rows.shape[0])
    wrong = (
        (big_keys[i] != big_query)
        | (small_keys[j] != small_query)
        | (mark != at + 1)
        | ~marks[i, at]
        | (hits[image] != 1)
    )
    if wrong.any():
        t = int(np.flatnonzero(wrong)[0])
        matching = combinat.format_matching(combinat.Matching(tuple(partner[t].tolist())))
        return f"{matching} cuts {tuple(cuts[t].tolist())}"
    missed = int(marks.sum()) * small_rows.shape[0] - image.size
    return f"{missed} images missed" if missed else None


def _edge_count_law_exhaustive(family: str) -> np.ndarray:
    """Edge-count histogram of the size-3 graphs of all the family's seeds of
    size 3 (6 permutations, 15 matchings): the exact law of a uniform seed."""
    if family == "perm":
        adj = graphs._inversion_adj(np.array(list(itertools.permutations((1, 2, 3)))))
    else:
        adj = graphs._circle_adj(combinat._matching_partners(3))
    return np.bincount(adj.sum(axis=(1, 2)) // 2, minlength=4)


def _edge_count_law_order_types(family: str) -> np.ndarray:
    """Edge-count histogram of G(3, W) over every order type of the latent
    coordinates, as integer ranks (no ties): 3! x 3! for perm (a's and b's
    apart), 6! for circle.  The edge rule reads only that order, and every
    order type is equally likely, so this is the exact law of the size-3
    sample (Lovasz, Large Networks and Graph Limits, 2012)."""
    if family == "perm":
        a, b = np.array(list(itertools.product(itertools.permutations(range(3)), repeat=2))).swapaxes(0, 1)
    else:
        a, b = np.moveaxis(np.array(list(itertools.permutations(range(6)))).reshape(-1, 3, 2), -1, 0)
    total = np.zeros(a.shape[0], dtype=np.int64)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        total += graphon._adjacent(family, a[:, i], b[:, i], a[:, j], b[:, j])
    return np.bincount(total, minlength=4)


def exact_enumeration_suite(n_max: int, rng: np.random.Generator | None = None) -> Report:
    """Exhaustive verification of the small-n structural equivalences and
    counting identities.

    Checks (each reported pass/fail, with counterexamples in details):
    simplicity <=> modular primality; the size-4 simple permutations;
    realizer counts and closure for modular-prime permutation graphs and
    split-prime circle graphs; split primality <=> indecomposability; the
    decomposed-matching count formula; the xyz zero <=> not 2/(n-2)-
    decomposable equivalence; the splitting bijection phi, one-to-one from
    the k-decomposed matchings onto the marked (n-k+1)-matchings times the
    (k+1)-matchings, for every n and k; the size-3 graphon sample laws,
    over every order type of the latent coordinates, against the uniform
    seeds' laws;
    connected unit interval graphs having 1 or 2 mirror-paired irreducible
    words; Euler-transform counts of unit interval graphs; the unit interval
    clique counts sum_i binom(f_i, k-1) of every Dyck word, reducible words
    included, for k = 1..n; and the closed-form counting formulas against
    direct enumeration.

    Each family is enumerated as arrays (the matchings and Dyck words once,
    at n_max), and every predicate (simplicity, modular and split
    primality, indecomposability) and the decomposition cut scan run once
    per size on the whole stack; one
    canonical pass per size codes the perm, circle and both unit interval
    stacks together, and phi runs once per size and k.  Each check
    returns its first witness in enumeration order, or None; a seed object
    is built only to format a witness.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > 6:
        raise ValueError("n_max above 6 is not tractable for the exhaustive scans")
    if rng is None:
        rng = np.random.default_rng(0xA11CE)
    master = _master_seed(rng)  # recorded only: every check is exhaustive

    sizes = range(1, n_max + 1)
    perm_rows = {n: np.array(list(itertools.permutations(range(1, n + 1)))) for n in sizes}
    simple = {n: combinat._simple_flags(rows) for n, rows in perm_rows.items()}
    perm_adj = {n: graphs._inversion_adj(rows) for n, rows in perm_rows.items()}
    # the top size's enumerations hold every smaller size, in order: the
    # matchings whose first chord is 1-2 and the Dyck words that begin UD
    match_rows = {n_max: combinat._matching_partners(n_max)}
    dyck = {n_max: combinat._dyck_rows(n_max)}
    for n in range(n_max, 0, -1):
        dyck[n - 1] = dyck[n][dyck[n][:, 1] < 0, 2:]
        if n > 1:
            match_rows[n - 1] = match_rows[n][match_rows[n][:, 0] == 2, 2:] - 2
    circle_adj = {n: graphs._circle_adj(match_rows[n]) for n in sizes}
    modular_prime = {n: graphs._modular_prime_flags(adj) for n, adj in perm_adj.items()}
    split_prime = {n: graphs._split_prime_flags(adj) for n, adj in circle_adj.items()}
    cut_scans = {n: _matching_cut_scan(match_rows[n]) for n in sizes[1:]}
    irreducible = {n: combinat._enclosed_rows(dyck[n - 1]) for n in sizes}
    # one canonical pass per size over the perm, circle, irreducible-UIG and
    # Dyck-UIG stacks, with both word stacks' forward degrees from one pass
    codes, dyck_f, dyck_adj = {}, {}, {}
    for n in sizes:
        f = _heights_arrays(np.concatenate((irreducible[n], dyck[n])))[1]
        stacks = (perm_adj[n], circle_adj[n], graphs._unit_interval_adj(f))
        dyck_f[n], dyck_adj[n] = f[irreducible[n].shape[0] :], stacks[2][irreducible[n].shape[0] :]
        ends = np.cumsum([perm_rows[n].shape[0], match_rows[n].shape[0], irreducible[n].shape[0]])
        parts = np.split(graphs._canonical_codes(np.concatenate(stacks)), ends)
        codes[n] = dict(zip(("perm", "circle", "irreducible", "dyck"), parts))

    def perm_text(n: int, row: int) -> str:
        return combinat.format_permutation(combinat.Permutation(tuple(perm_rows[n][row].tolist())))

    def matching_text(n: int, row: int) -> str:
        return combinat.format_matching(combinat.Matching(tuple(match_rows[n][row].tolist())))

    def simple_iff_modular_prime():
        for n in sizes:
            wrong = np.flatnonzero(simple[n] != modular_prime[n])
            if wrong.size:
                return perm_text(n, wrong[0])

    def simple_size4_classification():
        simples = {"".join(map(str, row)) for row in perm_rows[4][simple[4]].tolist()}
        return None if simples == {"2413", "3142"} else str(sorted(simples))

    # the class records decide every class at once from per-row flags and
    # bincounts over the class numbers; the failing class with the smallest
    # number (first to appear) is the witness

    def class_text(kind: str, n: int, first: np.ndarray, c: int) -> str:
        return graphs._code_text(int(codes[n][kind][first[c]]), n)

    def perm_realizer_bounds():
        for n in sizes:
            labels, first = _canonical_classes(codes[n]["perm"])
            all_simple = np.bincount(labels[~simple[n]], minlength=first.size) == 0
            bad = modular_prime[n][first] & ~((np.bincount(labels) <= 4) & all_simple)
            if bad.any():
                c = int(bad.argmax())
                members = [perm_text(n, r) for r in np.flatnonzero(labels == c)]
                return f"n={n} class {class_text('perm', n, first, c)}: {members}"

    def circle_realizer_bounds():
        # n >= 5 is where the bound bites; a class is closed iff each
        # member's shift and reversal share its class
        for n in sizes[1:]:
            rows_n = match_rows[n]
            labels, first = _canonical_classes(codes[n]["circle"])
            keys = _row_keys(rows_n)
            shifted = labels[_key_index(keys, _row_keys(combinat._rotate_partners(rows_n, 1)))]
            reflected = labels[_key_index(keys, _row_keys(combinat._reverse_partners(rows_n)))]
            stays = (shifted == labels) & (reflected == labels)
            size = np.bincount(labels)
            closed = np.bincount(labels[~stays], minlength=first.size) == 0
            bad = split_prime[n][first] & ~((size <= 4 * n) & closed)
            if bad.any():
                c = int(bad.argmax())
                return f"n={n} class {class_text('circle', n, first, c)}: {size[c]} realizers, closed={closed[c]}"

    def split_prime_iff_indecomposable():
        for n in sizes:
            wrong = np.flatnonzero(split_prime[n] != combinat._indecomposable_rows(match_rows[n]))
            if wrong.size:
                return matching_text(n, wrong[0])

    # the next three read the cut scan's (matching, cut set) pairs: the
    # decomposed-count formula d_n^k = (n-k) m_{k+1} m_{n-k+1}; xyz = 0 iff
    # neither 2- nor (n-2)-decomposable; and phi one-to-one onto its product set
    def decomposed_count_formula():
        for n, (_, _, ks) in cut_scans.items():
            found = np.bincount(ks, minlength=n - 1)
            for k in range(2, n - 1):
                formula = combinat.count_decomposed(n, k)
                if found[k] != formula:
                    return f"n={n} k={k}: scan {found[k]} vs formula {formula}"

    def xyz_zero_iff_not_extreme_decomposable():
        for n in sizes[3:]:
            row, _, ks = cut_scans[n]
            extreme = np.zeros(match_rows[n].shape[0], dtype=bool)
            extreme[row[(ks == 2) | (ks == n - 2)]] = True
            x, y, z = _xyz_batch(match_rows[n] - 1)
            wrong = np.flatnonzero(((x == 0) & (y == 0) & (z == 0)) == extreme)
            if wrong.size:
                return f"n={n}: {matching_text(n, wrong[0])}"

    def phi_bijection():
        for n, (row, cuts, ks) in cut_scans.items():
            rows8 = match_rows[n].astype(np.int8)
            for k in range(2, n - 1):
                witness = _phi_failure(rows8[row[ks == k]], cuts[ks == k], match_rows)
                if witness is not None:
                    return f"n={n} k={k}: {witness}"

    def sample_law_identities():
        # the size-3 graphon law over order types against the uniform seeds'
        # law, compared by integer cross-multiplication
        for family in ("perm", "circle"):
            types, seeds = _edge_count_law_order_types(family), _edge_count_law_exhaustive(family)
            if (types * seeds.sum() != seeds * types.sum()).any():
                return (
                    f"{family}: order types {'/'.join(map(str, types))} of {types.sum()}"
                    f" vs seeds {'/'.join(map(str, seeds))} of {seeds.sum()}"
                )

    def unit_interval_representation():
        # 1 or 2 irreducible words per connected class: one palindromic word
        # or two mirror words, a row's mirror being -row[::-1]
        for n in sizes:
            words = irreducible[n]
            labels, first = _canonical_classes(codes[n]["irreducible"])
            size = np.bincount(labels)
            last = np.argsort(labels, kind="stable")[np.cumsum(size) - 1]
            bad = (size > 2) | (words[first] != -words[last][:, ::-1]).any(axis=1)
            if bad.any():
                c = int(bad.argmax())
                members = [combinat._word_text(w) for w in words[labels == c]]
                return f"n={n} class {class_text('irreducible', n, first, c)}: {members}"
            if first.size != count_connected_unit_interval_graphs(n):
                return f"n={n}: {first.size} classes vs count {count_connected_unit_interval_graphs(n)}"

    def uig_euler_counts():
        # Euler-transform counts vs exhaustive canonical enumeration
        for n in sizes:
            dyck_codes = np.sort(codes[n]["dyck"])
            n_classes = 1 + int(np.count_nonzero(dyck_codes[1:] != dyck_codes[:-1]))  # plain np.unique loads numpy.ma
            if n_classes != count_unit_interval_graphs(n):
                return f"n={n}: {n_classes} classes vs U_n {count_unit_interval_graphs(n)}"

    def unit_interval_clique_formula():
        # sum_i binom(f_i, k-1) against the k-cliques of every Dyck word's
        # graph, reducible words included, for k = 1..n: one scan over all
        # vertex subsets, where a subset is a clique iff each member sees
        # all the others
        for n in sizes:
            members = graphs._subset_masks(n, 1, n).T
            size = members.sum(axis=0)
            flags = graphs._neighbour_count_scan(
                dyck_adj[n],
                members,
                lambda seen, _: ((seen == size - 1) | ~members).all(axis=1),
                np.empty((dyck[n].shape[0], size.size), dtype=bool),
            )
            scan = flags @ (size[:, None] == np.arange(1, n + 1)).astype(np.int64)
            binom = np.array([[math.comb(j, k - 1) for k in range(1, n + 1)] for j in range(n)])
            wrong = np.flatnonzero((scan != binom[dyck_f[n]].sum(axis=1)).any(axis=1))
            if wrong.size:
                return f"n={n} {combinat._word_text(dyck[n][wrong[0]])}"

    def counting_formulas():
        # closed-form counts vs direct enumeration
        for n in sizes:
            rows_n = match_rows[n]
            if rows_n.shape[0] != combinat.count_matchings(n):
                return f"m_{n}"
            if dyck[n].shape[0] != combinat.count_irreducible_dyck(n + 1):
                return f"catalan_{n}"
            pal = int((irreducible[n] == -irreducible[n][:, ::-1]).all(axis=1).sum())
            if pal != combinat.count_palindromic_irreducible(n):
                return f"palindromic_{n}"
            two_n = 2 * n
            for d in range(2, two_n + 1):
                if two_n % d:
                    continue
                fixed = int((combinat._rotate_partners(rows_n, two_n // d) == rows_n).all(axis=1).sum())
                if fixed != combinat.count_symmetric_matchings(n, d):
                    return f"symmetric n={n} d={d}: scan {fixed} vs formula"

    checks = [
        simple_iff_modular_prime,
        simple_size4_classification,
        perm_realizer_bounds,
        circle_realizer_bounds,
        split_prime_iff_indecomposable,
        decomposed_count_formula,
        xyz_zero_iff_not_extreme_decomposable,
        phi_bijection,
        sample_law_identities,
        unit_interval_representation,
        uig_euler_counts,
        unit_interval_clique_formula,
        counting_formulas,
    ]
    if n_max < 4:
        skipped = (simple_size4_classification, xyz_zero_iff_not_extreme_decomposable, phi_bijection)
        checks = [check for check in checks if check not in skipped]
    witnesses = {check.__name__: check() for check in checks}
    counterexamples = {label: w for label, w in witnesses.items() if w is not None}
    return Report(
        name="exact_enumeration_suite",
        params={"n_max": n_max},
        seed=master,
        estimates=[EstimateRecord(label, 1.0 if w is None else 0.0, None) for label, w in witnesses.items()],
        passed=not counterexamples,
        threshold="all exhaustive checks exact",
        details={"counterexamples": counterexamples} if counterexamples else {},
    )


# ---------------------------------------------------------------------------
# Unit interval graph counting and sampling
# ---------------------------------------------------------------------------

# Every table below is a memoized pure function of its size, read-only once
# built, so pool workers share it without a lock; drivers build their top
# size's block table before fanning out, so that no two workers build one at
# once.


def count_connected_unit_interval_graphs(n: int) -> int:
    """C_n: connected unit interval graphs on n vertices (exact integer).

    Every connected class has one or two irreducible Dyck words (mirror
    images), and the palindromic words are the fixed points, so
    C_n = (Catalan(n-1) + binom(n-1, floor((n-1)/2))) / 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (math.comb(2 * n - 2, n - 1) // n + math.comb(n - 1, (n - 1) // 2)) // 2


@functools.cache
def _exact_counts(n: int) -> tuple[int, ...]:
    """U_0..U_n by the Euler transform t U_t = sum_k a_k U_{t-k} with
    a_k = sum_{d|k} d C_d (exact integers)."""
    a = [0] * (n + 1)
    for d in range(1, n + 1):
        dc = d * count_connected_unit_interval_graphs(d)
        for k in range(d, n + 1, d):
            a[k] += dc
    u = [1]
    for t in range(1, n + 1):
        s, r = divmod(sum(map(operator.mul, a[1 : t + 1], reversed(u))), t)
        if r:
            raise AssertionError("Euler recursion must divide exactly")
        u.append(s)
    return tuple(u)


def count_unit_interval_graphs(n: int) -> int:
    """U_n: unit interval graphs on n vertices (exact integer), read from a
    power-of-two table, so that a small n builds a small table and a scan
    over n builds few."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact_counts(1 << n.bit_length())[n]


_DOT_CHUNK = 8192  # below OpenBLAS's 10,000-term threading cutoff for ddot


def _divisor_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (d, j) with d * j <= n, d-major, as two int arrays."""
    per_d = n // np.arange(1, n + 1)
    ds = np.repeat(np.arange(1, n + 1), per_d)
    js = np.arange(1, ds.size + 1) - np.repeat(np.cumsum(per_d) - per_d, per_d)
    return ds, js


def _scaled_euler(b: np.ndarray) -> np.ndarray:
    """V_0..V_n in float64, with V_0 = 1 and t V_t = sum_{k=1..t} b_k V_{t-k}.

    V is built reversed (rev[n - t] = V_t), so that each sum is a dot
    product of two forward slices.  OpenBLAS splits a dot product of more
    than 10,000 terms across its threads, which can change the last bit, so
    each dot covers at most _DOT_CHUNK terms and the partial sums are added
    in order: the result does not depend on the BLAS thread count.
    """
    n = b.size - 1
    rev = np.zeros(n + 1)
    rev[n] = 1.0
    for t in range(1, n + 1):
        bt, vt = b[: t + 1], rev[n - t :]
        s = 0.0
        for lo in range(1, t + 1, _DOT_CHUNK):
            s += bt[lo : lo + _DOT_CHUNK] @ vt[lo : lo + _DOT_CHUNK]
        rev[n - t] = s / t
    return rev[::-1]


@functools.cache
def _log_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log d C_d for d = 0..n, log U_0..log U_n) in float64: C_d by lgamma,
    U_t by the same Euler transform; the sampler's block weights.

    U_t overflows float64 from t = 521, but it grows like 4^t t^(-3/2)
    (Bell, Bender, Cameron and Richmond, Electron. J. Combin. 7, 2000), and
    d C_d like 4^d d^(-1/2).  So the base 4 takes the exponential growth
    out of both: the transform runs in linear float64 on V_t = U_t / 4^t
    (about 0.11 t^(-3/2)) and b_k = a_k / 4^k = sum_{d|k} d C_d / 4^k
    (about 0.07 k^(-1/2)), as t V_t = sum_k b_k V_{t-k} in
    :func:`_scaled_euler`, whose sums do not depend on the BLAS thread
    count.  log U_t = log V_t + t log 4 is taken once at the end.  Every
    term is positive, so plain float64 sums keep the relative error of a
    log-sum-exp without its t exp calls per entry.
    """
    lg = np.array([math.lgamma(m) for m in range(1, 2 * n + 1)])  # lg[m - 1] = lgamma(m)
    k = np.arange(n)  # k = d - 1
    log_cat = lg[2 * k] - lg[k] - lg[k + 1]
    log_bin = lg[k] - lg[k // 2] - lg[k - k // 2]
    log_dc = np.full(n + 1, -np.inf)
    # math.log, not np.log: numpy's SIMD log is not always correctly rounded,
    # and log d C_d sets the block weights bit for bit
    log_d = np.array([math.log(d) for d in range(1, n + 1)])
    log_dc[1:] = log_d + (np.logaddexp(log_cat, log_bin) - math.log(2.0))
    ds, js = _divisor_pairs(n)
    dj = ds * js
    b = np.bincount(dj, weights=np.exp(log_dc[ds] - dj * math.log(4.0)), minlength=n + 1)
    log_u = np.log(_scaled_euler(b)) + np.arange(n + 1) * math.log(4.0)
    log_dc.flags.writeable = log_u.flags.writeable = False
    return log_dc, log_u


@functools.cache
def _block_table(n: int, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (d, j) pairs of one decomposition step at n, d-major, as two
    arrays, and running sums of their weights d * C_d * U_{n-jd} in float64
    (max weight 1), read from the log tables of the sample's size top."""
    ds, js = _divisor_pairs(n)
    log_dc, log_u = _log_counts(top)
    logw = log_dc[ds] + log_u[n - js * ds]
    cum = np.cumsum(np.exp(logw - logw.max()))
    ds.flags.writeable = js.flags.writeable = cum.flags.writeable = False
    return ds, js, cum


def _draw_block(n: int, rng: np.random.Generator, top: int | None = None) -> tuple[int, int]:
    """One multiset-decomposition step: (component size d, copy count j)
    with probability d * C_d * U_{n-jd} / (n * U_n), inside a sample of
    size top (default n)."""
    ds, js, cum = _block_table(n, top or n)
    i = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), ds.size - 1)
    return ds.item(i), js.item(i)


def _connected_uig_steps(n: int, rng: np.random.Generator) -> np.ndarray:
    """Int8 steps of :func:`sample_connected_unit_interval_graph`.  The mirror
    of a is -a[::-1]; D = -1 < U = +1 keeps the lexicographic order."""
    while True:
        a = combinat._irreducible_dyck_steps(n, rng)
        mirrored = -a[::-1]
        differ = np.flatnonzero(a != mirrored)
        if not differ.size:
            return a
        if rng.random() < 0.5:
            return a if a[differ[0]] < mirrored[differ[0]] else mirrored


def sample_connected_unit_interval_graph(n: int, rng: np.random.Generator) -> DyckPath:
    """Canonical irreducible Dyck word of a uniform connected unit interval
    graph class on n vertices.

    A uniform irreducible word is accepted outright if palindromic and with
    probability 1/2 otherwise (each non-palindromic class owns two words);
    the representative is the lexicographically smaller of the word and its
    mirror.  Expected retries < 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return DyckPath(combinat._word_text(_connected_uig_steps(n, rng)))


def _sample_uig_blocks(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    blocks = []
    rem = n
    while rem:
        d, j = _draw_block(rem, rng, n)
        blocks.append((d, j))
        rem -= d * j
    return blocks


def _sample_uig_words(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Int8 steps of the component words of a uniform unit interval graph
    (j copies of one uniform connected class per decomposition step)."""
    words = []
    for d, j in _sample_uig_blocks(n, rng):
        words.extend([_connected_uig_steps(d, rng)] * j)
    return words


def sample_unit_interval_graph(n: int, rng: np.random.Generator) -> UGraph:
    """Representative of a uniform unlabeled unit interval graph on n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # the words in a row are one Dyck word, one component per word
    _, f = _heights_arrays(np.concatenate(_sample_uig_words(n, rng)))
    return UGraph(graphs._unit_interval_adj(f[None])[0])


def largest_component_stats(
    n: int,
    reps: int,
    rng: np.random.Generator,
    deficiency_cutoff: int = 10,
    threads: int = 1,
) -> Report:
    """Empirical law of n - L_n (vertices outside the largest component) for
    uniform unit interval graphs; the component sizes come straight from the
    multiset decomposition.  The reps are Python-bound, so they run inline
    at any ``threads``: a second worker only adds GIL hand-offs."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    if deficiency_cutoff < 0:
        raise ValueError("deficiency_cutoff must be >= 0")
    master = _master_seed(rng)
    _block_table(n, n)

    def one(_: int, child: np.random.Generator) -> int:
        blocks = _sample_uig_blocks(n, child)
        return n - max(d for d, _ in blocks)

    defc = np.asarray(_map_reps(one, master, reps, 1))
    hist = Counter(int(v) for v in defc)
    inside = (defc <= deficiency_cutoff).astype(np.float64)
    p, se = _mean_se(inside)
    return Report(
        name="largest_component_stats",
        params={"n": n, "reps": reps, "deficiency_cutoff": deficiency_cutoff},
        seed=master,
        estimates=[EstimateRecord(f"p_deficiency_le_{deficiency_cutoff}", p, se)],
        passed=p > 0.95,
        threshold=f"P(n - L_n <= {deficiency_cutoff}) > 0.95 (cutoff recorded, not asserted by theory)",
        details={"histogram": {str(k): v for k, v in sorted(hist.items())}},
    )


def mc_unit_clique_scaling(
    n: int,
    k_max: int,
    reps: int,
    m_grid: int,
    rng: np.random.Generator,
    threads: int = 1,
) -> Report:
    """Rescaled clique counts of uniform unit interval graphs against the
    excursion-integral law.

    For each k = 2..k_max the clique count over n^{(k+1)/2} is compared in
    distribution with 2^{(k-1)/2}/(k-1)! times the integral of e^{k-1}, with
    all k computed from the same realization on both sides; reports the
    two-sample KS statistic per k plus the cross-k correlation.  A rep is
    a Dyck word of 2n steps or an excursion of m_grid + 1 values.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 2 <= k_max <= 6:
        raise ValueError("k_max must be in 2..6")
    if reps < 10:
        raise ValueError("reps must be >= 10")
    if m_grid < 2:
        raise ValueError("grid size m must be >= 2")
    master = _master_seed(rng)
    ks_range = range(2, k_max + 1)
    _block_table(n, n)

    def graph_side(child: np.random.Generator) -> list[float]:
        f_all = _heights_arrays(np.concatenate(_sample_uig_words(n, child)))[1].astype(np.float64)
        out = []
        num = np.ones_like(f_all)
        for k in ks_range:
            # sum_i binom(f_i, k-1) via falling factorials, one more factor
            # per k; float64 is ample for a statistic that is immediately
            # rescaled
            num = num * np.maximum(f_all - (k - 2), 0.0)
            total = num.sum() / math.factorial(k - 1)
            out.append(total / n ** ((k + 1) / 2))
        return out

    def excursion_side(child: np.random.Generator) -> list[float]:
        e = mmspace.sample_excursion(m_grid, child)
        out = []
        for k in ks_range:
            coeff = 2 ** ((k - 1) / 2) / math.factorial(k - 1)
            out.append(coeff * mmspace.excursion_integral(e, k - 1))
        return out

    def one(i: int, child: np.random.Generator) -> list[float]:
        return graph_side(child) if i < reps else excursion_side(child)

    # both sides in one call: reps 0..reps-1 are graphs, the rest excursions
    workers = _rep_threads(threads, max(2 * n, m_grid + 1))
    vals = np.asarray(_map_reps(one, (master, master + 1), (reps, reps), workers))
    gvals, evals = vals[:reps], vals[reps:]
    estimates = []
    ok = True
    for col, k in enumerate(ks_range):
        stat = _ks_statistic(gvals[:, col], evals[:, col])
        mg, sg = _mean_se(gvals[:, col])
        me, se_ = _mean_se(evals[:, col])
        estimates.append(EstimateRecord(f"ks_k{k}", stat, None))
        estimates.append(EstimateRecord(f"graph_mean_k{k}", mg, sg))
        estimates.append(EstimateRecord(f"excursion_mean_k{k}", me, se_))
        ok &= stat < 0.05
    if k_max >= 3:
        # a constant column has no correlation: NaN, reported as null
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = float(np.corrcoef(gvals[:, 0], gvals[:, 1])[0, 1])
        estimates.append(EstimateRecord("corr_edges_triangles", corr, None))
        ok &= corr > 0.0
    return Report(
        name="mc_unit_clique_scaling",
        params={"n": n, "k_max": k_max, "reps": reps, "m_grid": m_grid},
        seed=master,
        estimates=estimates,
        passed=bool(ok),
        threshold="two-sample KS < 0.05 per k; positive edge/triangle correlation",
    )


# ---------------------------------------------------------------------------
# Heatmaps
# ---------------------------------------------------------------------------


def heatmap_experiment(
    family: str, n: int, reps: int, rng: np.random.Generator, threads: int = 1
) -> graphon.StepGraphon:
    """Average of degree-descending step graphons of uniform-seed graphs.

    Reps are drawn in chunks of as many reps as stay below _INLINE_CELLS
    cells (6 at n = 200, 1 from n = 512 on), one child generator per chunk,
    so the chunk size is part of the draw stream, as in mc_poisson_xyz; a
    chunk runs inline iff n < 512.  A chunk is one batch-sampler call and one
    stacked bool adjacency; each rep's rows and columns are put in stable
    degree-descending order, and the reps are summed in the smallest integer
    type that holds reps and divided once, which gives the same floats as
    averaging per-rep step graphons.
    """
    if family not in ("perm", "circle"):
        raise ValueError("family must be 'perm' or 'circle'")
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    master = _master_seed(rng)
    chunk_rows = max(1, (_INLINE_CELLS - 1) // (n * n))

    def one(i: int, child: np.random.Generator) -> np.ndarray:
        rows = min(chunk_rows, reps - i * chunk_rows)
        if family == "perm":
            adj = graphs._inversion_adj(combinat._sample_permutations_batch(n, rows, child))
        else:
            adj = graphs._circle_adj(combinat._sample_matchings_batch(n, rows, child) + 1)
        order = np.argsort(-adj.view(np.int8).sum(axis=2, dtype=np.int32), axis=1, kind="stable")
        flat = (order + np.arange(0, rows * n, n)[:, None]).ravel()

        def take_rows(stack: np.ndarray) -> np.ndarray:
            return stack.reshape(rows * n, n).take(flat, 0).reshape(rows, n, n)

        # adj[o][:, o] is symmetric, so it equals adj[o].T[o]: both reorders
        # are row takes over the whole chunk
        return take_rows(take_rows(adj).transpose(0, 2, 1))

    acc = np.zeros((n, n), dtype=graphs._int_type(reps))
    n_chunks = -(-reps // chunk_rows)
    for stack in _map_reps(one, master, n_chunks, _rep_threads(threads, chunk_rows * n * n)):
        for adj in stack:
            acc += adj.view(np.int8)
    cells = acc / reps
    cells.setflags(write=False)
    return graphon.StepGraphon(cells)


# ---------------------------------------------------------------------------
# Formula-vs-oracle harnesses
# ---------------------------------------------------------------------------


def verify_distance_formula(n_max: int, reps: int, rng: np.random.Generator) -> Report:
    """The jump-recursion distance equals BFS on all pairs of random
    irreducible unit interval graphs (sizes 2..n_max)."""
    if n_max < 2 or reps < 1:
        raise ValueError("n_max >= 2 and reps >= 1 required")
    master = _master_seed(rng)
    mismatches = 0
    pairs = 0
    for child in _child_rngs(master, reps):
        n = int(child.integers(2, n_max + 1))
        _, f = _heights_arrays(combinat._irreducible_dyck_steps(n, child))
        bfs = graphs.all_pairs_distances(UGraph(graphs._unit_interval_adj(f[None])[0]))
        verts = np.arange(1, n + 1)
        walk = graphs._table_distances(graphs._distances_from(f, verts), verts)
        pairs += n * (n - 1) // 2
        mismatches += int(np.count_nonzero(np.triu(walk != bfs, 1)))
    return Report(
        name="verify_distance_formula",
        params={"n_max": n_max, "reps": reps},
        seed=master,
        estimates=[
            EstimateRecord("pairs_checked", float(pairs), None),
            EstimateRecord("mismatches", float(mismatches), None),
        ],
        passed=mismatches == 0,
        threshold="0 mismatches",
    )


# ---------------------------------------------------------------------------
# Metric limit checks
# ---------------------------------------------------------------------------


def _two_point_graph_draw(n: int, child: np.random.Generator) -> float:
    _, f = _heights_arrays(combinat._irreducible_dyck_steps(n, child))
    ends = np.sort(child.integers(1, n + 1, size=2))
    return np.count_nonzero(graphs._distances_from(f, ends)[0] < ends[1]) / math.sqrt(n)


def _two_point_excursion_draw(m_grid: int, child: np.random.Generator) -> float:
    e = mmspace.sample_excursion(m_grid, child)
    delta = 1.0 / m_grid
    u, v = np.sort(child.uniform(delta, 1.0 - delta, size=2))
    return mmspace.excursion_distance(e, float(u), float(v), delta) / math.sqrt(2.0)


def verify_gp(
    n_values: Sequence[int],
    delta: float,
    m_grid: int,
    seeds_per_n: int,
    draws: int,
    rng: np.random.Generator,
    threads: int = 1,
    two_point_n: int | None = None,
) -> Report:
    """Metric-measure convergence checks for unit interval graphs.

    Two observables: (a) the two-point law — the rescaled distance between
    two uniform vertices of a size-two_point_n graph (default: the largest
    entry of n_values) against the truncated excursion distance between two
    uniform points, compared by two-sample KS; (b) the coupled box-distance
    discrepancy of gp_box_estimate_unit, whose medians over seeds must all
    be below 0.1 and nonincreasing in n; n_values must be strictly
    increasing.  The box seeds run first: a rep's jump-walk table is the
    box grid's vertices by at most max(n_values) columns.  Then come the
    two-point draws, words of 2 * two_point_n steps and excursions of
    m_grid + 1 values.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if seeds_per_n < 1 or draws < 1:
        raise ValueError("seeds_per_n and draws must be >= 1")
    if min(n_values) < 1 or (two_point_n is not None and two_point_n < 1):
        raise ValueError("n_values and two_point_n must be >= 1")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    xs = mmspace._box_grid(delta, m_grid)  # a bad grid is a usage error before any draw
    master = _master_seed(rng)
    n_big = max(n_values) if two_point_n is None else two_point_n
    sizes = len(n_values)

    def box(i: int, child: np.random.Generator) -> float:
        w = combinat.sample_irreducible_dyck(n_values[sizes - 1 - i // seeds_per_n], child)
        return mmspace.gp_box_estimate_unit(w, True, delta, m_grid, child)[0]

    def two_point(i: int, child: np.random.Generator) -> float:
        return _two_point_graph_draw(n_big, child) if i < draws else _two_point_excursion_draw(m_grid, child)

    # each size and each side of the two-point law keeps its own child seed
    # sequence; the longest box reps start first
    box_masters = tuple(master + 2 + pos for pos in reversed(range(sizes)))
    disc = _map_reps(box, box_masters, (seeds_per_n,) * sizes, _rep_threads(threads, xs.size * max(n_values)))
    pair_workers = _rep_threads(threads, max(2 * n_big, m_grid + 1))
    pair = _map_reps(two_point, (master, master + 1), (draws, draws), pair_workers)
    ks = _ks_statistic(np.asarray(pair[:draws]), np.asarray(pair[draws:]))
    medians = [statistics.median(disc[j : j + seeds_per_n]) for j in range(0, len(disc), seeds_per_n)][::-1]

    nonincreasing = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    estimates = [EstimateRecord("two_point_ks", ks, None)]
    estimates += [
        EstimateRecord(f"median_disc_n{n}", med, None) for n, med in zip(n_values, medians)
    ]
    passed = ks < 0.05 and nonincreasing and all(med < 0.1 for med in medians)
    return Report(
        name="verify_gp",
        params={
            "n_values": list(n_values),
            "two_point_n": n_big,
            "delta": delta,
            "m_grid": m_grid,
            "seeds_per_n": seeds_per_n,
            "draws": draws,
        },
        seed=master,
        estimates=estimates,
        passed=passed,
        threshold="two-point KS < 0.05; discrepancy medians all < 0.1 and nonincreasing in n",
    )
