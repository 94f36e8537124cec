"""Verification harness: exhaustive small-n structure checks and seeded Monte
Carlo reproductions of the limit statements, plus uniform samplers for
connected and general unit interval graphs.

Every experiment is a pure function of its parameters and the state of the
supplied generator: the first action is to draw a 63-bit master seed, which
is recorded in the report and drives per-repetition child streams
(``SeedSequence(master).spawn``).  Aggregation is order-independent, so
results are bit-identical for any thread count.

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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.stats

from . import combinat, graphon, graphs, mmspace
from .combinat import DyckPath, Permutation, _heights_arrays, _sample_matchings_batch, _xyz_batch
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
    "verify_clique_formula",
    "verify_sample_laws",
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
    master: int,
    reps: int,
    threads: int,
) -> list:
    """fn(rep_index, child_rng) for each rep; order of results is by index."""
    rngs = _child_rngs(master, reps)
    if threads <= 1:
        return [fn(i, rngs[i]) for i in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(reps), rngs))


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
    """
    if family not in ("perm", "circle"):
        raise ValueError("family must be 'perm' or 'circle'")
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    if not 1 <= n <= 3000:
        raise ValueError("n must be in 1..3000")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if tol is not None and not tol >= 0:
        raise ValueError("tol must be >= 0")
    if tol is None and reps < 2:
        raise ValueError("reps must be >= 2 unless tol is given")
    master = _master_seed(rng)
    total = math.comb(n, k)

    def one(_: int, child: np.random.Generator) -> float:
        if family == "perm":
            count = graphs.clique_count_inversion(combinat.sample_permutation(n, child), k)
        else:
            count = graphs.clique_count_circle(combinat.sample_matching(n, child), k)
        return count / total

    dens = np.asarray(_map_reps(one, master, reps, threads))
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


def mc_poisson_xyz(n: int, reps: int, max_moment: int, rng: np.random.Generator, threads: int = 1) -> Report:
    """Empirical law of the (x, y, z) statistics of uniform matchings of size n.

    Reports means, the probability of (0,0,0), and all joint factorial
    moments E[(X)_r (Y)_s (Z)_t] with 1 <= r+s+t <= max_moment; in the limit
    the three statistics are independent Poisson(1), so the means and
    moments approach 1 and the zero probability approaches e^-3.  Matchings
    are drawn in chunks of `chunk_rows`, one child generator per chunk, so
    the chunk size is part of the draw stream: changing it changes the report.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    master = _master_seed(rng)
    chunk_rows = max(1, 4_000_000 // (2 * n))
    n_chunks = (reps + chunk_rows - 1) // chunk_rows

    def one(i: int, child: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _xyz_batch(_sample_matchings_batch(n, min(chunk_rows, reps - i * chunk_rows), child))

    parts = _map_reps(one, master, n_chunks, threads)
    x, y, z = map(np.concatenate, zip(*parts))

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
    """Fraction of uniform matchings of size n that are indecomposable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    master = _master_seed(rng)

    def one(_: int, child: np.random.Generator) -> float:
        return 1.0 if combinat.is_indecomposable(combinat.sample_matching(n, child)) else 0.0

    flags = np.asarray(_map_reps(one, master, reps, threads))
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


def _canonical_classes(adj: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Isomorphism classes of a (B, n, n) adjacency stack.

    Returns each row's class number and {canonical code: member rows}, with
    classes numbered and listed in order of first appearance.
    """
    codes = graphs._canonical_codes(adj)
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    labels = np.argsort(by_first)[inverse]
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    texts = (graphs._code_text(int(distinct[k]), adj.shape[-1]) for k in by_first)
    return labels, dict(zip(texts, members))


def _row_index(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position in `rows` of each row of `query` (distinct rows, entries 0..width)."""
    weights = (rows.shape[1] + 1) ** np.arange(rows.shape[1], dtype=np.int64)
    keys = rows @ weights
    order = np.argsort(keys)
    return order[np.searchsorted(keys, query @ weights, sorter=order)]


_CUT_SCAN_CHUNK = 1 << 19  # cut set x matching entries per block of the scan


def _matching_cut_scan(partner: np.ndarray) -> tuple[dict[int, int], int | None]:
    """Scan every matching (1-based partner rows) against every 4-multiset of cut gaps.

    Returns per-k counts of k-decomposed matchings straight from the
    definition, plus the row of the first counterexample (if any) to 'xyz =
    (0,0,0) iff the matching is neither 2- nor (n-2)-decomposable'.  A cut
    set is consistent with a matching iff the matching maps the cut set's
    side onto itself; with the side as a bitmask over the points, the
    image's bitmask is one matrix product for a block of matchings (sums of
    distinct powers of two below 2^12, exact in float64).
    """
    two_n = partner.shape[1]
    n = two_n // 2
    pref = np.arange(two_n)[None, :] < np.arange(two_n + 1)[:, None]
    cut_sets = list(itertools.combinations_with_replacement(range(two_n), 4))
    masks = np.array(
        [pref[g2] ^ pref[g1] ^ pref[g4] ^ pref[g3] for g1, g2, g3, g4 in cut_sets]
    )
    pop = masks.sum(axis=1)
    k_side = np.where(masks[:, 0], n - pop // 2, pop // 2)
    in_range = (k_side >= 2) & (k_side <= n - 2)
    extreme_cut = in_range & ((k_side == 2) | (k_side == n - 2))
    side_code = masks @ (1 << np.arange(two_n))
    side_bits = masks.astype(np.float64)
    point_bits = np.exp2(partner - 1)
    hits = np.zeros(masks.shape[0], dtype=np.int64)  # consistent matchings per cut set
    extreme = np.zeros(partner.shape[0], dtype=bool)
    step = max(1, _CUT_SCAN_CHUNK // masks.shape[0])
    for lo in range(0, partner.shape[0], step):
        consistent = side_bits @ point_bits[lo : lo + step].T == side_code[:, None]
        hits += consistent.sum(axis=1)
        extreme[lo : lo + step] = consistent[extreme_cut].any(axis=0)
    acc = np.bincount(k_side[in_range], weights=hits[in_range], minlength=n - 1)
    counts = {k: int(acc[k]) for k in range(2, n - 1) if acc[k]}
    if n < 4:
        return counts, None
    x, y, z = _xyz_batch(partner - 1)
    wrong = np.flatnonzero(((x == 0) & (y == 0) & (z == 0)) == extreme)
    return counts, int(wrong[0]) if wrong.size else None


def _edge_count_law_exhaustive(family: str) -> np.ndarray:
    """Exact law of the edge count of the size-3 graph of a uniform seed."""
    counts = np.zeros(4)
    if family == "perm":
        for mapping in itertools.permutations((1, 2, 3)):
            g = graphs.inversion_graph(Permutation(mapping))
            counts[g.edge_count()] += 1
    else:
        for m in combinat.iter_matchings(3):
            counts[graphs.circle_graph(m).edge_count()] += 1
    return counts / counts.sum()


def _edge_counts_mc(family: str, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Edge-count histogram of size-3 graphon samples, vectorized."""
    if family == "perm":
        a, b = rng.random((2, draws, 3))
    else:
        a, b = np.moveaxis(rng.random((draws, 3, 2)), -1, 0)
    total = np.zeros(draws, dtype=np.int64)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        total += graphon._adjacent(family, a[:, i], b[:, i], a[:, j], b[:, j])
    return np.bincount(total, minlength=4).astype(np.float64)


def verify_sample_laws(draws: int, rng: np.random.Generator) -> Report:
    """Chi-square check that size-3 graphon samples follow the exhaustive
    uniform-seed graph laws (on 3 vertices the isomorphism class is the
    edge count)."""
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    master = _master_seed(rng)
    child = np.random.default_rng(master)
    estimates = []
    ok = True
    for family in ("perm", "circle"):
        expected = _edge_count_law_exhaustive(family) * draws
        observed = _edge_counts_mc(family, draws, child)
        keep = expected > 0
        stat, pval = scipy.stats.chisquare(observed[keep], expected[keep])
        estimates.append(EstimateRecord(f"chisq_p_{family}", float(pval), None))
        ok &= pval > 1e-3
    return Report(
        name="verify_sample_laws",
        params={"draws": draws},
        seed=master,
        estimates=estimates,
        passed=bool(ok),
        threshold="chi-square p > 1e-3 for both families",
    )


def exact_enumeration_suite(n_max: int, rng: np.random.Generator | None = None) -> Report:
    """Exhaustive verification of the small-n structural equivalences and
    counting identities.

    Checks (each reported pass/fail, with counterexamples in details):
    simplicity <=> modular primality; the size-4 simple permutations;
    realizer counts and closure for modular-prime permutation graphs and
    split-prime circle graphs; split primality <=> indecomposability; the
    decomposed-matching count formula; the xyz zero <=> not 2/(n-2)-
    decomposable equivalence; size-3 graphon sample laws; connected unit
    interval graphs having 1 or 2 mirror-paired irreducible words; Euler-
    transform counts of unit interval graphs; and the closed-form counting
    formulas against direct enumeration.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > 6:
        raise ValueError("n_max above 6 is not tractable for the exhaustive scans")
    if rng is None:
        rng = np.random.default_rng(0xA11CE)
    master = _master_seed(rng)
    child = np.random.default_rng(master)
    results: dict[str, bool] = {}
    counterexamples: dict[str, str] = {}

    def record(label: str, ok: bool, witness: str | None = None) -> None:
        results[label] = bool(ok)
        if not ok and witness:
            counterexamples[label] = witness

    # Each family is enumerated once per size, as arrays, and every section
    # reuses it; the per-seed predicates under test still see every seed in
    # order, and indecomposability is checked by its stacked rule.
    sizes = range(1, n_max + 1)
    perm_rows = {n: np.array(list(itertools.permutations(range(1, n + 1)))) for n in sizes}
    perms = {n: [Permutation(tuple(r)) for r in rows.tolist()] for n, rows in perm_rows.items()}
    perm_adj = {n: graphs._inversion_adj(rows) for n, rows in perm_rows.items()}
    match_rows = {n: combinat._matching_partners(n) for n in sizes}
    circle_adj = {n: graphs._circle_adj(rows) for n, rows in match_rows.items()}
    split_prime = {n: graphs._split_prime_flags(adj) for n, adj in circle_adj.items()}
    dyck = {n: list(combinat.iter_dyck_paths(n)) for n in sizes}
    irreducible = {n: list(combinat.iter_irreducible_dyck(n)) for n in sizes}

    def matching_text(n: int, row: int) -> str:
        return combinat.format_matching(combinat.Matching(tuple(match_rows[n][row].tolist())))

    def uig_adj(words: list[DyckPath]) -> np.ndarray:
        return graphs._unit_interval_adj(np.array([_heights_arrays(w.steps)[1] for w in words]))

    # --- simplicity <=> modular primality, and the size-4 classification
    bad = None
    for n in sizes:
        for p, adj in zip(perms[n], perm_adj[n]):
            if combinat.is_simple(p) != graphs.is_modular_prime(UGraph(adj)):
                bad = combinat.format_permutation(p)
                break
        if bad:
            break
    record("simple_iff_modular_prime", bad is None, bad)
    if n_max >= 4:
        simples = {
            "".join(map(str, mp))
            for mp in itertools.permutations((1, 2, 3, 4))
            if combinat.is_simple(Permutation(mp))
        }
        record("simple_size4_classification", simples == {"2413", "3142"}, str(sorted(simples)))

    # --- permutation realizer bounds over S_n
    bad = None
    for n in sizes:
        _, classes = _canonical_classes(perm_adj[n])
        for code, rows in classes.items():
            if not graphs.is_modular_prime(UGraph(perm_adj[n][rows[0]])):
                continue
            members = [perms[n][r] for r in rows]
            if not 1 <= len(members) <= 4 or not all(combinat.is_simple(p) for p in members):
                bad = f"n={n} class {code}: {[combinat.format_permutation(p) for p in members]}"
                break
        if bad:
            break
    record("perm_realizer_bounds", bad is None, bad)

    # --- circle realizer bounds over M_n (n >= 5 is where the bound bites):
    #     a class is closed iff each member's shift and reversal share its class
    bad = None
    for n in sizes[1:]:
        rows_n = match_rows[n]
        labels, classes = _canonical_classes(circle_adj[n])
        shifted = labels[_row_index(rows_n, combinat._rotate_partners(rows_n, 1))]
        reflected = labels[_row_index(rows_n, combinat._reverse_partners(rows_n))]
        stays = (shifted == labels) & (reflected == labels)
        for code, rows in classes.items():
            if not split_prime[n][rows[0]]:
                continue
            closed = bool(stays[rows].all())
            if not 1 <= len(rows) <= 4 * n or not closed:
                bad = f"n={n} class {code}: {len(rows)} realizers, closed={closed}"
                break
        if bad:
            break
    record("circle_realizer_bounds", bad is None, bad)

    # --- split primality <=> indecomposability
    bad = None
    for n in sizes:
        wrong = np.flatnonzero(split_prime[n] != combinat._indecomposable_rows(match_rows[n]))
        if wrong.size:
            bad = matching_text(n, int(wrong[0]))
            break
    record("split_prime_iff_indecomposable", bad is None, bad)

    # --- decomposed-count formula d_n^k = (n-k) m_{k+1} m_{n-k+1}, and
    #     xyz = 0 iff neither 2- nor (n-2)-decomposable (same cut scan)
    bad = None
    xyz_bad = None
    for n in sizes[1:]:
        found, witness = _matching_cut_scan(match_rows[n])
        if xyz_bad is None and witness is not None:
            xyz_bad = f"n={n}: {matching_text(n, witness)}"
        for k in range(2, n - 1):
            if found.get(k, 0) != combinat.count_decomposed(n, k):
                bad = f"n={n} k={k}: scan {found.get(k, 0)} vs formula {combinat.count_decomposed(n, k)}"
                break
        if bad:
            break
    record("decomposed_count_formula", bad is None, bad)
    if n_max >= 4:
        record("xyz_zero_iff_not_extreme_decomposable", xyz_bad is None, xyz_bad)

    # --- graphon sample laws at size 3
    laws = verify_sample_laws(100_000, child)
    record(
        "sample_law_identities",
        bool(laws.passed),
        "; ".join(f"{e.label}={e.value:.2e}" for e in laws.estimates),
    )

    # --- connected unit interval graphs: 1 or 2 irreducible words, mirrors
    bad = None
    for n in sizes:
        _, classes = _canonical_classes(uig_adj(irreducible[n]))
        for code, rows in classes.items():
            words = [irreducible[n][r] for r in rows]
            if len(words) == 1 and combinat.is_palindromic(words[0]):
                continue
            if len(words) == 2 and combinat.mirror(words[0]) == words[1]:
                continue
            bad = f"n={n} class {code}: {[w.steps for w in words]}"
            break
        if bad:
            break
        if len(classes) != count_connected_unit_interval_graphs(n):
            bad = f"n={n}: {len(classes)} classes vs count {count_connected_unit_interval_graphs(n)}"
            break
    record("unit_interval_representation", bad is None, bad)

    # --- Euler-transform counts vs exhaustive canonical enumeration
    bad = None
    for n in sizes:
        n_classes = np.unique(graphs._canonical_codes(uig_adj(dyck[n]))).size
        if n_classes != count_unit_interval_graphs(n):
            bad = f"n={n}: {n_classes} classes vs U_n {count_unit_interval_graphs(n)}"
            break
    record("uig_euler_counts", bad is None, bad)

    # --- closed-form counts vs direct enumeration
    bad = None
    for n in sizes:
        rows_n = match_rows[n]
        if rows_n.shape[0] != combinat.count_matchings(n):
            bad = f"m_{n}"
            break
        if len(dyck[n]) != combinat.count_irreducible_dyck(n + 1):
            bad = f"catalan_{n}"
            break
        pal = sum(1 for w in irreducible[n] if combinat.is_palindromic(w))
        if pal != combinat.count_palindromic_irreducible(n):
            bad = f"palindromic_{n}"
            break
        two_n = 2 * n
        for d in range(2, two_n + 1):
            if two_n % d:
                continue
            fixed = int((combinat._rotate_partners(rows_n, two_n // d) == rows_n).all(axis=1).sum())
            if fixed != combinat.count_symmetric_matchings(n, d):
                bad = f"symmetric n={n} d={d}: scan {fixed} vs formula"
                break
        if bad:
            break
    record("counting_formulas", bad is None, bad)

    estimates = [EstimateRecord(label, 1.0 if ok else 0.0, None) for label, ok in results.items()]
    return Report(
        name="exact_enumeration_suite",
        params={"n_max": n_max},
        seed=master,
        estimates=estimates,
        passed=all(results.values()),
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


@functools.cache
def _log_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log d C_d for d = 0..n, log U_0..log U_n) in float64: C_d by lgamma,
    U_t by the same Euler transform; the sampler's block weights."""
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
    log_dc.flags.writeable = log_u.flags.writeable = False
    return log_dc, log_u


@functools.cache
def _block_table(n: int, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (d, j) pairs of one decomposition step at n, d-major, as two
    arrays, and running sums of their weights d * C_d * U_{n-jd} in float64
    (max weight 1), read from the log tables of the sample's size top."""
    per_d = n // np.arange(1, n + 1)
    ds = np.repeat(np.arange(1, n + 1), per_d)
    js = np.arange(1, ds.size + 1) - np.repeat(np.cumsum(per_d) - per_d, per_d)
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
    multiset decomposition."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    if deficiency_cutoff < 0:
        raise ValueError("deficiency_cutoff must be >= 0")
    master = _master_seed(rng)
    _block_table(n, n)

    def one(_: int, child: np.random.Generator) -> int:
        blocks = _sample_uig_blocks(n, child)
        return n - max(d for d, _ in blocks)

    defc = np.asarray(_map_reps(one, master, reps, threads))
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
    two-sample KS statistic per k plus the cross-k correlation.
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

    def graph_side(_: int, child: np.random.Generator) -> list[float]:
        f_all = _heights_arrays(np.concatenate(_sample_uig_words(n, child)))[1].astype(np.float64)
        out = []
        for k in ks_range:
            # sum_i binom(f_i, k-1) via falling factorials; float64 is ample
            # for a statistic that is immediately rescaled
            num = np.ones_like(f_all)
            for t in range(k - 1):
                num = num * np.maximum(f_all - t, 0.0)
            total = num.sum() / math.factorial(k - 1)
            out.append(total / n ** ((k + 1) / 2))
        return out

    def excursion_side(_: int, child: np.random.Generator) -> list[float]:
        e = mmspace.sample_excursion(m_grid, child)
        out = []
        for k in ks_range:
            coeff = 2 ** ((k - 1) / 2) / math.factorial(k - 1)
            out.append(coeff * mmspace.excursion_integral(e, k - 1))
        return out

    gvals = np.asarray(_map_reps(graph_side, master, reps, threads))
    evals = np.asarray(_map_reps(excursion_side, master + 1, reps, threads))
    estimates = []
    ok = True
    for col, k in enumerate(ks_range):
        stat = float(scipy.stats.ks_2samp(gvals[:, col], evals[:, col]).statistic)
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
    """Average of degree-descending step graphons of uniform-seed graphs."""
    if family not in ("perm", "circle"):
        raise ValueError("family must be 'perm' or 'circle'")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    master = _master_seed(rng)

    def one(_: int, child: np.random.Generator) -> np.ndarray:
        if family == "perm":
            g = graphs.inversion_graph(combinat.sample_permutation(n, child))
        else:
            g = graphs.circle_graph(combinat.sample_matching(n, child))
        order = np.argsort(-g.degrees(), kind="stable") + 1
        return graphon.step_graphon(g, order).cells

    acc = np.zeros((n, n))
    for cells in _map_reps(one, master, reps, threads):
        acc += cells
    return graphon.StepGraphon(acc / reps)


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
        w = combinat.sample_irreducible_dyck(n, child)
        _, f = _heights_arrays(w.steps)
        bfs = graphs.all_pairs_distances(graphs.unit_interval_graph(w))
        upper = np.triu_indices(n, 1)
        verts = np.arange(1, n + 1)
        walk = graphs._table_distances(graphs._distances_from(f, verts), verts)
        pairs += upper[0].size
        mismatches += int(np.count_nonzero(walk[upper] != bfs[upper]))
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


def verify_clique_formula(
    n_max: int, k_max: int, reps: int, rng: np.random.Generator
) -> Report:
    """sum_i binom(f(i), k-1) equals subset-oracle clique counts on random
    Dyck paths (reducible words included)."""
    if n_max < 1 or k_max < 1 or reps < 1:
        raise ValueError("n_max, k_max, reps must be >= 1")
    master = _master_seed(rng)
    mismatches = 0
    checks = 0
    for child in _child_rngs(master, reps):
        n = int(child.integers(1, n_max + 1))
        w = combinat.sample_dyck(n, child)
        g = graphs.unit_interval_graph(w)
        for k in range(1, k_max + 1):
            checks += 1
            if graphs.count_cliques(g, k) != graphs.count_cliques_unit(w, k):
                mismatches += 1
    return Report(
        name="verify_clique_formula",
        params={"n_max": n_max, "k_max": k_max, "reps": reps},
        seed=master,
        estimates=[
            EstimateRecord("checks", float(checks), None),
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
    be below 0.1 and nonincreasing along n_values.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if seeds_per_n < 1 or draws < 1:
        raise ValueError("seeds_per_n and draws must be >= 1")
    if min(n_values) < 1 or (two_point_n is not None and two_point_n < 1):
        raise ValueError("n_values and two_point_n must be >= 1")
    mmspace._box_grid(delta, m_grid)  # a bad grid is a usage error before any draw
    master = _master_seed(rng)
    n_big = max(n_values) if two_point_n is None else two_point_n

    gdists = np.asarray(
        _map_reps(lambda _, c: _two_point_graph_draw(n_big, c), master, draws, threads)
    )
    edists = np.asarray(
        _map_reps(lambda _, c: _two_point_excursion_draw(m_grid, c), master + 1, draws, threads)
    )
    ks = float(scipy.stats.ks_2samp(gdists, edists).statistic)

    medians = []
    for pos, n in enumerate(n_values):
        def one(_: int, child: np.random.Generator) -> float:
            w = combinat.sample_irreducible_dyck(n, child)
            disc, _ = mmspace.gp_box_estimate_unit(w, True, delta, m_grid, child)
            return disc

        discs = np.asarray(_map_reps(one, master + 2 + pos, seeds_per_n, threads))
        medians.append(float(np.median(discs)))

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
