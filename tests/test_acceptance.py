"""Acceptance suite: fourteen exact and statistical criteria, one test (and
one printed pass/fail line) per criterion.

Exact criteria (1-7, 13) compare formulas and predicates with no tolerance:
criterion 1 on seeded random unit interval graphs, the others read records
of one exhaustive enumeration to size 6 (criterion 7's size-3 graphon law
over every order type of the latent coordinates).  Statistical criteria
(8-12, 14) run frozen-seed Monte Carlo and check estimates against their
limit values at stated tolerances.  Every run is deterministic: seeds are
fixed and the thread count does not change any reported number.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from graphlim import combinat, experiments


def _line(num: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {verdict} — {text}")
    assert ok, f"criterion {num}: {verdict} — {text}"


def _flag(report, label: str) -> bool:
    return report.get(label).value == 1.0


@pytest.fixture(scope="module")
def suite6():
    t0 = time.perf_counter()
    report = experiments.exact_enumeration_suite(6)
    return report, time.perf_counter() - t0


def test_criterion_01_distance_formula_oracle():
    t0 = time.perf_counter()
    rep = experiments.verify_distance_formula(200, 200, np.random.default_rng(101))
    elapsed = time.perf_counter() - t0
    ok = bool(rep.passed) and elapsed < 60.0
    _line(
        1,
        ok,
        f"jump-walk distance formula vs BFS: {int(rep.get('pairs_checked').value)} pairs, "
        f"{int(rep.get('mismatches').value)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_clique_formula_oracle(suite6):
    report, _ = suite6
    ok = _flag(report, "unit_interval_clique_formula")
    _line(2, ok, "clique-count formula sum_i C(f_i, k-1) vs subset scan: every Dyck word to size 6, every k")


def test_criterion_03_split_prime_iff_indecomposable(suite6):
    report, elapsed = suite6
    ok = _flag(report, "split_prime_iff_indecomposable") and elapsed < 300.0
    _line(3, ok, f"split-prime ⇔ indecomposable over all matchings to size 6 ({elapsed:.1f}s)")


def test_criterion_04_realizer_bounds(suite6):
    report, _ = suite6
    ok = _flag(report, "perm_realizer_bounds") and _flag(report, "circle_realizer_bounds")
    _line(4, ok, "realizer counts: 1-4 simple permutations; 1..4n matchings, shift/reversal-closed")


def test_criterion_05_decomposed_count_formula(suite6):
    report, _ = suite6
    ok = (
        _flag(report, "decomposed_count_formula")
        and _flag(report, "phi_bijection")
        and combinat.count_decomposed(4, 2) == 450
    )
    _line(
        5,
        ok,
        "decomposed-matching counts match (n-k) m_{k+1} m_{n-k+1}, incl. d_4^2 = 450; "
        "phi is one-to-one onto marked (n-k+1)- times (k+1)-matchings",
    )


def test_criterion_06_xyz_iff_decomposable(suite6):
    report, _ = suite6
    ok = _flag(report, "xyz_zero_iff_not_extreme_decomposable")
    _line(6, ok, "x=y=z=0 ⇔ neither 2- nor (n-2)-decomposable, exhaustive to size 6")


def test_criterion_07_sample_law_identities(suite6):
    report, _ = suite6
    ok = _flag(report, "sample_law_identities")
    _line(7, ok, "graphon sampling laws at size 3 over every order type equal the uniform seeds' laws")


def test_criterion_08_clique_densities():
    rng = np.random.default_rng(108)
    cases = [
        ("perm", 2, 0.5, 0.01),
        ("perm", 3, 1 / 6, 0.01),
        ("circle", 2, 1 / 3, 0.01),
        ("circle", 3, 1 / 15, 0.005),
    ]
    ok = True
    parts = []
    for family, k, limit, tol in cases:
        rep = experiments.mc_clique_density(family, 1000, k, 50, rng, tol=tol, threads=4)
        mean = rep.get("density_mean").value
        ok &= bool(rep.passed) and abs(mean - limit) <= tol
        parts.append(f"{family} k={k}: {mean:.4f} (limit {limit:.4f} ± {tol})")
    _line(8, ok, "; ".join(parts))


def test_criterion_09_poisson_limit():
    rep = experiments.mc_poisson_xyz(2000, 100_000, 3, np.random.default_rng(109), threads=4)
    means = [rep.get(f"mean_{c}").value for c in "xyz"]
    p0 = rep.get("p_xyz_zero").value
    fmoms = [e.value for e in rep.estimates if e.label.startswith("fmom_")]
    ok = (
        bool(rep.passed)
        and all(abs(v - 1.0) <= 0.05 for v in means)
        and abs(p0 - math.exp(-3.0)) <= 0.01
        and all(abs(v - 1.0) <= 0.1 for v in fmoms)
    )
    _line(
        9,
        ok,
        f"xyz means {means[0]:.3f}/{means[1]:.3f}/{means[2]:.3f}, "
        f"P(0,0,0) = {p0:.4f} vs e^-3 = {math.exp(-3):.4f}, "
        f"{len(fmoms)} factorial moments within 1±0.1",
    )


def test_criterion_10_indecomposability_rate():
    rep = experiments.mc_indecomposable_rate(1000, 2000, np.random.default_rng(110), threads=4)
    rate = rep.get("indecomposable_rate").value
    ok = bool(rep.passed) and abs(rate - math.exp(-3.0)) <= 0.01 and rate > math.exp(-4.0)
    _line(10, ok, f"indecomposable fraction {rate:.4f} vs e^-3 = {math.exp(-3):.4f} (> e^-4)")


def test_criterion_11_unit_interval_metric_limit():
    rep = experiments.verify_gp(
        (1000, 4000, 16000),
        delta=0.05,
        m_grid=2048,
        seeds_per_n=60,
        draws=10_000,
        rng=np.random.default_rng(111),
        threads=4,
        two_point_n=10_000,
    )
    ks = rep.get("two_point_ks").value
    medians = [rep.get(f"median_disc_n{n}").value for n in (1000, 4000, 16000)]
    ok = (
        bool(rep.passed)
        and ks < 0.05
        and all(m < 0.1 for m in medians)
        and medians[0] >= medians[1] >= medians[2]
    )
    _line(
        11,
        ok,
        f"two-point KS = {ks:.4f} (< 0.05); box-discrepancy medians "
        f"{medians[0]:.4f} ≥ {medians[1]:.4f} ≥ {medians[2]:.4f} (all < 0.1)",
    )


def test_criterion_12_clique_scaling():
    rep = experiments.mc_unit_clique_scaling(
        10_000, 3, 2000, 32_768, np.random.default_rng(112), threads=4
    )
    ks2 = rep.get("ks_k2").value
    ks3 = rep.get("ks_k3").value
    ok = bool(rep.passed) and ks2 < 0.05 and ks3 < 0.05
    _line(
        12,
        ok,
        f"clique scaling vs 2^((k-1)/2)/(k-1)! · X_(k-1): KS = {ks2:.4f} (k=2), "
        f"{ks3:.4f} (k=3), both < 0.05",
    )


def test_criterion_13_counting_cross_checks(suite6):
    report, _ = suite6
    ok = _flag(report, "counting_formulas") and _flag(report, "uig_euler_counts")
    _line(
        13,
        ok,
        "double factorial, Catalan, palindromic, symmetric, and Euler-transform "
        "counts match exhaustive enumeration to size 6",
    )


def test_criterion_14_largest_component():
    rep = experiments.largest_component_stats(2000, 2000, np.random.default_rng(114), threads=4)
    p = rep.get("p_deficiency_le_10").value
    ok = bool(rep.passed) and p > 0.95
    _line(14, ok, f"P(n - L_n <= 10) = {p:.4f} > 0.95 at n = 2000")
