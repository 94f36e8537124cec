"""Experiment harnesses: exact counting sequences, the uniform unit interval
graph sampler, Monte Carlo drivers, report schema, and determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from graphlim import combinat as C
from graphlim import experiments as X
from graphlim import graphs as G
from graphlim import graphon

import oracles
from oracles import all_dyck_words, brute_irreducible, sequential_pairing


def _mirror_word(word: str) -> str:
    return word[::-1].translate(str.maketrans("UD", "DU"))


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------


def test_connected_counts_frozen():
    assert [X.count_connected_unit_interval_graphs(n) for n in range(1, 7)] == [
        1,
        1,
        2,
        4,
        10,
        26,
    ]


def test_connected_counts_match_word_classes():
    # C_n is the number of irreducible Dyck words of size n up to mirror image
    for n in range(1, 8):
        words = [w for w in all_dyck_words(n) if brute_irreducible(w)]
        classes = {min(w, _mirror_word(w)) for w in words}
        assert X.count_connected_unit_interval_graphs(n) == len(classes)


def test_unit_interval_counts_frozen():
    assert [X.count_unit_interval_graphs(n) for n in range(0, 11)] == [
        1,
        1,
        2,
        4,
        9,
        21,
        55,
        151,
        447,
        1389,
        4502,
    ]


def test_unit_interval_counts_match_multiset_product():
    # independent route: coefficients of prod_d (1 - x^d)^{-C_d}
    n_max = 12
    coeffs = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        c = X.count_connected_unit_interval_graphs(d)
        new = [0] * (n_max + 1)
        for i, a in enumerate(coeffs):
            if a:
                j = 0
                while i + d * j <= n_max:
                    new[i + d * j] += a * math.comb(c + j - 1, j)
                    j += 1
        coeffs = new
    for n in range(n_max + 1):
        assert X.count_unit_interval_graphs(n) == coeffs[n]


def test_count_validation():
    with pytest.raises(ValueError):
        X.count_connected_unit_interval_graphs(0)
    with pytest.raises(ValueError):
        X.count_unit_interval_graphs(-1)


def test_log_tables_match_exact_counts():
    log_dc, log_u = X._log_counts(1024)
    u = X._exact_counts(1024)
    for n in (1, 2, 10, 57, 137, 300, 600, 1000, 1024):
        assert log_u[n] == pytest.approx(math.log(u[n]), rel=1e-12)
        assert log_dc[n] == pytest.approx(math.log(n * X.count_connected_unit_interval_graphs(n)), rel=1e-12)
    assert u[300] == X.count_unit_interval_graphs(300)


def test_log_tables_are_prefixes_of_larger_tables():
    # a sample of size m reads the table of size m, a larger sample reads
    # the same entries from its own table: both must give the same bits
    big_dc, big_u = X._log_counts(10_000)
    for m in (1, 2, 600, 601, 2000):
        log_dc, log_u = X._log_counts(m)
        assert log_dc.tobytes() == big_dc[: m + 1].tobytes()
        assert log_u.tobytes() == big_u[: m + 1].tobytes()


def test_log_tables_match_log_sum_exp_oracle():
    ref_dc, ref_u = oracles.log_unit_interval_counts(3000)
    log_dc, log_u = X._log_counts(3000)
    np.testing.assert_array_equal(log_dc, ref_dc)
    np.testing.assert_allclose(log_u, ref_u, rtol=1e-14, atol=0)


_TABLE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from graphlim import experiments as X
b = np.concatenate(([0.0], 0.125 / np.sqrt(np.arange(1.0, 12_001.0))))
print(hashlib.sha256(b"".join(t.tobytes() for t in X._log_counts(12_000))).hexdigest())
print(hashlib.sha256(X._scaled_euler(b).tobytes()).hexdigest())
"""


def test_log_tables_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 terms across its
    # threads, which can change the last bit of the sum.  The final log
    # absorbs most last-bit changes of V, so V itself is hashed as well.
    src = Path(X.__file__).resolve().parent.parent
    digests = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": blas_threads}
        proc = subprocess.run(
            [sys.executable, "-c", _TABLE_DIGEST_SCRIPT], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]


def test_memoized_tables_are_read_only():
    # pool workers share every table without a lock, so none can be written
    u = X._exact_counts(12)
    log_dc, log_u = X._log_counts(700)
    assert X._exact_counts(12) is X._exact_counts(12)
    assert isinstance(u, tuple) and len(u) == 13
    with pytest.raises(TypeError):
        u[1] = 0
    for table in (log_dc, log_u, *X._block_table(12, 12), *X._block_table(650, 700)):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0


# ---------------------------------------------------------------------------
# uniform samplers
# ---------------------------------------------------------------------------


def test_sample_connected_uig_is_canonical_word():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = X.sample_connected_unit_interval_graph(9, rng)
        assert w.is_irreducible()
        assert w.steps <= _mirror_word(w.steps)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
def test_dyck_draw_stream_matches_string_reference(n):
    # the int8 step rule draws the words of the fair-bits string rule and
    # leaves the generator where the string rule leaves it
    samplers = [
        (C.sample_dyck, oracles.fair_bits_dyck_word),
        (C.sample_irreducible_dyck, oracles.irreducible_dyck_word),
        (X.sample_connected_unit_interval_graph, oracles.connected_uig_word),
    ]
    for seed in range(4):
        for ours, reference in samplers:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert [ours(n, rng).steps for _ in range(3)] == [reference(n, ref) for _ in range(3)]
            assert rng.bit_generator.state == ref.bit_generator.state
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        words = [C._word_text(a) for a in X._sample_uig_words(n, rng)]
        expected = [
            word for d, j in X._sample_uig_blocks(n, ref) for word in [oracles.connected_uig_word(d, ref)] * j
        ]
        assert words == expected
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_connected_uig_uniform_over_classes():
    rng = np.random.default_rng(1)
    n, draws = 5, 12000
    counts: dict[str, int] = {}
    for _ in range(draws):
        w = X.sample_connected_unit_interval_graph(n, rng)
        counts[w.steps] = counts.get(w.steps, 0) + 1
    assert len(counts) == X.count_connected_unit_interval_graphs(n)  # 10 classes
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


def test_sample_uig_uniform_over_isomorphism_classes():
    # the multiset of canonical component words determines the class exactly
    rng = np.random.default_rng(2)
    n, draws = 5, 10500
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        key = tuple(sorted(C._word_text(a) for a in X._sample_uig_words(n, rng)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == X.count_unit_interval_graphs(n)  # 21 classes
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


def test_sample_uig_components_are_consecutive_blocks():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = X.sample_unit_interval_graph(n, rng)
        assert g.n == n
        comps = oracles.components(n, {frozenset(e) for e in g.edges()})
        assert sum(len(c) for c in comps) == n
        for comp in comps:
            vs = sorted(comp)
            assert vs == list(range(vs[0], vs[-1] + 1))


def test_log_path_sampler_runs_above_exact_cutoff():
    rng = np.random.default_rng(4)
    n = 637
    g = X.sample_unit_interval_graph(n, rng)
    assert g.n == n
    w = X.sample_connected_unit_interval_graph(n, rng)
    assert w.size == n and w.is_irreducible()


def _assert_block_law(n: int, rng: np.random.Generator) -> None:
    # P(d, j) = d * C_d * U_{n-jd} / (n * U_n), checked empirically; pairs
    # expected fewer than 5 times are pooled into one cell
    u = X.count_unit_interval_graphs
    c = X.count_connected_unit_interval_graphs
    expected = {}
    for d in range(1, n + 1):
        for j in range(1, n // d + 1):
            expected[(d, j)] = d * c(d) * u(n - j * d) / (n * u(n))
    draws = 20000
    seen: dict[tuple[int, int], int] = {}
    for _ in range(draws):
        key = X._draw_block(n, rng)
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= set(expected)
    keys = sorted(k for k in expected if expected[k] * draws >= 5)
    rest = [k for k in expected if k not in keys]
    observed = [seen.get(k, 0) for k in keys]
    wanted = [expected[k] * draws for k in keys]
    if rest:
        observed.append(sum(seen.get(k, 0) for k in rest))
        wanted.append(sum(expected[k] for k in rest) * draws)
    _, p = scipy.stats.chisquare(observed, wanted)
    assert p > 1e-3


def test_draw_block_distribution_small_n():
    _assert_block_law(4, np.random.default_rng(5))


def test_draw_block_distribution_above_cutoff():
    # the log-space table: one uniform searched in its running sums
    _assert_block_law(601, np.random.default_rng(5))


@pytest.mark.parametrize("n", [1, 2, 4, 12, 150, 600, 601, 650, 1000])
def test_log_block_law_matches_exact_weights(n):
    # the block table comes from the log tables; its normalised running sums
    # must be d * C_d * U_{n-jd} / (n * U_n) summed with big-integer counts
    ds, js, cum = X._block_table(n, n)
    pairs = list(zip(ds.tolist(), js.tolist()))
    assert pairs == [(d, j) for d in range(1, n + 1) for j in range(1, n // d + 1)]
    # the step table inside a larger sample reads a longer log table
    assert np.array_equal(X._block_table(n, 2 * n)[2], cum)
    u = X._exact_counts(n)
    c = X.count_connected_unit_interval_graphs
    weights = [d * c(d) * u[n - j * d] for d, j in pairs]
    total = n * u[n]
    assert sum(weights) == total
    exact_cdf = np.array([s / total for s in itertools.accumulate(weights)])
    np.testing.assert_allclose(cum / cum[-1], exact_cdf, rtol=1e-9, atol=0.0)
    # single weights, where differencing the running sum resolves them
    exact_p = np.array([wt / total for wt in weights])
    big = exact_p >= 1e-6
    np.testing.assert_allclose(np.diff(cum, prepend=0.0)[big] / cum[-1], exact_p[big], rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# xyz batch statistics
# ---------------------------------------------------------------------------


def test_xyz_batch_matches_per_matching_stats():
    # the exhaustive suite and every indecomposability check count x/y/z
    # through the batch function, so it must agree with the point-by-point
    # oracle on every matching up to n = 6, and xyz_stats, its one-row case,
    # with both; the kernel works in its input's dtype, so every stack runs
    # as int32 and int64
    rng = np.random.default_rng(6)
    batches = [X._sample_matchings_batch(n, 300, rng) for n in (2, 3, 5, 8)]
    batches += [C._matching_partners(n) - 1 for n in range(1, 7)]
    for batch in batches:
        expected = [oracles.xyz_stats(tuple(int(v) + 1 for v in row)) for row in batch]
        assert [C.xyz_stats(C.Matching(tuple(int(v) + 1 for v in row))) for row in batch] == expected
        for dtype in (np.int32, np.int64):
            xs, ys, zs = X._xyz_batch(batch.astype(dtype))
            assert xs.dtype == ys.dtype == zs.dtype == np.int64
            assert list(zip(xs.tolist(), ys.tolist(), zs.tolist())) == expected


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "text, xyz",
    [
        # the only z-candidate is a pair of positions matched onto 2n and 1
        ("1-3 2-5 4-6", (0, 2, 1)),
        ("1-4 2-6 3-8 5-7", (0, 1, 1)),
        ("1-6 2-4 3-7 5-8", (0, 1, 1)),
        # positions 1, 2 onto 2n, 1 has ell - k = 2n - 1, which a matching
        # allows only at n = 1: the one candidate is not counted
        ("1-2", (2, 0, 0)),
    ],
)
def test_xyz_batch_wrap_candidates(text, xyz, dtype):
    m = C.parse_matching(text)
    assert oracles.xyz_stats(m.partner) == xyz
    assert C.xyz_stats(m) == xyz
    # stacked three times, each row's last partner and the next row's first
    # differ by 1: a flat candidate across the row end, which never counts
    xs, ys, zs = X._xyz_batch(np.array([m.partner] * 3, dtype=dtype) - 1)
    assert list(zip(xs.tolist(), ys.tolist(), zs.tolist())) == [xyz] * 3


def test_traced_xyz_kernel_is_shared():
    # the benchmark tracer swaps this one object in every namespace, so its
    # experiments.xyz_batch spans also count the calls made from combinat
    assert X._xyz_batch is C._xyz_batch


def test_xyz_batch_memory_is_bounded():
    # the kernel holds one difference array and short candidate lists; a
    # rule with a full-size temporary per pass holds 6.5 times the stack
    stack = X._sample_matchings_batch(2000, 500, np.random.default_rng(3))
    assert stack.dtype == np.int32 and stack.shape == (500, 4000)
    X._xyz_batch(stack[:2])
    assert _peak_mib(lambda: X._xyz_batch(stack)) * 2**20 <= 4.5 * stack.nbytes


def test_mc_poisson_xyz_memory_is_bounded():
    # each chunk is drawn and reduced in cache-sized blocks: one 500-row
    # chunk drawn at once holds about 61 MiB of floats, keys and partners
    X.mc_poisson_xyz(40, 50, 2, np.random.default_rng(0))
    assert _peak_mib(lambda: X.mc_poisson_xyz(2000, 1000, 2, np.random.default_rng(21), threads=1)) <= 16


def test_batch_sampler_is_uniform():
    rng = np.random.default_rng(7)
    batch = X._sample_matchings_batch(3, 15000, rng)
    keys = [tuple(int(v) for v in row) for row in batch]
    counts: dict[tuple, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    assert len(counts) == C.count_matchings(3)  # 15
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


# ---------------------------------------------------------------------------
# report schema and determinism
# ---------------------------------------------------------------------------


def test_report_schema():
    rng = np.random.default_rng(8)
    rep = X.mc_clique_density("perm", 40, 2, 30, rng)
    d = rep.to_dict()
    assert set(d) >= {"name", "params", "seed", "estimates", "pass", "threshold"}
    assert d["name"] == "mc_clique_density"
    assert all(set(e) == {"label", "value", "stderr"} for e in d["estimates"])
    parsed = json.loads(rep.to_json())
    assert parsed["pass"] == rep.passed
    assert rep.get("density_mean").value == pytest.approx(
        [e.value for e in rep.estimates if e.label == "density_mean"][0]
    )
    with pytest.raises(KeyError):
        rep.get("no_such_label")


_COLD_TABLES_SCRIPT = """
import json, sys
import numpy as np
from graphlim import experiments as X
sys.setswitchinterval(1e-5)
reports = [
    X.largest_component_stats(n, 64, np.random.default_rng(5), threads=threads).to_json()
    for threads in (4, 1)
    for n in (600, 2000)
]
print(json.dumps(reports))
"""


def test_counting_tables_thread_safe_from_cold():
    # the count and block tables are built on first use; a fresh process
    # makes them cold, for a sample small enough that exact counts could
    # have drawn it and for a larger one
    src = Path(X.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_TABLES_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    cold4_600, cold4_2000, warm1_600, warm1_2000 = json.loads(proc.stdout)
    assert cold4_600 == warm1_600
    assert cold4_2000 == warm1_2000


# SHA-256 of largest_component_stats(n, 200, default_rng(n)) report JSON at
# sizes below and above 600, and of a clique-scaling run whose samples take
# several block steps; the memoized read-only tables must reproduce every
# byte at any thread count.  The 150, 600 and clique-scaling digests were
# recorded again when every block step moved to the log-space table (one
# uniform per step, in place of big-integer weights up to n = 600); the 601
# and 2000 reports draw their deficiency from the first step, which was
# already a log-space draw, and kept their digests.  The clique-scaling
# digest was recorded again when Dyck words came to be drawn from fair bits;
# the component reports draw no Dyck word and kept theirs.
_PINNED_BLOCK_REPORTS = {
    150: "573d8a47fd128f9c8e64af26d35f3ef6b1c1feb0315b5b244cb7b07071565a7a",
    600: "3c6af4dacc4a2264d217949e01f16f6364cb7e7e3135697ac37455f24e50e425",
    601: "1c2d6804e70acfc0a5adacf3f3e9afeb50be19e98950ea79eb1ce184dcd0457a",
    2000: "cb8b6919e414bb1e8666f5864b098f9c27c45d8bf0a5c15face9dcdb45e4d48c",
    "mc_unit_clique_scaling_700": "64bc6f2b7fb20b970e12ac1d0b52e6cc83b6be85b5782661e40c53ebd2079f94",
}


def _block_report_digests(threads: int) -> dict:
    reports = {
        n: X.largest_component_stats(n, 200, np.random.default_rng(n), threads=threads)
        for n in (150, 600, 601, 2000)
    }
    reports["mc_unit_clique_scaling_700"] = X.mc_unit_clique_scaling(
        700, 3, 20, 256, np.random.default_rng(700), threads=threads
    )
    return {key: hashlib.sha256(rep.to_json().encode()).hexdigest() for key, rep in reports.items()}


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_block_draw_reports_pinned(threads):
    assert _block_report_digests(threads) == _PINNED_BLOCK_REPORTS


# SHA-256 of report JSON for small unit-interval metric runs, recorded with
# the earlier one-source-at-a-time jump walk and character-loop Dyck words;
# the vectorised code must reproduce every byte at any thread count.  The
# clique-scaling digest was recorded again when every block step moved to the
# log-space table; the other two draw no blocks.  The verify_gp and
# clique-scaling digests were recorded again when Dyck words came to be drawn
# from fair bits; the distance-formula report counts pairs and mismatches
# only, and kept its digest.
_PINNED_REPORTS = {
    "verify_gp": "9b0c57255f376240cbea47ca56fe0279b05fe25fdae421f466169d1945bf5f6e",
    "mc_unit_clique_scaling": "fddb681b7f7edf013d52cfc856ca7b92a74c0c49d031fcbdb1a25488c2aacb7a",
    "verify_distance_formula": "2f536802d09095b5b1d6bd209742ac1e44a335b95c19fb448bfe8075037f1668",
}


def _metric_report_digests(threads: int) -> dict:
    reports = {
        "verify_gp": X.verify_gp(
            [50, 100, 200], 0.05, 64, 3, 40, np.random.default_rng(7), threads=threads, two_point_n=300
        ),
        "mc_unit_clique_scaling": X.mc_unit_clique_scaling(
            200, 3, 20, 256, np.random.default_rng(13), threads=threads
        ),
        "verify_distance_formula": X.verify_distance_formula(30, 10, np.random.default_rng(11)),
    }
    return {name: hashlib.sha256(rep.to_json().encode()).hexdigest() for name, rep in reports.items()}


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_unit_interval_metric_reports_pinned(threads):
    assert _metric_report_digests(threads) == _PINNED_REPORTS


# SHA-256 of metric reports whose reps reach _INLINE_CELLS, so that they take
# a pool at threads >= 2: verify_gp's box reps at n = 2000 walk 461 grid
# vertices by 2000 columns, and mc_unit_clique_scaling's excursions hold
# 2^18 + 1 values.  Recorded when both drivers handed every rep to one pool
# at any threads; the pooled and inline paths must give every byte.
_PINNED_POOLED_REPORTS = {
    "verify_gp": "33f772463400609e12fe07580115caed7f1a1d1ae0cf0b5f319ca42c92cdf333",
    "mc_unit_clique_scaling": "2b3366e9a25a788276180df20c56d85e6da6c1042ced6888e361e082f3f8bb70",
}


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_pooled_metric_reports_pinned(threads):
    reports = [
        X.verify_gp([1000, 2000], 0.05, 512, 2, 20, np.random.default_rng(17), threads=threads),
        X.mc_unit_clique_scaling(100, 3, 10, 1 << 18, np.random.default_rng(19), threads=threads),
    ]
    assert {r.name: hashlib.sha256(r.to_json().encode()).hexdigest() for r in reports} == _PINNED_POOLED_REPORTS


# The same metric and block reports under the earlier Dyck sampler, which
# shuffled n ups and n + 1 downs, as recorded before the draw stream changed.
_SHUFFLE_DYCK_REPORTS = {
    "verify_gp": "71d71170904682795e8048ee4f14ecb26ce88e8ce3ed5c1c8f47453f515cb6c0",
    "mc_unit_clique_scaling": "5dce8f0571b189f28fc34481332c62411367454c8f770604765e8705bc77410e",
    "verify_distance_formula": "2f536802d09095b5b1d6bd209742ac1e44a335b95c19fb448bfe8075037f1668",
}
_SHUFFLE_DYCK_BLOCK_REPORTS = {
    **_PINNED_BLOCK_REPORTS,
    "mc_unit_clique_scaling_700": "da306154568ea2bde8cdc9568b2498eabb9d9f27e66d5084651ac63875699a70",
}


@pytest.mark.parametrize("threads", [1, 4])
def test_shuffle_dyck_reports_pinned(monkeypatch, threads):
    # with the old Dyck rule patched in, everything downstream of the sampler
    # must still reproduce the old reports byte for byte
    monkeypatch.setattr(
        C,
        "_dyck_steps",
        lambda n, rng: np.array([1 if c == "U" else -1 for c in oracles.cycle_lemma_dyck_word(n, rng)], np.int8),
    )
    assert _metric_report_digests(threads) == _SHUFFLE_DYCK_REPORTS
    assert _block_report_digests(threads) == _SHUFFLE_DYCK_BLOCK_REPORTS


# SHA-256 of mc_clique_density report JSON (n = 300, reps = 6, rng seed
# 100 + k), recorded with the float64 matrix-product counters; the exact
# integer counters must reproduce every byte at any thread count.  The
# circle digests were recorded again when sample_matching became the
# one-row case of the shuffle-pairing batch sampler, which changed the
# matching draw stream; the digests of the earlier sequential-pairing stream
# are still checked, with that rule patched in (_SEQUENTIAL_PAIRING_*).
_PINNED_CLIQUE_REPORTS = {
    ("perm", 2): "52dcd58b8c1e8aad501d7a3784ae48bad5d080ebf207949828ca86756c66f9fb",
    ("perm", 3): "6a76e18941086cdb20f71c8cb2dcda275ec4a81ef9dfc32e23ef77b1713979ff",
    ("perm", 4): "c0056e14517ccf1c88ed56e4cd9fea38d17fcb19f5c86bf6a84f86b1b52b0b3d",
    ("perm", 5): "72811cc12ea7a03e5806c2c334b7c08da5d9dffa8bf71a2f9f6a2c7b84a47e82",
    ("circle", 2): "18e6e84874b0d77654bd2a973f5c5e0cca59b00b415ed6abfddbf8de4bfe1267",
    ("circle", 3): "827370ec3c00e4c1d5a2e1ec00ec40103201ed416cafeb634d0052549b9f5cfa",
    ("circle", 4): "f1487bfb01a842cb513b0658ffee9d45ccc25bbde61787e69720ff803662a265",
    ("circle", 5): "9b3198247e81feaa83d5981546e372dd5d830b1223ab6bc581865ec2207801cb",
}


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_clique_density_reports_pinned(threads):
    digests = {
        (family, k): hashlib.sha256(
            X.mc_clique_density(family, 300, k, 6, np.random.default_rng(100 + k), threads=threads).to_json().encode()
        ).hexdigest()
        for family, k in _PINNED_CLIQUE_REPORTS
    }
    assert digests == _PINNED_CLIQUE_REPORTS


# SHA-256 of mc_indecomposable_rate(300, 400, default_rng(21)) report JSON,
# recorded again for the shuffle-pairing matching stream (see above); the
# gap-pair table search's digest of the sequential-pairing stream is
# _SEQUENTIAL_PAIRING_RATE_REPORT.
_PINNED_RATE_REPORT = "d684198ef9991a20ee25b4778dbd8da1131fb7a598d205b618217b3f2b017fdf"


@pytest.mark.parametrize("threads", [1, 4])
def test_indecomposable_rate_report_pinned(threads):
    rep = X.mc_indecomposable_rate(300, 400, np.random.default_rng(21), threads=threads)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == _PINNED_RATE_REPORT


# The same circle and rate reports under the earlier sequential-pairing
# matching sampler, as recorded before the draw stream changed.
_SEQUENTIAL_PAIRING_CLIQUE_REPORTS = {
    2: "f0f228b27c9bc0f98c18a9b85cb3c1755b61d29dfea851d07811a012a651987f",
    3: "160fa85ab9c456e38cbaf6f7bed91ec735327b0ba9d56381d600806d8b22bbdc",
    4: "483ad8babf00d6c629287ab21d7c5e76dfeee06ad84fd48ef5087db577e92853",
    5: "f7ae522e726c78882daec583a2e9197feb224d96ad8988aa5e3ca6b9e374e6c9",
}
_SEQUENTIAL_PAIRING_RATE_REPORT = "1e6533a116257fa25e58488b1acfa2c02fd97d977c43170a9ba00b82ea7303be"


@pytest.mark.parametrize("threads", [1, 4])
def test_sequential_pairing_reports_pinned(monkeypatch, threads):
    # with the old matching rule patched in, everything downstream of the
    # sampler must still reproduce the old reports byte for byte
    monkeypatch.setattr(C, "sample_matching", lambda n, rng: C.Matching(sequential_pairing(n, rng)))
    digests = {
        k: hashlib.sha256(
            X.mc_clique_density("circle", 300, k, 6, np.random.default_rng(100 + k), threads=threads)
            .to_json()
            .encode()
        ).hexdigest()
        for k in _SEQUENTIAL_PAIRING_CLIQUE_REPORTS
    }
    assert digests == _SEQUENTIAL_PAIRING_CLIQUE_REPORTS
    rep = X.mc_indecomposable_rate(300, 400, np.random.default_rng(21), threads=threads)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == _SEQUENTIAL_PAIRING_RATE_REPORT


# recorded before the int32 sampler and the candidate-based xyz kernel:
# three chunks (1000, 1000 and 500 rows) at n = 2000, and one chunk at n = 40
_PINNED_XYZ_REPORTS = {
    (2000, 2500, 3, 2000): "b6966d5d9d648a21e2c239eab95a54f0294993df4edbe8c727f307062eff6acd",
    (40, 500, 2, 9): "a0832ca198a08bca81b1a97e3fefb2546b8dc9b667f580f8fcc06e7c0cf52d89",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_xyz_reports_pinned(threads):
    digests = {
        (n, reps, moment, seed): hashlib.sha256(
            X.mc_poisson_xyz(n, reps, moment, np.random.default_rng(seed), threads=threads).to_json().encode()
        ).hexdigest()
        for n, reps, moment, seed in _PINNED_XYZ_REPORTS
    }
    assert digests == _PINNED_XYZ_REPORTS


@pytest.mark.parametrize("block_keys", [12_345, 1 << 30])
def test_xyz_reports_pinned_at_any_block_size(monkeypatch, block_keys):
    # blocks are not part of the draw stream: uneven blocks of 3 rows at
    # n = 2000 (154 at n = 40), or one block per chunk, give the same reports
    monkeypatch.setattr(X, "_XYZ_BLOCK_KEYS", block_keys)
    test_xyz_reports_pinned(1)


def test_reports_deterministic_across_threads():
    r1 = X.mc_poisson_xyz(40, 500, 2, np.random.default_rng(9), threads=1)
    r2 = X.mc_poisson_xyz(40, 500, 2, np.random.default_rng(9), threads=3)
    assert r1.to_json() == r2.to_json()
    r3 = X.mc_clique_density("circle", 30, 2, 24, np.random.default_rng(10), threads=1)
    r4 = X.mc_clique_density("circle", 30, 2, 24, np.random.default_rng(10), threads=2)
    assert r3.to_json() == r4.to_json()
    r5 = X.mc_clique_density("circle", 30, 2, 24, np.random.default_rng(11))
    assert r5.to_json() != r3.to_json()  # fresh seed, fresh draws


class _PoolRecorder:
    """Stands in for ThreadPoolExecutor: records the worker count asked for
    and runs each submitted worker to the end on the calling thread."""

    def __init__(self, made: list, max_workers: int) -> None:
        self.max_workers = max_workers
        self.submitted = 0
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, *args) -> Future:
        self.submitted += 1
        done = Future()
        done.set_result(fn(*args))
        return done


def _record_pools(monkeypatch) -> list[_PoolRecorder]:
    made: list[_PoolRecorder] = []
    monkeypatch.setattr(X, "ThreadPoolExecutor", lambda max_workers: _PoolRecorder(made, max_workers))
    return made


def _draw(i: int, rng: np.random.Generator) -> tuple[int, int]:
    return i, int(rng.integers(2**62))


@pytest.mark.parametrize("threads, reps", [(1, 5), (2, 1), (2, 5), (4, 3), (3, 0)])
def test_map_reps_asks_for_at_most_one_worker_per_rep(monkeypatch, threads, reps):
    # one worker, or one rep, runs inline: no pool is made
    pools = _record_pools(monkeypatch)
    out = X._map_reps(_draw, 9, reps, threads)
    assert out == [_draw(i, g) for i, g in enumerate(X._child_rngs(9, reps))]
    workers = min(threads, reps)
    assert [p.max_workers for p in pools] == ([workers] if workers > 1 else [])
    assert all(p.submitted == p.max_workers for p in pools)
    pools.clear()
    X.mc_indecomposable_rate(50, 1, np.random.default_rng(3), threads=threads)
    assert pools == []


def test_drivers_use_one_pool_per_call(monkeypatch):
    # every driver asks _rep_threads for its workers: reps of fewer than
    # _INLINE_CELLS cells run inline at any threads, and a call makes at most
    # one pool for each kind of rep that reaches it
    pools = _record_pools(monkeypatch)
    X.verify_gp([50, 100], 0.05, 64, 3, 40, np.random.default_rng(7), threads=3, two_point_n=300)
    X.mc_unit_clique_scaling(200, 3, 20, 256, np.random.default_rng(13), threads=2)
    X.mc_indecomposable_rate(300, 40, np.random.default_rng(21), threads=4)
    X.mc_poisson_xyz(40, 500, 2, np.random.default_rng(9), threads=2)
    X.heatmap_experiment("circle", 200, 20, np.random.default_rng(3), threads=2)
    X.heatmap_experiment("perm", 511, 2, np.random.default_rng(3), threads=2)
    X.largest_component_stats(500, 200, np.random.default_rng(4), threads=2)
    X.mc_clique_density("perm", 1000, 3, 4, np.random.default_rng(5), threads=2)
    # a circle rep only draws its matching (2n cells); the counts follow
    X.mc_clique_density("circle", 600, 3, 4, np.random.default_rng(6), threads=2)
    assert pools == []
    calls = [
        # the four box reps (461 grid vertices by 2000 columns) pool; the
        # two-point draws do not
        lambda: X.verify_gp([1000, 2000], 0.05, 512, 2, 20, np.random.default_rng(17), threads=3),
        lambda: X.mc_unit_clique_scaling(100, 3, 10, 1 << 18, np.random.default_rng(19), threads=2),
        # two chunks of 1000 and 1 rows at n = 2000
        lambda: X.mc_poisson_xyz(2000, 1001, 1, np.random.default_rng(9), threads=3),
        lambda: X.heatmap_experiment("perm", 512, 2, np.random.default_rng(3), threads=2),
        lambda: X.heatmap_experiment("circle", 600, 3, np.random.default_rng(3), threads=2),
    ]
    expected = [(3, 3), (2, 2), (2, 2), (2, 2), (2, 2)]
    for call, pool in zip(calls, expected, strict=True):
        pools.clear()
        call()
        assert [(p.max_workers, p.submitted) for p in pools] == [pool]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_reps_segments_keep_their_child_streams(threads):
    # segment j draws from SeedSequence(master[j]).spawn(reps[j]), indexed
    # after segment j - 1; an empty segment takes no index
    rngs = X._child_rngs(5, 2) + X._child_rngs(9, 0) + X._child_rngs(6, 3)
    assert X._map_reps(_draw, (5, 9, 6), (2, 0, 3), threads) == [_draw(i, g) for i, g in enumerate(rngs)]
    with pytest.raises(ValueError):
        X._map_reps(_draw, (5, 9), (2, 0, 3), threads)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_map_reps_raises_the_lowest_failing_rep(threads):
    # rep 3 fails after rep 7 when they run at once; the error is rep 3's at
    # every thread count
    def fn(i: int, rng: np.random.Generator) -> int:
        if i == 3:
            time.sleep(0.05)
        if i in (3, 7):
            raise RuntimeError(f"rep {i} failed")
        return i

    with pytest.raises(RuntimeError, match=r"^rep 3 failed$"):
        X._map_reps(fn, 11, 40, threads)


def test_map_reps_runs_every_rep_once_under_contention():
    # more workers than cores, switching threads as often as the interpreter
    # allows: a lost or repeated index would show in the run log
    ran = []

    def fn(i: int, rng: np.random.Generator) -> int:
        ran.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ran.clear()
            assert X._map_reps(fn, (4, 5), (300, 200), 8) == [i * i for i in range(500)]
            assert sorted(ran) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_map_reps_takes_no_rep_after_a_failure(monkeypatch):
    # the recorder runs the first worker to its end before the second starts
    pools = _record_pools(monkeypatch)
    ran = []

    def fn(i: int, rng: np.random.Generator) -> int:
        ran.append(i)
        if i in (3, 7):
            raise RuntimeError(f"rep {i} failed")
        return i

    with pytest.raises(RuntimeError, match=r"^rep 3 failed$"):
        X._map_reps(fn, 11, 40, 2)
    assert ran == [0, 1, 2, 3]
    assert [p.submitted for p in pools] == [2]


def test_seed_recorded_and_reused():
    rng = np.random.default_rng(12)
    master = int(np.random.default_rng(12).integers(2**63))
    rep = X.mc_indecomposable_rate(20, 50, rng)
    assert rep.seed == master


# ---------------------------------------------------------------------------
# harness smoke runs (small but real)
# ---------------------------------------------------------------------------


def test_mc_clique_density_perm_edges():
    rep = X.mc_clique_density("perm", 300, 2, 60, np.random.default_rng(13), tol=0.02)
    assert rep.passed
    assert rep.get("limit_density").value == 0.5
    assert abs(rep.get("density_mean").value - 0.5) < 0.02


def test_mc_clique_density_circle_triangles():
    rep = X.mc_clique_density("circle", 240, 3, 60, np.random.default_rng(14), tol=0.02)
    assert rep.passed
    assert rep.get("limit_density").value == pytest.approx(1 / 15)


def test_mc_clique_density_validation():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        X.mc_clique_density("tree", 10, 2, 5, rng)
    with pytest.raises(ValueError):
        X.mc_clique_density("perm", 10, 6, 5, rng)
    with pytest.raises(ValueError):
        X.mc_clique_density("perm", 4000, 2, 5, rng)
    with pytest.raises(ValueError, match="k must be <= n"):
        X.mc_clique_density("circle", 3, 5, 5, rng)
    with pytest.raises(ValueError):
        X.mc_clique_density("perm", 10, 2, 0, rng)
    # one rep has no standard error, so the default tolerance would be a
    # float-equality test; an explicit tolerance keeps one rep legal
    with pytest.raises(ValueError, match="reps must be >= 2 unless tol is given"):
        X.mc_clique_density("perm", 10, 2, 1, rng)
    assert X.mc_clique_density("perm", 10, 2, 1, rng, tol=0.5).params["reps"] == 1


def test_mc_poisson_xyz_small():
    rep = X.mc_poisson_xyz(150, 4000, 2, np.random.default_rng(16))
    for label in ("mean_x", "mean_y", "mean_z"):
        assert abs(rep.get(label).value - 1.0) < 0.1
    assert abs(rep.get("p_xyz_zero").value - math.exp(-3)) < 0.03
    assert rep.get("fmom_110").stderr is not None
    with pytest.raises(ValueError):
        X.mc_poisson_xyz(3, 100, 2, np.random.default_rng(0))


def test_mc_indecomposable_rate_small():
    rep = X.mc_indecomposable_rate(150, 800, np.random.default_rng(17))
    assert 0.01 < rep.get("indecomposable_rate").value < 0.12
    assert rep.get("indecomposable_rate").stderr < 0.02


def test_order_type_laws_equal_exhaustive_laws():
    # every order type of the latent ranks: 3! x 3! (perm), 6! (circle)
    perm, circle = (X._edge_count_law_order_types(f).tolist() for f in ("perm", "circle"))
    assert perm == [6, 12, 12, 6]
    assert circle == [240, 288, 144, 48]
    assert X._edge_count_law_exhaustive("perm").tolist() == [1, 2, 2, 1]
    assert X._edge_count_law_exhaustive("circle").tolist() == [5, 6, 3, 1]


@pytest.mark.parametrize(
    "na, nb", [(1, 1), (10, 10), (2000, 3000), (999, 1000), (10_000, 10_000)]
)
def test_ks_statistic_equals_scipy(na, nb):
    # sizes up to 10^4 a side, where scipy's exact mode rounds to h / lcm:
    # gcd > 1 (2000 vs 3000) and gcd 1 (999 vs 1000)
    rng = np.random.default_rng(na * 7 + nb)
    a, b = rng.random(na), 1.05 * rng.random(nb)
    assert X._ks_statistic(a, b) == scipy.stats.ks_2samp(a, b).statistic
    ties_a, ties_b = rng.integers(0, 4, na).astype(float), rng.integers(0, 5, nb).astype(float)
    assert X._ks_statistic(ties_a, ties_b) == scipy.stats.ks_2samp(ties_a, ties_b).statistic


def test_ks_statistic_nan_and_large_samples():
    rng = np.random.default_rng(31)
    assert math.isnan(X._ks_statistic([0.5, np.nan, 0.1], [0.2, 0.3]))
    assert math.isnan(X._ks_statistic([0.5, 0.1], [np.nan]))
    # above 10^4 a side scipy returns its unrounded float
    for na, nb in [(10_001, 12_000), (20_000, 15_000)]:
        a, b = rng.random(na), 1.02 * rng.random(nb)
        assert X._ks_statistic(a, b) == pytest.approx(
            scipy.stats.ks_2samp(a, b).statistic, rel=0, abs=1e-15
        )


def test_exact_enumeration_suite_small():
    rep = X.exact_enumeration_suite(4)
    assert rep.passed
    labels = {e.label for e in rep.estimates}
    assert "simple_iff_modular_prime" in labels
    assert "split_prime_iff_indecomposable" in labels
    assert all(e.value == 1.0 for e in rep.estimates)
    with pytest.raises(ValueError):
        X.exact_enumeration_suite(7)


# SHA-256 of exact_enumeration_suite(n_max).to_json() for n_max = 1..6,
# recorded with the earlier one-graph-at-a-time suite, which had no
# phi_bijection or unit_interval_clique_formula record; the batched suite
# must reproduce every byte once those records are dropped.
_PINNED_EXACT_SUITE = {
    1: "6f7cf04b9c0a794c35dd060afd594d40dd3c3b0c87fa6599b207d7b18f4564e7",
    2: "b66a5a0f71d7c3c987d1440590af8e5b1b5a2c84ecae7efb1b9579cb4536ab1a",
    3: "e00be6937092f7333dbd03e054c2518cb6cfd64f61e8a1b5d7f7c11f89b73f57",
    4: "d59a0b8a09a3a95bc4e94cac5a20e76197cb41a23bf81a724d66651118727a36",
    5: "29cedabae0721f501846e5ae766476d0417b8cfb73ba4ecf12d1112311d4a6ef",
    6: "040f53c6daa00855b1e03eda0581b69c03344c6787af3b0489449108586905a7",
}


# SHA-256 of the report with the phi_bijection record (n_max >= 4), recorded
# before the suite had a unit_interval_clique_formula record; the suite must
# reproduce every byte once that record is dropped
_PINNED_EXACT_SUITE_PHI = {
    4: "a59ce95b80b42364a7f58dd35c88d0e972633dd4cc0710cdc4eb7bed3c4be9fd",
    5: "1844db7c1f5d6b37e5ab4ea89da498e85104c4a27de9b3c2bdb83ff62bb12993",
    6: "281e58abcff61e7aa537aee707fda253e7f74d86f678c4a2012adc03e3ccd827",
}


# SHA-256 of the whole report, every record included
_PINNED_EXACT_SUITE_FULL = {
    1: "f92855fb47a64760e0bacfcb9e99c75d9d4143a3f61ae8855974e2dc5eb1cd78",
    2: "43623827c02f20db3dfdefcaef4589f8890bce42c872bbbea00b4ef8840d42b2",
    3: "2834197b739aad12ad6c77de8305d105ae9d6109829f31486d9850ac43fbec86",
    4: "6d8168428cc3d904b0d7fb341d81e9f9739fe1db412eb6333890fff1a2d34182",
    5: "190472892236a0836bdde02cbd65163f2112489f5135914c22080405ba862d62",
    6: "ca4321b195ff2cc40315de530a486c2b41c742152ab99e7c6180e454c05244ed",
}


def _without(text: str, label: str) -> str:
    """A report's JSON text with one record dropped, written as to_json writes it."""
    report = json.loads(text)
    report["estimates"] = [e for e in report["estimates"] if e["label"] != label]
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def _assert_exact_suite_pinned(text: str, n_max: int) -> None:
    with_phi = _without(text, "unit_interval_clique_formula")
    assert hashlib.sha256(_without(with_phi, "phi_bijection").encode()).hexdigest() == _PINNED_EXACT_SUITE[n_max]
    assert hashlib.sha256(with_phi.encode()).hexdigest() == _PINNED_EXACT_SUITE_PHI.get(n_max, _PINNED_EXACT_SUITE[n_max])
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_EXACT_SUITE_FULL[n_max]


@pytest.mark.parametrize("n_max", sorted(_PINNED_EXACT_SUITE))
def test_exact_enumeration_suite_pinned(n_max):
    _assert_exact_suite_pinned(X.exact_enumeration_suite(n_max).to_json(), n_max)


def test_exact_enumeration_suite_pinned_with_small_blocks(monkeypatch):
    # block boundaries of the stacked passes must not change any result
    monkeypatch.setattr(G, "_CODE_CHUNK", 1000)
    monkeypatch.setattr(G, "_SCAN_CHUNK", 5000)
    monkeypatch.setattr(X, "_CUT_SCAN_CHUNK", 7000)
    _assert_exact_suite_pinned(X.exact_enumeration_suite(5).to_json(), 5)


_FAULT_MATCHING = "1-4 2-6 3-8 5-9 7-10"
_FAULT_PERM = (2, 4, 1, 5, 3)


def _flip_fault_row(f, fault=C.parse_matching(_FAULT_MATCHING).partner):
    fault = np.array(fault)

    def flipped(rows):
        out = f(rows)
        return out ^ (rows == fault).all(axis=1) if rows.shape[1] == fault.size else out

    return flipped


def _shared_phi_image(f):
    # the first n = 5, k = 2 pair is given the second pair's image (a fault
    # the one-graph-at-a-time suite had no record for)
    def faulty(partner, cuts):
        big, mark, small = f(partner, cuts)
        if (partner.shape[1], small.shape[1]) == (10, 6):
            big[0], mark[0], small[0] = big[1], mark[1], small[1]
        return big, mark, small

    return faulty


_FAULT_WORD = "UUUDDDUUDD"


def _drop_fault_edge(f, fault=C._heights_arrays(_FAULT_WORD)[1]):
    # the edge v1-v2 taken out of one reducible size-5 word's graph, so the
    # irreducible stack, built in the same call, keeps every edge
    def dropped(degrees):
        adj = f(degrees)
        if degrees.shape[-1] == fault.size:
            hit = (degrees == fault).all(axis=-1)
            adj[hit, 0, 1] = adj[hit, 1, 0] = False
        return adj

    return dropped


def _flip_circle_order_type(f):
    # the circle edge rule made wrong on one order type of its four
    # coordinates: two disjoint chords a1 < b1 < a2 < b2 become adjacent
    def flipped(family, a1, b1, a2, b2):
        out = f(family, a1, b1, a2, b2)
        return out ^ ((a1 < b1) & (b1 < a2) & (a2 < b2)) if family == "circle" else out

    return flipped


# One predicate, formula, edge rule or graph made wrong, and the labels and
# witnesses the suite reports for it; all but the edge rule's and the unit
# interval graph's were recorded with the one-graph-at-a-time suite, on one
# size-5 seed.
_FAULTS = {
    "_indecomposable_rows": (
        _flip_fault_row,
        {"split_prime_iff_indecomposable": "1-4 2-6 3-8 5-9 7-10"},
    ),
    "is_simple": (
        lambda f: _flip_fault_row(f, _FAULT_PERM),
        {
            "simple_iff_modular_prime": "2 4 1 5 3",
            "perm_realizer_bounds": "n=5 class 0001010110: ['2 4 1 5 3', '3 1 5 2 4']",
        },
    ),
    "count_decomposed": (
        lambda f: lambda n, k: f(n, k) + 1 if (n, k) == (5, 2) else f(n, k),
        {"decomposed_count_formula": "n=5 k=2: scan 4725 vs formula 4726"},
    ),
    "count_symmetric_matchings": (
        lambda f: lambda n, d: f(n, d) + 1 if (n, d) == (5, 5) else f(n, d),
        {"counting_formulas": "symmetric n=5 d=5: scan 5 vs formula"},
    ),
    "_phi_rows": (
        _shared_phi_image,
        {"phi_bijection": "n=5 k=2: 1-2 3-4 5-6 7-8 9-10 cuts (0, 0, 0, 6)"},
    ),
    "_adjacent": (
        _flip_circle_order_type,
        {"sample_law_identities": "circle: order types 200/289/172/59 of 720 vs seeds 5/6/3/1 of 15"},
    ),
    "_unit_interval_adj": (
        _drop_fault_edge,
        {"unit_interval_clique_formula": "n=5 UUUDDDUUDD"},
    ),
}


# simplicity is decided by its stacked rule, so its fault goes there; the
# edge rule is the graphon module's, the unit interval builder the graphs
# module's, the rest are combinat's
_FAULT_TARGETS = {
    "is_simple": (C, "_simple_flags"),
    "_adjacent": (graphon, "_adjacent"),
    "_unit_interval_adj": (G, "_unit_interval_adj"),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_exact_enumeration_suite_reports_injected_fault(monkeypatch, name):
    wrap, witnesses = _FAULTS[name]
    module, target = _FAULT_TARGETS.get(name, (C, name))
    monkeypatch.setattr(module, target, wrap(getattr(module, target)))
    rep = X.exact_enumeration_suite(5)
    assert [e.label for e in rep.estimates if e.value != 1.0] == list(witnesses)
    assert rep.details["counterexamples"] == witnesses
    assert rep.passed is False


def test_exact_enumeration_suite_records_report_their_own_witnesses(monkeypatch):
    # two faults on the cut scan's records: each record reports its own
    # first witness, so the decomposed-count failure at n = 4 does not keep
    # the phi record from reaching its witness at n = 5
    count = C.count_decomposed
    monkeypatch.setattr(C, "count_decomposed", lambda n, k: count(n, k) + ((n, k) == (4, 2)))
    monkeypatch.setattr(C, "_phi_rows", _shared_phi_image(C._phi_rows))
    rep = X.exact_enumeration_suite(5)
    assert rep.details["counterexamples"] == {
        "decomposed_count_formula": "n=4 k=2: scan 450 vs formula 451",
        "phi_bijection": _FAULTS["_phi_rows"][1]["phi_bijection"],
    }
    assert rep.passed is False


def test_exact_enumeration_suite_builds_no_seed_object(monkeypatch):
    built = {"Permutation": 0, "Matching": 0}
    for cls in (C.Permutation, C.Matching):
        def counting(self, init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    C.Permutation((2, 1))  # the counter sees a construction
    assert built == {"Permutation": 1, "Matching": 0}
    assert X.exact_enumeration_suite(5).passed
    assert built == {"Permutation": 1, "Matching": 0}


def test_exact_enumeration_suite_consults_predicates_per_seed(monkeypatch):
    # simplicity is asked once per size, of the whole stack, and so is
    # indecomposability, of every matching row in order; the closed forms
    # are called exactly as often as by the one-graph-at-a-time suite
    expected = {
        "_simple_flags": 5,
        "count_decomposed": 3,
        "count_matchings": 11,
        "count_irreducible_dyck": 5,
        "count_palindromic_irreducible": 5,
        "count_symmetric_matchings": 12,
    }
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in expected:
        monkeypatch.setattr(C, name, counting(name, getattr(C, name)))
    stacks = []
    rows_rule = C._indecomposable_rows

    def recording(rows):
        stacks.append(rows)
        return rows_rule(rows)

    monkeypatch.setattr(C, "_indecomposable_rows", recording)
    assert X.exact_enumeration_suite(5).passed
    assert calls == expected
    seen = [tuple(row) for rows in stacks for row in rows.tolist()]
    assert seen == [m.partner for n in range(1, 6) for m in C.iter_matchings(n)]
    assert len(seen) == 1069


def test_exact_enumeration_suite_makes_one_pass_per_size(monkeypatch):
    # each size's stacks go through one canonical pass (perm, circle,
    # irreducible and Dyck unit interval graphs together), one heights pass
    # and one split scan; phi runs once per (n, k) on all of that k's pairs;
    # and the cut search runs once per size that has x = y = z = 0 rows
    # (only n = 5 here, with 22), so that no check falls back to per-stack
    # or per-row passes
    targets = {
        "_canonical_codes": G,
        "_heights_arrays": X,
        "_split_flags": G,
        "_phi_rows": C,
        "_decomposition_search": C,
    }
    shapes = {name: [] for name in targets}

    def recording(name, fn):
        def wrapper(*args):
            shapes[name].append(args[0].shape)
            return fn(*args)

        return wrapper

    for name, module in targets.items():
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    assert X.exact_enumeration_suite(5).passed
    assert shapes == {
        "_canonical_codes": [(4, 1, 1), (8, 2, 2), (28, 3, 3), (148, 4, 4), (1121, 5, 5)],
        "_heights_arrays": [(2, 2), (3, 4), (7, 6), (19, 8), (56, 10)],
        "_split_flags": [(1, 1, 1), (3, 2, 2), (15, 3, 3), (105, 4, 4), (945, 5, 5)],
        "_phi_rows": [(450, 8), (4725, 10), (3150, 10)],
        "_decomposition_search": [(22, 10)],
    }


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_block_table_memory_is_bounded():
    # cold: the log tables are built inside the window too.  Narrow pairs and
    # weights built in place peak under 3 MiB; int64 pairs with fresh weight
    # arrays peak at 5.6 MiB
    X._block_table.cache_clear()
    X._log_counts.cache_clear()
    assert _peak_mib(lambda: X._block_table(10_000, 10_000)) <= 3.5


@pytest.mark.parametrize("n, dtype", [(1, np.int8), (12, np.int8), (32_767, np.int16), (32_768, np.int32)])
def test_divisor_pairs_match_the_int64_rule(n, dtype):
    per_d = n // np.arange(1, n + 1)
    ds = np.repeat(np.arange(1, n + 1), per_d)
    js = np.arange(1, ds.size + 1) - np.repeat(np.cumsum(per_d) - per_d, per_d)
    narrow_ds, narrow_js = X._divisor_pairs(n)
    assert narrow_ds.dtype == narrow_js.dtype == dtype
    assert np.array_equal(narrow_ds, ds) and np.array_equal(narrow_js, js)


def test_exact_enumeration_suite_memory_is_bounded():
    # the stacked passes work in blocks: without them the n_max = 6 suite
    # holds about 130 MiB of relabeling codes and cut-set images at once
    X.exact_enumeration_suite(3)  # imports and lazy tables outside the window
    assert _peak_mib(lambda: X.exact_enumeration_suite(5)) <= 16
    assert _peak_mib(lambda: X.exact_enumeration_suite(6)) <= 64
    # each pass on its own, over all 10,395 matchings of size 6 (about 58,
    # 17 and 123 MiB in one block)
    partners = C._matching_partners(6)
    adj = G._circle_adj(partners)
    assert _peak_mib(lambda: G._canonical_codes(adj)) <= 8
    assert _peak_mib(lambda: G._split_prime_flags(adj)) <= 8
    assert _peak_mib(lambda: X._matching_cut_scan(partners)) <= 8
    # the phi pass of each k on the scan's pairs (about 15, 9 and 7 MiB)
    row, cuts, ks = X._matching_cut_scan(partners)
    match_rows = {n: C._matching_partners(n) for n in range(1, 6)}
    rows8 = partners.astype(np.int8)
    for k in (2, 3, 4):
        assert _peak_mib(lambda: X._phi_failure(rows8[row[ks == k]], cuts[ks == k], match_rows)) <= 20


def test_verify_distance_formula_small():
    rep = X.verify_distance_formula(40, 25, np.random.default_rng(19))
    assert rep.passed
    assert rep.get("mismatches").value == 0.0
    assert rep.get("pairs_checked").value > 0


@pytest.mark.parametrize("side", ["_table_distances", "all_pairs_distances"])
def test_verify_distance_formula_detects_a_wrong_distance(monkeypatch, side):
    # one wrong entry per graph, on either side of the comparison, is one
    # mismatch per rep
    rule = getattr(G, side)

    def off_by_one(*args):
        dist = rule(*args)
        dist[0, -1] += 1
        return dist

    monkeypatch.setattr(G, side, off_by_one)
    rep = X.verify_distance_formula(40, 25, np.random.default_rng(19))
    assert not rep.passed
    assert rep.get("mismatches").value == 25.0


def test_largest_component_stats_small():
    rep = X.largest_component_stats(150, 400, np.random.default_rng(21))
    val = rep.get("p_deficiency_le_10").value
    assert 0.0 <= val <= 1.0
    hist = rep.details["histogram"]
    assert sum(hist.values()) == 400
    assert all(int(k) >= 0 for k in hist)


def test_mc_unit_clique_scaling_structure():
    rep = X.mc_unit_clique_scaling(300, 3, 80, 512, np.random.default_rng(22))
    for label in ("ks_k2", "ks_k3", "graph_mean_k2", "excursion_mean_k2"):
        assert rep.get(label) is not None
    assert 0.0 <= rep.get("ks_k2").value <= 1.0
    assert -1.0 <= rep.get("corr_edges_triangles").value <= 1.0
    # edges and triangles of one graph are strongly positively correlated
    assert rep.get("corr_edges_triangles").value > 0.5
    with pytest.raises(ValueError):
        X.mc_unit_clique_scaling(300, 7, 80, 512, np.random.default_rng(0))
    with pytest.raises(ValueError):
        X.mc_unit_clique_scaling(300, 3, 5, 512, np.random.default_rng(0))


def test_heatmap_experiment_shape_and_range():
    hm = X.heatmap_experiment("perm", 12, 6, np.random.default_rng(23))
    assert hm.cells.shape == (12, 12)
    assert hm.cells.min() >= 0.0 and hm.cells.max() <= 1.0
    assert np.allclose(hm.cells, hm.cells.T)


# SHA-256 of heatmap_experiment(family, 30, 7, default_rng(30)).cells bytes,
# recorded again when the reps were drawn in chunks, one child generator per
# chunk (all 7 reps in one chunk at n = 30), which changed the draw stream;
# the per-rep stream had given perm bb770d92...0c28a66 and circle
# e535f2d4...3330d9b.  Every byte must hold at any thread count.
_PINNED_HEATMAPS = {
    "perm": "86fdb1d378343057a8b94c2b9810f05b134a5900dca339cba63837071bfed1c8",
    "circle": "54fb3ebda9bfbb31e40475906bdaa78cd04bbc2acd6a95c6a74860dbb7f14766",
}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_heatmap_cells_pinned(threads):
    digests = {
        family: hashlib.sha256(
            X.heatmap_experiment(family, 30, 7, np.random.default_rng(30), threads=threads).cells.tobytes()
        ).hexdigest()
        for family in _PINNED_HEATMAPS
    }
    assert digests == _PINNED_HEATMAPS


def _reference_heatmap(family: str, n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    # one seed object, graph and step graphon per rep, drawn in order from
    # heatmap_experiment's chunk streams: one child per chunk of as many reps
    # as stay below _INLINE_CELLS cells
    chunk = max(1, (X._INLINE_CELLS - 1) // (n * n))
    acc = np.zeros((n, n))
    for i, child in enumerate(X._child_rngs(X._master_seed(rng), -(-reps // chunk))):
        for _ in range(min(chunk, reps - i * chunk)):
            if family == "perm":
                g = G.inversion_graph(C.sample_permutation(n, child))
            else:
                g = G.circle_graph(C.sample_matching(n, child))
            acc += graphon.step_graphon(g, np.argsort(-g.adj.sum(axis=1), kind="stable") + 1).cells
    return acc / reps


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 17, 64, 200, 511, 512, 600])
@pytest.mark.parametrize("family", ["perm", "circle"])
def test_heatmap_equals_per_rep_step_graphons(family, n, threads):
    # reps 7 and 13 leave a short last chunk at n = 200 (chunks of 6); from
    # n = 512 on every rep is a chunk of its own and runs on the pool
    for reps in (1, 5, 7, 13):
        got = X.heatmap_experiment(family, n, reps, np.random.default_rng(n), threads=threads).cells
        want = _reference_heatmap(family, n, reps, np.random.default_rng(n))
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), reps


def test_heatmap_memory_is_bounded():
    # a chunk stays below _INLINE_CELLS cells; the traced peaks are 1.43 and
    # 3.84 MiB (the perm peak is mostly its float cells, which StepGraphon
    # takes without a copy), against 2.41 and 6.87 MiB when every rep is
    # drawn and built in one stack
    X.heatmap_experiment("circle", 20, 2, np.random.default_rng(0))  # lazy set-up outside the window
    assert _peak_mib(lambda: X.heatmap_experiment("circle", 200, 20, np.random.default_rng(1))) <= 1.75
    assert _peak_mib(lambda: X.heatmap_experiment("perm", 600, 3, np.random.default_rng(2))) <= 4.25


def test_circle_clique_density_memory_is_bounded():
    # reps are counted one by one after the draws: one count's tables (2.9 MiB) alive at a time
    X.mc_clique_density("circle", 20, 3, 2, np.random.default_rng(0))  # lazy set-up outside the window
    assert _peak_mib(lambda: X.mc_clique_density("circle", 1000, 3, 4, np.random.default_rng(1), threads=4)) <= 4


@pytest.mark.parametrize("n", [0, -3])
def test_heatmap_rejects_n_below_1_before_the_seed(monkeypatch, n):
    monkeypatch.setattr(X, "_master_seed", lambda rng: pytest.fail("seed drawn"))
    with pytest.raises(ValueError, match="n must be >= 1"):
        X.heatmap_experiment("perm", n, 3, np.random.default_rng(0))


def test_verify_gp_structure_small():
    rep = X.verify_gp(
        (150, 400),
        delta=0.1,
        m_grid=256,
        seeds_per_n=4,
        draws=300,
        rng=np.random.default_rng(24),
        two_point_n=400,
    )
    assert rep.get("two_point_ks").value <= 1.0
    assert rep.get("median_disc_n150").value > rep.get("median_disc_n400").value
    assert rep.params["two_point_n"] == 400
