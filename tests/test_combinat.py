"""Seed-object layer: enumeration, predicates, counting formulas, samplers,
and the decomposition bijection, checked against independent oracles."""

from __future__ import annotations

import copy
import doctest
import hashlib
import itertools
import math
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphlim import combinat as C
from graphlim import experiments as X

RNG = lambda s=0: np.random.default_rng(s)  # noqa: E731


def test_doctests():
    failures, _ = doctest.testmod(C)
    assert failures == 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        C.Permutation((1, 1))
    with pytest.raises(ValueError):
        C.Permutation((0, 1))
    with pytest.raises(ValueError):
        C.Permutation(())


def _seed_row(row, dtype):
    """A seed field is a read-only one-row ndarray of the class dtype."""
    assert isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype == dtype
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[0] = row[0]
    return row


@pytest.mark.parametrize(
    "mapping, message",
    [
        ((1, 2, 2, 4), "position 3: value 2 repeats position 2"),
        ((2, 2, 0), "position 2: value 2 repeats position 1"),  # the first bad position wins
        ((1, 5, 2, 3), "position 2: value 5 out of range 1..4"),
        ((0, 1), "position 1: value 0 out of range 1..2"),
        ((1, 99999999999999999999), "position 2: value 99999999999999999999 out of range 1..2"),
        ((3, 1, 2**63), "position 3: value 9223372036854775808 out of range 1..3"),
        (np.array([3, 1, 2**32 + 2]), "position 3: value 4294967298 out of range 1..3"),  # would wrap to 2
    ],
)
def test_permutation_validation_names_the_first_bad_position(mapping, message):
    with pytest.raises(ValueError) as exc:
        C.Permutation(mapping)
    assert str(exc.value) == message


def test_simple_matches_oracle_to_n6():
    for n in range(1, 7):
        for mp in itertools.permutations(range(1, n + 1)):
            assert C.is_simple(C.Permutation(mp)) == oracles.brute_is_simple(mp), mp


def test_simple_flags_match_oracle():
    # every permutation up to n = 7, one stack per size, then random rows
    rng = np.random.default_rng(30)
    stacks = [np.array(list(itertools.permutations(range(1, n + 1)))) for n in range(1, 8)]
    stacks += [np.array([rng.permutation(n) + 1 for _ in range(reps)]) for n, reps in ((50, 200), (1000, 8))]
    for rows in stacks:
        expected = [oracles.brute_is_simple(tuple(r)) for r in rows.tolist()]
        assert C._simple_flags(rows).tolist() == expected
        assert [C.is_simple(C.Permutation(tuple(r))) for r in rows.tolist()] == expected
    assert 0 < sum(expected) < 8  # the n = 1000 rows hold both kinds


def test_simple_permutation_counts():
    # OEIS A111111
    counts = [
        int(C._simple_flags(np.array(list(itertools.permutations(range(1, n + 1))))).sum())
        for n in range(1, 9)
    ]
    assert counts == [1, 2, 0, 2, 6, 46, 338, 2926]


def test_simple_size4_is_2413_and_3142():
    simple = [
        mp for mp in itertools.permutations((1, 2, 3, 4)) if C.is_simple(C.Permutation(mp))
    ]
    assert simple == [(2, 4, 1, 3), (3, 1, 4, 2)]


def test_permutation_text_roundtrip():
    p = C.Permutation((3, 1, 5, 2, 4))
    assert C.parse_permutation(C.format_permutation(p)) == p
    assert C.format_permutation(p) == "3 1 5 2 4"
    with pytest.raises(ValueError):
        C.parse_permutation("1 2 x")


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def test_matching_validation():
    with pytest.raises(ValueError):
        C.Matching((2, 1, 3))  # odd length
    with pytest.raises(ValueError):
        C.Matching((1, 2))  # fixed points
    with pytest.raises(ValueError):
        C.Matching((2, 1, 4, 4))


def _first_matching_fault(p):
    # the point-by-point scan: the first bad point, and at it out of range
    # before fixed point before not an involution
    for i, j in enumerate(p, start=1):
        if not 1 <= j <= len(p):
            return f"point {i}: partner {j} out of range 1..{len(p)}"
        if j == i:
            return f"point {i} is a fixed point"
        if p[j - 1] != i:
            return f"not an involution at point {i}"
    return None


def test_matching_validation_reports_first_bad_point():
    # rows with several faults: the first bad point wins, whatever its fault
    for partner, message in (
        ((2, 1, 3, 9, 6, 5), "point 3 is a fixed point"),
        ((3, 1, 2, 0), "not an involution at point 1"),
        ((2, 1, 7, 3, 6, 5), "point 3: partner 7 out of range 1..6"),
        ((2, 1, 4, 4, 0, 6), "not an involution at point 3"),
        ((-1, 2, 1, 3), "point 1: partner -1 out of range 1..4"),
        (np.array([2**32 + 2, 1]), "point 1: partner 4294967298 out of range 1..2"),  # would wrap to 2
    ):
        assert _first_matching_fault(tuple(partner)) == message
        with pytest.raises(ValueError) as exc:
            C.Matching(partner)
        assert str(exc.value) == message
    rng = np.random.default_rng(70)
    for _ in range(500):
        size = 2 * int(rng.integers(1, 5))
        partner = tuple(int(v) for v in rng.integers(-1, size + 2, size=size))
        expected = _first_matching_fault(partner)
        if expected is None:
            # tuple, list and array inputs build equal objects that hash alike
            built = [C.Matching(partner), C.Matching(list(partner)), C.Matching(np.array(partner, dtype=np.int8))]
            assert _seed_row(built[0].partner, np.int32).tolist() == list(partner)
            assert built[1:] == built[:-1] and len({hash(m) for m in built}) == 1
            for copied in (copy.copy(built[0]), copy.deepcopy(built[0]), pickle.loads(pickle.dumps(built[0]))):
                assert copied == built[0] and not copied.partner.flags.writeable
            assert C.Matching(partner) != C.Permutation(partner)
            continue
        with pytest.raises(ValueError) as exc:
            C.Matching(partner)
        assert str(exc.value) == expected


def test_iter_matchings_matches_oracle():
    for n in range(1, 5):
        ours = sorted(tuple(m.partner.tolist()) for m in C.iter_matchings(n))
        brute = sorted(oracles.all_matchings(n))
        assert ours == brute
        assert len(ours) == C.count_matchings(n)


def test_count_matchings_double_factorial():
    assert [C.count_matchings(n) for n in range(1, 7)] == [1, 3, 15, 105, 945, 10395]


def test_shift_reversal_group_relations():
    # the one-point turn has order 2n and the reflection is an involution
    rows = C._matching_partners(3)
    cur = rows
    for _ in range(6):
        cur = C._rotate_partners(cur, 1)
    assert np.array_equal(cur, rows)
    assert np.array_equal(C._reverse_partners(C._reverse_partners(rows)), rows)


def test_matching_text_roundtrip():
    m = C.Matching((3, 5, 1, 6, 2, 4))
    assert C.parse_matching(C.format_matching(m)) == m
    with pytest.raises(ValueError):
        C.parse_matching("1-2 2-3")


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(1, 2), (1, 2)], "pair 2: point 1 already paired"),
        ([(1, 2), (2, 3)], "pair 2: point 2 already paired"),
        ([(1, 2), (4, 3), (5, 6), (6, 4)], "pair 4: point 6 already paired"),
        ([(1, 1), (2, 3)], "point 1 is a fixed point"),
    ],
)
def test_matching_from_pairs_names_the_repeated_point(pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        C.Matching.from_pairs(pairs)
    text = " ".join(f"{a}-{b}" for a, b in pairs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        C.parse_matching(text)


# ---------------------------------------------------------------------------
# xyz statistics and decomposability
# ---------------------------------------------------------------------------


def test_xyz_frozen_examples():
    for text, xyz in (("1-2 3-4", (2, 0, 1)), ("1-3 2-4", (0, 4, 2)), ("1-4 2-5 3-6", (0, 0, 3))):
        m = C.parse_matching(text)
        assert oracles.xyz_stats(m.partner) == xyz
        assert C.xyz_stats(m) == xyz


def test_decomposed_counts_formula_values():
    assert C.count_decomposed(4, 2) == 450
    assert C.count_decomposed(5, 2) == 4725
    assert C.count_decomposed(5, 3) == 3150
    # formula (n-k) m_{k+1} m_{n-k+1}
    for n in range(4, 9):
        for k in range(2, n - 1):
            expected = (n - k) * C.count_matchings(k + 1) * C.count_matchings(n - k + 1)
            assert C.count_decomposed(n, k) == expected


def test_k_decomposition_finds_valid_witnesses():
    # every size-4 matching is 2-decomposable (no xyz = (0,0,0) exists there)
    for m in C.iter_matchings(4):
        cuts = _stacked_cuts(np.asarray([m.partner]))[0]
        assert cuts is not None
        assert oracles.closed_side_k(m.partner, oracles.cut_side(*cuts)) == 2
    # at size 5 both outcomes occur
    found = sum(1 for m in C.iter_matchings(5) if _stacked_cuts(np.asarray([m.partner]))[0] is not None)
    assert 0 < found < C.count_matchings(5)


def test_phi_bijection_small():
    # phi on the exhaustive scan's (matching, cut set) pairs: the independent
    # inverse gives back each matching and the four arcs between its cuts,
    # there are d_n^k images, and they are distinct
    for n in (4, 5):
        partners = C._matching_partners(n)
        row, cuts, ks = X._matching_cut_scan(partners)
        for k in range(2, n - 1):
            decomposed, cut_sets = partners[row[ks == k]], cuts[ks == k]
            big, mark, small = C._phi_rows(decomposed, cut_sets)
            images = list(zip(map(tuple, big.tolist()), mark.tolist(), map(tuple, small.tolist())))
            for partner, cut, (b, a, s) in zip(decomposed.tolist(), cut_sets.tolist(), images):
                assert 1 < a < b[a - 1]  # the smaller end of a chord that misses point 1
                assert oracles.phi_inverse(b, a, s) == (tuple(partner), _cut_arcs(cut, 2 * n))
            assert len(images) == C.count_decomposed(n, k)
            assert len(set(images)) == len(images)


def _cut_arcs(cuts, two_n):
    """The four arcs between circular cut gaps, from the one holding point 1."""
    bounds = [*cuts, cuts[0] + two_n]
    arcs = [tuple(p % two_n + 1 for p in range(a, b)) for a, b in zip(bounds, bounds[1:])]
    at = next(t for t, arc in enumerate(arcs) if 1 in arc)
    return tuple(arcs[at:] + arcs[:at])


# ---------------------------------------------------------------------------
# Dyck paths
# ---------------------------------------------------------------------------


def test_dyck_validation_and_enumeration():
    with pytest.raises(ValueError):
        C.parse_dyck("UDD")
    with pytest.raises(ValueError):
        C.parse_dyck("DU")
    for n in range(1, 6):
        ours = [C.format_dyck(w) for w in C.iter_dyck_paths(n)]
        assert ours == sorted(oracles.all_dyck_words(n))
    # the stack holds every word once, in lexicographic order (D < U)
    for n in range(0, 11):
        rows = C._dyck_rows(n)
        assert rows.dtype == np.int8 and rows.shape == (C._catalan(n), 2 * n)
        assert rows.tolist() == [[1 if c == "U" else -1 for c in w] for w in sorted(oracles.all_dyck_words(n))]


@pytest.mark.parametrize(
    "word, message",
    [
        ("UUxD", "position 3: expected 'U' or 'D', got 'x'"),
        ("UU\u00e9D", "position 3: expected 'U' or 'D', got '\u00e9'"),
        ("UDDU", "position 3: prefix has more D than U"),
        ("UDxU", "position 3: expected 'U' or 'D', got 'x'"),  # also the first negative prefix
        ("DUx", "position 1: prefix has more D than U"),
        ("", "Dyck path must have size >= 1"),
        ("UUD", "unbalanced word: number of U and D steps differ"),
    ],
)
def test_dyck_error_messages(word, message):
    with pytest.raises(ValueError) as exc:
        C.parse_dyck(word)
    assert str(exc.value) == message
    if set(word) <= set("UD"):  # the same fault in a step row gets the same message
        with pytest.raises(ValueError) as exc:
            C.DyckPath([1 if c == "U" else -1 for c in word])
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "steps, message",
    [
        ([1, 0, -1], "position 2: expected step 1 or -1, got 0"),
        (np.array([1, 257, -1, -1]), "position 2: expected step 1 or -1, got 257"),  # would wrap to 1
        ([1, -1, -1, 2], "position 4: expected step 1 or -1, got 2"),  # a bad step before any prefix
        ([1, -1, -1, 1], "position 3: prefix has more D than U"),
    ],
)
def test_dyck_step_error_messages(steps, message):
    with pytest.raises(ValueError) as exc:
        C.DyckPath(steps)
    assert str(exc.value) == message


def test_irreducible_enumeration_and_counts():
    for n in range(1, 11):
        rows = C._enclosed_rows(C._dyck_rows(n - 1))
        words = [C.format_dyck(w) for w in map(C.DyckPath, rows)]
        brute = [w for w in oracles.all_dyck_words(n) if oracles.brute_irreducible(w)]
        assert words == sorted(brute)
        assert [C.format_dyck(w) for w in C.iter_irreducible_dyck(n)] == words
        assert rows.shape[0] == C.count_irreducible_dyck(n)
        pal = (rows == -rows[:, ::-1]).all(axis=1)
        assert int(pal.sum()) == C.count_palindromic_irreducible(n)
        swap = str.maketrans("UD", "DU")
        assert [w for w, p in zip(words, pal) if p] == [w for w in words if w == w[::-1].translate(swap)]
    with pytest.raises(ValueError):
        C.iter_irreducible_dyck(0)


def test_heights_example():
    h, f = C._heights_arrays(C.parse_dyck("UUDUDD").steps)
    assert tuple(h.tolist()) == (1, 2, 2)
    assert tuple(f.tolist()) == (1, 1, 0)


# ---------------------------------------------------------------------------
# symmetric matchings
# ---------------------------------------------------------------------------


def _rotation_fixed_count(n: int, d: int) -> int:
    two_n = 2 * n
    s = two_n // d
    count = 0
    for partner in oracles.all_matchings(n):
        if all(partner[(i + s) % two_n] == (partner[i] + s - 1) % two_n + 1 for i in range(two_n)):
            count += 1
    return count


def test_symmetric_matching_counts_vs_brute():
    for n in range(1, 6):
        for d in range(2, 2 * n + 1):
            if (2 * n) % d:
                continue
            assert C.count_symmetric_matchings(n, d) == _rotation_fixed_count(n, d), (n, d)


def test_symmetric_matching_counts_reject_bad_input():
    # like count_matchings, a negative size is an error, not the empty count
    with pytest.raises(ValueError, match="n must be >= 0"):
        C.count_symmetric_matchings(-1, 2)
    with pytest.raises(ValueError, match="n must be >= 0"):
        C.count_matchings(-1)
    with pytest.raises(ValueError, match="d must be >= 2"):
        C.count_symmetric_matchings(2, 1)
    with pytest.raises(ValueError, match="does not divide"):
        C.count_symmetric_matchings(2, 3)
    assert C.count_symmetric_matchings(0, 2) == 1


def _fixed_by_dihedral_map(partner: tuple[int, ...]) -> bool:
    # image of the set of chords under each rotation x -> x + r and each
    # reflection x -> c - x of the points 1..2n (mod 2n)
    two_n = len(partner)
    pairs = {frozenset((i, j)) for i, j in enumerate(partner, start=1)}
    maps = [lambda x, r=r: (x + r) % two_n for r in range(1, two_n)]
    maps += [lambda x, c=c: (c - x) % two_n for c in range(two_n)]
    return any({frozenset(f(x) or two_n for x in pr) for pr in pairs} == pairs for f in maps)


def test_has_nontrivial_symmetry_consistency():
    for n in range(1, 6):
        for m in C.iter_matchings(n):
            assert C.has_nontrivial_symmetry(m) == _fixed_by_dihedral_map(m.partner), m.partner
    # fixed by the reflection x -> 3 - x (mod 6) and by no rotation
    m = C.Matching.from_pairs([(1, 2), (3, 5), (4, 6)])
    assert not any(
        {frozenset(((a + r - 1) % 6 + 1, (b + r - 1) % 6 + 1)) for a, b in m.pairs()} == set(map(frozenset, m.pairs()))
        for r in range(1, 6)
    )
    assert C.has_nontrivial_symmetry(m)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_permutation_uniform():
    rng = RNG(1)
    counts = Counter(C.sample_permutation(3, rng) for _ in range(12000))
    assert len(counts) == 6
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


@pytest.mark.parametrize("batch", [1, 3, 20])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_permutation_batch_rows_are_successive_draws(n, batch):
    # row i is the (i+1)-th rng.permutation(n) + 1, the generator ends in the
    # same state, and sample_permutation is row 0
    for s in range(3):
        rng_batch, rng_ref, rng_one = RNG(s), RNG(s), RNG(s)
        rows = C._sample_permutations_batch(n, batch, rng_batch)
        assert rows.dtype == np.int32 and rows.shape == (batch, n)
        assert np.array_equal(rows, [rng_ref.permutation(n) + 1 for _ in range(batch)])
        assert rng_batch.random() == rng_ref.random()
        p = C.sample_permutation(n, rng_one)
        assert np.array_equal(_seed_row(p.mapping, np.int32), rows[0])
        assert p == C.Permutation(rows[0]) == C.Permutation(rows[0].tolist()) == C.Permutation(tuple(rows[0]))
        assert hash(p) == hash(C.Permutation(rows[0].tolist()))


def test_sample_matching_uniform():
    rng = RNG(2)
    counts = Counter(C.sample_matching(3, rng) for _ in range(15000))
    assert len(counts) == 15
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_sample_matching_is_batch_row(n):
    # the scalar sampler is the one-row case of the batch sampler: same
    # matching, and the generator is left in the same state
    for s in range(3):
        rng_one, rng_batch = RNG(s), RNG(s)
        m = C.sample_matching(n, rng_one)
        row = C._sample_matchings_batch(n, 1, rng_batch)[0]
        assert np.array_equal(_seed_row(m.partner, np.int32), row + 1)
        assert m == C.Matching(row + 1) and hash(m) == hash(C.Matching(tuple(int(v) + 1 for v in row)))
        assert rng_one.random() == rng_batch.random()


def test_batch_sampler_rows_are_int32_argsort_pairings():
    # int32 rows, and the same matchings and final generator state as
    # pairing consecutive positions of the shuffle into an int64 array
    # from 2n = 2048 up the key keeps fewer than the 53 bits of a float
    for n, batch in [(1, 4), (3, 50), (500, 7), (1024, 5), (1025, 5), (2000, 4), (10_000, 2)]:
        for s in range(3):
            rng_batch, rng_ref = RNG(s), RNG(s)
            rows = C._sample_matchings_batch(n, batch, rng_batch)
            order = np.argsort(rng_ref.random((batch, 2 * n)), axis=1)
            ref = np.empty((batch, 2 * n), dtype=np.int64)
            np.put_along_axis(ref, order[:, 0::2], order[:, 1::2], axis=1)
            np.put_along_axis(ref, order[:, 1::2], order[:, 0::2], axis=1)
            assert rows.dtype == np.int32 and rows.shape == (batch, 2 * n)
            assert np.array_equal(rows, ref)
            assert rng_batch.random() == rng_ref.random()


class _FixedUniforms:
    """A stand-in generator whose ``random`` fills ``out`` with the given rows."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        assert out.shape == self.u.shape
        out[...] = self.u
        return out


@pytest.mark.parametrize("n", [2, 2000])
def test_batch_sampler_tied_keys_follow_argsort(n):
    # rows whose sort keys tie above the position bits: exact duplicates, and
    # float neighbours that share a key once it keeps fewer than 53 bits
    # (2n > 2048), the larger one at the earlier position so that key order
    # and float order disagree; the last row keeps its distinct uniforms;
    # buffers with more rows than the batch are written in their leading rows
    u = np.random.default_rng(40).random((4, 2 * n))
    u[0, 0] = u[0, 1] = 0.5
    u[1, 0], u[1, -1] = np.nextafter(0.75, 1.0), 0.75
    u[2, :] = 0.25
    u[2, 1::2] = np.nextafter(0.25, 0.0)
    order = np.argsort(u, axis=1)
    ref = np.empty((4, 2 * n), dtype=np.int64)
    np.put_along_axis(ref, order[:, 0::2], order[:, 1::2], axis=1)
    np.put_along_axis(ref, order[:, 1::2], order[:, 0::2], axis=1)
    for buffers in (None, C._matching_buffers(n, 6)):
        assert np.array_equal(C._sample_matchings_batch(n, 4, _FixedUniforms(u), buffers), ref)


def test_batch_sampler_reused_buffers_draw_the_same_rows():
    # blocks drawn into one reused set of buffers, the last block short, are
    # the rows of one unbuffered draw and leave the generator in its state;
    # x, y, z counted through the order buffer as scratch are unchanged
    for n, total, block in [(1, 5, 2), (7, 10, 3), (2000, 70, 32)]:
        rng_buf, rng_ref = RNG(n), RNG(n)
        ref = C._sample_matchings_batch(n, total, rng_ref)
        buffers = C._matching_buffers(n, block)
        for lo in range(0, total, block):
            rows = C._sample_matchings_batch(n, min(block, total - lo), rng_buf, buffers)
            assert rows.dtype == np.int32 and np.array_equal(rows, ref[lo : lo + block])
            got = C._xyz_batch(rows, scratch=buffers[2][: rows.shape[0]])
            for a, b in zip(got, C._xyz_batch(ref[lo : lo + block]), strict=True):
                assert np.array_equal(a, b)
        assert rng_buf.random() == rng_ref.random()


def test_sample_dyck_uniform():
    rng = RNG(3)
    counts = Counter(C.sample_dyck(3, rng) for _ in range(15000))
    assert len(counts) == 5
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3


def test_sample_irreducible_dyck_uniform():
    rng = RNG(4)
    counts = Counter(C.sample_irreducible_dyck(4, rng) for _ in range(15000))
    assert len(counts) == C.count_irreducible_dyck(4) == 5
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3
    assert all(w.is_irreducible() for w in counts)


class _RecordingBytes:
    """A generator whose ``bytes`` draws are kept, for reading the fair bits
    :func:`C._dyck_steps` starts from."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.drawn = rng, []

    def bytes(self, length: int) -> bytes:
        self.drawn.append(self.rng.bytes(length))
        return self.drawn[-1]

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


@pytest.mark.parametrize("n, draws_per_word", [(5, 200), (6, 100)])
def test_sample_dyck_uniform_over_all_words(n, draws_per_word):
    rng = _RecordingBytes(RNG(n))
    words = [C.DyckPath(C._dyck_steps(n, rng)) for _ in range(C._catalan(n) * draws_per_word)]
    counts = Counter(words)
    assert set(counts) == set(C.iter_dyck_paths(n))
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 1e-3
    # the draws flipped ups, flipped downs and kept their bits as drawn
    excess = Counter(
        np.sign("".join(f"{byte:08b}" for byte in drawn)[: 2 * n + 1].count("1") - n) for drawn in rng.drawn
    )
    assert set(excess) == {-1, 0, 1}


class _FixedBits:
    """Hands out the bytes of one word of sum -1, packed most significant bit first."""

    def __init__(self, word: np.ndarray) -> None:
        self.packed = np.packbits(word > 0).tobytes()

    def bytes(self, length: int) -> bytes:
        assert length == len(self.packed)
        return self.packed


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations([1] * n + [-1] * (n + 1))))
def test_dyck_cut_is_the_first_prefix_minimum(word):
    # n ups among the fair bits leave nothing to flip, so the word is cut as drawn
    word = np.array(word, dtype=np.int8)
    cut = int(np.argmin(np.cumsum(word)))
    steps = C._dyck_steps(word.size // 2, _FixedBits(word))
    assert steps.dtype == np.int8
    assert np.array_equal(steps, np.concatenate((word[cut + 1 :], word[:cut])))


def test_dyck_steps_of_size_zero_draw_nothing():
    rng = RNG(5)
    state = rng.bit_generator.state
    assert C._dyck_steps(0, rng).size == 0
    assert rng.bit_generator.state == state


def _cumsum_heights(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(h, f) as the walk at the up steps and after the down steps, or None
    if the walk goes below 0 or does not end at 0."""
    walk = np.cumsum(steps, dtype=np.int64)
    if walk.size and (walk[-1] or walk.min() < 0):
        return None
    return walk[steps > 0], walk[steps < 0]


@st.composite
def _step_arrays(draw) -> np.ndarray:
    """±1 int8 arrays: Dyck words, Dyck words with one step flipped, dropped
    or moved, and arbitrary words."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.sampled_from([1, -1]), max_size=30)), dtype=np.int8)
    steps = C._dyck_steps(draw(st.integers(0, 30)), RNG(draw(st.integers(0, 2**32 - 1))))
    if not steps.size:
        return steps
    pos = draw(st.integers(0, steps.size - 1))
    corruption = draw(st.sampled_from(["none", "flip", "drop", "move"]))
    if corruption == "flip":
        steps[pos] = -steps[pos]
    elif corruption == "drop":
        steps = np.delete(steps, pos)
    elif corruption == "move":
        steps = np.insert(np.delete(steps, pos), draw(st.integers(0, steps.size - 1)), steps[pos])
    return steps


@settings(max_examples=300, deadline=None)
@given(_step_arrays())
def test_heights_arrays_equal_the_cumulative_walk(steps):
    expected = _cumsum_heights(steps)
    if expected is None:
        with pytest.raises(ValueError, match="do not form a Dyck word"):
            C._heights_arrays(steps)
        return
    words = [steps, C.DyckPath(steps).steps] if steps.size else [steps]  # a raw row and a DyckPath's
    for got in map(C._heights_arrays, words):
        for a, b in zip(got, expected):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)


def test_sample_irreducible_dyck_validates_once(monkeypatch):
    checks = []
    validate = C.DyckPath.__post_init__

    def counting(self):
        checks.append(self.steps)
        validate(self)

    monkeypatch.setattr(C.DyckPath, "__post_init__", counting)
    for n in (1, 2, 50):
        checks.clear()
        w = C.sample_irreducible_dyck(n, RNG(n))
        assert len(checks) == 1 and np.array_equal(checks[0], w.steps)
        # the one-row sampler wraps its step row, and so does sample_dyck
        assert np.array_equal(_seed_row(w.steps, np.int8), C._irreducible_dyck_steps(n, RNG(n)))
        assert C.sample_dyck(n, RNG(n)) == C.DyckPath(C._dyck_steps(n, RNG(n)))


def test_heights_arrays_of_a_stack_are_its_rows():
    rows = np.concatenate((C._enclosed_rows(C._dyck_rows(5)), C._dyck_rows(6)))
    h, f = C._heights_arrays(rows)
    assert h.shape == f.shape == (rows.shape[0], 6)
    for row, row_h, row_f in zip(rows, h, f):
        one_h, one_f = C._heights_arrays(row)
        assert np.array_equal(row_h, one_h) and np.array_equal(row_f, one_f)
    for shape in ((0, 8), (3, 0)):
        h, f = C._heights_arrays(np.zeros(shape, dtype=np.int8))
        assert h.shape == f.shape == (shape[0], shape[1] // 2)
    # one U too many in a row and one too few in the next balance in total,
    # but neither row is a Dyck word; nor is a reversed word
    uneven = rows[:2].copy()
    uneven[0, -1], uneven[1, 1] = 1, -1
    for bad in (uneven, np.concatenate((rows, rows[-1:, ::-1]))):
        with pytest.raises(ValueError, match="do not form a Dyck word"):
            C._heights_arrays(bad)


def test_heights_arrays_rejects_corrupted_steps():
    steps = C._irreducible_dyck_steps(40, RNG(1))
    h, f = C._heights_arrays(steps)
    text_h, text_f = C._heights_arrays(C.parse_dyck(C.format_dyck(C.DyckPath(steps))).steps)
    assert np.array_equal(h, text_h) and np.array_equal(f, text_f)
    # first step flipped (negative prefix), last step dropped (unbalanced),
    # word reversed (starts with D)
    for bad in (np.concatenate((-steps[:1], steps[1:])), steps[:-1], steps[::-1]):
        with pytest.raises(ValueError, match="do not form a Dyck word"):
            C._heights_arrays(bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_sampled_objects_are_valid(n, seed):
    rng = RNG(seed)
    w = C.sample_dyck(n, rng)
    assert w.size == n
    wi = C.sample_irreducible_dyck(n, rng)
    assert wi.is_irreducible()
    m = C.sample_matching(n, rng)
    assert m.size == n
    p = C.sample_permutation(n, rng)
    assert sorted(p.mapping.tolist()) == list(range(1, n + 1))


def test_indecomposable_small_values():
    # n <= 3: every matching is indecomposable (no valid k exists)
    for n in (1, 2, 3):
        assert all(C.is_indecomposable(m) for m in C.iter_matchings(n))
    # n = 4, 5: every k in [2, n-2] is 2 or n-2, so indecomposable iff
    # xyz = (0,0,0); the 22 such matchings at n = 5 take the cut search
    for n in (4, 5):
        for m in C.iter_matchings(n):
            assert C.is_indecomposable(m) == (C.xyz_stats(m) == (0, 0, 0))


_matching_points = st.integers(1, 10).flatmap(lambda n: st.permutations(range(1, 2 * n + 1)))


@settings(max_examples=60, deadline=None)
@given(_matching_points)
def test_decomposition_search_matches_brute_force(points):
    m = C.Matching.from_pairs(zip(points[::2], points[1::2]))
    decomposable = oracles.brute_is_decomposable(m.partner)
    assert C.is_indecomposable(m) == (not decomposable)
    # the cut search on its own, with no x/y/z fast path
    cuts = _stacked_cuts(np.asarray([m.partner]))[0]
    assert (cuts is not None) == decomposable
    if cuts is not None:
        assert oracles.closed_side_k(m.partner, oracles.cut_side(*cuts)) is not None


def test_decomposition_search_exact_under_hash_collisions(monkeypatch):
    # with every gap hashed alike, every arc pair is a candidate and only
    # the exact check can reject it
    matchings = [m for n in (5, 6) for m in C.iter_matchings(n) if n == 5 or C.xyz_stats(m) == (0, 0, 0)]
    expected = [C.is_indecomposable(m) for m in matchings]
    found = [_stacked_cuts(np.asarray([m.partner]))[0] is not None for m in matchings]
    monkeypatch.setattr(C, "_gap_hashes", lambda p: np.zeros(p.shape, dtype=np.uint64))
    assert [C.is_indecomposable(m) for m in matchings] == expected
    for m, ok in zip(matchings, found):
        cuts = _stacked_cuts(np.asarray([m.partner]))[0]
        assert (cuts is not None) == ok
        if cuts is not None:
            assert oracles.closed_side_k(m.partner, oracles.cut_side(*cuts)) is not None


def _xyz_zero_matching(n, rng):
    while True:
        points = rng.permutation(2 * n) + 1
        m = C.Matching.from_pairs(zip(points[::2].tolist(), points[1::2].tolist()))
        if C.xyz_stats(m) == (0, 0, 0):
            return m


def _planted_xyz_zero(count, rng):
    """(m, k): matchings with x = y = z = 0 glued by the inverse of phi from a
    k-decomposition, so each is decomposable but takes the cut search.
    Parts of size 5 or more are drawn with x = y = z = 0 too (size 4 has
    none), or few gluings qualify."""

    def part(size):
        return _xyz_zero_matching(size, rng) if size >= 5 else C.sample_matching(size, rng)

    cases = []
    while len(cases) < count:
        n = int(rng.integers(10, 201))
        k = int(rng.integers(3, n - 2))
        big, small = part(n - k + 1), part(k + 1)
        marks = [i for i in range(2, 2 * big.size + 1) if big.partner[i - 1] != 1]
        partner, parts = oracles.phi_inverse(big.partner, marks[int(rng.integers(len(marks)))], small.partner)
        m = C.Matching(partner)
        assert oracles.closed_side_k(partner, set(parts[1] + parts[3])) == k
        if C.xyz_stats(m) == (0, 0, 0):
            cases.append((m, k))
    return cases


# SHA-256 of repr() of a list of decomposition search results, recorded with
# the one-row-at-a-time search: every x = y = z = 0 matching of sizes 5-7 in
# enumeration order (none of them decomposable) followed by
# _planted_xyz_zero(100, RNG(6)); every matching of sizes 4-6; and every
# matching of sizes 4-5 with all gap hashes zero, where every arc pair is a
# candidate and the first one the exact check accepts is returned
_PINNED_CUTS = {
    "xyz_zero_and_planted": "54360ddb53b449ce3e6f1d964065c2c7f6903bfb4b9e5c7dd6fd1a01ec5e19b6",
    "every": "dddb8386283b2567015c5be6d3c600c1efead109da8a82021150b5760f67cdb5",
    "colliding": "80328b50b1a43d65564bc4eacfded5dad9ac8db16df39a15c9d07fcb2a393535",
}


def _cuts_digest(cuts):
    return hashlib.sha256(repr(cuts).encode()).hexdigest()


def _stacked_cuts(partners):
    return [None if c[0] < 0 else tuple(c.tolist()) for c in C._decomposition_search(partners - 1)]


def test_decomposition_search_pinned_with_small_blocks(monkeypatch):
    # a few candidates per verification block, so that block edges fall
    # inside every stack; each stack of one size is one search
    monkeypatch.setattr(C, "_CHECK_CELLS", 37)
    found = []
    for n in (5, 6, 7):
        partners = C._matching_partners(n)
        x, y, z = C._xyz_batch(partners - 1)
        found += _stacked_cuts(partners[(x == 0) & (y == 0) & (z == 0)])
    found += [_stacked_cuts(np.asarray([m.partner]))[0] for m, _ in _planted_xyz_zero(100, RNG(6))]
    assert _cuts_digest(found) == _PINNED_CUTS["xyz_zero_and_planted"]
    every = [cuts for n in (4, 5, 6) for cuts in _stacked_cuts(C._matching_partners(n))]
    assert _cuts_digest(every) == _PINNED_CUTS["every"]
    monkeypatch.setattr(C, "_gap_hashes", lambda p: np.zeros(p.shape, dtype=np.uint64))
    colliding = [cuts for n in (4, 5) for cuts in _stacked_cuts(C._matching_partners(n))]
    assert _cuts_digest(colliding) == _PINNED_CUTS["colliding"]


def test_planted_decompositions_are_found():
    # almost every uniform x=y=z=0 matching is indecomposable, so a search
    # that always answers "indecomposable" would pass the sampled checks
    for m, k in _planted_xyz_zero(100, RNG(6)):
        assert not C.is_indecomposable(m)
        cuts = _stacked_cuts(np.asarray([m.partner]))[0]
        assert cuts is not None
        assert oracles.closed_side_k(m.partner, oracles.cut_side(*cuts)) is not None


@pytest.mark.parametrize("n, limit_mib", [(1000, 16), (10_000, 128)])
def test_indecomposability_search_memory_is_bounded(n, limit_mib):
    # a table over all n(2n-1) gap pairs would hold about 2*10^8 entries at n = 10^4
    m = _xyz_zero_matching(n, RNG(n))
    tracemalloc.start()
    try:
        C.is_indecomposable(m)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib
