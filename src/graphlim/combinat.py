"""Seed objects for the three graph families: permutations, chord-diagram
matchings, and Dyck paths.

Conventions
-----------
* All labels are 1-based, matching the combinatorics literature.  A
  permutation is given by its one-line notation ``mapping[i-1] = sigma(i)``.
  A matching of size n is a fixed-point-free involution on ``{1, ..., 2n}``,
  pictured as n chords of a circle whose points are labelled clockwise.
  A Dyck path of size n is a word of n ``U`` and n ``D`` steps in which every
  prefix has at least as many ``U`` as ``D``.
* Text formats: ``"7 1 4 6 5 2 3"`` (permutation), ``"1-3 2-4"`` (matching,
  chords sorted by smaller endpoint), ``"UUDUDD"`` (Dyck path).  Parsers
  reject malformed input with a 1-based position diagnostic.
* Samplers take an explicit :class:`numpy.random.Generator`.  Parallel
  callers must use independently derived child streams (seed derivation:
  ``SeedSequence(master).spawn(...)`` or master seed + task index).
* Counting functions return exact Python integers; no floats anywhere in the
  counting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Permutation",
    "Matching",
    "DyckPath",
    "parse_permutation",
    "parse_matching",
    "parse_dyck",
    "format_permutation",
    "format_matching",
    "sample_permutation",
    "sample_matching",
    "sample_dyck",
    "sample_irreducible_dyck",
    "is_simple",
    "is_indecomposable",
    "xyz_stats",
    "count_matchings",
    "count_decomposed",
    "count_irreducible_dyck",
    "count_palindromic_irreducible",
    "count_symmetric_matchings",
    "has_nontrivial_symmetry",
    "iter_matchings",
    "iter_dyck_paths",
    "iter_irreducible_dyck",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation: ``mapping[i-1] = sigma(i)``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if n == 0:
            raise ValueError("permutation must have size >= 1")
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of {{1..{n}}}: {self.mapping}")

    @property
    def size(self) -> int:
        return len(self.mapping)


@dataclass(frozen=True)
class Matching:
    """A fixed-point-free involution on {1..2n}: ``partner[i-1] = m(i)``.

    Point i sits at angle 2*pi*i/(2n) on the circle; chord {i, m(i)}.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.partner)
        if p.size == 0 or p.size % 2:
            raise ValueError("matching needs an even, positive number of points")
        points = np.arange(1, p.size + 1)
        outside = (p < 1) | (p > p.size)
        fixed = p == points
        # the first bad point, with the faults at it in order of priority
        bad = outside | fixed | (p[np.clip(p, 1, p.size) - 1] != points)
        if bad.any():
            i = int(bad.argmax())
            if outside[i]:
                raise ValueError(f"point {i + 1}: partner {self.partner[i]} out of range 1..{p.size}")
            if fixed[i]:
                raise ValueError(f"point {i + 1} is a fixed point")
            raise ValueError(f"not an involution at point {i + 1}")

    @property
    def size(self) -> int:
        return len(self.partner) // 2

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Chords as (smaller, larger) pairs, sorted by smaller endpoint."""
        return tuple(
            (i, j) for i, j in enumerate(self.partner, start=1) if i < j
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        pairs = list(pairs)
        partner = [0] * (2 * len(pairs))
        for a, b in pairs:
            if not (1 <= a <= len(partner) and 1 <= b <= len(partner)):
                raise ValueError(f"pair {a}-{b}: endpoint out of range 1..{len(partner)}")
            partner[a - 1] = b
            partner[b - 1] = a
        return cls(tuple(partner))


@dataclass(frozen=True)
class DyckPath:
    """A Dyck word over {U, D}: balanced, with every prefix U-dominant."""

    steps: str

    def __post_init__(self) -> None:
        codes = np.frombuffer(self.steps.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        ups = codes == ord("U")
        bad = np.flatnonzero(~ups & (codes != ord("D")))
        # Bad characters count as down steps: the heights before the first
        # one are exact, and a bad character is reported ahead of a negative
        # prefix at the same position, as a left-to-right scan would.
        walk = np.cumsum(np.where(ups, 1, -1))
        negative = np.flatnonzero(walk < 0)
        if bad.size and (not negative.size or bad[0] <= negative[0]):
            pos = int(bad[0])
            raise ValueError(f"position {pos + 1}: expected 'U' or 'D', got {self.steps[pos]!r}")
        if negative.size:
            raise ValueError(f"position {int(negative[0]) + 1}: prefix has more D than U")
        if walk.size and walk[-1] != 0:
            raise ValueError("unbalanced word: number of U and D steps differ")
        if not self.steps:
            raise ValueError("Dyck path must have size >= 1")

    @property
    def size(self) -> int:
        return len(self.steps) // 2

    def is_irreducible(self) -> bool:
        """True iff every proper prefix has strictly more U than D."""
        ups = np.frombuffer(self.steps.encode("ascii"), dtype=np.uint8) == ord("U")
        return bool(np.all(np.cumsum(np.where(ups, 1, -1))[:-1] > 0))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def parse_permutation(text: str) -> Permutation:
    values = []
    for pos, tok in enumerate(text.split(), start=1):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"token {pos}: expected an integer, got {tok!r}") from None
    return Permutation(tuple(values))


def format_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.mapping)


def parse_matching(text: str) -> Matching:
    pairs = []
    for pos, tok in enumerate(text.split(), start=1):
        a, sep, b = tok.partition("-")
        if not sep or not a or not b:
            raise ValueError(f"pair {pos}: expected 'a-b', got {tok!r}")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"pair {pos}: non-integer endpoint in {tok!r}") from None
    return Matching.from_pairs(pairs)


def format_matching(m: Matching) -> str:
    return " ".join(f"{a}-{b}" for a, b in m.pairs())


def parse_dyck(text: str) -> DyckPath:
    return DyckPath(text.strip())


# ---------------------------------------------------------------------------
# Uniform samplers
# ---------------------------------------------------------------------------


def _sample_permutations_batch(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """One-line notations of `batch` uniform permutations of {1..n}, an int64
    array of shape (batch, n).

    ``rng.permuted`` shuffles each row of a tiled 1..n in place with the
    generator's Fisher-Yates rule, row after row, so row i is the (i+1)-th
    ``rng.permutation(n) + 1`` and the generator ends in the same state.
    """
    rows = np.tile(np.arange(1, n + 1), (batch, 1))
    return rng.permuted(rows, axis=1, out=rows)


def sample_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform permutation of {1..n}: the one-row case of the batch sampler.

    It draws the same permutation as row 0 of ``_sample_permutations_batch(n,
    1, rng)``, which is ``rng.permutation(n) + 1``, and leaves the generator in
    the same state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(tuple(_sample_permutations_batch(n, 1, rng)[0].tolist()))


def _matching_buffers(n: int, batch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniforms, keys, order and partners for :func:`_sample_matchings_batch`:
    (batch, 2n) arrays of float64, int64, int32 and int32.

    A caller that draws many blocks passes the same buffers to each, so a
    block's few megabytes stay with the process: freed, they may go back to
    the OS and be faulted in again by the next block, and how often the
    allocator does so varies from process to process.
    """
    shape = (batch, 2 * n)
    return np.empty(shape), np.empty(shape, np.int64), np.empty(shape, np.int32), np.empty(shape, np.int32)


def _sample_matchings_batch(
    n: int,
    batch: int,
    rng: np.random.Generator,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """0-based int32 partner arrays of `batch` uniform matchings, shape (batch, 2n).

    Consecutive positions of a uniform shuffle are paired; every matching
    arises from exactly 2^n n! shuffles, so the law is uniform.  The shuffle
    is the argsort of one row of `rng.random`, found by an in-place sort of
    int64 keys floor(u * 2^(63-b)) * 2^b + position, b = bit_length(2n - 1):
    while a row's truncated floats are distinct the key order is the float
    order.  A row where two keys tie above the position bits (about 4e-9 per
    row at n = 2000, exact float ties included) is argsorted from its floats,
    so every row and the generator's final state equal the argsort rule's,
    tie-breaking included.  Rows are int32 (2n < 2^31), written by two half
    scatters, each position of a pair receiving the other.

    With `buffers` from :func:`_matching_buffers` of at least `batch` rows
    the rows are written into its leading rows, and the returned array is a
    view of its partner buffer, valid until the buffers are used again.
    """
    two_n = 2 * n
    b = (two_n - 1).bit_length()
    u, key, order, partner = (a[:batch] for a in buffers or _matching_buffers(n, batch))
    rng.random(out=u)
    np.multiply(u, 2.0 ** (63 - b), out=key, casting="unsafe")
    key <<= b
    key |= np.arange(two_n)
    key.sort(axis=1)
    np.bitwise_and(key, (1 << b) - 1, out=order, casting="unsafe")
    key >>= b  # the truncated floats, sorted
    tied = np.flatnonzero((key[:, 1:] == key[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(u[tied], axis=1)
    flat = np.add(order, np.arange(0, batch * two_n, two_n)[:, None], out=key)
    scatter = partner.reshape(-1)
    scatter[flat[:, 0::2]] = order[:, 1::2]
    scatter[flat[:, 1::2]] = order[:, 0::2]
    return partner


def sample_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniform matching of size n: the one-row case of the batch sampler.

    It pairs consecutive positions of one uniform shuffle of the 2n points,
    so it draws the same matching as row 0 of ``_sample_matchings_batch(n,
    1, rng)`` and leaves the generator in the same state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Matching(tuple((_sample_matchings_batch(n, 1, rng)[0] + 1).tolist()))


def _dyck_steps(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform Dyck word of size n >= 0 as int8 steps, +1 for U and -1 for D
    (:func:`sample_dyck`).  n = 0 draws nothing.

    2n + 1 fair bits from ``rng.bytes`` (1 is U) are made to hold n ups by
    flipping |#ones - n| positions of the majority value, chosen uniformly
    without replacement: the word stays exchangeable with a fixed count, so
    it is uniform over the words of sum -1.  After the i-th D (0-based), at
    position d_i, the prefix sum is d_i - 2i - 1, and a first prefix minimum
    falls on a D, so the cut is read off the D positions with no cumulative
    sum; the word is rotated to start just after it and that D is left out.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    size = 2 * n + 1
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-size // 8)), np.uint8), count=size)
    excess = int(np.count_nonzero(bits)) - n
    if excess:
        side = np.flatnonzero(bits == (excess > 0))
        bits[side[rng.choice(side.size, abs(excess), replace=False)]] ^= 1
    down = np.flatnonzero(bits == 0)
    cut = int(down[np.argmin(down - 2 * np.arange(down.size))])
    word = np.concatenate((bits[cut + 1 :], bits[:cut])).view(np.int8)
    word <<= 1  # bits 0 and 1 become steps -1 and +1
    word -= 1
    return word


def _irreducible_dyck_steps(n: int, rng: np.random.Generator) -> np.ndarray:
    """U + (uniform Dyck word of size n-1) + D as int8 steps, n >= 1."""
    return np.concatenate(([1], _dyck_steps(n - 1, rng), [-1]), dtype=np.int8)


def _word_text(steps: np.ndarray) -> str:
    """The U/D text of an int8 step array."""
    return np.where(steps > 0, b"U", b"D").tobytes().decode("ascii")


def sample_dyck(n: int, rng: np.random.Generator) -> DyckPath:
    """Uniform Dyck path of size n via the cycle lemma (Dvoretzky and
    Motzkin, 1947).

    Draw a uniform word with n up steps and n+1 down steps (total sum -1)
    from fair bits, and rotate it to begin just after the first position
    attaining the minimal prefix sum; dropping the final down step leaves a
    Dyck word.  Every Dyck word corresponds to exactly 2n+1 of the words of
    sum -1 (such a word has no cyclic symmetry), so the output is exactly
    uniform over the Catalan(n) paths.  See :func:`_dyck_steps` for the draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return DyckPath(_word_text(_dyck_steps(n, rng)))


def sample_irreducible_dyck(n: int, rng: np.random.Generator) -> DyckPath:
    """Uniform irreducible Dyck path: U + (uniform path of size n-1) + D."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DyckPath(_word_text(_irreducible_dyck_steps(n, rng)))


# ---------------------------------------------------------------------------
# Permutation structure
# ---------------------------------------------------------------------------


def _simple_flags(rows: np.ndarray) -> np.ndarray:
    """Simplicity of each row of a (B, n) stack of one-line notations.

    A row is not simple when some interval of width 2..n-1 has a contiguous
    image, max - min = width - 1.  One pass per start position keeps the
    running maxima and minima of each undecided row's suffix; a row found
    not simple leaves the stack before the next pass.  Two adjacent values
    side by side, the most common witness, are looked for first, in one
    pass over the whole stack.
    """
    n = rows.shape[1]
    simple = (np.abs(np.diff(rows, axis=1)) != 1).all(axis=1) if n > 2 else np.ones(rows.shape[0], dtype=bool)
    live = np.flatnonzero(simple)
    for i in range(n - 1):
        tail = rows[live, i:]
        span = np.maximum.accumulate(tail, axis=1) - np.minimum.accumulate(tail, axis=1)
        found = (span == np.arange(n - i))[:, 1 : n - 1].any(axis=1)
        simple[live[found]] = False
        live = live[~found]
    return simple


def is_simple(p: Permutation) -> bool:
    """True iff p has no interval I with 2 <= |I| <= n-1 and contiguous image.

    >>> is_simple(parse_permutation("2 4 1 3"))
    True
    >>> is_simple(parse_permutation("7 1 4 6 5 2 3"))
    False
    """
    return bool(_simple_flags(np.array([p.mapping]))[0])


# ---------------------------------------------------------------------------
# Matching transforms and statistics
# ---------------------------------------------------------------------------


def _rotate_partners(partner: np.ndarray, r: int) -> np.ndarray:
    """Turn matchings by r points: chord (i, j) becomes (i+r, j+r) mod 2n.

    Acts on 1-based partner arrays along the last axis, so a whole stack of
    matchings turns at once.
    """
    two_n = partner.shape[-1]
    return np.roll((partner - 1 + r) % two_n + 1, r, axis=-1)


def _reverse_partners(partner: np.ndarray) -> np.ndarray:
    """Reflect matchings: chord (i, j) becomes (2n+1-i, 2n+1-j) (last axis)."""
    return (partner.shape[-1] + 1 - partner)[..., ::-1]


def _xyz_batch(partner: np.ndarray, scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) as int64 for each row of int32 (2n < 2^31) or int64 0-based partners.

    With d = partner - index, x counts d in {1, 1-2n} and y counts d in {2, 2-2n}
    (wrapped values fit only the last two columns).  z's only candidates are the
    ~2 per row where consecutive partners differ by +-1 (mod 2n): k, k+1 -> ell,
    ell+1 counts if 1 < ell - k (ell - k = 2n-1 arises only at n = 1, and a flat
    pair across a row end has k = 2n-1, so neither counts).  A `scratch`
    array of partner's shape and dtype holds the two full-size differences
    in turn.
    """
    rows, two_n = partner.shape
    d = np.subtract(partner, np.arange(two_n, dtype=partner.dtype), out=scratch)
    pos = np.flatnonzero((d == 1) | (d == 2))
    row, is_x = pos // two_n, d.reshape(-1)[pos] == 1
    x = np.bincount(row[is_x], minlength=rows) + (d[:, -1] == 1 - two_n)
    y = np.bincount(row[~is_x], minlength=rows) + (d[:, -2] == 2 - two_n) + (d[:, -1] == 2 - two_n)
    del d
    flat = partner.reshape(-1)
    step = np.subtract(flat[1:], flat[:-1], out=None if scratch is None else scratch.reshape(-1)[1:])
    np.abs(step, out=step)
    pos = np.flatnonzero((step == 1) | (step == two_n - 1))
    del step
    a, b = flat[pos], flat[pos + 1]
    row, k = np.divmod(pos, two_n)
    ell = np.where((b - a == 1) | (b - a == 1 - two_n), a, b)
    return x, y, np.bincount(row[ell - k > 1], minlength=rows)


def xyz_stats(m: Matching) -> tuple[int, int, int]:
    """The adjacency statistics (x, y, z) of a matching.

    x counts points with m(i) = i+1 (mod 2n), y those with m(j) = j+2, and
    z counts index pairs k < l <= 2n with l-k != +-1 (mod 2n) such that
    {m(k), m(k+1)} = {l, l+1} (mod 2n): two consecutive points matched onto
    two consecutive points.  This is the one-row case of :func:`_xyz_batch`.
    """
    x, y, z = _xyz_batch(np.asarray(m.partner, dtype=np.int64)[None] - 1)
    return int(x[0]), int(y[0]), int(z[0])


def _heights_arrays(steps: str | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The height and forward-degree sequences (h, f) of a Dyck word given as
    text or as int8 steps, or of every row of a (B, 2n) stack of int8 step
    words (then two (B, n) arrays): h[i-1] is the arrival height of the i-th
    up step, and f[i-1] the number of up steps strictly between the i-th up
    step and the i-th down step.

    The i-th up and down steps (1-based), at 0-based positions u_i and d_i,
    give h_i = (2i - 1) - u_i and f_i = d_i - (2i - 1), and the walk after
    the i-th D is f_i.  Step arrays skip :class:`DyckPath`, so each word is
    checked here: as many U as D, and no f below 0.  A stack goes through
    the same rule on its flat step positions, less each row's start; one
    word skips that bookkeeping, which would double the cost of a short
    word's call.
    """
    if isinstance(steps, str):
        ups = np.frombuffer(steps.encode("ascii"), dtype=np.uint8) == ord("U")
    else:
        ups = steps > 0
    up, down = np.flatnonzero(ups), np.flatnonzero(~ups)
    if ups.ndim > 1:
        # flat positions come row by row: each row must hold n of each kind,
        # and a row's positions are its flat ones less the row's start
        rows, width = ups.shape
        if width % 2 or (np.count_nonzero(ups, axis=1) != width // 2).any():
            raise ValueError("steps do not form a Dyck word")
        start = width * np.arange(rows)[:, None]
        up, down = up.reshape(rows, width // 2) - start, down.reshape(rows, width // 2) - start
    odd = np.arange(1, 2 * down.shape[-1], 2)
    f = down - odd
    if up.shape != down.shape or f.min(initial=0) < 0:
        raise ValueError("steps do not form a Dyck word")
    return odd - up, f


def has_nontrivial_symmetry(m: Matching) -> bool:
    """True iff some nontrivial symmetry of the 2n-gon fixes the matching.

    A reflection is the reversal followed by a turn r = 0..2n-1, and a
    nontrivial rotation is a turn r = 1..2n-1.
    """
    p = np.asarray(m.partner)
    flipped = _reverse_partners(p)
    return any(
        np.array_equal(_rotate_partners(q, r), p)
        for q, first in ((p, 1), (flipped, 0))
        for r in range(first, p.size)
    )


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_matchings(n: int) -> int:
    """m_n = (2n-1)!!, the number of matchings of size n.

    >>> count_matchings(3)
    15
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for t in range(1, 2 * n, 2):
        out *= t
    return out


def count_decomposed(n: int, k: int) -> int:
    """d_n^k = (n-k) * m_{k+1} * m_{n-k+1}: matchings *with* a chosen
    k-decomposition (the same chord set may be counted several times)."""
    if not 2 <= k <= n - 2:
        raise ValueError(f"k={k} outside [2, n-2] for n={n}")
    return (n - k) * count_matchings(k + 1) * count_matchings(n - k + 1)


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def count_irreducible_dyck(n: int) -> int:
    """Number of irreducible Dyck paths of size n: Catalan(n-1).

    >>> count_irreducible_dyck(3)
    2
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _catalan(n - 1)


def count_palindromic_irreducible(n: int) -> int:
    """Number of palindromic irreducible Dyck paths of size n.

    Equals the central-ish binomial binom(n-1, floor((n-1)/2)), the number of
    balanced-or-nearly-balanced prefixes of length n-1.

    >>> count_palindromic_irreducible(4)
    3
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.comb(n - 1, (n - 1) // 2)


def count_symmetric_matchings(n: int, d: int) -> int:
    """Matchings of size n fixed by a rotation of order d (d >= 2, d | 2n).

    Exact evaluation of k! [z^k] exp(z*[d even] + d z^2/2) with k = 2n/d via
    the recurrence a_k = [d even] a_{k-1} + d (k-1) a_{k-2}.

    >>> count_symmetric_matchings(2, 2)
    3
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if d < 2:
        raise ValueError("rotation order d must be >= 2")
    if (2 * n) % d:
        raise ValueError(f"d={d} does not divide 2n={2 * n}")
    k = 2 * n // d
    even = 1 if d % 2 == 0 else 0
    prev2, prev1 = 0, 1  # a_{-1}, a_0
    for t in range(1, k + 1):
        prev2, prev1 = prev1, even * prev1 + d * (t - 1) * prev2
    return prev1


# ---------------------------------------------------------------------------
# Exhaustive enumeration (verification at small sizes)
# ---------------------------------------------------------------------------


def _matching_partners(n: int) -> np.ndarray:
    """1-based partner arrays of all (2n-1)!! matchings of size n, one per row.

    Rows follow :func:`iter_matchings`: point 1 is paired with 2, 3, ..., 2n
    in turn, and for each choice the remaining points carry every matching
    of size n-1 in the same order.
    """
    part = np.zeros((1, 0), dtype=np.int64)  # 0-based, size 0
    for size in range(1, n + 1):
        two = 2 * size
        blocks = []
        for t in range(1, two):
            rest = np.delete(np.arange(1, two), t - 1)
            block = np.empty((part.shape[0], two), dtype=np.int64)
            block[:, 0] = t
            block[:, t] = 0
            block[:, rest] = rest[part]
            blocks.append(block)
        part = np.concatenate(blocks)
    return part + 1


def iter_matchings(n: int) -> Iterator[Matching]:
    """All (2n-1)!! matchings of size n, smallest free point paired first.

    The partner array is built up front (2n (2n-1)!! integers), so this is
    meant for the small sizes of exhaustive checks.

    >>> sum(1 for _ in iter_matchings(3))
    15
    """
    for row in _matching_partners(n):
        yield Matching(tuple(row.tolist()))


def _dyck_rows(n: int) -> np.ndarray:
    """All Catalan(n) Dyck words of size n >= 0 as int8 steps (+1 for U, -1
    for D), one per row, lexicographic (D < U).

    Each prefix row is extended by D and then by U where the word can still
    close, so the rows stay in order; n = 0 gives one empty row.
    """
    rows = np.zeros((1, 0), dtype=np.int8)
    height = np.zeros(1, dtype=np.int64)
    for left in range(2 * n, 0, -1):  # steps still to place
        fits = np.stack((height > 0, height < left - 1), axis=1).reshape(-1)
        step = np.tile(np.array([-1, 1], dtype=np.int8), height.size)[fits]
        rows = np.concatenate((np.repeat(rows, 2, axis=0)[fits], step[:, None]), axis=1)
        height = np.repeat(height, 2)[fits] + step
    return rows


def _irreducible_dyck_rows(n: int) -> np.ndarray:
    """All Catalan(n-1) irreducible Dyck words of size n >= 1 as int8 rows:
    U + (a row of :func:`_dyck_rows` of size n-1) + D, in that order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _enclosed_rows(_dyck_rows(n - 1))


def _enclosed_rows(rows: np.ndarray) -> np.ndarray:
    """U + row + D for every row of a Dyck word stack: from all words of size
    n-1, in order, all irreducible words of size n, in order."""
    return np.pad(rows, ((0, 0), (1, 1)), constant_values=((0, 0), (1, -1)))


def iter_dyck_paths(n: int) -> Iterator[DyckPath]:
    """All Catalan(n) Dyck paths of semilength n, lexicographic (D < U).

    >>> [w.steps for w in iter_dyck_paths(2)]
    ['UDUD', 'UUDD']
    """
    for row in _dyck_rows(n):
        yield DyckPath(_word_text(row))


def iter_irreducible_dyck(n: int) -> Iterator[DyckPath]:
    """All Catalan(n-1) irreducible Dyck paths of semilength n."""
    for row in _irreducible_dyck_rows(n):
        yield DyckPath(_word_text(row))


# ---------------------------------------------------------------------------
# Decomposability
#
# A decomposition is a choice of four cut gaps on the circle (gap g lies
# between points g and g+1; gap 0 before point 1).  The arcs between
# consecutive cuts alternate between two sides, every chord must stay on
# one side, and the side away from point 1 must carry k chords with
# 2 <= k <= n-2, so a side S has 4 <= |S| <= 2n-4 points.  Coincident cuts
# leave S one arc (a, b].  Otherwise the sorted cuts g1 < g2 < g3 < g4 give
# S = A + B with A = (g1, g2] and B = (g3, g4], both inside (g1, g4]:
#   * no point of A is matched at or before point g1, so g2 < R(g1), the
#     smallest right endpoint among the chords over gap g1;
#   * no point of B is matched after point g4, so g3 >= L(g4), the largest
#     left endpoint among the chords over gap g4.
# A uniform matching has about 2n ln 2n arcs of each kind, though a matching
# can have order n^2.  With v(g) the GF(2) vector indexed by chords,
# v(g)_c = [chord c separates gap g from gap 0], the arc (a, b] is closed
# iff v(a) = v(b), and A + B is closed iff v(g1)^v(g2) = v(g3)^v(g4).  The
# vectors are summarised by 64-bit random projections under a fixed seed, so
# results are deterministic; equal projections only pick the candidates,
# and every candidate is verified exactly before use.
# ---------------------------------------------------------------------------

_PROJECTION_SEED = 0x5EED_CAFE_F00D
_ROW_SALT = np.uint64(0x9E37_79B9_7F4A_7C15)  # odd, so row -> row * salt is one-to-one mod 2^64
_CHECK_CELLS = 1 << 16  # candidate x point cells per block of the exact check


def _gap_hashes(p: np.ndarray) -> np.ndarray:
    """64-bit projections h(g) of the gap vectors v(g), g = 0..2n-1, for every
    row of an (R, 2n) stack of 0-based partners; the rows share one projection."""
    two_n = p.shape[1]
    opens = p > np.arange(two_n)
    rank = np.cumsum(opens, axis=1) - 1
    cid = np.where(opens, rank, np.take_along_axis(rank, p, axis=1))  # chords ranked by left endpoint
    proj = np.random.Generator(np.random.PCG64(_PROJECTION_SEED)).integers(
        0, 2**64, size=two_n // 2, dtype=np.uint64
    )
    h = np.zeros(p.shape, dtype=np.uint64)
    # crossing point g flips the bit of that point's chord
    np.bitwise_xor.accumulate(proj[cid[:, : two_n - 1]], axis=1, out=h[:, 1:])
    return h


def _closing_bounds(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based R(g) and L(g) for every gap g, or 2n and -1 when no chord is over g.

    Chord l < r is over gap g iff l < g <= r.  Each bound is one sweep with a
    stack ordered by the endpoint sought; a chord that leaves the gaps swept
    never comes back, so it is popped once it reaches the top.
    """
    two_n = len(p)
    pl = p.tolist()
    right = np.full(two_n, two_n)
    left = np.full(two_n, -1)
    stack: list[int] = []
    for g in range(two_n - 1, 0, -1):
        if pl[g] < g:
            stack.append(g)
        while stack and pl[stack[-1]] >= g:
            stack.pop()
        if stack:
            right[g] = stack[-1]
    stack = []
    for g in range(1, two_n):
        if pl[g - 1] > g - 1:
            stack.append(g - 1)
        while stack and pl[stack[-1]] < g:
            stack.pop()
        if stack:
            left[g] = stack[-1]
    return right, left


def _runs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, starts[i] + t) for every i and t = 0..counts[i]-1, as two arrays."""
    counts = np.maximum(counts, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, starts[owner] + np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _equal_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair with x[i] == y[j]."""
    order = np.argsort(y, kind="stable")
    ys = y[order]
    lo = np.searchsorted(ys, x, "left")
    i, at = _runs(lo, np.searchsorted(ys, x, "right") - lo)
    return i, order[at]


def _decomposition_search(p: np.ndarray) -> np.ndarray:
    """Sorted cuts (g1, g2, g3, g4) for every row of an (R, 2n) stack of
    0-based partners, as (R, 4) int64 rows, or -1 where the row has none.

    A row's cuts are the first of its candidates that keeps its side
    (g1, g2] + (g3, g4] closed, with k in [2, n-2] chords on the side away
    from point 1: single arcs (a, a, a, b) first, by (a, b), then arc pairs
    by (g1, g2, g4, g3).  All rows run as one search on flat gap numbers
    (row * 2n + gap).  Each row's hashes are XORed with a salt of its own,
    so equal hashes of different rows do not pair up, and a pair across
    rows that still meets is dropped by its row numbers.  Candidates are
    checked exactly in blocks of at most _CHECK_CELLS points, skipping rows
    already decided.
    """
    rows, two_n = p.shape
    n = two_n // 2
    gap = np.arange(rows * two_n)
    row_of, g = np.divmod(gap, two_n)
    base = gap - g
    h = _gap_hashes(p).reshape(-1)
    salt = row_of.astype(np.uint64) * _ROW_SALT
    bounds = np.array([_closing_bounds(row) for row in p], dtype=np.int64).reshape(rows, 2, two_n)
    right, left = bounds[:, 0].reshape(-1), bounds[:, 1].reshape(-1)
    start, end = _equal_pairs(h ^ salt, h ^ salt)
    arc = (start < end) & (row_of[start] == row_of[end])
    start, end = start[arc], end[arc]
    a_lo, a_hi = _runs(gap + 1, np.minimum(right, two_n - 3) - g)
    b_from = np.maximum(left + 1, 2)
    b_hi, b_lo = _runs(base + b_from, g - b_from)
    i, j = _equal_pairs(h[a_lo] ^ h[a_hi] ^ salt[a_lo], h[b_lo] ^ h[b_hi] ^ salt[b_lo])
    apart = (a_hi[i] < b_lo[j]) & (row_of[a_lo[i]] == row_of[b_lo[j]])
    cuts = np.concatenate(
        [
            np.stack([start, start, start, end], axis=1),
            np.stack([a_lo[i], a_hi[i], b_lo[j], b_hi[j]], axis=1)[apart],
        ]
    )
    owner = row_of[cuts[:, 0]]
    order = np.argsort(owner, kind="stable")  # each row's arcs, then its arc pairs
    owner = owner[order]
    cuts = cuts[order] - base[cuts[order, :1]]
    size = cuts[:, 1] - cuts[:, 0] + cuts[:, 3] - cuts[:, 2]
    side_k = np.where(cuts[:, 0] == 0, n - size // 2, size // 2)
    wanted = (side_k >= 2) & (side_k <= n - 2)
    cuts, owner = cuts[wanted], owner[wanted]
    found = np.full((rows, 4), -1)
    points = np.arange(two_n)
    step = max(1, _CHECK_CELLS // two_n)
    for lo in range(0, owner.size, step):
        c, r = cuts[lo : lo + step], owner[lo : lo + step]
        live = found[r, 0] < 0
        c, r = c[live], r[live]
        # points g1+1 .. g2 and g3+1 .. g4 are 0-based g1 .. g2-1 and g3 .. g4-1
        side = ((points >= c[:, :1]) & (points < c[:, 1:2])) | ((points >= c[:, 2:3]) & (points < c[:, 3:]))
        closed = (np.take_along_axis(side, p[r], axis=1) == side).all(axis=1)
        c, r = c[closed], r[closed]
        first = np.ones(r.size, dtype=bool)
        first[1:] = r[1:] != r[:-1]
        found[r[first]] = c[first]
    return found


def _indecomposable_rows(partner: np.ndarray) -> np.ndarray:
    """Per row of a stack of 1-based partner rows: True iff that matching is
    not k-decomposable for any k in [2, n-2].

    Fast path: for n >= 4, any of x, y, z > 0 already forces a 2- or
    (n-2)-decomposition, so only rows with x = y = z = 0 reach the cut
    search, all of them in one stacked search.
    """
    if partner.shape[1] <= 6:
        return np.ones(partner.shape[0], dtype=bool)
    x, y, z = _xyz_batch(partner - 1)
    out = (x == 0) & (y == 0) & (z == 0)
    if out.any():
        out[out] = _decomposition_search(partner[out] - 1)[:, 0] < 0
    return out


def is_indecomposable(m: Matching) -> bool:
    """True iff m is not k-decomposable for any k in [2, n-2]: the one-row
    case of :func:`_indecomposable_rows`."""
    return bool(_indecomposable_rows(np.asarray(m.partner, dtype=np.int64)[None])[0])


# ---------------------------------------------------------------------------
# Running sums along the first axis (the circle clique count's prefix
# tables, phi's labels)
# ---------------------------------------------------------------------------

_RUN_BLOCK = 32  # rows per block of a running sum


def _running_sum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(rows, axis=0)`` written into `out`, in out's dtype.

    Vectorised adds over blocks of _RUN_BLOCK rows: each row of a block adds
    the row before it, for all blocks at once, and then each block adds the
    last row of the block before.  That is about 2 sqrt(R) numpy calls on
    contiguous rows, where numpy's cumsum along axis 0 walks one column at a
    time (about 6x slower on a 1000 x 1000 bool table cast to int16).
    """
    out[...] = rows
    whole = out.shape[0] // _RUN_BLOCK * _RUN_BLOCK
    blocks = out[:whole].reshape(whole // _RUN_BLOCK, _RUN_BLOCK, *out.shape[1:])
    for j in range(1, _RUN_BLOCK):
        blocks[:, j] += blocks[:, j - 1]
    for t in range(whole + 1, out.shape[0]):
        out[t] += out[t - 1]
    for b in range(1, blocks.shape[0]):
        blocks[b] += blocks[b - 1, -1]
    if 0 < whole < out.shape[0]:
        out[whole:] += out[whole - 1]
    return out


# ---------------------------------------------------------------------------
# The decomposition bijection
# ---------------------------------------------------------------------------


def _phi_rows(partner: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi on a stack of k-decomposed matchings, one k for the whole stack.

    Row i of `partner` (1-based) keeps the side (g1, g2] + (g3, g4] of its
    sorted cut gaps cuts[i] closed, with k chords away from point 1.  Read
    from point 1, the circle is c1's head, c2, c3, c4 and c1's tail, with
    c2 + c4 away from point 1; the cuts sorted with zeros moved to 2n are
    the gaps r0..r3 that end c1's head, c2, c3 and c4.  Returns int8 rows
    (2n < 127): the big matching of size n-k+1 (c1 and c3 with a fresh chord
    {P, Q} in place of c2 and c4, labelled from point 1), its mark P (the
    chord's smaller end), and the small matching of size k+1 (c2 and c4 with
    a fresh chord {S, R} in place of c1 and c3, labelled from S = 1).

    The work runs column-major, on (2n, rows) arrays, so that each step is
    one numpy call over a contiguous row of all matchings: the cuts are
    sorted by a 5-comparator network, the labels come from 2n row adds, and
    the rows returned are transposed views.
    """
    rows, two_n = partner.shape
    r = np.where(cuts == 0, two_n, cuts).T.astype(np.int8)
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        r[a], r[b] = np.minimum(r[a], r[b]), np.maximum(r[a], r[b])
    r0, r1, r2, r3 = r
    x = np.arange(two_n, dtype=np.int8)[:, None]
    past1, past2, past3 = x >= r1, x >= r2, x >= r3
    away = (x >= r0) & ~past1 | past2 & ~past3
    # c1's head, c3 and c1's tail are numbered from 0 in the big row, with
    # gaps for P before c3 and Q before the tail; c2 and c4 from 1 in the
    # small row, with a gap for R before c4
    count = _running_sum(away, np.empty((two_n, rows), dtype=np.int8))
    label = np.where(away, count + past2, x - count + past1 + past3)
    # one scatter puts each point's mate in the big rows or, after them, in
    # the small rows; entry (t, i) of a (points, rows) array is flat t * rows + i
    width = two_n + 2 - int(away[:, 0].sum())
    at = np.arange(rows)
    flat = np.multiply(partner.T, rows, dtype=np.intp)
    flat += at - rows  # (partner - 1) * rows + i: each point's mate in `label`
    mate = label.reshape(-1).take(flat)
    mate += 1
    np.multiply(label + away * np.int16(width), rows, out=flat, dtype=np.intp)  # positions reach 2n + 3
    flat += at
    glued = np.empty((two_n + 4, rows), dtype=np.int8)
    glued.reshape(-1)[flat] = mate
    big, small = glued[:width], glued[width:]
    p, q, s = r0, r0 + r2 - r1 + 1, r1 - r0 + 1
    big[p, at], big[q, at] = q + 1, p + 1
    small[0], small[s, at] = s + 1, 1
    return big.T, p + 1, small.T
