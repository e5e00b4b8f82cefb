"""Brute-force reference checks: every theorem, verified by enumeration.

The checks here are deliberately naive. They work on raw bit masks with
definition-level products and exhaustive searches, never touching the packed
kernels or the constructive algorithms whose correctness they back up. A
verdict of ``passed=False`` from any registered check is a release blocker.
Naive is not wasteful, though: the atoms of a matrix are found by a
depth-first walk over column selections that does not extend a prefix whose
meet is already zero (no selection through it can meet to anything else),
so every nonzero meet is still read off the entries as the definition
states.

DESCENT's witness search, STOINV's invariant vectors and ATOMS' rebuilt
entries ask every candidate at once, each in a lane under a guard bit
(``_zero_lanes``). Stochastic matrices, unitaries, symmetric stochastic
matrices and orthonormal columns are sampled by ``_draw``, the stdlib-only
module whose draws ``rand`` wraps too, so each kind of object is drawn from
an rng in one place, with ``randrange``'s and ``shuffle``'s ``getrandbits``
calls but not their frames.

A product is computed word-parallel (SIMD within a register): the whole
matrix sits in one int, entry (i, j) in a lane of w bits, and for each inner
index t one AND takes column t of the left factor, a multiplication copies
it along each row, and an AND with row t of the right factor copied into
every row gives ``x_it & y_tj`` in every lane at once. The OR of those n
words is, lane by lane, ``OR_t (x_it & y_tj)``: the definition of the
product, reached by a different algorithm from the per-entry loops of the
library's kernels, so the oracle does not share their mistakes.

Each theorem is written once, as a predicate that maps a chunk of objects
to its first counterexample or None. Exhaustive and sampled runs feed it
from the theorem's enumerator or from its seeded one-object sampler, through
one shared loop; a run that checked no object never passes. POWER,
PERIOD_DIVIDES and NORM put a block of lanes per object in one int, so one
word operation tests the whole chunk; a walk of powers stops at the first
word that comes back.

Each exhaustive source guards its budget before it streams anything. Where
the object count has a closed form it is computed up front from the spaces
the source combines (``2**(k*n)`` vectors, ``n**k`` stochastic vectors,
``n**(k*n)`` stochastic matrices, ``factorial(n)**k`` unitaries); the
search over orthonormal families refuses more candidate vectors than the
budget, since each is a family alone, then counts node visits. Either way a
run past the budget is refused rather than silently truncated, because a
truncated exhaustive check is not exhaustive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice, permutations, product
from typing import Any, Callable, Iterable, Iterator, Sequence

from ._draw import (
    _involution_counts,
    below,
    matrix_masks,
    orthonormal_columns,
    stochastic_matrix,
    symmetric_stochastic,
    unitary,
)
from .algebra import Algebra, BoolmatError, PreconditionError

__all__ = [
    "Verdict",
    "Theorem",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "THEOREMS",
    "brute_check",
    "sample_check",
]

DEFAULT_BUDGET = 10_000_000
_CHUNK = 256  # objects per predicate call, and the blocks a cached chunk mask covers
_WALK_BYTES = 1 << 21  # the power words a walk over a whole chunk may hold
_FirstFailure = Callable[[list], "tuple[int, str] | None"]


class BudgetExceededError(BoolmatError):
    """Enumeration would visit more objects than the configured budget."""

    def __init__(self, required: int | None, budget: int):
        self.required = required
        self.budget = budget
        size = "unknown (search-shaped)" if required is None else str(required)
        super().__init__(f"enumeration needs budget {size}, configured {budget}")


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one brute-force or sampled check."""

    theorem: str
    n: int
    k: int
    passed: bool
    checked: int
    counterexample: str | None = None
    mode: str = "exhaustive"

    def __str__(self) -> str:
        tail = "pass" if self.passed else f"FAIL: {self.counterexample}"
        return f"{self.theorem} n={self.n} k={self.k} [{self.mode}]: {tail} ({self.checked} objects)"


@cache
def _numbered_algebra(k: int) -> Algebra:
    return Algebra([str(i + 1) for i in range(k)])


def _require_budget(required: int, budget: int) -> None:
    if required > budget:
        raise BudgetExceededError(required, budget)


# --- raw enumerators (tuples of masks, never library objects) ---


def _iter_vector_masks(n: int, k: int) -> Iterator[tuple[int, ...]]:
    yield from product(range(1 << k), repeat=n)


def _iter_stochastic_masks(n: int, k: int) -> Iterator[tuple[int, ...]]:
    for assign in product(range(n), repeat=k):
        masks = [0] * n
        for bit, slot in enumerate(assign):
            masks[slot] |= 1 << bit
        yield tuple(masks)


def _iter_stochastic_matrix_masks(n: int, k: int) -> Iterator[tuple[int, ...]]:
    columns = list(_iter_stochastic_masks(n, k))
    for chosen in product(columns, repeat=n):
        yield tuple(chain.from_iterable(zip(*chosen)))


def _iter_permutation_masks(n: int, k: int, perms: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Matrices whose every atom moves columns to rows by one of ``perms``."""
    return (matrix_masks(n, assign) for assign in product(perms, repeat=k))


def _iter_unitary_masks(n: int, k: int) -> Iterator[tuple[int, ...]]:
    return _iter_permutation_masks(n, k, list(permutations(range(n))))


def _unit_masks(n: int, k: int) -> list[tuple[int, ...]]:
    """Every unit vector (entries join to one), sorted as the vectors of
    ``_iter_vector_masks``: each atom sits in a nonempty set of slots."""
    units = []
    for slot_sets in product(range(1, 1 << n), repeat=k):
        masks = [0] * n
        for bit, slots in enumerate(slot_sets):
            for i in range(n):
                if slots >> i & 1:
                    masks[i] |= 1 << bit
        units.append(tuple(masks))
    return sorted(units)


def _iter_orthonormal_sets(
    n: int, k: int, budget: int, *, stochastic_only: bool = False
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonempty orthonormal families, DFS over an indexed vector list.

    Yields index-increasing tuples, so each family appears exactly once.
    Node visits count against the budget. Every candidate alone is a
    family, so more candidates than the budget is refused before any is
    listed.
    """
    if (n**k if stochastic_only else ((1 << n) - 1) ** k) > budget:
        raise BudgetExceededError(None, budget)
    units = list(_iter_stochastic_masks(n, k)) if stochastic_only else _unit_masks(n, k)
    visited = 0

    def extend(start: int, chosen: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        nonlocal visited
        for idx in range(start, len(units)):
            cand = units[idx]
            if any(_inner(cand, prev) for prev in chosen):
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceededError(None, budget)
            chosen.append(cand)
            yield tuple(chosen)
            yield from extend(idx + 1, chosen)
            chosen.pop()

    return extend(0, [])


def _involutions(n: int) -> list[tuple[int, ...]]:
    """Every involution of range(n), in the order of ``permutations(range(n))``:
    each unpaired point, lowest first, stays fixed or pairs with a higher one."""
    found: list[tuple[int, ...]] = []
    p: list[int | None] = [None] * n

    def fill(i: int) -> None:
        while i < n and p[i] is not None:
            i += 1
        if i == n:
            found.append(tuple(p))
            return
        for j in range(i, n):
            if p[j] is None:
                p[i], p[j] = j, i
                fill(i + 1)
                p[i] = p[j] = None

    fill(0)
    return found


# --- naive mask arithmetic (independent of the kernels and of bvec/bmatrix) ---


def _or_all(masks) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


def _and_all(masks) -> int:
    acc = -1
    for m in masks:
        acc &= m
    return acc


def _inner(a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc |= x & y
    return acc


def _fold(x: int, w: int, n: int, firsts: int | None = None) -> int:
    """The OR of the ``n`` lanes of ``w`` bits of ``x``, halving the lanes
    each step; in a chunk, each block's, kept in the lanes ``firsts`` marks."""
    while n > 1:
        n = n + 1 >> 1
        x |= x >> w * n
    return x & ((1 << w) - 1 if firsts is None else firsts)


def _twice(x: int, w: int, n: int, firsts: int) -> int:
    """The atoms in two or more of the ``n`` (a power of two) lanes of each
    block: a carry-save fold, where each halving also keeps ``low & high``."""
    twice = 0
    while n > 1:
        n >>= 1
        twice |= twice >> w * n | x & x >> w * n
        x |= x >> w * n
    return twice & firsts


def _dot(x: int, y: int, w: int, n: int, firsts: int | None = None) -> int:
    """The inner product of two packed vectors (of each pair of blocks)."""
    return _fold(x & y, w, n, firsts)


def _zero_lanes(y: int, ones: int, w: int) -> int:
    """The guard bit of every zero lane of ``y``: lanes of ``w + 1`` bits,
    a 1 at the bottom of each in ``ones``, ``y``'s guards (top bits) clear.
    With every guard set, subtracting ``ones`` borrows a lane's guard
    exactly when the lane is zero, and no borrow leaves its lane."""
    guards = ones << w
    return guards & ~((y | guards) - ones)


def _lane_search(words: Sequence[int], w: int) -> Callable[[int, int], bool]:
    """Whether ``c & mask == target`` for some ``c`` of ``words`` (each
    below ``2**w``), asked of every word at once in one zero-lane test."""
    packed, ones = _pack(words, w + 1), _pack([1] * len(words), w + 1)
    return lambda mask, target: _zero_lanes(packed & mask * ones ^ target * ones, ones, w) != 0


def _fixer(n: int, w: int, vectors: Sequence[Sequence[int]]) -> Callable[[int], bool]:
    """Whether the packed matrix ``a`` (``w``-bit lanes) has ``A v == v``
    for some ``v`` of ``vectors``. Each ``v`` has a lane of ``n*n*w + 1``
    bits holding ``v`` in every row; ANDed with a copy of ``a`` it holds
    ``a_ij & v_j``, and ORing each row onto column 0 leaves ``(A v)_i``
    there, to compare with ``v`` placed in column 0."""
    size = n * n * w
    ones = _pack([1] * len(vectors), size + 1)
    rows = _pack([_pack(v, w) * _spread(n, n * w) for v in vectors], size + 1)
    column = _pack([_pack(v, n * w) for v in vectors], size + 1)
    column0 = _pack([(1 << w) - 1] * n, n * w) * ones

    def fixes_some(a: int) -> bool:
        x = y = a * ones & rows
        for s in range(w, n * w, w):
            y |= x >> s
        return _zero_lanes(y & column0 ^ column, ones, size) != 0

    return fixes_some


def _pack(v: Sequence[int], w: int) -> int:
    """The masks of ``v`` side by side in one int, ``w`` bits per slot.

    A row-major ``n x n`` matrix packs to its word: entry (i, j) in bits
    ``[w*(i*n+j), w*(i*n+j+1))``. Past 64 masks each half is packed and the
    two joined, so a long ``v`` does not cost a shift of the whole word per
    mask; shorter ones shift and OR a mask at a time, which is faster there.
    """
    if len(v) > 64:
        half = len(v) >> 1
        return _pack(v[half:], w) << w * half | _pack(v[:half], w)
    acc = 0
    for m in reversed(v):
        acc = acc << w | m
    return acc


def _pack_all(vectors: Sequence[Sequence[int]], stride: int, w: int) -> int:
    """The equal-length ``vectors`` side by side in one int, a block of
    ``stride`` lanes of ``w`` bits (whole bytes) each, the lanes past a
    vector zero: one pass over the word's bytes."""
    size = w >> 3
    blocks = map(bytes, vectors) if size == 1 else (b"".join(m.to_bytes(size, "little") for m in v) for v in vectors)
    return int.from_bytes(bytes(size * (stride - len(vectors[0]))).join(blocks), "little")


@cache
def _spread(n: int, w: int) -> int:
    """A 1 in each of ``n`` lanes of ``w`` bits: times a value that fits
    one lane, it copies the value into every lane."""
    return _pack([1] * n, w)


@cache
def _columns(n: int, w: int) -> tuple[tuple[tuple[int, int], ...], int, tuple[int, int]]:
    """For each t, the lanes of column t and the shift that moves them to
    column 0, and the multiplier that copies column 0 along each row; then
    the lanes of row 0 and the multiplier that copies row 0 into every row.
    Lanes repeat for every block of a chunk: ``n*n``, then a zero guard."""
    blocks, lane = _spread(_CHUNK, (n * n + 1) * w), (1 << w) - 1
    column0 = _pack([lane if j == 0 else 0 for _ in range(n) for j in range(n)], w) * blocks
    rows = ((1 << w * n) - 1) * blocks, _spread(n, w * n)
    return tuple((column0 << w * t, w * t) for t in range(n)), _spread(n, w), rows


def _row_tiles(n: int, w: int, y: int) -> tuple[int, ...]:
    """For each t, row t of each block of ``y`` copied into its every row."""
    row, tile = _columns(n, w)[2]
    return tuple((y >> w * n * t & row) * tile for t in range(n))


def _wordmul(n: int, w: int, x: int, tiles: Sequence[int]) -> int:
    """The packed product ``x y``, given ``y``'s row tiles.

    Term t copies column t of ``x`` along each row and ANDs it with row t of
    ``y`` in every row, so lane (i, j) holds ``x_it & y_tj``; the OR of the
    n terms is ``OR_t (x_it & y_tj)`` in every lane. Lanes never carry into
    each other: column t moves to column 0 before the copy, and each copy
    lands in its own lane. A chunk of matrices multiplies block by block,
    each block by its own row tiles, in the same operations.
    """
    columns, spread, _ = _columns(n, w)
    out = 0
    for (column, shift), tile in zip(columns, tiles):
        out |= ((x & column) >> shift) * spread & tile
    return out


def _matvec(n: int, a: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(_or_all(a[i * n + j] & v[j] for j in range(n)) for i in range(n))


def _transpose(n: int, a: Sequence[int]) -> tuple[int, ...]:
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


def _identity_masks(n: int, full: int) -> tuple[int, ...]:
    return tuple(0 if i % (n + 1) else full for i in range(n * n))


def _trace(n: int, a: Sequence[int]) -> int:
    return _or_all(a[:: n + 1])


def _is_generating(vectors: Sequence[Sequence[int]], n: int, k: int) -> bool:
    """Whether every length-``n`` vector is a combination of ``vectors``.

    Decided by residuation. Combinations are closed under join and scaling,
    so it suffices that each ``full * e_i`` is one, and a target is a
    combination exactly when its greatest coefficients
    ``c_j = AND_s (~v_j[s] | e_i[s]) = AND_{s != i} ~v_j[s]`` rebuild it.
    Off slot ``i`` they give 0 by construction, so only slot ``i`` is
    compared.
    """
    full = (1 << k) - 1
    return all(
        _or_all(v[i] & _and_all(~v[s] for s in range(n) if s != i) for v in vectors) == full
        for i in range(n)
    )


def _is_orthonormal_family(vectors: Sequence[Sequence[int]], full: int) -> bool:
    return all(_or_all(v) == full for v in vectors) and not any(_inner(v, w) for v, w in combinations(vectors, 2))


@cache
def _cross(n: int, w: int) -> int:
    """The lanes of row 0 and column 0 of a packed ``n x n`` matrix."""
    lane = (1 << w) - 1
    return _pack([lane if i == 0 or j == 0 else 0 for i in range(n) for j in range(n)], w)


def _block_form(n: int, d: int, full: int) -> bool:
    """Whether the packed ``d`` (lanes as wide as ``full``) is ``full`` at
    (0, 0) and zero in the rest of row 0 and of column 0."""
    return d & _cross(n, full.bit_length()) == full


def _atoms_of(n: int, a: Sequence[int], full: int) -> list[int]:
    """All nonzero column-selection meets, in the lexicographic order of the
    selections.

    A selection picks one row per column; its meet is the meet of the picked
    entries. The walk is depth first over the columns and carries the meet
    of the prefix, so a prefix whose meet is already zero is not extended:
    every selection through it meets to zero as well. Every selection left
    is still met entry by entry, straight from the definition.
    """
    out = []

    def walk(j: int, m: int) -> None:
        if j == n:
            out.append(m)
            return
        for i in range(n):
            if meet := m & a[i * n + j]:
                walk(j + 1, meet)

    walk(0, full)
    return out


def _walk(n: int, w: int, x: int, top: int) -> Callable[[int], int]:
    """``m -> X**m`` (``1 <= m <= top``) for every block of ``x``, from one
    right product with ``x`` per step and none past ``X**top``. A step is a
    function of the word before it, so once a word comes back the walk
    repeats itself: it stops there, a later power is read off the cycle,
    and no word is multiplied twice (for one matrix, no power)."""
    tiles, seen, powers = _row_tiles(n, w, x), {x: 0}, [x]
    while len(powers) < top and (x := _wordmul(n, w, x, tiles)) not in seen:
        seen[x] = len(powers)
        powers.append(x)
    if len(powers) == top:  # no word came back, and every power asked for is held
        return lambda m: powers[m - 1]
    back = seen[x]
    return lambda m: powers[m - 1 if m <= len(powers) else back + (m - 1 - back) % (len(powers) - back)]


def _brute_period_exponent(n: int, a: Sequence[int]) -> tuple[int, int]:
    """(exponent, period) of one matrix, straight from the definitions.

    The horizon covers the worst case for any Boolean matrix; the period is
    the smallest p admitting any witness exponent, then the exponent is the
    smallest witness for that p. A witness e for p is one for every later e
    too (each power is the one before times X), so the last e below the
    horizon shows whether p has one.
    """
    w, horizon = max(a, default=0).bit_length() or 1, (n - 1) ** 2 + 1 + math.lcm(*range(1, n + 1))
    power = _walk(n, w, _pack(a, w), horizon + 1)
    for p in range(1, horizon + 1):
        if power(horizon + 1) == power(horizon + 1 - p):
            return next(e for e in range(1, horizon + 2 - p) if power(e + p) == power(e)), p
    raise AssertionError("no repeat within the guaranteed horizon")


def _chunked_if_small(n: int, w: int, top: int, first_failure: _FirstFailure) -> _FirstFailure:
    """``first_failure`` on whole chunks if a walk's ``top`` words of one fit
    ``_WALK_BYTES``, else on one matrix at a time: a chunk's walk ends when
    every block repeats at once, one matrix's at its own first repeat."""
    if _CHUNK * top * (n * n + 1) * w <= 8 * _WALK_BYTES:
        return first_failure
    return _one_at_a_time(lambda obj: (found := first_failure([obj])) and found[1])


def _fmt_vec(v: Sequence[int], k: int) -> str:
    return "(" + ",".join(map(_numbered_algebra(k).literal, v)) + ")"


def _fmt_family(fam: Sequence[Sequence[int]], k: int) -> str:
    return str([_fmt_vec(v, k) for v in fam])


def _fmt_mat(n: int, a: Sequence[int], k: int) -> str:
    rows = "; ".join(" ".join(map(_numbered_algebra(k).literal, a[i * n : (i + 1) * n])) for i in range(n))
    return f"[{rows}]"


# --- exhaustive object sources (n, k, budget): guard first, then stream ---


def _norm_triples(n: int, k: int, budget: int) -> Iterable[Any]:
    _require_budget(1 << (2 * k * n + k), budget)
    vectors = list(_iter_vector_masks(n, k))
    return product(vectors, vectors, range(1 << k))


def _stochastic_pairs(n: int, k: int, budget: int) -> Iterable[Any]:
    _require_budget(n ** (2 * k) * (n - 1) ** k, budget)
    return product(list(_iter_stochastic_masks(n, k)), repeat=2)


def _stochastic_orthonormal_sets(n: int, k: int, budget: int) -> Iterable[Any]:
    return _iter_orthonormal_sets(n, k, budget, stochastic_only=True)


def _short_stochastic_orthonormal_sets(n: int, k: int, budget: int) -> Iterable[Any]:
    return (fam for fam in _stochastic_orthonormal_sets(n, k, budget) if len(fam) < n)


def _all_matrices(n: int, k: int, budget: int) -> Iterable[Any]:
    _require_budget(1 << (k * n * n + k * n), budget)
    return product(range(1 << k), repeat=n * n)


def _stochastic_matrices(n: int, k: int, budget: int) -> Iterable[Any]:
    _require_budget(n ** (k * n), budget)
    return _iter_stochastic_matrix_masks(n, k)


def _symmetric_stochastic_matrices(n: int, k: int, budget: int) -> Iterable[Any]:
    _require_budget(_involution_counts(n)[n] ** k, budget)
    return _iter_permutation_masks(n, k, _involutions(n))


def _unitary_families(n: int, k: int, budget: int) -> Iterable[Any]:
    """Every unitary alone, then every ordered pair: ``count**2`` families,
    and as many conjugations to decide each unitary's reducing conjugators."""
    count = math.factorial(n) ** k
    _require_budget(count * count, budget)
    unitaries = list(_iter_unitary_masks(n, k))
    return chain(((a,) for a in unitaries), product(unitaries, repeat=2))


def _stochastic_then_unitary(n: int, k: int, budget: int) -> Iterable[Any]:
    """POWER objects ``(is_unitary, masks)``: stochastic matrices, then unitaries."""
    _require_budget(n ** (k * n) + math.factorial(n) ** k, budget)
    stochastic = _iter_stochastic_matrix_masks(n, k)
    return chain(((False, a) for a in stochastic), ((True, u) for u in _iter_unitary_masks(n, k)))


# --- one-object samplers (rng, k, n), each drawing what its source yields ---


def _sample_norm(rng: random.Random, k: int, n: int) -> Any:
    widths = (k,) * n
    return tuple(map(rng.getrandbits, widths)), tuple(map(rng.getrandbits, widths)), rng.getrandbits(k)


def _sample_stochastic_pair(rng: random.Random, k: int, n: int) -> Any:
    """Two independent stochastic vectors, orthogonal or not: each atom takes
    one slot in each."""
    a, b = [0] * n, [0] * n
    for bit in range(k):
        a[below(rng, n)] |= 1 << bit
        b[below(rng, n)] |= 1 << bit
    return tuple(a), tuple(b)


def _sample_short_family(rng: random.Random, k: int, n: int) -> Any:
    """The first m < n columns of a uniform unitary, for a uniform m."""
    return orthonormal_columns(rng, k, n, 1 + below(rng, n - 1))


def _sample_power(rng: random.Random, k: int, n: int) -> Any:
    """A stochastic matrix or a unitary, chosen by a fair coin."""
    return (True, unitary(rng, k, n)) if below(rng, 2) else (False, stochastic_matrix(rng, k, n))


# --- predicates (n, k) -> (chunk -> (index, counterexample) | None), or through _each ---


def _norm_laws(n: int, k: int) -> _FirstFailure:
    """Norm laws and the inner-product axioms on a chunk of (a, b, c)
    triples, each law one test of every triple's block of slots. A block is
    a power of two of lanes, so a fold halves within it, and a zero guard
    lane; an orthovector has no atom in two slots."""
    w, lanes = 8 * (k + 7 >> 3), 1 << (n - 1).bit_length()
    stride = (lanes + 1) * w
    firsts = _spread(_CHUNK, stride) * ((1 << w) - 1)

    def first_failure(chunk: list[Any]) -> tuple[int, str] | None:
        ones = _spread(len(chunk), stride)
        guards = ones << stride - 1

        def nonzero(y: int) -> int:
            return guards ^ _zero_lanes(y, ones, stride - 1)

        pa, pb, cs = (_pack_all(part, lanes + 1, w) for part in zip(*((a, b, (c,)) for a, b, c in chunk)))
        pc = cs * _spread(n, w)
        ca, cb = pc & pa, pc & pb
        na, nb, ab = _fold(pa, w, lanes, firsts), _fold(pb, w, lanes, firsts), _dot(pa, pb, w, lanes, firsts)
        cab, twice = cs & ab, _twice(pa, w, lanes, firsts) | _twice(pb, w, lanes, firsts)
        laws = (
            ("definiteness", nonzero(_dot(pa, pa, w, lanes, firsts)) ^ nonzero(pa)),
            ("symmetry", nonzero(_dot(pb, pa, w, lanes, firsts) ^ ab)),
            ("norm of sum", nonzero(_fold(pa | pb, w, lanes, firsts) ^ (na | nb))),
            ("norm bound", nonzero(ab & ~(na & nb))),
            ("orthovector equality law", ~nonzero(twice | na ^ nb) & (nonzero(ab ^ na & nb) ^ nonzero(pa ^ pb))),
            ("scaled norm", nonzero(_fold(ca, w, lanes, firsts) ^ cs & na)),
            ("scalar slide", nonzero(_dot(ca, pb, w, lanes, firsts) ^ cab | cab ^ _dot(pa, cb, w, lanes, firsts))),
            ("bilinearity", nonzero(_dot(ca | pb, pb, w, lanes, firsts) ^ (cab | nb))),
        )
        failed = _or_all(fails for _, fails in laws)
        if not failed:
            return None
        low = failed & -failed
        i, law = (low.bit_length() - 1) // stride, next(law for law, fails in laws if fails & low)
        a, b, c = chunk[i]
        return i, f"{law} fails at c={c}, a={_fmt_vec(a, k)}, b={_fmt_vec(b, k)}"

    return first_failure


def _descent(n: int, k: int) -> Callable[[Any], str | None]:
    """A stochastic pair is orthogonal exactly when a short stochastic c has
    ``b[i] = c[i] & ~a[i]`` below the last slot; for orthogonal pairs the
    explicit construction must be such a c.

    Vectors below the last slot are packed into one int each, so a candidate
    c is tested on all slots at once, and every short stochastic c in one
    zero-lane test.
    """
    full = (1 << k) - 1
    search = _lane_search([_pack(c, k) for c in _iter_stochastic_masks(n - 1, k)], k * (n - 1))
    full_head = _pack((full,) * (n - 1), k)

    def check(obj: Any) -> str | None:
        a, b = obj
        orthogonal = _inner(a, b) == 0
        # c[i] & ~a[i] never meets a[i], so only pairs that meet in the last
        # slot alone can have a witness; the search covers exactly those.
        if not orthogonal and _inner(a, b[: n - 1]) != 0:
            return None
        head = _pack(b[: n - 1], k)
        outside_a = _pack(a[: n - 1], k) ^ full_head
        if orthogonal:
            c = tuple((b[n - 1] & a[i]) | b[i] for i in range(n - 1))
            # Stochastic: c joins to one, and no atom is in two slots.
            if _or_all(c) != full or sum(m.bit_count() for m in c) != k:
                return f"a={_fmt_vec(a, k)} b={_fmt_vec(b, k)}: constructed c not stochastic"
            found = _pack(c, k) & outside_a == head
        else:
            found = search(outside_a, head)
        if found == orthogonal:
            return None
        return f"a={_fmt_vec(a, k)} b={_fmt_vec(b, k)}: orthogonal={orthogonal}, witness={not orthogonal}"

    return check


def _duality(n: int, k: int) -> Callable[[Any], str | None]:
    """Orthonormal family is a basis iff its transposed family is orthonormal."""
    full = (1 << k) - 1

    def check(fam: Any) -> str | None:
        transposed = [tuple(v[i] for v in fam) for i in range(n)]
        dual_ortho = _is_orthonormal_family(transposed, full)
        generating = _is_generating(fam, n, k)
        if generating != dual_ortho:
            return f"{_fmt_family(fam, k)}: generating={generating}, dual orthonormal={dual_ortho}"
        return None

    return check


def _basis_upbound(n: int, k: int) -> Callable[[Any], str | None]:
    """No stochastic orthonormal family exceeds the dimension."""

    def check(fam: Any) -> str | None:
        if len(fam) > n:
            return f"{len(fam)} orthonormal stochastic vectors in dimension {n}: {_fmt_family(fam, k)}"
        return None

    return check


def _dimension(n: int, k: int) -> Callable[[Any], str | None]:
    """Every orthonormal generating family has exactly n members."""

    def check(fam: Any) -> str | None:
        if len(fam) != n and _is_generating(fam, n, k):
            return f"basis of cardinality {len(fam)} != {n}: {_fmt_family(fam, k)}"
        return None

    return check


def _dimcor2(n: int, k: int) -> Callable[[Any], str | None]:
    """An orthonormal family is generating exactly when it has n members."""

    def check(fam: Any) -> str | None:
        if (len(fam) == n) != _is_generating(fam, n, k):
            return f"cardinality {len(fam)} vs generating mismatch: {_fmt_family(fam, k)}"
        return None

    return check


def _incomplete(n: int, k: int) -> Callable[[Any], str | None]:
    """Every short stochastic orthonormal family completes to a basis."""
    stoch = [(v, _pack(v, k)) for v in _iter_stochastic_masks(n, k)]

    def completes(fam: tuple[tuple[int, ...], ...], used: int) -> bool:
        """``used`` is the OR of the members' packed words: a candidate is
        orthogonal to every member exactly when its word misses it."""
        if len(fam) == n:
            return _is_generating(fam, n, k)
        return any(completes(fam + (v,), used | word) for v, word in stoch if not word & used)

    def check(fam: Any) -> str | None:
        used = _or_all(_pack(v, k) for v in fam)
        return None if completes(tuple(fam), used) else f"no completion for {_fmt_family(fam, k)}"

    return check


def _inverse(n: int, k: int) -> Callable[[Any], str | None]:
    """Bijectivity, unitarity, column-basis and row-basis stay equivalent."""
    full = (1 << k) - 1
    vectors = list(_iter_vector_masks(n, k))
    ident = _pack(_identity_masks(n, full), k)

    def check(flat: Any) -> str | None:
        a, at = _pack(flat, k), _pack(_transpose(n, flat), k)
        bijective = len({_matvec(n, flat, v) for v in vectors}) == len(vectors)
        unitary = _wordmul(n, k, a, _row_tiles(n, k, at)) == ident == _wordmul(n, k, at, _row_tiles(n, k, a))
        cols = [tuple(flat[i * n + j] for i in range(n)) for j in range(n)]
        rows = [tuple(flat[i * n + j] for j in range(n)) for i in range(n)]
        cols_basis = _is_orthonormal_family(cols, full) and _is_generating(cols, n, k)
        rows_basis = _is_orthonormal_family(rows, full) and _is_generating(rows, n, k)
        if not bijective == unitary == cols_basis == rows_basis:
            return (
                f"{_fmt_mat(n, flat, k)}: bijective={bijective} unitary={unitary} "
                f"cols={cols_basis} rows={rows_basis}"
            )
        return None

    return check


def _stoinv(n: int, k: int) -> Callable[[Any], str | None]:
    """Invariant stochastic vector exists exactly when the trace is one."""
    full = (1 << k) - 1
    fixes_some = _fixer(n, k, list(_iter_stochastic_masks(n, k)))

    def check(a: Any) -> str | None:
        if fixes_some(_pack(a, k)) != (_trace(n, a) == full):
            return _fmt_mat(n, a, k)
        return None

    return check


def _oddinv(n: int, k: int) -> Callable[[Any], str | None]:
    """Symmetric stochastic matrices in odd dimension always have trace one."""
    full = (1 << k) - 1
    return lambda a: None if _trace(n, a) == full else _fmt_mat(n, a, k)


def _unitreduce(n: int, k: int) -> Callable[[Any], str | None]:
    """Unitary families reduce simultaneously exactly when joint trace is one.

    Reducibility is decided by searching every unitary conjugator B for
    ``(B* M) B`` in block form. The search runs once per distinct unitary of
    a run: its result is the set of conjugators that put the unitary in
    block form, as bits over conjugator indices, and a family reduces
    exactly when its members' sets meet. Conjugators are packed, with B's
    row tiles, once per run, and each unitary's row tiles once, when it is
    first met. The memo also keeps the unitary's packed diagonal, so a
    family's joint trace is the fold of the AND of its members' diagonals.
    """
    full = (1 << k) - 1
    conjugators = [
        (_pack(_transpose(n, b), k), _row_tiles(n, k, _pack(b, k))) for b in _iter_unitary_masks(n, k)
    ]
    reducers: dict[tuple[int, ...], tuple[int, int]] = {}

    def reducing(m: tuple[int, ...]) -> tuple[int, int]:
        tiles = _row_tiles(n, k, _pack(m, k))
        bits = 0
        for c, (bt, b_tiles) in enumerate(conjugators):
            if _block_form(n, _wordmul(n, k, _wordmul(n, k, bt, tiles), b_tiles), full):
                bits |= 1 << c
        found = reducers[m] = bits, _pack(m[:: n + 1], k)
        return found

    def check(mats: Any) -> str | None:
        bits = diagonal = -1
        for m in mats:
            reducers_of_m, diagonal_of_m = reducers.get(m) or reducing(m)
            bits &= reducers_of_m
            diagonal &= diagonal_of_m
        if (bits != 0) != (_fold(diagonal, k, n) == full):
            return ", ".join(_fmt_mat(n, m, k) for m in mats)
        return None

    return check


def _atoms(n: int, k: int) -> Callable[[Any], str | None]:
    """Atoms partition one and rebuild every entry.

    They then also drive the slot action: ``A (m e_j) = m e_i`` for the row
    i that atom m selects in column j. No separate check can fail first. If
    a row t other than i had an entry in column j that meets m, the
    selection with t in column j would meet to a nonzero element that
    overlaps m, and "overlapping atoms" is reported before anything else.
    """
    full = (1 << k) - 1
    ones = _spread(n * n, k + 1)

    def problem(a: Sequence[int]) -> str | None:
        # ``a`` in lanes of k + 1 bits: the lanes that m * ones & ~word
        # leaves zero are the entries m lies below, and each gets a copy of m.
        word = _pack(a, k + 1)
        joined = rebuilt = 0
        for m in _atoms_of(n, a, full):
            if m & joined:
                return "overlapping atoms"
            joined |= m
            rebuilt |= (_zero_lanes(m * ones & ~word, ones, k) >> k) * m
        if joined != full:
            return "atoms do not cover one"
        if rebuilt != word:
            differ = rebuilt ^ word
            i, j = divmod(((differ & -differ).bit_length() - 1) // (k + 1), n)
            return f"entry ({i},{j}) is not the join of its atoms"
        return None

    def check(a: Any) -> str | None:
        found = problem(a)
        return None if found is None else f"{found} in {_fmt_mat(n, a, k)}"

    return check


def _power(n: int, k: int) -> _FirstFailure:
    """The stochastic power identity, and its unitary sharpening: one walk
    to ``A**(n-1+lcm)`` for the chunk, then one zero-block test."""
    lcm, w = math.lcm(*range(1, n + 1)), 8 * (k + 7 >> 3)
    stride = (n * n + 1) * w
    ident = _pack(_identity_masks(n, (1 << k) - 1), w)

    def first_failure(chunk: list[Any]) -> tuple[int, str] | None:
        ones = _spread(len(chunk), stride)
        unitary = _pack_all([(u,) for u, _ in chunk], n * n + 1, w) * ((1 << n * n * w) - 1)
        power, one = _walk(n, w, _pack_all([a for _, a in chunk], n * n + 1, w), n - 1 + lcm), ident * ones
        head = power(n - 1) if n > 1 else one
        differ = (power(n - 1 + lcm) ^ head) & ~unitary | (power(lcm) ^ one) & unitary
        failed = ones << stride - 1 ^ _zero_lanes(differ, ones, stride - 1)
        if not failed:
            return None
        i = ((failed & -failed).bit_length() - 1) // stride
        u, a = chunk[i]
        return i, f"unitary {_fmt_mat(n, a, k)}" if u else _fmt_mat(n, a, k)

    return _chunked_if_small(n, w, n - 1 + lcm, first_failure)


def _period_divides(n: int, k: int) -> _FirstFailure:
    """Stochastic exponent and period bounds. The powers repeat from the
    exponent e on with period p, so ``e <= m = max(n-1, 1)`` and p dividing
    lcm hold together exactly when ``A**(m+lcm) == A**m``: one walk to
    ``A**(m+lcm)`` for the chunk, then one zero-block test. Only the matrix
    a failure reports has its (e, p) searched, for its text."""
    m, lcm, w = max(n - 1, 1), math.lcm(*range(1, n + 1)), 8 * (k + 7 >> 3)
    stride = (n * n + 1) * w

    def first_failure(chunk: list[Any]) -> tuple[int, str] | None:
        ones = _spread(len(chunk), stride)
        power = _walk(n, w, _pack_all(chunk, n * n + 1, w), m + lcm)
        failed = ones << stride - 1 ^ _zero_lanes(power(m + lcm) ^ power(m), ones, stride - 1)
        if not failed:
            return None
        i = ((failed & -failed).bit_length() - 1) // stride
        e, p = _brute_period_exponent(n, chunk[i])
        return i, f"e={e}, p={p} for {_fmt_mat(n, chunk[i], k)}"

    return _chunked_if_small(n, w, m + lcm, first_failure)


def _one_at_a_time(check: Callable[[Any], str | None]) -> _FirstFailure:
    """The chunk predicate that asks ``check`` about each object in turn."""
    return lambda chunk: next(((i, c) for i, obj in enumerate(chunk) if (c := check(obj)) is not None), None)


def _each(build: Callable[[int, int], Callable[[Any], str | None]]) -> Callable[[int, int], _FirstFailure]:
    """The chunk predicate of a check written for one object at a time."""
    return lambda n, k: _one_at_a_time(build(n, k))


# --- preconditions on the dimension ---


def _any_dimension(n: int) -> None:
    return None


def _dimension_at_least_two(n: int) -> None:
    if n < 2:
        raise PreconditionError("this statement lives in dimension >= 2")


def _odd_dimension(n: int) -> None:
    if n % 2 == 0:
        raise PreconditionError("this statement concerns odd dimensions")


@dataclass(frozen=True, slots=True)
class Theorem:
    """One registered statement and where the objects it is checked on come from.

    ``source(n, k, budget)`` refuses sizes past the budget, then streams every
    object of the exhaustive check; ``sampler(rng, k, n)`` draws one object
    of the same shape, or is None for exhaustive-only theorems.
    ``predicate(n, k)`` builds the tables a run shares and returns the check
    mapping a chunk (a list of objects) to the first ``(index,
    counterexample)`` in it, or None. ``require(n)`` raises
    :class:`PreconditionError` outside the statement's dimensions.
    ``witness(n, k)``, when set, marks the objects a pass must have met at
    least once; otherwise any object will do. ``table(n, k)`` counts the
    vectors a predicate lists, which a sampled run caps at ``DEFAULT_BUDGET``.
    """

    source: Callable[[int, int, int], Iterable[Any]]
    predicate: Callable[[int, int], _FirstFailure]
    sampler: Callable[[random.Random, int, int], Any] | None = None
    require: Callable[[int], None] = _any_dimension
    witness: Callable[[int, int], Callable[[Any], bool]] | None = None
    table: Callable[[int, int], int] | None = None


THEOREMS: dict[str, Theorem] = {
    "NORM": Theorem(_norm_triples, _norm_laws, _sample_norm),
    "DUALITY": Theorem(_iter_orthonormal_sets, _each(_duality)),
    "DESCENT": Theorem(
        _stochastic_pairs, _each(_descent), _sample_stochastic_pair, require=_dimension_at_least_two,
        table=lambda n, k: (n - 1) ** k,
    ),
    "BASIS_UPBOUND": Theorem(_stochastic_orthonormal_sets, _each(_basis_upbound)),
    "DIMENSION": Theorem(
        _iter_orthonormal_sets, _each(_dimension), witness=lambda n, k: lambda fam: _is_generating(fam, n, k)
    ),
    "DIMCOR2": Theorem(_iter_orthonormal_sets, _each(_dimcor2)),
    "INCOMPLETE": Theorem(
        _short_stochastic_orthonormal_sets, _each(_incomplete), _sample_short_family,
        require=_dimension_at_least_two, table=lambda n, k: n**k,
    ),
    "INVERSE": Theorem(_all_matrices, _each(_inverse)),
    "STOINV": Theorem(_stochastic_matrices, _each(_stoinv), stochastic_matrix, table=lambda n, k: n**k),
    "ODDINV": Theorem(
        _symmetric_stochastic_matrices, _each(_oddinv), symmetric_stochastic, require=_odd_dimension
    ),
    "UNITREDUCE": Theorem(_unitary_families, _each(_unitreduce)),
    "ATOMS": Theorem(_stochastic_matrices, _each(_atoms), stochastic_matrix),
    "POWER": Theorem(_stochastic_then_unitary, _power, _sample_power),
    "PERIOD_DIVIDES": Theorem(_stochastic_matrices, _period_divides, stochastic_matrix),
}


def _lookup(theorem: str, n: int, k: int) -> Theorem:
    try:
        entry = THEOREMS[theorem]
    except KeyError:
        raise PreconditionError(
            f"unknown theorem {theorem!r}; registered: {', '.join(sorted(THEOREMS))}"
        ) from None
    if not (isinstance(n, int) and isinstance(k, int)):
        raise PreconditionError(f"n and k must be ints, got {n!r} and {k!r}")
    if n < 1 or k < 1:
        raise PreconditionError("n and k must be at least 1")
    entry.require(n)
    return entry


def _chunks(objects: Iterable[Any]) -> Iterator[list[Any]]:
    """``objects`` in lists of ``_CHUNK``; what a source streamed before it
    refused its budget is still handed over, as one object at a time was."""
    it, chunk = iter(objects), [None] * _CHUNK
    while len(chunk) == _CHUNK:
        chunk = []
        try:
            chunk.extend(islice(it, _CHUNK))
        finally:
            if chunk:
                yield chunk


def _run(theorem: str, entry: Theorem, n: int, k: int, objects: Iterable[Any], mode: str) -> Verdict:
    """Apply the theorem's predicate to the objects a chunk at a time; stop
    at the first counterexample."""
    first_failure = entry.predicate(n, k)
    witness = entry.witness(n, k) if entry.witness else None
    checked = 0
    witnessed = witness is None
    counterexample = None
    for chunk in _chunks(objects):
        found = first_failure(chunk)
        if found is not None:
            index, counterexample = found
            checked += index + 1
            break
        checked += len(chunk)
        witnessed = witnessed or any(map(witness, chunk))
    else:
        if checked == 0:
            counterexample = "no objects checked"
        elif not witnessed:
            counterexample = f"no witness among {checked} objects (enumeration bug)"
    return Verdict(
        theorem=theorem, n=n, k=k, passed=counterexample is None,
        checked=checked, counterexample=counterexample, mode=mode,
    )


def brute_check(theorem: str, n: int, k: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exhaustively verify one registered theorem in dimension ``n`` over
    ``k`` atoms."""
    entry = _lookup(theorem, n, k)
    return _run(theorem, entry, n, k, entry.source(n, k, budget), "exhaustive")


def sample_check(theorem: str, n: int, k: int, samples: int, seed: int = 0) -> Verdict:
    """Randomized verification for scales beyond exhaustive reach: the same
    predicate as :func:`brute_check`, on ``samples`` seeded draws."""
    entry = _lookup(theorem, n, k)
    if entry.sampler is None:
        raise PreconditionError(f"{theorem} supports exhaustive checking only")
    if not isinstance(samples, int):
        raise PreconditionError(f"the sample count must be an int, got {samples!r}")
    if samples < 1:
        raise PreconditionError(f"need at least one sample, got {samples}")
    if entry.table:
        _require_budget(entry.table(n, k), DEFAULT_BUDGET)
    rng = random.Random(seed)
    draws = (entry.sampler(rng, k, n) for _ in range(samples))
    return _run(theorem, entry, n, k, draws, "sampled")
