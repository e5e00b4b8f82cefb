"""Seeded random generators for vectors and matrices used in sweeps.

Stochastic objects decompose atom by atom: a stochastic vector assigns each
atom a slot, a stochastic matrix assigns each atom a function from columns
to rows, a unitary a permutation, and a symmetric stochastic matrix an
involution. Sampling those assignments uniformly gives exact uniform
sampling over each class.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Sequence

from .algebra import Algebra, PreconditionError
from .bmatrix import BMatrix
from .bvec import BVec

__all__ = [
    "random_vector",
    "random_stochastic_vector",
    "random_orthogonal_stochastic_pair",
    "random_stochastic_matrix",
    "random_unitary",
    "random_symmetric_stochastic",
    "random_stochastic_orthonormal_set",
    "random_involution",
]


def random_vector(rng: random.Random, algebra: Algebra, n: int) -> BVec:
    return BVec(tuple(rng.randrange(algebra._full + 1) for _ in range(n)), algebra)


def random_stochastic_vector(rng: random.Random, algebra: Algebra, n: int) -> BVec:
    masks = [0] * n
    for bit in range(algebra.atom_count):
        masks[rng.randrange(n)] |= 1 << bit
    return BVec(tuple(masks), algebra)


def random_orthogonal_stochastic_pair(rng: random.Random, algebra: Algebra, n: int) -> tuple[BVec, BVec]:
    """Two orthogonal stochastic vectors: every atom takes distinct slots."""
    if n < 2:
        raise PreconditionError("orthogonal stochastic pairs need n >= 2")
    a = [0] * n
    b = [0] * n
    for bit in range(algebra.atom_count):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        a[i] |= 1 << bit
        b[j] |= 1 << bit
    return BVec(tuple(a), algebra), BVec(tuple(b), algebra)


def _matrix_from_assignments(algebra: Algebra, n: int, assignments: Sequence[Sequence[int]]) -> BMatrix:
    masks = [0] * (n * n)
    for bit, col_to_row in enumerate(assignments):
        abit = 1 << bit
        for j, i in enumerate(col_to_row):
            masks[i * n + j] |= abit
    return BMatrix(n, n, tuple(masks), algebra)


def random_stochastic_matrix(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    assigns = [
        [rng.randrange(n) for _ in range(n)] for _ in range(algebra.atom_count)
    ]
    return _matrix_from_assignments(algebra, n, assigns)


def random_unitary(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    assigns = []
    for _ in range(algebra.atom_count):
        perm = list(range(n))
        rng.shuffle(perm)
        assigns.append(perm)
    return _matrix_from_assignments(algebra, n, assigns)


@cache
def _involution_counts(n: int) -> tuple[int, ...]:
    """The number of involutions of range(i), for i = 0..n."""
    counts = [1, 1]
    for i in range(2, n + 1):
        counts.append(counts[i - 1] + (i - 1) * counts[i - 2])
    return tuple(counts)


def random_involution(rng: random.Random, n: int) -> list[int]:
    """Uniformly random involution of range(n), as a permutation list."""
    counts = _involution_counts(n)
    perm = list(range(n))
    remaining = list(range(n))
    while remaining:
        size = len(remaining)
        x = remaining.pop()
        if size == 1 or rng.randrange(counts[size]) < counts[size - 1]:
            continue
        y = remaining.pop(rng.randrange(len(remaining)))
        perm[x], perm[y] = y, x
    return perm


def random_symmetric_stochastic(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    assigns = [random_involution(rng, n) for _ in range(algebra.atom_count)]
    return _matrix_from_assignments(algebra, n, assigns)


def random_stochastic_orthonormal_set(
    rng: random.Random, algebra: Algebra, n: int, m: int
) -> list[BVec]:
    """m mutually orthogonal stochastic vectors (the first m columns of a unitary)."""
    if not 1 <= m <= n:
        raise PreconditionError(f"need 1 <= m <= n, got m={m}, n={n}")
    u = random_unitary(rng, algebra, n)
    return [u.column(j) for j in range(m)]
