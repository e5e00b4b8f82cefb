"""Seeded random generators for vectors and matrices used in sweeps.

Stochastic objects decompose atom by atom: a stochastic vector assigns each
atom a slot, a stochastic matrix assigns each atom a function from columns
to rows, a unitary a permutation, and a symmetric stochastic matrix an
involution. Sampling those assignments uniformly gives exact uniform
sampling over each class. Those draws live in ``_draw``, which the oracle
samples with too: the matrix and orthonormal-set generators here wrap its
masks in ``BMatrix``/``BVec``, and ``random_involution`` is its
``involution``, so both draw the same objects from the same seed.
"""

from __future__ import annotations

import random

from ._draw import involution as random_involution
from ._draw import orthonormal_columns, stochastic_matrix, symmetric_stochastic, unitary
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


def random_stochastic_matrix(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    return BMatrix(n, n, stochastic_matrix(rng, algebra.atom_count, n), algebra)


def random_unitary(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    return BMatrix(n, n, unitary(rng, algebra.atom_count, n), algebra)


def random_symmetric_stochastic(rng: random.Random, algebra: Algebra, n: int) -> BMatrix:
    return BMatrix(n, n, symmetric_stochastic(rng, algebra.atom_count, n), algebra)


def random_stochastic_orthonormal_set(
    rng: random.Random, algebra: Algebra, n: int, m: int
) -> list[BVec]:
    """m mutually orthogonal stochastic vectors (the first m columns of a unitary)."""
    if not 1 <= m <= n:
        raise PreconditionError(f"need 1 <= m <= n, got m={m}, n={n}")
    return [BVec(v, algebra) for v in orthonormal_columns(rng, algebra.atom_count, n, m)]
