"""Seeded draws of raw masks: the one place each kind of object is sampled.

Stochastic objects decompose atom by atom: a stochastic matrix assigns each
atom a function from columns to rows, a unitary a permutation, and a
symmetric stochastic matrix an involution. Sampling those maps uniformly
gives exact uniform sampling over each class. ``rand`` wraps these draws in
``BMatrix``/``BVec``, and the oracle registers them as its samplers, so the
order of rng calls that seeded runs and golden files depend on is written
once.

``below`` makes ``rng.randrange(m)``'s ``getrandbits`` calls and
``permutation`` makes ``rng.shuffle``'s, without their frames. The module
imports only the standard library, so importing ``rand`` does not load the
oracle.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Iterable, Sequence


def below(rng: random.Random, m: int) -> int:
    """``rng.randrange(m)`` for ``m >= 1``: ``Random._randbelow``'s loop,
    with the same ``getrandbits`` calls and so the same draw and state."""
    k = m.bit_length()
    r = rng.getrandbits(k)
    while r >= m:
        r = rng.getrandbits(k)
    return r


def permutation(rng: random.Random, n: int) -> list[int]:
    """``rng.shuffle(list(range(n)))``: the same Fisher-Yates swaps and draws."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = below(rng, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@cache
def _involution_counts(n: int) -> tuple[int, ...]:
    """The number of involutions of range(i), for i = 0..n."""
    counts = [1, 1]
    for i in range(2, n + 1):
        counts.append(counts[i - 1] + (i - 1) * counts[i - 2])
    return tuple(counts)


def involution(rng: random.Random, n: int) -> list[int]:
    """A uniform involution of range(n), as a permutation list: the last
    unpaired point stays fixed with probability ``counts[size - 1] /
    counts[size]``, else pairs with a uniform partner."""
    counts = _involution_counts(n)
    perm = list(range(n))
    remaining = list(range(n))
    while remaining:
        size = len(remaining)
        x = remaining.pop()
        if size == 1 or below(rng, counts[size]) < counts[size - 1]:
            continue
        y = remaining.pop(below(rng, size - 1))
        perm[x], perm[y] = y, x
    return perm


def matrix_masks(n: int, maps: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The row-major matrix whose atom ``bit`` moves column j to row ``maps[bit][j]``."""
    masks = [0] * (n * n)
    for bit, col_to_row in enumerate(maps):
        for j, i in enumerate(col_to_row):
            masks[i * n + j] |= 1 << bit
    return tuple(masks)


def stochastic_matrix(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    return matrix_masks(n, [[below(rng, n) for _ in range(n)] for _ in range(k)])


def unitary(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    return matrix_masks(n, [permutation(rng, n) for _ in range(k)])


def symmetric_stochastic(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    return matrix_masks(n, [involution(rng, n) for _ in range(k)])


def orthonormal_columns(rng: random.Random, k: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The first ``m`` columns of a uniform :func:`unitary`: ``m`` mutually
    orthogonal stochastic vectors."""
    masks = unitary(rng, k, n)
    return tuple(masks[j::n] for j in range(m))
