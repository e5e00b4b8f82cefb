"""Naive reference arithmetic that the benchmark checks outputs against.

Everything here works on plain Python ints (one bit per atom) and imports
nothing from ``boolmat``, so a fault in the code under test cannot hide
itself by also corrupting the check. Matrices are row-major mask lists.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import and_, or_


def matmul(n, m, p, a, b):
    """Triple-loop join-of-meets product of an n-by-m and an m-by-p matrix.

    The innermost loop runs as ``reduce(or_, map(and_, row, column))``.
    """
    rows = [a[i * m : (i + 1) * m] for i in range(n)]
    cols = [b[j::p] for j in range(p)]
    return tuple(reduce(or_, map(and_, row, col), 0) for row in rows for col in cols)


def transpose(n, a):
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


def identity(n, full):
    return tuple(full if i == j else 0 for i in range(n) for j in range(n))


def matvec(n, a, v):
    return tuple(_join(a[i * n + t] & v[t] for t in range(n)) for i in range(n))


def _join(masks):
    acc = 0
    for x in masks:
        acc |= x
    return acc


def is_stochastic_vector(v, full):
    seen = 0
    for x in v:
        if x & seen:
            return False
        seen |= x
    return seen == full


def is_stochastic(n, a, full):
    return all(is_stochastic_vector([a[i * n + j] for i in range(n)], full) for j in range(n))


def is_unitary(n, a, full):
    at = transpose(n, a)
    eye = identity(n, full)
    return matmul(n, n, n, a, at) == eye and matmul(n, n, n, at, a) == eye


def power_sequence(n, a):
    """(exponent, period, distinct powers A^1..A^(e+p-1)) by plain iteration."""
    seen = {}
    powers = []
    cur = tuple(a)
    while cur not in seen:
        seen[cur] = len(powers) + 1
        powers.append(cur)
        cur = matmul(n, n, n, cur, a)
    exponent = seen[cur]
    return exponent, len(powers) + 1 - exponent, powers


def reach(n, powers):
    """Arrows (from, to), mutual pairs, transitivity and equivalence flags."""
    arrows = {(j + 1, i + 1) for m in powers for i in range(n) for j in range(n) if m[i * n + j]}
    mutual = {(x, y) for (x, y) in arrows if x < y and (y, x) in arrows}
    transitive = all((x, z) in arrows for (x, y) in arrows for (y2, z) in arrows if y == y2)
    sym = {(x, y) for (x, y) in arrows if (y, x) in arrows}
    equivalence = all((i, i) in arrows for i in range(1, n + 1)) and all(
        (x, z) in sym for (x, y) in sym for (y2, z) in sym if y == y2
    )
    return arrows, mutual, transitive, equivalence


def atoms(n, a, k):
    """Matrix atoms in depth-first order: bits grouped by their column-to-row map.

    Bit b of a stochastic matrix sits in exactly one row of each column; two
    bits share an atom exactly when they pick the same row in every column.
    The program enumerates atoms depth first over columns and ascending
    rows, which is the lexicographic order of these row tuples.
    """
    groups = {}
    for bit in range(k):
        sel = tuple(next(i for i in range(n) if a[i * n + j] >> bit & 1) for j in range(n))
        groups[sel] = groups.get(sel, 0) | 1 << bit
    return [groups[sel] for sel in sorted(groups)]


def joint_trace(n, mats, full):
    acc = 0
    for i in range(n):
        d = full
        for m in mats:
            d &= m[i * n + i]
        acc |= d
    return acc


def block_one(core, full):
    """``diag(1, core)`` for a square core given as rows of masks."""
    c = len(core)
    out = [full] + [0] * c
    for row in core:
        out.append(0)
        out.extend(row)
    return tuple(out)


def lcm_upto(n):
    return math.lcm(*range(1, n + 1))


def oracle_count(theorem, n, k, budget=10_000_000):
    """Closed-form number of objects an exhaustive oracle check visits."""
    stochastic = n ** (k * n)
    unitary = math.factorial(n) ** k
    if theorem in ("STOINV", "ATOMS", "PERIOD_DIVIDES"):
        return stochastic
    if theorem == "POWER":
        return stochastic + unitary
    if theorem == "UNITREDUCE":
        return unitary + (unitary * unitary if unitary**3 <= budget else 0)
    raise ValueError(f"no closed form for {theorem}")
