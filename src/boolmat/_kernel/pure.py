"""Pure-Python join-meet kernels over packed atom masks.

Masks are plain Python ints, so any atom count works (beyond 64 the ints
simply span several machine words). The compiled backend mirrors these
signatures for the single-word case, and rejects malformed dimensions the
same way: a negative dimension or an operand of the wrong length raises
``ValueError``. Masks are not checked here; their range is the business of
the ``BMatrix``/``BVec`` constructors.
"""

from __future__ import annotations

from typing import Sequence

name = "pure"


def _check_shape(n: int, m: int, p: int, a: Sequence[int], b: Sequence[int]) -> None:
    if n < 0 or m < 0 or p < 0:
        raise ValueError("negative matrix dimensions")
    for size, masks in ((n * m, a), (m * p, b)):
        if len(masks) != size:
            raise ValueError(f"expected {size} masks, got {len(masks)}")


def matmul(n: int, m: int, p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Row-major product: out[i*p+j] = OR_t (a[i*m+t] & b[t*p+j])."""
    _check_shape(n, m, p, a, b)
    out = [0] * (n * p)
    for i in range(n):
        base = i * p
        arow = a[i * m : (i + 1) * m]
        for t in range(m):
            at = arow[t]
            if not at:
                continue
            boff = t * p
            for j in range(p):
                bt = b[boff + j]
                if bt:
                    out[base + j] |= at & bt
    return out


def matvec(n: int, m: int, a: Sequence[int], v: Sequence[int]) -> list[int]:
    """out[i] = OR_t (a[i*m+t] & v[t]): the p = 1 case of :func:`matmul`."""
    return matmul(n, m, 1, a, v)
