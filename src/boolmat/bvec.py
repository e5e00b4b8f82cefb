"""Boolean vectors and the constructive basis algorithms.

Vectors are n-tuples over one :class:`~boolmat.algebra.Algebra` with
componentwise join as addition and meet as scalar action. The inner product
``<a,b> = OR_i (a_i & b_i)`` is algebra-valued; orthovectors have pairwise
disjoint entries and stochastic vectors are orthovectors whose entries join
to one (a labelled partition of the atom set).

Everything here is pure and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    Elem,
    PreconditionError,
    ShapeError,
)

__all__ = [
    "BVec",
    "add",
    "scalar_mul",
    "inner",
    "norm",
    "orthogonal",
    "zero_vec",
    "delta",
    "canonical_basis",
    "disjointify",
    "disjoint_refinement",
    "descent",
    "lift",
    "cyclic_basis",
    "is_orthonormal_set",
    "is_basis",
    "coordinates",
    "extend_to_basis",
    "parse_vector",
]


@dataclass(frozen=True, slots=True)
class BVec:
    """An n-tuple of algebra elements, treated as a column vector.

    ``masks[i]`` packs entry i; entries are materialized as :class:`Elem`
    on demand. Vectors of length zero are rejected.
    """

    masks: tuple[int, ...]
    algebra: Algebra

    @staticmethod
    def of(entries: Sequence[Elem]) -> BVec:
        """Build from elements, validating a shared algebra."""
        if not entries:
            raise ShapeError("vectors of length 0 are not supported")
        masks, alg = _elem_masks((entries,), "vector", "vector entries come from different algebras")
        return BVec(tuple(masks), alg)

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))
        if not self.masks:
            raise ShapeError("vectors of length 0 are not supported")
        self.algebra._check_masks(self.masks)

    @classmethod
    def _unchecked(cls, masks: tuple[int, ...], algebra: Algebra) -> BVec:
        """A vector built without ``__post_init__``, for masks whose length and
        range hold by construction.

        Callers: a kernel product of checked operands (every entry is a join
        of meets of masks in ``[0, 2**k)``, and a product has at least one
        row) and a parsed model line (a positive count of literals, each read
        by :meth:`Algebra._mask_of`).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "algebra", algebra)
        return self

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Elem:
        if not 0 <= i < len(self.masks):
            raise ShapeError(f"index {i} out of range for a length-{len(self.masks)} vector")
        return Elem(self.masks[i], self.algebra)

    def __iter__(self) -> Iterator[Elem]:
        alg = self.algebra
        return (Elem(m, alg) for m in self.masks)

    def __add__(self, other: BVec) -> BVec:
        _check_pair(self, other)
        return BVec(tuple(x | y for x, y in zip(self.masks, other.masks)), self.algebra)

    def __rmul__(self, c: Elem) -> BVec:
        if c.algebra is not self.algebra:
            raise AlgebraMismatchError("scalar from a different algebra")
        return BVec(tuple(c.mask & x for x in self.masks), self.algebra)

    def norm(self) -> Elem:
        """Join of all entries; equals ``inner(a, a)``."""
        return Elem(_join(self.masks), self.algebra)

    def is_orthovector(self) -> bool:
        """Are the entries pairwise disjoint?"""
        return _is_partition(self.masks, _join(self.masks))

    def is_unit(self) -> bool:
        """Does the norm equal one?"""
        return self.norm().is_one

    def is_stochastic(self) -> bool:
        """Orthovector whose entries join to one."""
        return _is_partition(self.masks, self.algebra._full)

    def __str__(self) -> str:
        return "(" + ",".join(map(self.algebra.literal, self.masks)) + ")"

    def __repr__(self) -> str:
        return f"BVec{str(self)}"


def _elem_masks(rows: Sequence[Sequence[Elem]], what: str, mismatch: str) -> tuple[list[int], Algebra | None]:
    """Row-major masks of a rectangular grid of elements, and their one
    algebra (None when the grid has no entry)."""
    width = len(rows[0])
    alg = None
    masks: list[int] = []
    for r in rows:
        if len(r) != width:
            raise ShapeError("ragged rows")
        for e in r:
            if not isinstance(e, Elem):
                raise PreconditionError(f"{what} entry {e!r} is not an Elem")
            if alg is None:
                alg = e.algebra
            if e.algebra is not alg:
                raise AlgebraMismatchError(mismatch)
            masks.append(e.mask)
    return masks, alg


def _join(masks: Iterable[int]) -> int:
    """The join of the masks; 0 for none."""
    return reduce(or_, masks, 0)


def _is_partition(masks: Sequence[int], full: int) -> bool:
    """Are the masks pairwise disjoint with join ``full``? This is the test
    for a stochastic vector, and for each column or row of a matrix."""
    seen = 0
    for m in masks:
        if m & seen:
            return False
        seen |= m
    return seen == full


def _check_pair(a: BVec, b: BVec) -> None:
    if a.algebra is not b.algebra:
        raise AlgebraMismatchError("vectors from different algebras")
    if len(a.masks) != len(b.masks):
        raise ShapeError(f"vector lengths differ: {len(a.masks)} vs {len(b.masks)}")


def add(a: BVec, b: BVec) -> BVec:
    """Componentwise join."""
    return a + b


def scalar_mul(c: Elem, a: BVec) -> BVec:
    """Componentwise meet with the scalar ``c``."""
    return c * a


def inner(a: BVec, b: BVec) -> Elem:
    """Algebra-valued inner product: join over i of ``a_i & b_i``."""
    _check_pair(a, b)
    return Elem(_join(map(and_, a.masks, b.masks)), a.algebra)


def norm(a: BVec) -> Elem:
    return a.norm()


def orthogonal(a: BVec, b: BVec) -> bool:
    """Is the inner product zero?"""
    return inner(a, b).is_zero


def zero_vec(algebra: Algebra, n: int) -> BVec:
    if n < 1:
        raise ShapeError("vectors of length 0 are not supported")
    return BVec((0,) * n, algebra)


def delta(algebra: Algebra, n: int, i: int) -> BVec:
    """Canonical basis vector: one in slot ``i`` (0-based), zero elsewhere."""
    if not 0 <= i < n:
        raise PreconditionError(f"slot {i} out of range 0..{n - 1}")
    masks = [0] * n
    masks[i] = algebra._full
    return BVec(tuple(masks), algebra)


def canonical_basis(algebra: Algebra, n: int) -> list[BVec]:
    return [delta(algebra, n, i) for i in range(n)]


def disjoint_refinement(a: BVec) -> BVec:
    """Greedy orthovector below ``a`` with the same norm.

    Entry i keeps what earlier entries have not claimed:
    ``b_i = a_i & ~a_1 & ... & ~a_{i-1}``. Orthovectors are fixed points.
    """
    seen = 0
    out = []
    for m in a.masks:
        out.append(m & ~seen)
        seen |= m
    return BVec(tuple(out), a.algebra)


def disjointify(a: BVec) -> BVec:
    """Stochastic vector below a unit vector, by greedy refinement."""
    if not a.is_unit():
        raise PreconditionError(f"disjointify needs a unit vector, got norm {a.norm()}")
    return disjoint_refinement(a)


def _require_stochastic(a: BVec, what: str) -> None:
    if not a.is_stochastic():
        raise PreconditionError(f"{what} must be stochastic, got {a}")


def descent(a: BVec, b: BVec) -> BVec:
    """Project ``b`` to length n-1 along the stochastic vector ``a``.

    For orthogonal stochastic a, b the vector ``c_i = (b_n & a_i) | b_i``
    (i < n) is stochastic and satisfies ``b_i = c_i & ~a_i``; :func:`lift`
    inverts this.
    """
    _check_pair(a, b)
    if len(a) < 2:
        raise PreconditionError("descent needs vectors of length at least 2")
    _require_stochastic(a, "descent: a")
    _require_stochastic(b, "descent: b")
    if not orthogonal(a, b):
        raise PreconditionError("descent needs orthogonal vectors")
    bn = b.masks[-1]
    return BVec(
        tuple((bn & a.masks[i]) | b.masks[i] for i in range(len(a) - 1)),
        a.algebra,
    )


def lift(a: BVec, c: BVec) -> BVec:
    """Inverse of :func:`descent`: rebuild the length-n vector from ``c``.

    ``b_i = c_i & ~a_i`` for i < n and ``b_n`` the complement of their join;
    the result is stochastic and orthogonal to ``a``.
    """
    if a.algebra is not c.algebra:
        raise AlgebraMismatchError("vectors from different algebras")
    if len(c) != len(a) - 1:
        raise ShapeError(f"lift needs len(c) == len(a)-1, got {len(c)} vs {len(a)}")
    _require_stochastic(a, "lift: a")
    _require_stochastic(c, "lift: c")
    out = [c.masks[i] & ~a.masks[i] for i in range(len(a) - 1)]
    out.append(_join(out) ^ a.algebra._full)
    return BVec(tuple(out), a.algebra)


def cyclic_basis(a: BVec) -> list[BVec]:
    """All rotations of a stochastic vector: an orthonormal basis with ``a`` first."""
    _require_stochastic(a, "cyclic_basis: a")
    n = len(a)
    return [BVec(a.masks[i:] + a.masks[:i], a.algebra) for i in range(n)]


def _uniform(vectors: Sequence[BVec]) -> tuple[int, Algebra]:
    first = vectors[0]
    for v in vectors[1:]:
        _check_pair(first, v)
    return len(first), first.algebra


def is_orthonormal_set(vectors: Sequence[BVec]) -> bool:
    """Pairwise orthogonal and every norm one. Vacuously true when empty."""
    if not vectors:
        return True
    _uniform(vectors)
    for i, v in enumerate(vectors):
        if not v.is_unit():
            return False
        for w in vectors[i + 1 :]:
            if not orthogonal(v, w):
                return False
    return True


def is_basis(vectors: Sequence[BVec]) -> bool:
    """Orthonormal set of cardinality n: exactly the bases of the space."""
    if not vectors:
        return False
    n, _ = _uniform(vectors)
    return len(vectors) == n and is_orthonormal_set(vectors)


def coordinates(b: BVec, basis: Sequence[BVec]) -> list[Elem]:
    """Coefficients of ``b`` in an orthonormal basis: ``c_i = <b, e_i>``.

    The reconstruction ``sum_i c_i e_i`` recovers ``b`` exactly.
    """
    if not is_basis(basis):
        raise PreconditionError("coordinates needs an orthonormal basis")
    return [inner(b, e) for e in basis]


def _atom_slots(columns: Sequence[Sequence[int]], k: int) -> dict[tuple[int, ...], int] | None:
    """Each atom's slot in every stochastic column, grouped: the map from each
    slot tuple that occurs to the join of its atoms. The joins are disjoint,
    cover one, and OR-ed into their slots rebuild the columns.

    The same scan decides stochasticity: None when some column's masks
    overlap or miss an atom.
    """
    full = (1 << k) - 1
    slots = [[0] * len(columns) for _ in range(k)]
    for j, col in enumerate(columns):
        seen = 0
        for i, m in enumerate(col):
            if m & seen:
                return None
            seen |= m
            while m:
                low = m & -m
                slots[low.bit_length() - 1][j] = i
                m ^= low
        if seen != full:
            return None
    groups: dict[tuple[int, ...], int] = {}
    for bit, s in enumerate(slots):
        key = tuple(s)
        groups[key] = groups.get(key, 0) | 1 << bit
    return groups


def _complete_slots(slots: Sequence[int], dim: int) -> list[int]:
    """A permutation of ``range(dim)`` that starts with the distinct ``slots``.

    Rotate-and-descend for one atom: with s0 first, slot s goes to
    ``(s0 - s) % dim - 1`` one dimension down, until no slot is left; then
    ``range`` of what remains maps back up through ``u -> (s0 - u - 1) % dim``.
    """
    heads = []
    while slots:
        heads.append((slots[0], dim))
        slots = [(slots[0] - s) % dim - 1 for s in slots[1:]]
        dim -= 1
    out = list(range(dim))
    for s0, d in reversed(heads):
        out = [s0, *[(s0 - u - 1) % d for u in out]]
    return out


def extend_to_basis(
    vectors: Sequence[BVec],
    *,
    n: int | None = None,
    algebra: Algebra | None = None,
) -> list[BVec]:
    """Extend a stochastic orthonormal set to an orthonormal basis.

    The input vectors stay in place as the first m output vectors. For an
    empty input, ``n`` (at least 1, as for every vector) and ``algebra``
    pick the space and the canonical basis is returned.

    Each atom takes one slot per vector, distinct across an orthonormal set.
    Every group of atoms with the same slots is completed to a permutation
    of the n slots by :func:`_complete_slots`, and output vector t holds the
    group at the permutation's t-th slot. This is the basis got by rotating
    the first vector into a cyclic basis, projecting the rest onto the other
    rotations, extending one dimension down and mapping back.
    """
    vs = list(vectors)
    if vs:
        dim, alg = _uniform(vs)
        if n is not None and n != dim:
            raise ShapeError(f"vectors have length {dim}, not n={n}")
        if algebra is not None and algebra is not alg:
            raise AlgebraMismatchError("vectors are not over the given algebra")
        for v in vs:
            _require_stochastic(v, "extend_to_basis: every vector")
    elif n is None or algebra is None:
        raise PreconditionError("empty set: pass n= and algebra= to fix the space")
    elif n < 1:
        raise PreconditionError(f"extend_to_basis needs n >= 1, got n={n}")
    else:
        dim, alg = n, algebra
    m = len(vs)
    groups = _atom_slots([v.masks for v in vs], alg.atom_count)
    # Also refuses m > dim: every atom would take some slot twice.
    if any(len(set(s)) < m for s in groups):
        raise PreconditionError("extend_to_basis needs an orthonormal set")
    rest = [[0] * dim for _ in range(m, dim)]
    for s, w in groups.items():
        for masks, slot in zip(rest, _complete_slots(s, dim)[m:]):
            masks[slot] |= w
    return vs + [BVec(tuple(masks), alg) for masks in rest]


def parse_vector(algebra: Algebra, text: str) -> BVec:
    """Parse ``({1},{2,3},{})`` style literals; inverse of ``str``."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise PreconditionError(f"bad vector literal {text!r} (expected parentheses)")
    body = t[1:-1]
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if parts == [""]:
        raise ShapeError("vectors of length 0 are not supported")
    return BVec.of([algebra.parse(p) for p in parts])
