"""Boolean matrices as linear maps: products, unitaries, and reductions.

A matrix multiplies by join-of-meets; columns of a stochastic matrix are
stochastic vectors, and unitary matrices (``A A* = A* A = I``) are exactly
the invertible ones, with inverse the transpose. A unitary permutes each
atom's slots; read slot by slot, invariant stochastic vectors give the
block-diagonal form with no product, and :class:`Reduction` records it.

Hot products dispatch to the packed-word kernel selected at import in
:mod:`boolmat._kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import _kernel
from .algebra import (
    Algebra,
    AlgebraMismatchError,
    Elem,
    NotInvertibleError,
    PreconditionError,
    ShapeError,
)
from .bvec import BVec, _atom_slots, _elem_masks, _is_partition, _join, disjoint_refinement, orthogonal

__all__ = [
    "BMatrix",
    "Reduction",
    "mul",
    "apply",
    "adjoint",
    "identity",
    "matrix_leq",
    "is_stochastic_matrix",
    "is_unitary",
    "is_row_stochastic",
    "invert",
    "trace",
    "joint_trace",
    "find_invariant_stochastic",
    "reflection_from",
    "reduce_unitary",
    "reduce_by_orthogonal_set",
    "power",
    "block_diag",
]


@dataclass(frozen=True, slots=True)
class BMatrix:
    """An n-by-m grid of algebra elements, row-major packed.

    Degenerate 0-by-0 matrices are permitted; they appear as cores of full
    reductions. Vectors, by contrast, never have length zero.
    """

    rows: int
    cols: int
    masks: tuple[int, ...]
    algebra: Algebra

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))
        if not (isinstance(self.rows, int) and isinstance(self.cols, int)):
            raise ShapeError(f"matrix dimensions must be ints, got {self.rows!r} and {self.cols!r}")
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.masks) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.masks)}"
            )
        self.algebra._check_masks(self.masks)

    @classmethod
    def _unchecked(cls, rows: int, cols: int, masks: tuple[int, ...], algebra: Algebra) -> BMatrix:
        """A matrix built without ``__post_init__``, for masks whose shape and
        range hold by construction.

        Callers: a kernel product of checked operands (every entry is a join
        of meets of masks in ``[0, 2**k)``, so it stays there) and a parsed
        model block (``rows`` lines of ``cols`` literals, each read by
        :meth:`Algebra._mask_of`, which yields only masks in range).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "algebra", algebra)
        return self

    @staticmethod
    def of(rows: Sequence[Sequence[Elem]]) -> BMatrix:
        """Build from a rectangular grid of elements."""
        if not rows:
            raise ShapeError("an empty grid has no algebra; build 0x0 as BMatrix(0, 0, (), algebra)")
        masks, alg = _elem_masks(rows, "matrix", "matrix entries from different algebras")
        if alg is None:
            raise ShapeError("cannot infer algebra from an empty grid")
        return BMatrix(len(rows), len(rows[0]), tuple(masks), alg)

    def __getitem__(self, ij: tuple[int, int]) -> Elem:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index {ij} out of range for {self.rows}x{self.cols}")
        return Elem(self.masks[i * self.cols + j], self.algebra)

    def row(self, i: int) -> BVec:
        if not 0 <= i < self.rows:
            raise ShapeError(f"row {i} out of range for {self.rows}x{self.cols}")
        return BVec(self.masks[i * self.cols : (i + 1) * self.cols], self.algebra)

    def column(self, j: int) -> BVec:
        if not 0 <= j < self.cols:
            raise ShapeError(f"column {j} out of range for {self.rows}x{self.cols}")
        return BVec(tuple(self.masks[i * self.cols + j] for i in range(self.rows)), self.algebra)

    @staticmethod
    def from_columns(columns: Sequence[BVec]) -> BMatrix:
        if not columns:
            raise ShapeError("need at least one column")
        n = len(columns[0])
        alg = columns[0].algebra
        for c in columns[1:]:
            if c.algebra is not alg:
                raise AlgebraMismatchError("columns from different algebras")
            if len(c) != n:
                raise ShapeError("columns of different lengths")
        masks = tuple(c.masks[i] for i in range(n) for c in columns)
        return BMatrix(n, len(columns), masks, alg)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __str__(self) -> str:
        literal, masks, cols = self.algebra.literal, self.masks, self.cols
        return "\n".join(" ".join(map(literal, masks[i * cols : (i + 1) * cols])) for i in range(self.rows))

    def __repr__(self) -> str:
        return f"BMatrix({self.rows}x{self.cols} over {self.algebra.atom_names})"


def _check_same_algebra(a: BMatrix, b: BMatrix) -> None:
    if a.algebra is not b.algebra:
        raise AlgebraMismatchError("matrices from different algebras")


def mul(a: BMatrix, b: BMatrix) -> BMatrix:
    """Join-of-meets product."""
    _check_same_algebra(a, b)
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = _kernel.matmul(a.rows, a.cols, b.cols, a.masks, b.masks, a.algebra.atom_count)
    return BMatrix._unchecked(a.rows, b.cols, tuple(out), a.algebra)


def apply(a: BMatrix, v: BVec) -> BVec:
    """Apply to a column vector."""
    if a.algebra is not v.algebra:
        raise AlgebraMismatchError("matrix and vector from different algebras")
    if a.cols != len(v):
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to a length-{len(v)} vector")
    if a.rows == 0:
        raise ShapeError("result would be a length-0 vector")
    out = _kernel.matvec(a.rows, a.cols, a.masks, v.masks, a.algebra.atom_count)
    return BVec._unchecked(tuple(out), a.algebra)


def adjoint(a: BMatrix) -> BMatrix:
    """Transpose."""
    masks = tuple(a.masks[i * a.cols + j] for j in range(a.cols) for i in range(a.rows))
    return BMatrix(a.cols, a.rows, masks, a.algebra)


def identity(algebra: Algebra, n: int) -> BMatrix:
    masks = [0] * (n * n)
    for i in range(n):
        masks[i * n + i] = algebra._full
    return BMatrix(n, n, tuple(masks), algebra)


def matrix_leq(a: BMatrix, b: BMatrix) -> bool:
    """Entrywise lattice order (equivalent to the bilinear-form order)."""
    _check_same_algebra(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("order compares equal shapes only")
    return all(x & ~y == 0 for x, y in zip(a.masks, b.masks))


def is_stochastic_matrix(a: BMatrix) -> bool:
    """Is every column a stochastic vector? (Square matrices only.)"""
    if not a.is_square():
        raise ShapeError("stochastic matrices are square transition matrices")
    n, masks, full = a.cols, a.masks, a.algebra._full
    return all(_is_partition(masks[j::n], full) for j in range(n))


def is_unitary(a: BMatrix) -> bool:
    """Does ``A A* = A* A = I`` hold?

    ``A A* = I`` says every row of A joins to one and every column's
    entries are pairwise disjoint; ``A* A = I`` says the same with rows and
    columns swapped. Together they say that every column and every row of A
    is stochastic, so no product and no adjoint is needed. A non-square
    matrix is never unitary: each atom slice would be a permutation matrix.
    """
    return a.is_square() and is_stochastic_matrix(a) and is_row_stochastic(a)


def is_row_stochastic(a: BMatrix) -> bool:
    """Is every row a stochastic vector? For a stochastic matrix, this is
    the rest of :func:`is_unitary`."""
    m, masks, full = a.cols, a.masks, a.algebra._full
    return all(_is_partition(masks[i * m : (i + 1) * m], full) for i in range(a.rows))


def invert(a: BMatrix) -> BMatrix:
    """Inverse of a unitary matrix: its adjoint."""
    if not is_unitary(a):
        raise NotInvertibleError("matrix is not unitary, hence not invertible")
    return adjoint(a)


def trace(a: BMatrix) -> Elem:
    """Join of the diagonal."""
    if not a.is_square():
        raise ShapeError("trace of a non-square matrix")
    return Elem(_join(a.masks[:: a.cols + 1]), a.algebra)


def joint_trace(matrices: Sequence[BMatrix]) -> Elem:
    """Join over i of the meet of the (i,i) entries across the family."""
    if not matrices:
        raise PreconditionError("joint trace of an empty family")
    first = matrices[0]
    if not first.is_square():
        raise ShapeError("joint trace needs square matrices")
    for m in matrices[1:]:
        _check_same_algebra(first, m)
        if (m.rows, m.cols) != (first.rows, first.cols):
            raise ShapeError("joint trace needs equal sizes")
    return Elem(_join(_diagonal_meet(matrices)), first.algebra)


def _diagonal_meet(matrices: Sequence[BMatrix]) -> list[int]:
    """Masks of the entrywise meet of the family's diagonals."""
    n = matrices[0].rows
    full = matrices[0].algebra._full
    out = []
    for i in range(n):
        d = full
        for m in matrices:
            d &= m.masks[i * n + i]
        out.append(d)
    return out


def _require_family(matrices: Sequence[BMatrix], member_ok: Callable[[BMatrix], bool], message: str) -> None:
    """A nonempty family of ``member_ok`` matrices over one algebra and of one size."""
    if not matrices:
        raise PreconditionError("empty family")
    for m in matrices:
        if not member_ok(m):
            raise PreconditionError(message)
    for m in matrices[1:]:
        _check_same_algebra(matrices[0], m)
        if m.rows != matrices[0].rows:
            raise ShapeError("family members must have equal sizes")


def find_invariant_stochastic(matrices: Sequence[BMatrix]) -> BVec | None:
    """Common invariant stochastic vector of a stochastic family, or None.

    One exists exactly when the joint trace is one; the construction is
    deterministic: greedy disjointification of the diagonal-meet vector in
    index order.
    """
    _require_family(matrices, is_stochastic_matrix, "find_invariant_stochastic needs stochastic matrices")
    return _invariant(matrices)


def _invariant(matrices: Sequence[BMatrix]) -> BVec | None:
    """:func:`find_invariant_stochastic` of a checked family."""
    vec = BVec(tuple(_diagonal_meet(matrices)), matrices[0].algebra)
    if not vec.is_unit():
        return None
    return disjoint_refinement(vec)


def reflection_from(b: BVec) -> BMatrix:
    """Symmetric stochastic matrix with first row and column ``b``.

    Diagonal entries past the first are complements ``~b_i``; the result
    squares to the identity and swaps ``b`` with the first canonical basis
    vector.
    """
    if not b.is_stochastic():
        raise PreconditionError("reflection_from needs a stochastic vector")
    n = len(b)
    full = b.algebra._full
    masks = [0] * (n * n)
    for i in range(n):
        masks[i] = b.masks[i]
        masks[i * n] = b.masks[i]
    for i in range(1, n):
        masks[i * n + i] = b.masks[i] ^ full
    return BMatrix(n, n, tuple(masks), b.algebra)


@dataclass(frozen=True, slots=True)
class Reduction:
    """Block-diagonalization ``A = B . diag(I_m, C) . B*``.

    ``conjugator`` is unitary (symmetric when ``fixed_count`` is 1, a
    product of reflections otherwise); ``core`` is the trailing block and
    ``fixed_count`` the size of the leading identity block.
    """

    conjugator: BMatrix
    core: BMatrix
    fixed_count: int


def block_diag(algebra: Algebra, fixed: int, core: BMatrix) -> BMatrix:
    """``diag(I_fixed, core)`` as an explicit matrix."""
    if fixed < 0:
        raise PreconditionError(f"identity block size must be non-negative, got {fixed}")
    if core.algebra is not algebra:
        raise AlgebraMismatchError("core from a different algebra")
    if not core.is_square():
        raise ShapeError("core must be square")
    n = fixed + core.rows
    masks = [0] * (n * n)
    for i in range(fixed):
        masks[i * n + i] = algebra._full
    for i in range(core.rows):
        for j in range(core.cols):
            masks[(fixed + i) * n + fixed + j] = core.masks[i * core.cols + j]
    return BMatrix(n, n, tuple(masks), algebra)


def _reduce_by_slots(matrices: Sequence[BMatrix], invariants: Sequence[BVec]) -> list[Reduction]:
    """Reduce unitaries that fix the orthogonal stochastic ``invariants``.

    One :func:`_atom_slots` scan gives, per atom group, each member's
    permutation (column to row) and each invariant's slot. Position t of the
    conjugator takes invariant t's slot, swapped with whatever held it (one
    invariant gives ``reflection_from``); each core is the member's
    permutation seen through the conjugator's, cut to positions m..n-1.
    """
    alg = matrices[0].algebra
    n, m, r = matrices[0].rows, len(invariants), len(matrices)
    columns = [a.masks[j::n] for a in matrices for j in range(n)] + [v.masks for v in invariants]
    conjugator = [0] * (n * n)
    cores = [[0] * ((n - m) * (n - m)) for _ in matrices]
    for s, w in _atom_slots(columns, alg.atom_count).items():
        sigma = list(range(n))
        for t, slot in enumerate(s[r * n :]):
            p = sigma.index(slot)
            sigma[t], sigma[p] = slot, sigma[t]
        position = [0] * n
        for j, i in enumerate(sigma):
            conjugator[i * n + j] |= w
            position[i] = j
        for core, start in zip(cores, range(0, r * n, n)):
            for j in range(m, n):
                core[(position[s[start + sigma[j]]] - m) * (n - m) + j - m] |= w
    b = BMatrix(n, n, tuple(conjugator), alg)
    return [Reduction(conjugator=b, core=BMatrix(n - m, n - m, tuple(c), alg), fixed_count=m) for c in cores]


def reduce_unitary(matrices: Sequence[BMatrix]) -> list[Reduction] | None:
    """Simultaneously reduce a unitary family sharing joint trace one.

    Returns one :class:`Reduction` per input, all sharing the same
    reflection as conjugator, or None when the joint trace is not one
    (no common invariant stochastic vector exists). Merely stochastic
    inputs are rejected: trace one does not make those reducible.
    """
    _require_family(matrices, is_unitary, "reduce_unitary needs unitary matrices")
    b = _invariant(matrices)
    return None if b is None else _reduce_by_slots(matrices, [b])


def reduce_by_orthogonal_set(a: BMatrix, invariants: Sequence[BVec]) -> Reduction:
    """Reduce a unitary by an invariant orthogonal set of stochastic vectors.

    The unitary permutes each atom's slots, fixing the atom's slot in every
    invariant; per atom, the conjugator B takes invariant t's slot to
    position t, so ``A = B . diag(I_m, C) . B*`` with m = len(invariants).
    B is the product of the reflections that peel the invariants in order.
    """
    if not is_unitary(a):
        raise PreconditionError("reduce_by_orthogonal_set needs a unitary matrix")
    if not invariants:
        raise PreconditionError("need at least one invariant vector")
    for v in invariants:
        if v.algebra is not a.algebra or len(v) != a.rows:
            raise ShapeError("invariant vectors must live in the matrix's space")
        if not v.is_stochastic():
            raise PreconditionError("invariant vectors must be stochastic")
        if apply(a, v) != v:
            raise PreconditionError(f"{v} is not invariant under the matrix")
    for i, v in enumerate(invariants):
        for w in invariants[i + 1 :]:
            if not orthogonal(v, w):
                raise PreconditionError("invariant vectors must be mutually orthogonal")

    return _reduce_by_slots([a], invariants)[0]


def power(a: BMatrix, e: int) -> BMatrix:
    """``A**e`` from a ladder of squares; ``A**0`` is the identity.

    The ladder ``A, A**2, A**4, ...`` stops at the top bit of ``e``, or
    earlier at its first repeat, and ``A**e`` is the product of the rungs
    at the set bits of ``e`` once a repeat has folded it (see
    :func:`_powers`). So ``e >= 1`` costs at most
    ``floor(log2 e) + popcount(e) - 1`` products, and ``e = 0`` none.
    """
    if not a.is_square():
        raise ShapeError("powers of a non-square matrix")
    _check_exponent(e)
    return _powers(a, (e,))[0]


def _check_exponent(e: object) -> None:
    """Reject an exponent that is not a non-negative int."""
    if not isinstance(e, int):
        raise PreconditionError(f"exponent {e!r} is not an int")
    if e < 0:
        raise PreconditionError("negative powers are not defined")


def _powers(a: BMatrix, exponents: Sequence[int]) -> list[BMatrix]:
    """``A**e`` for each ``e >= 0`` in ``exponents``, from one ladder of squares.

    The ladder holds ``A**(2**i)`` up to the top bit of the largest
    exponent. It stops early at the first square that equals an earlier
    rung, ``A**(2**t) == A**(2**s)`` with s < t: multiplying both sides by
    ``A**(x - 2**s)`` gives ``A**x == A**(x + d)`` for every ``x >= 2**s``,
    with ``d = 2**t - 2**s``. An exponent ``e >= 2**s`` is then folded to
    ``2**s + (e - 2**s) % d``, which is below ``2**t``, so its bits are all
    rungs. Each power costs ``popcount - 1`` products over the ladder's,
    and folding never adds a bit: above bit s it reduces modulo
    ``2**(t - s) - 1``, where a carry out of the top wraps round to bit s.
    """
    top = max(exponents, default=0)
    ladder = [a]
    seen = {a.masks: 0}
    start = period = 0
    while len(ladder) < top.bit_length():
        square = mul(ladder[-1], ladder[-1])
        if square.masks in seen:
            start = 1 << seen[square.masks]
            period = (1 << len(ladder)) - start
            break
        seen[square.masks] = len(ladder)
        ladder.append(square)
    out = []
    for e in exponents:
        if period and e >= start:
            e = start + (e - start) % period
        result = None
        for i, rung in enumerate(ladder):
            if e >> i & 1:
                result = rung if result is None else mul(result, rung)
        out.append(identity(a.algebra, a.rows) if result is None else result)
    return out
