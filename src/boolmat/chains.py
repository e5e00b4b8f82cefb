"""Boolean Markov chain dynamics: matrix atoms, powers, and reachability.

The powers of an n-by-n matrix always become eventually periodic; for
stochastic matrices the exponent is at most ``n - 1`` and the period
divides ``lcm(1..n)``, which gives the clean identity
``A**(lcm(1..n) + n - 1) == A**(n - 1)``. Matrix atoms (nonzero meets of
one entry per column) partition one and turn the action on scaled basis
vectors into a plain function on slots. Since the atoms are disjoint and
nonzero, ``A**s == A**t`` exactly when every atom function f has
``f**s == f**t``, so exponent, period, powers and reachability of a
stochastic matrix are read off the atom functions without a single matrix
product. Other square matrices are multiplied until a power repeats.

Site labels follow the transition-matrix convention: entry (i, j) labels
the one-step move from site j to site i, and sites are numbered 1..n.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .algebra import Elem, PreconditionError, ShapeError
from .bmatrix import BMatrix, _check_exponent, _powers, is_stochastic_matrix, mul
from .bvec import _atom_slots

__all__ = [
    "PowerProfile",
    "MatrixAtoms",
    "lcm_upto",
    "matrix_atoms",
    "power_profile",
    "verify_power_theorem",
    "reachable",
    "relation_report",
    "ReachReport",
]


def lcm_upto(n: int) -> int:
    """Least common multiple of 1..n."""
    if n < 1:
        raise PreconditionError("lcm_upto needs n >= 1")
    return math.lcm(*range(1, n + 1))


def _iterate(f: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The s-th iterate of the slot function ``f``, by repeated squaring."""
    result = tuple(range(len(f)))
    while s:
        if s & 1:
            result = tuple(f[x] for x in result)
        s >>= 1
        if s:
            f = tuple(f[x] for x in f)
    return result


def _tail_and_period(f: tuple[int, ...]) -> tuple[int, int]:
    """Longest tail and lcm of the cycle lengths of the slot function ``f``.

    The images ``f**s(slots)`` shrink strictly until they reach the union of
    the cycles, which takes exactly the longest tail; on that union ``f`` is
    a permutation whose cycles are walked once each.
    """
    tail, image = 0, set(range(len(f)))
    while (nxt := {f[x] for x in image}) != image:
        tail, image = tail + 1, nxt
    period = 1
    while image:
        start = image.pop()
        length, x = 1, f[start]
        while x != start:
            image.discard(x)
            length, x = length + 1, f[x]
        period = math.lcm(period, length)
    return tail, period


@dataclass(frozen=True, slots=True)
class MatrixAtoms:
    """Atoms of a stochastic matrix plus their action on slots.

    ``selectors[a][j]`` is the row that column j's entry assigns to atom a:
    the unique row i with ``atoms[a] <= A[i, j]``. Scaled basis vectors move
    by this map: ``A (w . delta_j) = w . delta_selectors[a][j]`` for
    ``w = atoms[a]``. The atoms are disjoint, join to one, and come in
    ascending order of their selectors, which are pairwise distinct.
    """

    matrix: BMatrix
    atom_masks: tuple[int, ...]
    selectors: tuple[tuple[int, ...], ...]

    @property
    def atoms(self) -> list[Elem]:
        return [Elem(m, self.matrix.algebra) for m in self.atom_masks]

    def __len__(self) -> int:
        return len(self.atom_masks)

    def power(self, s: int) -> BMatrix:
        """``A**s`` for any s >= 0, built from the atom functions alone.

        Entry (i, j) is the join of the atoms whose function, iterated s
        times, sends slot j to slot i.
        """
        _check_exponent(s)
        n = self.matrix.rows
        masks = [0] * (n * n)
        for w, f in zip(self.atom_masks, self.selectors):
            for j, i in enumerate(_iterate(f, s)):
                masks[i * n + j] |= w
        return BMatrix(n, n, tuple(masks), self.matrix.algebra)

    def reached(self, col: int) -> set[int]:
        """Rows (0-based) that column ``col`` reaches in one or more steps.

        These are the slots on the orbits of ``col`` under the atom
        functions: ``A**s`` has a nonzero entry (i, col) exactly when some
        atom's function sends col to i in s steps.
        """
        if not 0 <= col < self.matrix.cols:
            raise ShapeError(f"column {col} out of range for {self.matrix.rows}x{self.matrix.cols}")
        hit: set[int] = set()
        for f in self.selectors:
            orbit: set[int] = set()
            x = f[col]
            while x not in orbit:
                orbit.add(x)
                x = f[x]
            hit |= orbit
        return hit


def matrix_atoms(a: BMatrix) -> MatrixAtoms:
    """The nonzero column-selection meets of a stochastic matrix.

    Each atom of the algebra sits in exactly one row of each column, so it
    has one column-to-row map; a matrix atom is the join of the atoms that
    share a map, which is the meet of the entries that map selects. The atoms
    come sorted by their maps, column 0's row first.
    """
    atoms = _stochastic_atoms(a)
    if atoms is None:
        raise PreconditionError("matrix atoms are defined for stochastic matrices")
    return atoms


def _stochastic_atoms(a: BMatrix) -> MatrixAtoms | None:
    """The atoms of ``a``, or None when ``a`` is not stochastic; one scan of
    the columns decides both."""
    if not a.is_square():
        raise ShapeError("stochastic matrices are square transition matrices")
    n = a.rows
    groups = _atom_slots([a.masks[j::n] for j in range(n)], a.algebra.atom_count)
    if groups is None:
        return None
    ordered = sorted(groups.items())
    return MatrixAtoms(a, tuple(w for _, w in ordered), tuple(f for f, _ in ordered))


@dataclass(frozen=True, slots=True)
class _AtomPowers(Sequence):
    """``A, A**2, ..., A**length`` of a stochastic matrix, each built on demand
    from its atoms, so holding the sequence costs no more than the atoms."""

    atoms: MatrixAtoms
    length: int

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> BMatrix:
        i = operator.index(i)
        if i < 0:
            i += self.length
        if not 0 <= i < self.length:
            raise IndexError("power index out of range")
        return self.atoms.power(i + 1)


@dataclass(frozen=True, slots=True)
class PowerProfile:
    """Eventual periodicity of the power sequence A, A^2, A^3, ...

    ``powers[s - 1]`` is ``A**s`` for s = 1 .. exponent + period - 1, the
    full sequence of distinct powers; every later power repeats one of
    these. For a stochastic matrix the sequence is lazy: its length is
    known at once and each power is built from the atoms when read.
    """

    exponent: int
    period: int
    powers: Sequence[BMatrix]

    def power_at(self, s: int) -> BMatrix:
        """``A**s`` for any s >= 1, resolved through the cycle."""
        if isinstance(s, int) and s < 1:
            raise PreconditionError("power_at needs s >= 1")
        _check_exponent(s)
        if s < self.exponent + self.period:
            return self.powers[s - 1]
        wrapped = self.exponent + (s - self.exponent) % self.period
        return self.powers[wrapped - 1]


def _atom_profile(atoms: MatrixAtoms) -> PowerProfile:
    """Exponent and period of a stochastic matrix from its atom functions.

    ``f**s == f**t`` for all atom functions f exactly when both s and t
    are at least the longest tail and the lcm of all cycle lengths divides
    ``t - s``; powers start at ``A**1``, so the exponent is at least one.
    """
    if atoms.matrix.rows == 0:
        raise PreconditionError("power profile of an empty matrix")
    tail, p = 0, 1
    for f in atoms.selectors:
        t, q = _tail_and_period(f)
        tail, p = max(tail, t), math.lcm(p, q)
    e = max(tail, 1)
    return PowerProfile(exponent=e, period=p, powers=_AtomPowers(atoms, e + p - 1))


def power_profile(a: BMatrix) -> PowerProfile:
    """Exponent, period and the distinct powers of a square matrix.

    A stochastic matrix is read off its atom functions. Any other matrix is
    multiplied until the first collision ``A**s == A**t`` (t < s), which
    yields period ``s - t`` and exponent ``t``; these match the definition
    ordering (smallest period first, then smallest exponent) because any
    repeat distance on the cycle is a multiple of the cycle length.
    """
    return _profile(a)[0]


def _profile(a: BMatrix) -> tuple[PowerProfile, MatrixAtoms | None]:
    """:func:`power_profile`, and the atoms it was read from when ``a`` is
    stochastic."""
    if not a.is_square():
        raise PreconditionError("power profile of a non-square matrix")
    atoms = _stochastic_atoms(a)
    if atoms is not None:
        return _atom_profile(atoms), atoms
    seen: dict[tuple[int, ...], int] = {}
    powers: list[BMatrix] = []
    cur = a
    s = 1
    while cur.masks not in seen:
        seen[cur.masks] = s
        powers.append(cur)
        cur = mul(cur, a)
        s += 1
    t = seen[cur.masks]
    return PowerProfile(exponent=t, period=s - t, powers=tuple(powers)), None


def verify_power_theorem(a: BMatrix) -> bool:
    """Compare ``A**(lcm(1..n)+n-1)`` with ``A**(n-1)`` bit-exactly.

    Always true for stochastic matrices; False would mean a library bug.
    Both powers are products over one ladder of squares, which stops at
    its first repeat ``A**(2**t) == A**(2**s)``: from ``A**(2**s)`` on,
    powers repeat with period ``2**t - 2**s``, so the large exponent folds
    onto the rungs already built. With ``E = lcm(1..n) + n - 1`` this costs
    at most ``E.bit_length() - 1`` squares plus
    ``popcount(E) + popcount(n - 1) - 2`` products, and the atom functions
    are never consulted.
    """
    if not is_stochastic_matrix(a):
        raise PreconditionError("the power identity is stated for stochastic matrices")
    n = a.rows
    big, small = _powers(a, (lcm_upto(n) + n - 1, n - 1))
    return big == small


def _check_site(n: int, site: int) -> None:
    if not 1 <= site <= n:
        raise PreconditionError(f"site {site} out of range 1..{n}")


def reachable(a: BMatrix, from_site: int, to_site: int) -> bool:
    """Can the chain move from ``from_site`` to ``to_site`` in >= 1 steps?

    True when some atom's orbit of ``from_site`` passes ``to_site``.
    """
    atoms = _stochastic_atoms(a)
    if atoms is None:
        raise PreconditionError("reachability is defined for stochastic matrices")
    _check_site(a.rows, from_site)
    _check_site(a.rows, to_site)
    return to_site - 1 in atoms.reached(from_site - 1)


@dataclass(frozen=True, slots=True)
class ReachReport:
    """Accessibility relation of a Boolean Markov chain, with its defects.

    ``arrows`` holds ordered pairs (from, to); ``mutual`` the unordered
    mutually-accessible pairs (i < j). Unlike real-valued chains the arrow
    relation may fail transitivity, and mutual accessibility may fail to be
    an equivalence; witnesses record one failure of each kind.
    """

    site_count: int
    exponent: int
    period: int
    arrows: frozenset[tuple[int, int]]
    mutual: frozenset[tuple[int, int]]
    transitive: bool
    transitivity_witness: tuple[int, int, int] | None
    equivalence: bool
    equivalence_witness: str | None


def _transitivity_witness(succ: dict[int, set[int]]) -> tuple[int, int, int] | None:
    """The first (x, y, z) with x->y and y->z but not x->z, or None, for the
    relation in which ``succ`` maps every site to its set of successors.

    "First" is the order of a double loop over the sorted pairs: (x, y)
    ascending, then z ascending among the successors of y.
    """
    for x in sorted(succ):
        xs = succ[x]
        for y in sorted(xs):
            ys = succ[y]
            if not ys <= xs:
                return x, y, min(ys - xs)
    return None


def relation_report(a: BMatrix) -> ReachReport:
    """Full accessibility survey: from the atom orbits of a stochastic
    matrix, from its distinct powers otherwise."""
    n = a.rows
    profile, atoms = _profile(a)
    if atoms is not None:
        reached = [atoms.reached(j) for j in range(n)]
    else:
        reached = [{i for m in profile.powers for i in range(n) if m.masks[i * n + j]} for j in range(n)]
    succ = {j + 1: {i + 1 for i in rows} for j, rows in enumerate(reached)}
    sym = {x: {y for y in ys if x in succ[y]} for x, ys in succ.items()}
    arrows = {(x, y) for x, ys in succ.items() for y in ys}
    mutual = {(x, y) for x, ys in sym.items() for y in ys if x < y}
    witness = _transitivity_witness(succ)

    eq_witness = None
    lonely = next((x for x, ys in succ.items() if x not in ys), None)
    if lonely is not None:
        eq_witness = f"not reflexive: {lonely} does not return to itself"
    else:
        sym_witness = _transitivity_witness(sym)
        if sym_witness is not None:
            x, y, z = sym_witness
            eq_witness = f"not transitive: {x}<->{y} and {y}<->{z} but not {x}<->{z}"

    return ReachReport(
        site_count=n,
        exponent=profile.exponent,
        period=profile.period,
        arrows=frozenset(arrows),
        mutual=frozenset(mutual),
        transitive=witness is None,
        transitivity_witness=witness,
        equivalence=eq_witness is None,
        equivalence_witness=eq_witness,
    )
