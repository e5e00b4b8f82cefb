"""Boolean Markov chain dynamics: matrix atoms, powers, and reachability.

The powers of an n-by-n matrix always become eventually periodic; for
stochastic matrices the exponent is at most ``n - 1`` and the period
divides ``lcm(1..n)``, which gives the clean identity
``A**(lcm(1..n) + n - 1) == A**(n - 1)``. Matrix atoms (nonzero meets of
one entry per column) partition one and turn the action on scaled basis
vectors into a plain function on slots, which is what drives all of this.

Site labels follow the transition-matrix convention: entry (i, j) labels
the one-step move from site j to site i, and sites are numbered 1..n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .algebra import Elem, PreconditionError
from .bmatrix import BMatrix, is_stochastic_matrix, mul, power

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


@dataclass(frozen=True, slots=True)
class MatrixAtoms:
    """Atoms of a stochastic matrix plus their action on slots.

    ``selectors[a][j]`` is the row that column j's entry assigns to atom a:
    the unique row i with ``atoms[a] <= A[i, j]``. Scaled basis vectors move
    by this map: ``A (w . delta_j) = w . delta_selectors[a][j]`` for
    ``w = atoms[a]``.
    """

    matrix: BMatrix
    atom_masks: tuple[int, ...]
    selectors: tuple[tuple[int, ...], ...]

    @property
    def atoms(self) -> list[Elem]:
        return [Elem(m, self.matrix.algebra) for m in self.atom_masks]

    def __len__(self) -> int:
        return len(self.atom_masks)

    def selector(self, atom_index: int, col: int) -> int:
        """Row receiving the given atom from column ``col`` (0-based)."""
        return self.selectors[atom_index][col]


def matrix_atoms(a: BMatrix) -> MatrixAtoms:
    """Enumerate the nonzero column-selection meets of a stochastic matrix.

    Depth-first over columns, pruning once a partial meet hits zero; pruned
    branches contribute nothing, so the result is exhaustive. Within one
    column the chosen entries are disjoint, so each atom determines its
    selection uniquely and no deduplication is needed.
    """
    if not is_stochastic_matrix(a):
        raise PreconditionError("matrix atoms are defined for stochastic matrices")
    n = a.rows
    full = a.algebra._full
    atom_masks: list[int] = []
    selectors: list[tuple[int, ...]] = []
    rows: list[int] = []

    def descend(col: int, partial: int) -> None:
        if col == n:
            atom_masks.append(partial)
            selectors.append(tuple(rows))
            return
        base = col
        for i in range(n):
            m = partial & a.masks[i * n + base]
            if m:
                rows.append(i)
                descend(col + 1, m)
                rows.pop()

    descend(0, full)
    joined = 0
    for i, m in enumerate(atom_masks):
        assert not any(m & other for other in atom_masks[:i]), "atoms must be disjoint"
        joined |= m
    assert joined == full, "atoms must partition one"
    return MatrixAtoms(a, tuple(atom_masks), tuple(selectors))


@dataclass(frozen=True, slots=True)
class PowerProfile:
    """Eventual periodicity of the power sequence A, A^2, A^3, ...

    ``powers[s - 1]`` is ``A**s`` for s = 1 .. exponent + period - 1, the
    full list of distinct powers; every later power repeats one of these.
    """

    exponent: int
    period: int
    powers: tuple[BMatrix, ...]

    def power_at(self, s: int) -> BMatrix:
        """``A**s`` for any s >= 1, resolved through the cycle."""
        if s < 1:
            raise PreconditionError("power_at needs s >= 1")
        if s < self.exponent + self.period:
            return self.powers[s - 1]
        wrapped = self.exponent + (s - self.exponent) % self.period
        return self.powers[wrapped - 1]


def power_profile(a: BMatrix) -> PowerProfile:
    """Find the first repeat in A, A^2, ... and read off exponent and period.

    The first collision ``A**s == A**t`` (t < s) yields period ``s - t``
    and exponent ``t``; these match the definition ordering (smallest
    period first, then smallest exponent) because any repeat distance on
    the cycle is a multiple of the cycle length.
    """
    if not a.is_square():
        raise PreconditionError("power profile of a non-square matrix")
    n = a.rows
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
    e, p = t, s - t
    assert e <= (n - 1) ** 2 + 1, f"exponent bound violated: e={e} for n={n}"
    if is_stochastic_matrix(a):
        assert e <= max(n - 1, 1), f"stochastic exponent bound violated: e={e} for n={n}"
        assert lcm_upto(n) % p == 0, f"stochastic period bound violated: p={p} for n={n}"
    return PowerProfile(exponent=e, period=p, powers=tuple(powers))


def verify_power_theorem(a: BMatrix) -> bool:
    """Compare ``A**(lcm(1..n)+n-1)`` with ``A**(n-1)`` bit-exactly.

    Always true for stochastic matrices; False would mean a library bug.
    """
    if not is_stochastic_matrix(a):
        raise PreconditionError("the power identity is stated for stochastic matrices")
    n = a.rows
    return power(a, lcm_upto(n) + n - 1) == power(a, n - 1)


def _check_site(n: int, site: int) -> None:
    if not 1 <= site <= n:
        raise PreconditionError(f"site {site} out of range 1..{n}")


def reachable(a: BMatrix, from_site: int, to_site: int, profile: PowerProfile | None = None) -> bool:
    """Can the chain move from ``from_site`` to ``to_site`` in >= 1 steps?

    True when some power has a nonzero entry at (to, from). Only the
    distinct powers need inspection; all later ones repeat them.
    """
    if not is_stochastic_matrix(a):
        raise PreconditionError("reachability is defined for stochastic matrices")
    _check_site(a.rows, from_site)
    _check_site(a.rows, to_site)
    if profile is None:
        profile = power_profile(a)
    i, j = to_site - 1, from_site - 1
    return any(m.masks[i * a.cols + j] for m in profile.powers)


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


def relation_report(a: BMatrix) -> ReachReport:
    """Full accessibility survey over the distinct powers of the matrix."""
    profile = power_profile(a)
    n = a.rows
    arrows = set()
    for m in profile.powers:
        for i in range(n):
            for j in range(n):
                if m.masks[i * n + j]:
                    arrows.add((j + 1, i + 1))
    mutual = {(i, j) for (i, j) in arrows if i < j and (j, i) in arrows}

    transitive = True
    witness = None
    for (x, y) in sorted(arrows):
        for (y2, z) in sorted(arrows):
            if y2 == y and (x, z) not in arrows:
                transitive = False
                witness = (x, y, z)
                break
        if witness:
            break

    equivalence = True
    eq_witness = None
    for i in range(1, n + 1):
        if (i, i) not in arrows:
            equivalence = False
            eq_witness = f"not reflexive: {i} does not return to itself"
            break
    if equivalence:
        sym = {(i, j) for (i, j) in arrows if (j, i) in arrows}
        for (x, y) in sorted(sym):
            for (y2, z) in sorted(sym):
                if y2 == y and (x, z) not in sym:
                    equivalence = False
                    eq_witness = f"not transitive: {x}<->{y} and {y}<->{z} but not {x}<->{z}"
                    break
            if eq_witness:
                break

    return ReachReport(
        site_count=n,
        exponent=profile.exponent,
        period=profile.period,
        arrows=frozenset(arrows),
        mutual=frozenset(mutual),
        transitive=transitive,
        transitivity_witness=witness,
        equivalence=equivalence,
        equivalence_witness=eq_witness,
    )
