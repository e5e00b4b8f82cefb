"""Finite Boolean algebras of subsets of a named atom set.

An :class:`Algebra` fixes ``k`` named atoms; its elements are the ``2**k``
subsets of that atom set, packed into Python integers (one bit per atom).
Elements are immutable values and all lattice operations are pure, so they
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Algebra",
    "Elem",
    "BoolmatError",
    "AlgebraMismatchError",
    "ShapeError",
    "PreconditionError",
    "NotInvertibleError",
    "make_algebra",
]


class BoolmatError(Exception):
    """Base class for all errors raised by this package."""


class AlgebraMismatchError(BoolmatError):
    """Binary operation on values from two different algebras."""


class ShapeError(BoolmatError):
    """Vector lengths or matrix dimensions do not agree."""


class PreconditionError(BoolmatError):
    """An argument does not satisfy an operation's stated precondition."""


class NotInvertibleError(PreconditionError):
    """Inversion requested for a matrix that is not unitary."""


_RESERVED = frozenset(" ,{}()*")  # characters no atom name may contain
_MASK_TYPES = frozenset((int, bool))


class Algebra:
    """The power-set Boolean algebra over ``k >= 1`` named atoms.

    Identity matters: two separately constructed algebras never mix, even
    with equal atom names. Mixing raises :class:`AlgebraMismatchError`.
    """

    __slots__ = ("atom_names", "atom_count", "_index", "_full")

    def __init__(self, atom_names: Sequence[str]):
        names = tuple(atom_names)
        if not names:
            raise PreconditionError("an algebra needs at least one atom (0 = 1 is rejected)")
        if not all(isinstance(n, str) for n in names):
            raise PreconditionError(f"atom names must be strings: {names!r}")
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise PreconditionError(f"duplicate atom names: {names!r}")
        joined = "".join(names)  # a character is in some name iff it is in this
        if not all(names) or not _RESERVED.isdisjoint(joined):
            raise PreconditionError("atom names must be non-empty and free of ' ,{}()*'")
        # Model text splits tokens at whitespace; a token starting with '#' is a comment.
        if joined.split() != [joined] or "#" in joined and any(n[0] == "#" for n in names):
            raise PreconditionError("atom names must be free of whitespace and must not start with '#'")
        self.atom_names = names
        self.atom_count = len(names)
        self._index = index
        self._full = (1 << len(names)) - 1

    @property
    def zero(self) -> Elem:
        """The least element (empty atom set)."""
        return Elem(0, self)

    @property
    def one(self) -> Elem:
        """The greatest element (full atom set)."""
        return Elem(self._full, self)

    def atom(self, index: int) -> Elem:
        """The ``index``-th atom (0-based) as an element."""
        if not 0 <= index < self.atom_count:
            raise PreconditionError(f"atom index {index} out of range 0..{self.atom_count - 1}")
        return Elem(1 << index, self)

    def atoms(self) -> list[Elem]:
        """All atoms, in name order."""
        return [Elem(1 << i, self) for i in range(self.atom_count)]

    def from_atoms(self, names: Iterable[str]) -> Elem:
        """Element with exactly the named atoms."""
        mask = 0
        for n in names:
            try:
                mask |= 1 << self._index[n]
            except KeyError:
                raise PreconditionError(f"unknown atom name {n!r} (atoms: {self.atom_names})") from None
        return Elem(mask, self)

    def from_mask(self, mask: int) -> Elem:
        """Element from a packed bit mask (bit i = atom i)."""
        self._check_masks((mask,))
        return Elem(mask, self)

    def _check_masks(self, masks: Sequence[int]) -> None:
        """Reject any mask that is not an ``int`` (``bool`` counts as one) or
        lies outside ``[0, 2**k)``; an empty sequence passes."""
        if masks:
            if not set(map(type, masks)) <= _MASK_TYPES:
                bad = next(m for m in masks if type(m) not in _MASK_TYPES)
                raise PreconditionError(f"mask {bad!r} is not an int")
            low, high = min(masks), max(masks)
            if low < 0 or high > self._full:
                bad = low if low < 0 else high
                raise PreconditionError(f"mask {bad:#x} outside algebra with {self.atom_count} atoms")

    def parse(self, text: str) -> Elem:
        """Parse an element literal: ``{}``, ``{a,b}`` or ``*``.

        Inverse of ``str``: ``parse(str(x)) == x`` bit-exactly.
        """
        return Elem(self._mask_of(text), self)

    def _mask_of(self, text: str) -> int:
        """Mask of an element literal; :meth:`parse` without the ``Elem``.

        An empty atom name is reported before an unknown one, an unknown
        name is the first in order, and a repeated name counts once.
        """
        t = text.strip()
        if t == "*":
            return self._full
        if not t or t[0] != "{" or t[-1] != "}":
            raise PreconditionError(f"bad element literal {text!r} (expected '{{...}}' or '*')")
        body = t[1:-1].strip()
        if not body:
            return 0
        index = self._index
        mask = 0
        try:
            for part in body.split(","):
                mask |= 1 << index[part.strip()]
        except KeyError:
            parts = [p.strip() for p in body.split(",")]
            if "" in parts:
                raise PreconditionError(f"bad element literal {text!r} (empty atom name)") from None
            return self.from_atoms(parts).mask  # raises for the first unknown name
        return mask

    def literal(self, mask: int) -> str:
        """The element literal of ``mask``: ``*`` for one, else the names of
        its atoms in braces, in name order.

        Only bits below ``k`` name atoms: a negative mask lists the atoms its
        two's-complement bits set, and bits from ``k`` up are ignored.
        """
        if mask == self._full:
            return "*"
        names = self.atom_names
        bits = mask & self._full
        out = []
        while bits:
            low = bits & -bits
            out.append(names[low.bit_length() - 1])
            bits ^= low
        return "{" + ",".join(out) + "}"

    def __repr__(self) -> str:
        return f"Algebra({list(self.atom_names)!r})"

    def __reduce__(self):
        # Pickling would mint a fresh identity, silently breaking mixing checks.
        raise TypeError("Algebra objects are identity-based and cannot be pickled")


@dataclass(frozen=True, slots=True)
class Elem:
    """One element of an :class:`Algebra`: a subset of its atoms, bit-packed.

    Operators: ``&`` meet, ``|`` join, ``-`` difference, ``~`` complement,
    ``<=`` the lattice order.
    """

    mask: int
    algebra: Algebra

    def _check(self, other: Elem) -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("elements from different algebras")

    def __and__(self, other: Elem) -> Elem:
        self._check(other)
        return Elem(self.mask & other.mask, self.algebra)

    def __or__(self, other: Elem) -> Elem:
        self._check(other)
        return Elem(self.mask | other.mask, self.algebra)

    def __sub__(self, other: Elem) -> Elem:
        self._check(other)
        return Elem(self.mask & ~other.mask, self.algebra)

    def __invert__(self) -> Elem:
        return Elem(self.mask ^ self.algebra._full, self.algebra)

    def __le__(self, other: Elem) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __bool__(self) -> bool:
        return self.mask != 0

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra._full

    def __str__(self) -> str:
        return self.algebra.literal(self.mask)

    def __repr__(self) -> str:
        return f"Elem({str(self)} over {self.algebra.atom_names})"


def make_algebra(names: Sequence[str]) -> Algebra:
    """Create the power-set algebra over the given distinct atom names."""
    return Algebra(names)
