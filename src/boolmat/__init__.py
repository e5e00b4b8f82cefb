"""Linear algebra over finite Boolean algebras.

Scalars come from a power-set algebra (:class:`~boolmat.algebra.Algebra`),
vectors add by join and scale by meet (:mod:`boolmat.bvec`), matrices act
by join-of-meets products (:mod:`boolmat.bmatrix`), and the power sequence
of a stochastic matrix drives Boolean Markov chain analysis
(:mod:`boolmat.chains`). The :mod:`boolmat.oracle` module, imported on
first use, re-derives every structural theorem by brute force at small
scale, and :mod:`boolmat.cli` exposes the whole thing on files of named
matrices and vectors.
"""

from .algebra import *
from .bvec import *
from .bmatrix import *
from .chains import *
from .model import *

__version__ = "0.1.0"

# The oracle is loaded on first use: only ``boolmat verify`` and direct
# callers need it, so importing the library or the CLI does not build it.
_ORACLE_NAMES = frozenset({"BudgetExceededError", "Verdict", "brute_check", "sample_check"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
