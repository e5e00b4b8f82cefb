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

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    BoolmatError,
    Elem,
    NotInvertibleError,
    PreconditionError,
    ShapeError,
    make_algebra,
)
from .bvec import (
    BVec,
    add,
    canonical_basis,
    coordinates,
    cyclic_basis,
    delta,
    descent,
    disjoint_refinement,
    disjointify,
    extend_to_basis,
    inner,
    is_basis,
    is_orthonormal_set,
    lift,
    norm,
    orthogonal,
    parse_vector,
    scalar_mul,
    zero_vec,
)
from .bmatrix import (
    BMatrix,
    Reduction,
    adjoint,
    apply,
    block_diag,
    find_invariant_stochastic,
    identity,
    invert,
    is_stochastic_matrix,
    is_unitary,
    joint_trace,
    matrix_leq,
    mul,
    power,
    reduce_by_orthogonal_set,
    reduce_unitary,
    reflection_from,
    trace,
)
from .chains import (
    MatrixAtoms,
    PowerProfile,
    ReachReport,
    lcm_upto,
    matrix_atoms,
    power_profile,
    reachable,
    relation_report,
    verify_power_theorem,
)
from .model import ModelFile, ModelSyntaxError, format_model, parse_model

__version__ = "0.1.0"

# The oracle is loaded on first use: only ``boolmat verify`` and direct
# callers need it, so importing the library or the CLI does not build it.
_ORACLE_NAMES = frozenset({"BudgetExceededError", "Verdict", "brute_check", "sample_check"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
