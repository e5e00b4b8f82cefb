from itertools import product

import pytest

from boolmat import Algebra, BMatrix, adjoint, block_diag, mul, parse_vector


@pytest.fixture
def p2():
    return Algebra(["1", "2"])


@pytest.fixture
def p3():
    return Algebra(["1", "2", "3"])


@pytest.fixture
def p5():
    return Algebra(["1", "2", "3", "4", "5"])


def vec(alg, text):
    return parse_vector(alg, text)


def mat(alg, src):
    """Matrix from lines of whitespace-separated element literals."""
    rows = []
    for line in src.strip().splitlines():
        rows.append([alg.parse(tok) for tok in line.split()])
    return BMatrix.of(rows)


def all_elems(alg):
    """Every element of ``alg``, in increasing mask order."""
    return [alg.from_mask(m) for m in range(1 << alg.atom_count)]


def columns(m):
    return [m.column(j) for j in range(m.cols)]


def rows(m):
    return [m.row(i) for i in range(m.rows)]


def reconstruct(red):
    """``B . diag(I_m, C) . B*``: the matrix a reduction was taken of."""
    b = red.conjugator
    return mul(b, mul(block_diag(b.algebra, red.fixed_count, red.core), adjoint(b)))


def selection_meets(n, a, full):
    """Every nonzero meet of one entry per column of the row-major masks
    ``a``, with its selection (the row picked in each column), in the
    lexicographic order of the selections: the atoms of a stochastic matrix
    by their definition, every selection met in full."""
    out = []
    for selection in product(range(n), repeat=n):
        m = full
        for j, i in enumerate(selection):
            m &= a[i * n + j]
        if m:
            out.append((m, selection))
    return out
