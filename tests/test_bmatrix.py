import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from boolmat import (
    AlgebraMismatchError,
    BMatrix,
    BoolmatError,
    BVec,
    NotInvertibleError,
    PreconditionError,
    ShapeError,
    adjoint,
    apply,
    block_diag,
    delta,
    find_invariant_stochastic,
    identity,
    invert,
    is_basis,
    is_row_stochastic,
    is_stochastic_matrix,
    is_unitary,
    joint_trace,
    make_algebra,
    matrix_leq,
    mul,
    power,
    reduce_by_orthogonal_set,
    reduce_unitary,
    reflection_from,
    trace,
    zero_vec,
)
from boolmat import _kernel
from boolmat import rand as br
from boolmat.algebra import Elem
from boolmat.bvec import inner
from boolmat.chains import power_profile, relation_report, verify_power_theorem

from conftest import columns, mat, reconstruct, rows, vec


def all_square_matrices(alg, n):
    for masks in product(range(alg._full + 1), repeat=n * n):
        yield BMatrix(n, n, masks, alg)


def random_any_matrix(rng, alg, n):
    return BMatrix(n, n, tuple(rng.randrange(alg._full + 1) for _ in range(n * n)), alg)


# --- product and apply ---


def test_identity_neutral(p5):
    rng = random.Random(3)
    a = br.random_stochastic_matrix(rng, p5, 4)
    i4 = identity(p5, 4)
    assert mul(i4, a) == a
    assert mul(a, i4) == a


def test_reflection_product_is_not_reflection(p3):
    r1 = mat(p3, """
        {} * {}
        *  {} {}
        {} {} *
    """)
    r2 = mat(p3, """
        * {} {}
        {} {} *
        {} * {}
    """)
    expected = mat(p3, """
        {} {} *
        *  {} {}
        {} * {}
    """)
    got = mul(r1, r2)
    assert got == expected
    assert adjoint(got) != got


def test_apply_is_column_action(p3):
    a = mat(p3, """
        {1} {2,3}
        {2} {1}
    """)
    v = vec(p3, "({3},{1,2})")
    assert apply(a, v) == vec(p3, "({2},{1})")


def test_dimension_mismatch(p3):
    with pytest.raises(ShapeError):
        mul(identity(p3, 2), identity(p3, 3))
    with pytest.raises(ShapeError):
        apply(identity(p3, 2), vec(p3, "({1},{2},{3})"))


def test_product_of_matrices_over_two_algebras_rejected(p2, p3):
    # identity(p2, 2) has masks that fit p3, but it is not a p3 matrix.
    with pytest.raises(AlgebraMismatchError, match="matrices from different algebras"):
        mul(identity(p3, 2), identity(p2, 2))


def test_rows_and_columns_reject_indices_outside_the_matrix(p3):
    a = BMatrix(3, 3, (1, 2, 3, 4, 5, 6, 7, 0, 0), p3)
    assert a.column(2) == vec(p3, "({1,2},{2,3},{})")
    assert a.row(2) == vec(p3, "(*,{},{})")
    wide = BMatrix(2, 3, (1, 2, 3, 4, 5, 6), p3)
    assert wide.column(2) == vec(p3, "({1,2},{2,3})")
    assert wide.row(1) == vec(p3, "({3},{1,3},{2,3})")
    for m in (a, wide):
        for bad in (-1, m.cols):
            with pytest.raises(ShapeError, match=f"column {bad} out of range"):
                m.column(bad)
        for bad in (-1, m.rows):
            with pytest.raises(ShapeError, match=f"row {bad} out of range"):
                m.row(bad)
        assert [v.masks for v in rows(m)] == [m.masks[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]
        assert [v.masks for v in columns(m)] == [m.masks[j :: m.cols] for j in range(m.cols)]


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_masks_rejected(p2, bad):
    # 4 = 2**k for k = 2 atoms: the first mask past the top element
    with pytest.raises(PreconditionError, match="outside algebra with 2 atoms"):
        BMatrix(2, 2, (bad, 0, 0, 3), p2)
    with pytest.raises(PreconditionError, match="outside algebra with 2 atoms"):
        BVec((3, bad), p2)
    assert BMatrix(2, 2, (3, 0, 0, 3), p2) == identity(p2, 2)


@pytest.mark.parametrize("k", [2, 65])
@pytest.mark.parametrize("high", [False, True])
def test_every_public_constructor_rejects_out_of_range_masks(k, high):
    alg = make_algebra([f"a{i}" for i in range(k)])
    bad = alg._full + 1 if high else -1
    ok = alg._full
    # Elem and the `_unchecked` helper skip the range check, so they can carry the
    # bad mask up to the public constructor under test.
    bad_column = BVec._unchecked((bad, ok), alg)
    good_column = BVec((ok, ok), alg)
    builds = [
        lambda: BMatrix(1, 2, (ok, bad), alg),
        lambda: BVec((ok, bad), alg),
        lambda: BMatrix.of([[Elem(ok, alg), Elem(bad, alg)]]),
        lambda: BVec.of([Elem(bad, alg)]),
        lambda: BMatrix.from_columns([good_column, bad_column]),
        lambda: alg.from_mask(bad),
    ]
    for build in builds:
        with pytest.raises(PreconditionError, match=f"outside algebra with {k} atoms"):
            build()


@pytest.mark.parametrize("bad", [0.5, 1.0, "a"])
def test_every_public_constructor_rejects_masks_that_are_not_ints(p2, bad):
    builds = [
        lambda: BMatrix(1, 2, (3, bad), p2),
        lambda: BMatrix(1, 2, [bad, 3], p2),
        lambda: BVec((3, bad), p2),
        lambda: BVec([bad], p2),
        lambda: p2.from_mask(bad),
    ]
    for build in builds:
        with pytest.raises(PreconditionError, match=f"mask {bad!r} is not an int"):
            build()


def test_constructors_store_mask_sequences_as_tuples(p2):
    m = BMatrix(2, 2, [3, 1, 0, 2], p2)
    same = BMatrix(2, 2, (3, 1, 0, 2), p2)
    assert type(m.masks) is tuple
    assert m == same and hash(m) == hash(same)
    assert power_profile(m) == power_profile(same)
    assert relation_report(m) == relation_report(same)
    v = BVec([2, 1], p2)
    assert type(v.masks) is tuple
    assert v == BVec((2, 1), p2) and hash(v) == hash(BVec((2, 1), p2))
    assert BVec([True, 2], p2) == BVec((1, 2), p2)
    assert p2.from_mask(True) == p2.from_mask(1)


@pytest.mark.parametrize("bad", [2.0, "2", None])
def test_matrix_dimensions_that_are_not_ints_rejected(p2, bad):
    with pytest.raises(ShapeError, match="dimensions must be ints"):
        BMatrix(bad, 2, (3, 0, 0, 3), p2)
    with pytest.raises(ShapeError, match="dimensions must be ints"):
        BMatrix(2, bad, (3, 0, 0, 3), p2)


def test_grid_entries_that_are_not_elements_rejected(p2):
    one = p2.from_mask(1)
    for build in (
        lambda: BMatrix.of([[1, 2]]),
        lambda: BMatrix.of([[one, 2]]),
        lambda: BVec.of([1]),
        lambda: BVec.of([one, 2]),
    ):
        with pytest.raises(PreconditionError, match="is not an Elem"):
            build()


def test_empty_grid_names_the_zero_by_zero_constructor(p2):
    with pytest.raises(ShapeError, match=r"BMatrix\(0, 0, \(\), algebra\)"):
        BMatrix.of([])
    assert BMatrix(0, 0, (), p2).rows == 0


def _naive_product(n, m, p, a, b):
    return tuple(
        reduce(or_, (a[i * m + t] & b[t * p + j] for t in range(m)), 0) for i in range(n) for j in range(p)
    )


@pytest.mark.parametrize("k", [1, 3, 64, 65])
def test_kernel_results_equal_publicly_built_values(k):
    rng = random.Random(k)
    alg = make_algebra([f"a{i}" for i in range(k)])

    def masks(count):
        return tuple(rng.choice((0, alg._full, rng.getrandbits(k))) for _ in range(count))

    for n, m, p in [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (3, 4, 2), (8, 8, 8)]:
        a, b = BMatrix(n, m, masks(n * m), alg), BMatrix(m, p, masks(m * p), alg)
        got = mul(a, b)
        want = BMatrix(n, p, _naive_product(n, m, p, a.masks, b.masks), alg)
        assert got == want and hash(got) == hash(want)
        assert type(got.masks) is tuple
        if n and m:
            v = BVec(masks(m), alg)
            got_v = apply(a, v)
            want_v = BVec(_naive_product(n, m, 1, a.masks, v.masks), alg)
            assert got_v == want_v and hash(got_v) == hash(want_v)
            assert type(got_v.masks) is tuple


# --- adjoint, order ---


def test_adjoint_involution(p5):
    rng = random.Random(5)
    a = random_any_matrix(rng, p5, 4)
    assert adjoint(adjoint(a)) == a


def test_adjoint_rows_are_dual_basis(p3):
    a1, a2, a3 = p3.atom(0), p3.atom(1), p3.atom(2)
    u = mat(p3, """
        {1} {3}   {2}
        {2} {}    {1,3}
        {3} {1,2} {}
    """)
    assert is_basis(columns(u))
    assert is_basis(columns(adjoint(u)))
    assert columns(adjoint(u)) == rows(u)


def test_matrix_leq(p3):
    zero = BMatrix(2, 2, (0, 0, 0, 0), p3)
    a = mat(p3, """
        {1} {2}
        {}  {3}
    """)
    assert matrix_leq(zero, a)
    assert not matrix_leq(a, zero)
    assert matrix_leq(a, a)


def test_matrix_order_matches_bilinear_form():
    alg = make_algebra(["1"])
    mats = list(all_square_matrices(alg, 2))
    vectors = [BVec(m, alg) for m in product(range(2), repeat=2)]
    for a in mats:
        for b in mats:
            entrywise = matrix_leq(a, b)
            form = all(
                inner(apply(a, x), y) <= inner(apply(b, x), y)
                for x in vectors
                for y in vectors
            )
            assert entrywise == form


# --- stochastic / unitary predicates ---


def test_collapse_matrix_is_stochastic(p3):
    a = mat(p3, """
        * *
        {} {}
    """)
    assert is_stochastic_matrix(a)
    assert not is_unitary(a)
    with pytest.raises(NotInvertibleError):
        invert(a)


def test_identity_is_stochastic_and_unitary(p3):
    assert is_stochastic_matrix(identity(p3, 3))
    assert is_unitary(identity(p3, 3))


def test_diagonal_partial_not_stochastic(p2):
    a = mat(p2, """
        {1} {}
        {}  {2}
    """)
    assert not is_stochastic_matrix(a)


def test_stochastic_requires_square(p3):
    with pytest.raises(ShapeError):
        is_stochastic_matrix(BMatrix(1, 2, (0, 0), p3))


def test_unitary_is_false_on_a_non_square_matrix(p3):
    assert is_unitary(BMatrix(1, 2, (p3._full, 0), p3)) is False
    assert is_unitary(BMatrix(2, 0, (), p3)) is False


def test_row_stochastic_is_the_adjoint_stochastic():
    """Every row a stochastic vector, for any shape; on square matrices the
    adjoint's columns, and with the columns it is unitarity."""
    rng = random.Random(3109)
    seen = set()
    for _ in range(3000):
        k = rng.randrange(1, 4)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        n, m = rng.randrange(0, 4), rng.randrange(0, 4)
        if rng.randrange(2):
            a = adjoint(br.random_stochastic_matrix(rng, alg, n)) if n else BMatrix(0, 0, (), alg)
        else:
            a = BMatrix(n, m, tuple(rng.randrange(alg._full + 1) for _ in range(n * m)), alg)
        rows_stochastic = is_row_stochastic(a)
        lines = [a.masks[i * a.cols : (i + 1) * a.cols] for i in range(a.rows)]
        assert rows_stochastic == all(
            reduce(or_, line, 0) == alg._full and sum(map(int.bit_count, line)) == k for line in lines
        ), (a.rows, a.cols, a.masks)
        if a.is_square():
            assert rows_stochastic == is_stochastic_matrix(adjoint(a))
            assert is_unitary(a) == (is_stochastic_matrix(a) and rows_stochastic)
        seen.add((a.is_square(), rows_stochastic))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_matrix_str_and_repr(p3):
    a = mat(p3, """
        {1} {2,3} {}
        *   {}    {3}
    """)
    assert str(a) == "{1} {2,3} {}\n* {} {3}"
    assert repr(a) == "BMatrix(2x3 over ('1', '2', '3'))"
    assert str(BMatrix(0, 0, (), p3)) == ""
    assert repr(BMatrix(0, 0, (), p3)) == "BMatrix(0x0 over ('1', '2', '3'))"
    assert str(BMatrix(2, 0, (), p3)) == "\n"


def test_stochastic_definition_equivalence():
    # columns-stochastic is the same as A*A >= I and AA* <= I
    alg = make_algebra(["1", "2"])
    ident = identity(alg, 2)
    for a in all_square_matrices(alg, 2):
        at = adjoint(a)
        definition = matrix_leq(ident, mul(at, a)) and matrix_leq(mul(a, at), ident)
        assert definition == is_stochastic_matrix(a)


def test_partition_built_unitary(p3):
    u = mat(p3, """
        {1} {3}   {2}
        {2} {}    {1,3}
        {3} {1,2} {}
    """)
    assert is_unitary(u)
    assert invert(u) == adjoint(u)


def test_permutation_matrices_unitary(p3):
    perm = mat(p3, """
        {} * {}
        {} {} *
        *  {} {}
    """)
    assert is_unitary(perm)


def test_unitary_iff_rows_and_columns_bases():
    rng = random.Random(11)
    alg = make_algebra(["1", "2", "3"])
    pool = [br.random_unitary(rng, alg, 3) for _ in range(20)]
    pool += [br.random_stochastic_matrix(rng, alg, 3) for _ in range(20)]
    pool += [random_any_matrix(rng, alg, 3) for _ in range(20)]
    for a in pool:
        unit = is_unitary(a)
        assert unit == (is_basis(columns(a)) and is_basis(rows(a)))
        if unit:
            assert mul(a, invert(a)) == identity(alg, 3)


def _unitary_by_products(a):
    """``A A* == I`` and ``A* A == I``, by naive join-of-meets products."""
    n, m, full = a.rows, a.cols, a.algebra._full
    rows = [a.masks[i * m : (i + 1) * m] for i in range(n)]
    cols = [a.masks[j::m] for j in range(m)]

    def gram_is_identity(vectors):
        # entry (i, j) of the Gram matrix is the join of meets of vectors i and j
        return all(
            reduce(or_, (x & y for x, y in zip(u, v)), 0) == (full if i == j else 0)
            for i, u in enumerate(vectors)
            for j, v in enumerate(vectors)
        )

    return gram_is_identity(rows) and gram_is_identity(cols)


def test_is_unitary_matches_product_definition():
    rng = random.Random(2024)
    counts = {True: 0, False: 0}
    for trial in range(4000):
        k = rng.randrange(1, 5)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        kind = trial % 3
        if kind == 0:
            n, m = rng.randrange(0, 5), rng.randrange(0, 5)
            a = BMatrix(n, m, tuple(rng.randrange(alg._full + 1) for _ in range(n * m)), alg)
        else:
            n = rng.randrange(0, 5)
            masks = [0] * (n * n)
            for w in range(k):
                perm = list(range(n))
                rng.shuffle(perm)
                for j, i in enumerate(perm):
                    masks[i * n + j] |= 1 << w
            if kind == 2 and n:
                masks[rng.randrange(n * n)] ^= 1 << rng.randrange(k)
            a = BMatrix(n, n, tuple(masks), alg)
        expected = _unitary_by_products(a)
        assert is_unitary(a) == expected, (a.rows, a.cols, a.masks, k)
        counts[expected] += 1
    assert counts[True] >= 1000 and counts[False] >= 1000


def test_products_of_stochastic_are_stochastic():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 6)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        b = br.random_stochastic_matrix(rng, alg, n)
        assert is_stochastic_matrix(mul(a, b))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (2, 1)])
def test_stochastic_iff_preserves_stochastic_exhaustive(n, k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    stoch_vecs = [
        BVec(m, alg)
        for m in product(range(alg._full + 1), repeat=n)
        if BVec(m, alg).is_stochastic()
    ]
    for a in all_square_matrices(alg, n):
        preserves = all(apply(a, s).is_stochastic() for s in stoch_vecs)
        assert preserves == is_stochastic_matrix(a)


def test_involutive_implies_unitary_exhaustive():
    alg = make_algebra(["1", "2"])
    ident = identity(alg, 2)
    for a in all_square_matrices(alg, 2):
        if mul(a, a) == ident:
            assert is_unitary(a)


def test_symmetric_stochastic_squares_to_identity():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(2, 6)
        alg = make_algebra([str(i) for i in range(1, rng.randrange(1, 5) + 1)])
        a = br.random_symmetric_stochastic(rng, alg, n)
        assert adjoint(a) == a
        assert mul(a, a) == identity(alg, n)
        assert is_unitary(a)


def test_unitary_preserves_lattice_structure():
    # invertible operators act as Boolean-algebra automorphisms componentwise
    rng = random.Random(19)
    alg = make_algebra(["1", "2", "3", "4"])
    for _ in range(30):
        u = br.random_unitary(rng, alg, 3)
        x = br.random_vector(rng, alg, 3)
        y = br.random_vector(rng, alg, 3)
        ux, uy = apply(u, x), apply(u, y)
        meet_xy = BVec(tuple(a & b for a, b in zip(x.masks, y.masks)), alg)
        comp_x = BVec(tuple(a ^ alg._full for a in x.masks), alg)
        assert apply(u, meet_xy) == BVec(tuple(a & b for a, b in zip(ux.masks, uy.masks)), alg)
        assert apply(u, comp_x) == BVec(tuple(a ^ alg._full for a in ux.masks), alg)


# --- traces ---


def test_trace_identity(p3):
    assert trace(identity(p3, 4)) == p3.one


def test_trace_cyclic_and_conjugation():
    rng = random.Random(23)
    alg = make_algebra(["1", "2", "3"])
    for _ in range(50):
        a = random_any_matrix(rng, alg, 3)
        b = random_any_matrix(rng, alg, 3)
        assert trace(mul(a, b)) == trace(mul(b, a))
        u = br.random_unitary(rng, alg, 3)
        assert trace(mul(u, mul(a, adjoint(u)))) == trace(a)


def test_joint_trace(p2):
    a = identity(p2, 2)
    b = mat(p2, """
        {1} {2}
        {2} {1}
    """)
    assert joint_trace([a, b]) == p2.parse("{1}")
    assert joint_trace([a]) == p2.one


# --- invariant vectors ---


def test_invariant_vector_of_worked_example(p5):
    a = mat(p5, """
        {1} {2}   {3}   {4}     {5}
        {2} {4,5} {}    {}      {1,3}
        {3} {}    {4,5} {1}     {2}
        {4} {}    {1}   {2,3,5} {}
        {5} {1,3} {2}   {}      {4}
    """)
    b = find_invariant_stochastic([a])
    assert b == vec(p5, "({1},{4,5},{},{2,3},{})")
    assert apply(a, b) == b


def test_no_invariant_when_trace_zero(p2):
    swap = mat(p2, """
        {} *
        *  {}
    """)
    assert trace(swap).is_zero
    assert find_invariant_stochastic([swap]) is None


def test_invariant_of_identity(p3):
    b = find_invariant_stochastic([identity(p3, 3)])
    assert b == vec(p3, "(*,{},{})")


def test_invariant_existence_iff_trace_one_exhaustive():
    alg = make_algebra(["1", "2"])
    stoch_vecs = [
        BVec(m, alg) for m in product(range(4), repeat=3) if BVec(m, alg).is_stochastic()
    ]
    count = 0
    for columns in product(stoch_vecs, repeat=3):
        a = BMatrix.from_columns(list(columns))
        count += 1
        b = find_invariant_stochastic([a])
        exists = any(apply(a, s) == s for s in stoch_vecs)
        assert (b is not None) == exists == (trace(a) == alg.one)
        if b is not None:
            assert apply(a, b) == b
    assert count == 729


def test_invariant_rejects_non_stochastic(p2):
    bad = mat(p2, """
        {1} {}
        {}  {2}
    """)
    with pytest.raises(PreconditionError):
        find_invariant_stochastic([bad])


def test_common_invariant_of_family():
    rng = random.Random(29)
    alg = make_algebra(["1", "2", "3"])
    for _ in range(50):
        mats = [br.random_stochastic_matrix(rng, alg, 4) for _ in range(3)]
        b = find_invariant_stochastic(mats)
        if b is None:
            assert joint_trace(mats) != alg.one
        else:
            assert all(apply(m, b) == b for m in mats)


def test_families_sharing_an_invariant_are_fixed_and_reduced():
    # Members R.diag(1, C).R share the invariant R e_1; cores are random
    # unitaries or stochastic matrices, so the members' diagonals differ and
    # a vector read from one member's diagonal alone is often not shared.
    rng = random.Random(59)
    algebras = [make_algebra([str(i) for i in range(1, k + 1)]) for k in range(1, 5)]
    for _ in range(600):
        alg = rng.choice(algebras)
        n = rng.randrange(2, 6)
        r = reflection_from(br.random_stochastic_vector(rng, alg, n))
        family = []
        for _ in range(rng.randrange(1, 4)):
            core = (br.random_unitary if rng.random() < 0.5 else br.random_stochastic_matrix)(rng, alg, n - 1)
            family.append(mul(r, mul(block_diag(alg, 1, core), r)))
        b = find_invariant_stochastic(family)
        assert b is not None and b.is_stochastic()
        for a in family:
            assert _naive_product(n, n, 1, a.masks, b.masks) == b.masks
        unitaries = [a for a in family if is_unitary(a)]
        for a in unitaries:
            assert reconstruct(reduce_by_orthogonal_set(a, [b])) == a
        if len(unitaries) == len(family):
            assert [reconstruct(red) for red in reduce_unitary(family)] == family


# --- reflections ---


def test_reflection_matches_worked_example(p5):
    b = vec(p5, "({1},{},{},{2,3,5},{4})")
    expected = mat(p5, """
        {1}     {} {} {2,3,5} {4}
        {}      *  {} {}      {}
        {}      {} *  {}      {}
        {2,3,5} {} {} {1,4}   {}
        {4}     {} {} {}      {1,2,3,5}
    """)
    assert reflection_from(b) == expected


def test_reflection_from_delta_is_identity(p3):
    assert reflection_from(delta(p3, 4, 0)) == identity(p3, 4)


def test_reflection_squares_to_identity():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(1, 7)
        alg = make_algebra([str(i) for i in range(1, rng.randrange(1, 6) + 1)])
        b = br.random_stochastic_vector(rng, alg, n)
        refl = reflection_from(b)
        assert adjoint(refl) == refl
        assert mul(refl, refl) == identity(alg, n)
        assert apply(refl, b) == delta(alg, n, 0)


def test_reflection_rejects_non_stochastic(p3):
    with pytest.raises(PreconditionError):
        reflection_from(vec(p3, "({1,2},{2,3})"))


# --- unitary reduction ---


def test_reduce_identity(p3):
    reductions = reduce_unitary([identity(p3, 4)])
    assert reductions is not None
    red = reductions[0]
    assert red.fixed_count == 1
    assert red.core == identity(p3, 3)
    assert reconstruct(red) == identity(p3, 4)


def test_reduce_refuses_stochastic_non_unitary(p3):
    collapse = mat(p3, """
        * *
        {} {}
    """)
    assert trace(collapse) == p3.one
    with pytest.raises(PreconditionError):
        reduce_unitary([collapse])


def test_reduce_none_when_trace_not_one(p2):
    swap = mat(p2, """
        {} *
        *  {}
    """)
    assert reduce_unitary([swap]) is None


def test_reduced_3x3_unitary_with_trace_one_is_symmetric():
    rng = random.Random(37)
    alg = make_algebra(["1", "2", "3", "4"])
    hits = 0
    for _ in range(300):
        u = br.random_unitary(rng, alg, 3)
        if trace(u) != alg.one:
            continue
        hits += 1
        reductions = reduce_unitary([u])
        core = reductions[0].core
        assert core.rows == 2 and is_unitary(core)
        assert mul(u, u) == identity(alg, 3)
        assert adjoint(u) == u
    assert hits > 5


def test_reduce_simultaneous_family():
    rng = random.Random(41)
    alg = make_algebra(["1", "2", "3"])
    # build a family sharing the invariant vector delta_1
    mats = []
    for _ in range(3):
        core = br.random_unitary(rng, alg, 3)
        mats.append(block_diag(alg, 1, core))
    reductions = reduce_unitary(mats)
    assert reductions is not None
    conj = reductions[0].conjugator
    for m, red in zip(mats, reductions):
        assert red.conjugator == conj
        assert reconstruct(red) == m


def test_reduction_block_materialization(p3):
    core = identity(p3, 2)
    d = block_diag(p3, 2, core)
    assert d == identity(p3, 4)
    empty = BMatrix(0, 0, (), p3)
    assert block_diag(p3, 3, empty) == identity(p3, 3)


def test_block_diag_rejects_a_negative_block_and_a_foreign_core(p3, p5):
    assert block_diag(p3, 0, identity(p3, 2)) == identity(p3, 2)
    with pytest.raises(PreconditionError):
        block_diag(p3, -1, identity(p3, 2))
    # identity(p3, 2) has masks that fit p5, but it is not a p5 matrix.
    with pytest.raises(AlgebraMismatchError):
        block_diag(p5, 1, identity(p3, 2))
    with pytest.raises(AlgebraMismatchError):
        block_diag(p5, 0, BMatrix(0, 0, (), p3))


def test_reduce_by_orthogonal_set_single_agrees(p5):
    a = mat(p5, """
        {1} {2}   {3}   {4}     {5}
        {2} {4,5} {}    {}      {1,3}
        {3} {}    {4,5} {1}     {2}
        {4} {}    {1}   {2,3,5} {}
        {5} {1,3} {2}   {}      {4}
    """)
    b = find_invariant_stochastic([a])
    single = reduce_by_orthogonal_set(a, [b])
    family = reduce_unitary([a])[0]
    assert single.fixed_count == 1
    assert single.conjugator == family.conjugator
    assert single.core == family.core
    assert reconstruct(single) == a


def test_reduce_by_orthogonal_set_full(p3):
    u = identity(p3, 3)
    invariants = [delta(p3, 3, i) for i in range(3)]
    red = reduce_by_orthogonal_set(u, invariants)
    assert red.fixed_count == 3
    assert red.core.rows == 0
    assert reconstruct(red) == u


def test_the_core_of_a_full_reduction_has_no_invariant_and_no_power_identity(p3):
    # The 0x0 core is unitary with joint trace zero: both searches find
    # nothing, and the power identity, stated from n >= 1, refuses it.
    core = reduce_by_orthogonal_set(identity(p3, 3), [delta(p3, 3, i) for i in range(3)]).core
    assert is_unitary(core) and joint_trace([core]).is_zero
    assert find_invariant_stochastic([core]) is None
    assert reduce_unitary([core]) is None
    with pytest.raises(PreconditionError) as info:
        verify_power_theorem(core)
    assert str(info.value) == "power identity of an empty matrix"


def test_reduce_by_orthogonal_set_roundtrip():
    rng = random.Random(43)
    alg = make_algebra(["1", "2", "3"])
    for _ in range(30):
        core = br.random_unitary(rng, alg, 2)
        conj = br.random_unitary(rng, alg, 4)
        a = mul(conj, mul(block_diag(alg, 2, core), adjoint(conj)))
        invariants = [apply(conj, delta(alg, 4, 0)), apply(conj, delta(alg, 4, 1))]
        red = reduce_by_orthogonal_set(a, invariants)
        assert red.fixed_count >= 2
        assert is_unitary(red.conjugator)
        assert reconstruct(red) == a


def test_reduce_by_orthogonal_set_validations(p3):
    u = identity(p3, 3)
    with pytest.raises(PreconditionError):
        reduce_by_orthogonal_set(u, [])
    with pytest.raises(PreconditionError):
        reduce_by_orthogonal_set(u, [vec(p3, "({1,2},{2,3},{})")])
    swap = mat(p3, """
        {} * {}
        *  {} {}
        {} {} *
    """)
    with pytest.raises(PreconditionError):
        reduce_by_orthogonal_set(swap, [delta(p3, 3, 0)])
    # orthogonality violation
    with pytest.raises(PreconditionError):
        reduce_by_orthogonal_set(u, [delta(p3, 3, 0), delta(p3, 3, 0)])


def test_reductions_read_atom_slots_without_products(monkeypatch):
    # Neither reduction multiplies a matrix or applies one, whatever m is.
    rng = random.Random(53)
    alg = make_algebra(["1", "2", "3"])
    calls = []

    def counting(name):
        real = getattr(_kernel, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    family = [block_diag(alg, 1, br.random_unitary(rng, alg, 4)) for _ in range(3)]
    conj = br.random_unitary(rng, alg, 5)
    a = mul(conj, mul(block_diag(alg, 3, br.random_unitary(rng, alg, 2)), adjoint(conj)))
    for name in ("matmul", "matvec"):
        monkeypatch.setattr(_kernel, name, counting(name))
    for size in (1, 3):
        assert reduce_unitary(family[:size]) is not None
        assert calls == []
    for m in (1, 2, 3):
        calls.clear()
        red = reduce_by_orthogonal_set(a, [conj.column(j) for j in range(m)])
        assert red.fixed_count == m
        assert calls == []


# --- powers ---


def test_power_zero_is_identity(p3):
    rng = random.Random(47)
    a = br.random_stochastic_matrix(rng, p3, 3)
    assert power(a, 0) == identity(p3, 3)


def _ladder_products(a, e):
    """Products that ``A**e`` costs over a naive ladder of squares: square
    until the top bit of e or until a square equals an earlier rung
    ``A**(2**s)``, fold e by that repeat, then one product per further set
    bit."""
    if e == 0:
        return 0
    rungs = [a]
    while len(rungs) < e.bit_length():
        square = mul(rungs[-1], rungs[-1])
        if square in rungs:
            s, t = rungs.index(square), len(rungs)
            if e >= 2**s:
                e = 2**s + (e - 2**s) % (2**t - 2**s)
            return t + bin(e).count("1") - 1
        rungs.append(square)
    return len(rungs) - 1 + bin(e).count("1") - 1


def test_power_product_count_and_bits(monkeypatch, p5):
    # The ladder's exact count, never more than the binary ladder's
    # popcount(e) - 1 + floor(log2 e); none for e = 0; and the same bits as
    # multiplying by A e times.
    a = random_any_matrix(random.Random(61), p5, 4)
    real = _kernel.matmul
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernel, "matmul", counting)
    repeated = identity(p5, 4)
    for e in range(41):
        expected = _ladder_products(a, e)
        assert expected <= (0 if e == 0 else bin(e).count("1") - 1 + e.bit_length() - 1), e
        calls.clear()
        got = power(a, e)
        assert len(calls) == expected, e
        assert got == repeated, e
        repeated = mul(repeated, a)
    assert power(a, 0) == identity(p5, 4)


def test_power_stops_the_ladder_at_its_first_repeat(monkeypatch, p3):
    # A 3-cycle: A**4 == A, so the ladder is A, A**2 and one square that
    # repeats; A**(10**30) folds to A**(1 + (10**30 - 1) % 3) == A.
    a = mat(p3, """
        {}    {}    *
        *     {}    {}
        {}    *     {}
    """)
    calls = []
    real = _kernel.matmul
    monkeypatch.setattr(_kernel, "matmul", lambda *args: calls.append(args) or real(*args))
    assert power(a, 10**30) == a
    assert len(calls) == 2


def test_power_matches_repeated_products():
    rng = random.Random(67)
    algebras = [make_algebra([str(i) for i in range(1, k + 1)]) for k in range(1, 5)]
    draws = {
        "general": random_any_matrix,
        "stochastic": br.random_stochastic_matrix,
        "unitary": br.random_unitary,
    }
    for kind, draw in draws.items():
        for n in range(7):
            for _ in range(2):
                alg = rng.choice(algebras)
                a = BMatrix(0, 0, (), alg) if n == 0 else draw(rng, alg, n)
                repeated = identity(alg, n)
                for e in range(301):
                    assert power(a, e) == repeated, (kind, n, e)
                    repeated = mul(repeated, a)


@pytest.mark.parametrize("bad", [2.0, "2", None, 2 + 0j])
def test_power_rejects_exponents_that_are_not_ints(p3, bad):
    a = identity(p3, 3)
    with pytest.raises(PreconditionError, match="not an int"):
        power(a, bad)


def test_two_by_two_stochastic_cubes_to_itself():
    rng = random.Random(53)
    alg = make_algebra(["1", "2", "3", "4"])
    for _ in range(100):
        a = br.random_stochastic_matrix(rng, alg, 2)
        assert power(a, 3) == a


def test_three_by_three_unitary_sixth_power_identity():
    rng = random.Random(59)
    alg = make_algebra(["1", "2", "3", "4"])
    for _ in range(100):
        u = br.random_unitary(rng, alg, 3)
        assert power(u, 6) == identity(alg, 3)


def test_final_example_square(p3):
    a = mat(p3, """
        {2,3} {1} {}
        {1}   {2} {1}
        {}    {3} {2,3}
    """)
    expected = mat(p3, """
        *  {}    {1}
        {} {1,2} {}
        {} {3}   {2,3}
    """)
    assert power(a, 2) == expected
    assert power(a, 3) == a


def test_even_symmetric_counterexample_family():
    # block-swap symmetric stochastic matrices have zero trace
    rng = random.Random(61)
    alg = make_algebra(["1", "2", "3"])
    for half in (1, 2, 3):
        b = br.random_symmetric_stochastic(rng, alg, half)
        n = 2 * half
        masks = [0] * (n * n)
        for i in range(half):
            for j in range(half):
                masks[i * n + (half + j)] = b.masks[i * half + j]
                masks[(half + i) * n + j] = b.masks[i * half + j]
        swap = BMatrix(n, n, tuple(masks), alg)
        assert is_stochastic_matrix(swap)
        assert adjoint(swap) == swap
        assert trace(swap).is_zero
        assert find_invariant_stochastic([swap]) is None


# --- rejections no other test reaches ---

_P = make_algebra(["1", "2"])
_Q = make_algebra(["1", "2"])  # same names, another algebra
_WIDE = BMatrix(1, 2, (0, 0), _P)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BMatrix(-1, 0, (), _P), ShapeError, "negative matrix dimensions"),
        (lambda: BMatrix(2, 2, (0,), _P), ShapeError, "2x2 matrix needs 4 entries, got 1"),
        (lambda: BMatrix.of([[_P.one, _P.one], [_P.one]]), ShapeError, "ragged rows"),
        (lambda: BMatrix.of([[_P.one, _Q.one]]), AlgebraMismatchError, "matrix entries from different algebras"),
        (lambda: BMatrix.of([[]]), ShapeError, "cannot infer algebra from an empty grid"),
        (lambda: identity(_P, 2)[2, 0], ShapeError, "index (2, 0) out of range for 2x2"),
        (lambda: BMatrix.from_columns([]), ShapeError, "need at least one column"),
        (
            lambda: BMatrix.from_columns([delta(_P, 2, 0), delta(_Q, 2, 0)]),
            AlgebraMismatchError,
            "columns from different algebras",
        ),
        (
            lambda: BMatrix.from_columns([delta(_P, 2, 0), delta(_P, 3, 0)]),
            ShapeError,
            "columns of different lengths",
        ),
        (
            lambda: apply(identity(_P, 2), delta(_Q, 2, 0)),
            AlgebraMismatchError,
            "matrix and vector from different algebras",
        ),
        (lambda: apply(BMatrix(0, 2, (), _P), delta(_P, 2, 0)), ShapeError, "result would be a length-0 vector"),
        (lambda: matrix_leq(identity(_P, 2), identity(_P, 3)), ShapeError, "order compares equal shapes only"),
        (lambda: trace(_WIDE), ShapeError, "trace of a non-square matrix"),
        (lambda: joint_trace([]), PreconditionError, "joint trace of an empty family"),
        (lambda: find_invariant_stochastic([]), PreconditionError, "empty family"),
        (
            lambda: find_invariant_stochastic([identity(_P, 2), identity(_P, 3)]),
            ShapeError,
            "family members must have equal sizes",
        ),
        (lambda: block_diag(_P, 1, _WIDE), ShapeError, "core must be square"),
        (
            lambda: reduce_by_orthogonal_set(BMatrix(2, 2, (0,) * 4, _P), [delta(_P, 2, 0)]),
            PreconditionError,
            "reduce_by_orthogonal_set needs a unitary matrix",
        ),
        (
            lambda: reduce_by_orthogonal_set(identity(_P, 2), [delta(_P, 3, 0)]),
            ShapeError,
            "invariant vectors must live in the matrix's space",
        ),
        (
            lambda: reduce_by_orthogonal_set(BMatrix(2, 2, (0, 3, 3, 0), _P), [delta(_P, 2, 0)]),
            PreconditionError,
            "(*,{}) is not invariant under the matrix",
        ),
        (
            lambda: reduce_by_orthogonal_set(identity(_P, 2), [delta(_P, 2, 0), delta(_P, 2, 0)]),
            PreconditionError,
            "invariant vectors must be mutually orthogonal",
        ),
        (lambda: power(_WIDE, 2), ShapeError, "powers of a non-square matrix"),
        (lambda: power(identity(_P, 2), -1), PreconditionError, "negative powers are not defined"),
    ],
)
def test_rejection_type_and_message(call, error, message):
    """Each ``raise`` that the other tests never run, with its exact type and text."""
    with pytest.raises(BoolmatError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
