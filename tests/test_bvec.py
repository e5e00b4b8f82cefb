import collections
import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolmat import (
    AlgebraMismatchError,
    BoolmatError,
    BVec,
    PreconditionError,
    ShapeError,
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
    make_algebra,
    norm,
    orthogonal,
    parse_vector,
    scalar_mul,
    zero_vec,
)
from boolmat import rand as br
from boolmat.bvec import _atom_slots, _complete_slots

from conftest import all_elems, columns, vec


def all_vectors(alg, n):
    for masks in product(range(alg._full + 1), repeat=n):
        yield BVec(masks, alg)


# --- linear structure ---


def test_add_componentwise(p3):
    assert add(vec(p3, "({1},{})"), vec(p3, "({2},{3})")) == vec(p3, "({1,2},{3})")


def test_add_zero_identity(p3):
    a = vec(p3, "({1,3},{2})")
    assert add(a, zero_vec(p3, 2)) == a


def test_scalar_mul(p3):
    c = p3.parse("{1,2}")
    assert scalar_mul(c, vec(p3, "({2,3},{1})")) == vec(p3, "({2},{1})")


def test_shape_mismatch(p3):
    with pytest.raises(ShapeError):
        add(vec(p3, "({1})"), vec(p3, "({1},{2})"))


def test_zero_length_rejected(p3):
    with pytest.raises(ShapeError):
        zero_vec(p3, 0)
    with pytest.raises(ShapeError):
        BVec((), p3)


def test_entries_reject_indices_outside_the_vector(p3):
    v = vec(p3, "({1},{2},{})")
    assert [v[i] for i in range(3)] == list(v)
    for i in (-1, len(v)):
        with pytest.raises(ShapeError):
            v[i]


def test_iterating_a_vector_yields_its_entries(p3):
    v = vec(p3, "({1},{2,3},{})")
    assert list(v) == [p3.parse("{1}"), p3.parse("{2,3}"), p3.zero]
    assert [str(e) for e in v] == ["{1}", "{2,3}", "{}"]
    assert p3.parse("{2,3}") in v
    assert p3.one not in v


# --- inner product and norm ---


def test_inner_example(p3):
    assert inner(vec(p3, "({1},{2,3})"), vec(p3, "({1,2},{3})")) == p3.parse("{1,3}")


def test_inner_zero(p3):
    a = vec(p3, "({1,2},{3})")
    assert inner(a, zero_vec(p3, 2)).is_zero


def test_canonical_deltas_orthogonal(p3):
    assert inner(delta(p3, 4, 0), delta(p3, 4, 1)).is_zero


def test_norm_examples(p3):
    assert norm(vec(p3, "({1,2},{2,3})")) == p3.one
    assert norm(zero_vec(p3, 3)).is_zero
    assert norm(vec(p3, "({1},{2})")) == p3.parse("{1,2}")


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_inner_product_axioms_exhaustive(n, k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    vectors = list(all_vectors(alg, n))
    for a in vectors:
        assert inner(a, a).is_zero == (a == zero_vec(alg, n))
        for b in vectors:
            assert inner(a, b) == inner(b, a)
            for c in vectors:
                for alpha in all_elems(alg):
                    lhs = inner(add(scalar_mul(alpha, a), b), c)
                    assert lhs == (alpha & inner(a, c)) | inner(b, c)
                    assert inner(scalar_mul(alpha, a), c) == inner(a, scalar_mul(alpha, c))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_norm_laws_exhaustive(n, k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    vectors = list(all_vectors(alg, n))
    for a in vectors:
        for b in vectors:
            assert norm(add(a, b)) == norm(a) | norm(b)
            assert inner(a, b) <= norm(a) & norm(b)
            if a.is_orthovector() and b.is_orthovector() and norm(a) == norm(b):
                assert (inner(a, b) == norm(a) & norm(b)) == (a == b)
        for c in all_elems(alg):
            assert norm(scalar_mul(c, a)) == c & norm(a)


_wide = make_algebra([f"w{i}" for i in range(9)])


@given(st.lists(st.integers(min_value=0, max_value=511), min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=511), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=511))
def test_norm_laws_randomized(xs, ys, c):
    a = BVec(tuple(xs), _wide)
    b = BVec(tuple(ys), _wide)
    scalar = _wide.from_mask(c)
    assert norm(add(a, b)) == norm(a) | norm(b)
    assert norm(scalar_mul(scalar, a)) == scalar & norm(a)
    assert inner(a, b) <= norm(a) & norm(b)


def test_stochastic_inner_one_iff_equal():
    alg = make_algebra(["1", "2"])
    stoch = [v for v in all_vectors(alg, 3) if v.is_stochastic()]
    assert len(stoch) == 3**2
    for a in stoch:
        for b in stoch:
            assert (inner(a, b) == alg.one) == (a == b)


# --- classification predicates ---


def test_partition_is_stochastic(p3):
    a = vec(p3, "({1},{2},{3})")
    assert a.is_orthovector() and a.is_stochastic()


def test_shared_atom_not_orthovector(p3):
    assert not vec(p3, "({1,2},{2,3})").is_orthovector()


def test_orthogonal_example(p3):
    assert orthogonal(vec(p3, "({1},{2},{3})"), vec(p3, "({2},{3},{1})"))


def test_unit_versus_stochastic(p3):
    a = vec(p3, "({1,2},{2,3})")
    assert a.is_unit() and not a.is_stochastic()


# --- greedy disjointification ---


def test_disjointify_example(p3):
    assert disjointify(vec(p3, "({1,2},{2,3},{1,3})")) == vec(p3, "({1,2},{3},{})")


def test_disjointify_fixed_point(p3):
    a = vec(p3, "({1},{2},{3})")
    assert disjointify(a) == a


def test_disjointify_worked_diagonal(p5):
    diag = vec(p5, "({1},{4,5},{4,5},{2,3,5},{4})")
    out = disjointify(diag)
    assert out == vec(p5, "({1},{4,5},{},{2,3},{})")
    assert out.is_stochastic()


def test_disjointify_rejects_non_unit(p3):
    with pytest.raises(PreconditionError):
        disjointify(vec(p3, "({1},{2})"))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_disjoint_refinement_properties_exhaustive(n, k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    for a in all_vectors(alg, n):
        b = disjoint_refinement(a)
        assert b.is_orthovector()
        assert norm(b) == norm(a)
        assert all(x & ~y == 0 for x, y in zip(b.masks, a.masks))


# --- descent and lift ---


def test_descent_example(p3):
    a = vec(p3, "({1},{2},{3})")
    b = vec(p3, "({2},{3},{1})")
    c = descent(a, b)
    assert c == vec(p3, "({1,2},{3})")
    assert c.is_stochastic()
    assert all(b.masks[i] == c.masks[i] & ~a.masks[i] for i in range(2))


def test_descent_forced_in_dimension_two(p3):
    a = delta(p3, 2, 0)
    b = delta(p3, 2, 1)
    assert descent(a, b) == vec(p3, "(*)")


def test_lift_example(p3):
    a = vec(p3, "({1},{2},{3})")
    c = vec(p3, "({1,2},{3})")
    assert lift(a, c) == vec(p3, "({2},{3},{1})")


def test_lift_delta(p3):
    assert lift(delta(p3, 2, 0), vec(p3, "(*)")) == delta(p3, 2, 1)


def test_descent_preconditions(p3):
    stoch = vec(p3, "({1},{2},{3})")
    with pytest.raises(PreconditionError):
        descent(stoch, vec(p3, "({1},{2},{})"))
    with pytest.raises(PreconditionError):
        descent(stoch, stoch)  # not orthogonal
    with pytest.raises(PreconditionError):
        descent(vec(p3, "(*)"), vec(p3, "(*)"))


def test_descent_lift_roundtrip_exhaustive():
    alg = make_algebra(["1", "2"])
    stoch = [v for v in all_vectors(alg, 3) if v.is_stochastic()]
    for a in stoch:
        for b in stoch:
            if orthogonal(a, b):
                c = descent(a, b)
                assert c.is_stochastic()
                assert lift(a, c) == b
            for c in (v for v in all_vectors(alg, 2) if v.is_stochastic()):
                assert orthogonal(a, lift(a, c))


def test_descent_lift_roundtrip_randomized():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, 6)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a, b = br.random_orthogonal_stochastic_pair(rng, alg, n)
        c = descent(a, b)
        assert c.is_stochastic()
        assert lift(a, c) == b
        assert orthogonal(a, lift(a, c))


# --- bases ---


def test_cyclic_basis_of_delta(p3):
    rotations = cyclic_basis(delta(p3, 3, 0))
    assert rotations == [delta(p3, 3, 0), delta(p3, 3, 2), delta(p3, 3, 1)]


def test_cyclic_basis_example(p3):
    a = vec(p3, "({1},{2},{3})")
    e = cyclic_basis(a)
    assert e[0] == a
    assert e[1] == vec(p3, "({2},{3},{1})")
    assert e[2] == vec(p3, "({3},{1},{2})")
    assert is_orthonormal_set(e) and len(e) == 3 and is_basis(e)


def test_cyclic_basis_rejects_non_stochastic(p3):
    with pytest.raises(PreconditionError):
        cyclic_basis(vec(p3, "({1,2},{2,3})"))


def test_canonical_basis_is_basis(p3):
    basis = canonical_basis(p3, 4)
    assert is_orthonormal_set(basis)
    assert is_basis(basis)


def test_empty_family_is_orthonormal_but_no_basis():
    # The empty family is vacuously orthonormal, but it spans nothing, and
    # without a vector there is no dimension to be a basis of.
    assert is_orthonormal_set([]) is True
    assert is_basis([]) is False


def test_orthogonal_but_not_orthonormal_is_not_basis(p2):
    family = [vec(p2, "({1},{})"), vec(p2, "({2},{})"), vec(p2, "({},*)")]
    for i, v in enumerate(family):
        for w in family[i + 1 :]:
            assert orthogonal(v, w)
    assert not is_orthonormal_set(family)
    assert not is_basis(family)


def test_partition_unitary_columns_form_basis(p3):
    a1, a2, a3 = p3.atom(0), p3.atom(1), p3.atom(2)
    cols = [
        BVec((a1.mask, a2.mask, a3.mask), p3),
        BVec((a3.mask, 0, (~a3).mask), p3),
        BVec((a2.mask, (~a2).mask, 0), p3),
    ]
    assert is_orthonormal_set(cols)
    assert is_basis(cols)


def test_every_basis_is_stochastic():
    # bases found by enumeration are made of stochastic vectors
    alg = make_algebra(["1", "2"])
    units = [v for v in all_vectors(alg, 2) if v.is_unit()]
    for i, v in enumerate(units):
        for w in units[i + 1 :]:
            if is_basis([v, w]):
                assert v.is_stochastic() and w.is_stochastic()


def test_duality_matches_basis_predicate():
    alg = make_algebra(["1", "2"])
    units = [v for v in all_vectors(alg, 2) if v.is_unit()]
    for i, v in enumerate(units):
        for w in units[i + 1 :]:
            transposed = [BVec((v.masks[t], w.masks[t]), alg) for t in range(2)]
            assert is_basis([v, w]) == is_orthonormal_set(transposed)


def _orthonormal_masks(vectors, full):
    for i, v in enumerate(vectors):
        seen = 0
        for m in v:
            seen |= m
        if seen != full or any(any(x & y for x, y in zip(v, w)) for w in vectors[i + 1 :]):
            return False
    return True


def _unit_vector(rng, alg, n):
    masks = list(br.random_vector(rng, alg, n).masks)
    missing = alg._full
    for m in masks:
        missing &= ~m
    masks[rng.randrange(n)] |= missing
    return BVec(tuple(masks), alg)


_FAMILY_DRAWS = {
    "stochastic": br.random_stochastic_vector,
    "unit": _unit_vector,
    "random": br.random_vector,
}


def test_is_basis_matches_the_duality_form_on_random_families():
    """A family is a basis (n orthonormal vectors) exactly when it and its
    transposed family are both orthonormal. Families: columns of a random
    unitary, cut short, extended by one stochastic vector, or with one
    column swapped for a unit vector; and families of stochastic, unit or
    random vectors, at sizes n - 1, n and n + 1."""
    rng = random.Random(2717)
    seen = collections.Counter()
    for _ in range(2400):
        n, k = rng.randint(1, 5), rng.randint(1, 4)
        alg = make_algebra([str(i + 1) for i in range(k)])
        size = rng.choice([s for s in (n - 1, n, n + 1) if s >= 1])
        kind = rng.choice(["unitary", "unitary_but_one", *_FAMILY_DRAWS])
        if kind.startswith("unitary"):
            family = columns(br.random_unitary(rng, alg, n))[:size]
            family += [br.random_stochastic_vector(rng, alg, n) for _ in range(size - n)]
            if kind == "unitary_but_one":
                family[rng.randrange(size)] = _unit_vector(rng, alg, n)
        else:
            family = [_FAMILY_DRAWS[kind](rng, alg, n) for _ in range(size)]
        masks = [v.masks for v in family]
        transposed = [tuple(v[i] for v in masks) for i in range(n)]
        dual = _orthonormal_masks(masks, alg._full) and _orthonormal_masks(transposed, alg._full)
        assert is_basis(family) == dual, family
        seen[size - n, dual] += 1
    assert set(seen) == {(-1, False), (0, False), (0, True), (1, False)}
    assert seen[0, True] > 300 and seen[0, False] > 300


# --- coordinates ---


def test_coordinates_indicator(p3):
    basis = canonical_basis(p3, 3)
    coords = coordinates(basis[1], basis)
    assert coords == [p3.zero, p3.one, p3.zero]


def test_coordinates_cyclic_example(p3):
    e = cyclic_basis(vec(p3, "({1},{2},{3})"))
    coords = coordinates(delta(p3, 3, 0), e)
    assert coords == [p3.parse("{1}"), p3.parse("{2}"), p3.parse("{3}")]


def test_coordinates_reconstruction_randomized(p5):
    rng = random.Random(7)
    basis = cyclic_basis(br.random_stochastic_vector(rng, p5, 4))
    for _ in range(100):
        b = br.random_vector(rng, p5, 4)
        coords = coordinates(b, basis)
        rebuilt = zero_vec(p5, 4)
        for c, e in zip(coords, basis):
            rebuilt = add(rebuilt, scalar_mul(c, e))
        assert rebuilt == b


def test_coordinates_requires_basis(p3):
    with pytest.raises(PreconditionError):
        coordinates(delta(p3, 3, 0), canonical_basis(p3, 3)[:2])


# --- basis extension ---


def test_extend_single_vector_gives_cyclic_basis(p3):
    a = vec(p3, "({1},{2},{3})")
    assert extend_to_basis([a]) == cyclic_basis(a)


def test_extend_full_set_unchanged(p3):
    basis = canonical_basis(p3, 3)
    assert extend_to_basis(basis) == basis


def test_extend_empty_gives_canonical(p3):
    assert extend_to_basis([], n=3, algebra=p3) == canonical_basis(p3, 3)
    with pytest.raises(PreconditionError):
        extend_to_basis([])


def test_extend_rejects_an_algebra_other_than_the_vectors(p3, p5):
    a = vec(p3, "({1},{2},{3})")
    assert extend_to_basis([a], n=3, algebra=p3) == cyclic_basis(a)
    with pytest.raises(AlgebraMismatchError):
        extend_to_basis([a], n=3, algebra=p5)
    with pytest.raises(AlgebraMismatchError):
        extend_to_basis([a], algebra=make_algebra(["1", "2", "3"]))


@pytest.mark.parametrize("n", [-1, 0])
def test_extend_empty_rejects_dimensions_below_one(p3, n):
    with pytest.raises(PreconditionError, match=f"n >= 1, got n={n}"):
        extend_to_basis([], n=n, algebra=p3)


def test_extend_two_vector_example(p3):
    s = [vec(p3, "({1},{2},{3})"), vec(p3, "({2},{3},{1})")]
    basis = extend_to_basis(s)
    assert basis[:2] == s
    assert len(basis) == 3
    assert is_basis(basis)
    assert all(v.is_stochastic() for v in basis)


def test_extend_rejects_oversized(p3):
    basis = canonical_basis(p3, 2)
    with pytest.raises(PreconditionError):
        extend_to_basis(basis + [basis[0]])


def test_extend_rejects_non_orthonormal(p3):
    with pytest.raises(PreconditionError):
        extend_to_basis([vec(p3, "({1},{2},{3})"), vec(p3, "({1},{2},{3})")])
    with pytest.raises(PreconditionError):
        extend_to_basis([vec(p3, "({1,2},{2,3})")])


def test_extend_randomized_properties():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 5)
        m = rng.randrange(1, n)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        s = br.random_stochastic_orthonormal_set(rng, alg, n, m)
        basis = extend_to_basis(s)
        assert basis[:m] == s
        assert len(basis) == n
        assert is_orthonormal_set(basis)
        assert all(v.is_stochastic() for v in basis)


def _slots_of_atom(vectors, bit):
    """The one slot that holds ``bit`` in each vector."""
    out = []
    for v in vectors:
        holding = [i for i, m in enumerate(v.masks) if m >> bit & 1]
        assert len(holding) == 1
        out.extend(holding)
    return out


@pytest.mark.parametrize("k", [1, 8, 65])
def test_extend_permutes_every_atom_behind_its_input_slots(k):
    rng = random.Random(1000 + k)
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    for _ in range(120):
        n = rng.randrange(1, 13)
        m = rng.randrange(0, n + 1)
        s = br.random_stochastic_orthonormal_set(rng, alg, n, m) if m else []
        basis = extend_to_basis(s, n=n, algebra=alg)
        assert len(basis) == n and basis[:m] == s
        for bit in range(k):
            slots = _slots_of_atom(basis, bit)
            assert sorted(slots) == list(range(n))
            assert slots[:m] == _slots_of_atom(s, bit)


def test_complete_slots_extends_every_partial_injection():
    for dim in range(7):
        for m in range(dim + 1):
            for slots in permutations(range(dim), m):
                done = _complete_slots(slots, dim)
                assert sorted(done) == list(range(dim)) and tuple(done[:m]) == slots


@pytest.mark.parametrize("k", [1, 8, 65])
def test_atom_slots_rebuild_their_columns(k):
    rng = random.Random(2000 + k)
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    for _ in range(60):
        n = rng.randrange(1, 13)
        columns = [br.random_stochastic_vector(rng, alg, n).masks for _ in range(rng.randrange(0, 6))]
        groups = _atom_slots(columns, k)
        rebuilt = [[0] * n for _ in columns]
        joined = 0
        for slots, w in groups.items():
            assert w and not w & joined
            joined |= w
            assert len(slots) == len(columns)
            for col, i in zip(rebuilt, slots):
                col[i] |= w
        assert joined == alg._full
        assert [tuple(c) for c in rebuilt] == columns


# --- text syntax ---


def test_vector_parse_format_roundtrip(p3):
    for text in ["({1},{2,3},{})", "(*)", "({},{},{})"]:
        v = parse_vector(p3, text)
        assert parse_vector(p3, str(v)) == v


def test_vector_parse_errors(p3):
    with pytest.raises(PreconditionError):
        parse_vector(p3, "{1},{2}")
    with pytest.raises(ShapeError):
        parse_vector(p3, "()")


# --- rejections no other test reaches ---

_P = make_algebra(["1", "2"])
_Q = make_algebra(["1", "2"])  # same names, another algebra


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BVec.of([]), ShapeError, "vectors of length 0 are not supported"),
        (lambda: BVec.of([_P.one, _Q.one]), AlgebraMismatchError, "vector entries come from different algebras"),
        (lambda: scalar_mul(_Q.one, delta(_P, 2, 0)), AlgebraMismatchError, "scalar from a different algebra"),
        (lambda: add(delta(_P, 2, 0), delta(_Q, 2, 0)), AlgebraMismatchError, "vectors from different algebras"),
        (lambda: delta(_P, 2, 2), PreconditionError, "slot 2 out of range 0..1"),
        (lambda: lift(delta(_P, 3, 0), delta(_Q, 2, 0)), AlgebraMismatchError, "vectors from different algebras"),
        (lambda: lift(delta(_P, 3, 0), delta(_P, 3, 0)), ShapeError, "lift needs len(c) == len(a)-1, got 3 vs 3"),
        (lambda: extend_to_basis([delta(_P, 2, 0)], n=3), ShapeError, "vectors have length 2, not n=3"),
    ],
)
def test_rejection_type_and_message(call, error, message):
    """Each ``raise`` that the other tests never run, with its exact type and text."""
    with pytest.raises(BoolmatError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
