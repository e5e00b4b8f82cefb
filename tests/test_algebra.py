import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolmat import Algebra, AlgebraMismatchError, BMatrix, BVec, PreconditionError
from boolmat.algebra import Elem, make_algebra
from boolmat.model import element_rows

from conftest import all_elems


def test_make_algebra():
    alg = make_algebra(["1", "2", "3"])
    assert alg.atom_count == 3
    assert alg.zero.is_zero and alg.one.is_one
    assert str(alg.zero) == "{}"


def test_empty_names_rejected():
    with pytest.raises(PreconditionError):
        make_algebra([])


def test_duplicate_names_rejected():
    with pytest.raises(PreconditionError):
        make_algebra(["a", "a"])


@pytest.mark.parametrize("names", [[1, 2], [b"a"], ["a", None], [["a"]]], ids=repr)
def test_names_that_are_not_strings_rejected(names):
    with pytest.raises(PreconditionError, match="atom names must be strings"):
        make_algebra(names)


def test_reserved_characters_rejected():
    with pytest.raises(PreconditionError):
        make_algebra(["a b"])
    with pytest.raises(PreconditionError):
        make_algebra([""])


_SPLITTING = "\t\n\v\f\r\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000"  # str.split() splits at each


@pytest.mark.parametrize("name", [c.join("xy") for c in _SPLITTING] + ["#z", "#"])
def test_names_model_text_cannot_carry_rejected(name):
    # Model text splits tokens at whitespace and reads a token starting
    # with '#' as a comment, so neither could be written and read back:
    # atoms "x\ty" and "#z" would be written as "atoms: x\ty #z" and read
    # back as ('x', 'y').
    with pytest.raises(PreconditionError) as err:
        make_algebra(["a", name])
    assert str(err.value) == "atom names must be free of whitespace and must not start with '#'"


def test_reserved_character_message_wins_over_whitespace():
    for names in (["a\tb", "c,d"], ["#a", ""], ["x y"]):
        with pytest.raises(PreconditionError) as err:
            make_algebra(names)
        assert str(err.value) == "atom names must be non-empty and free of ' ,{}()*'"


def test_hash_inside_a_name_is_accepted():
    assert make_algebra(["a#", "b#c"]).atom_names == ("a#", "b#c")


def test_basic_set_operations(p3):
    e = p3.parse
    assert (e("{1,2}") & e("{2,3}")) == e("{2}")
    assert ~e("{1,2}") == e("{3}")
    assert (e("{1}") | e("{3}")) == e("{1,3}")
    assert (e("{1,2}") - e("{2,3}")) == e("{1}")
    assert e("{2}") <= e("{2,3}")
    assert not e("{1,2}") <= e("{2,3}")


def test_operator_sugar(p3):
    e = p3.parse
    assert (e("{1,2}") & e("{2,3}")) == e("{2}")
    assert (e("{1}") | e("{3}")) == e("{1,3}")
    assert ~e("{1,2}") == e("{3}")
    assert (e("{1,2}") - e("{2}")) == e("{1}")
    assert e("{2}") <= e("{2,3}")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lattice_laws_exhaustive(k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    elems = all_elems(alg)
    assert len(elems) == 2**k
    for a in elems:
        assert ~~a == a
        for b in elems:
            assert ~(a | b) == ~a & ~b
            assert ~(a & b) == ~a | ~b
            assert a & (a | b) == a
            assert a | (a & b) == a
            assert (a <= b) == (a & b == a) == (a | b == b) == (b >= a)


def test_atoms_partition_one():
    alg = make_algebra(["x", "y", "z"])
    atoms = alg.atoms()
    assert len(atoms) == 3
    joined = alg.zero
    for a, b in combinations(atoms, 2):
        assert (a & b).is_zero
    for a in atoms:
        joined = joined | a
    assert joined == alg.one


@pytest.mark.parametrize("k", [1, 2, 4])
def test_parse_format_roundtrip_exhaustive(k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    for x in all_elems(alg):
        assert alg.parse(str(x)) == x


def test_parse_forms(p3):
    assert p3.parse("*") == p3.one
    assert p3.parse("{}") == p3.zero
    assert p3.parse("{1,2,3}") == p3.one
    assert str(p3.one) == "*"
    assert p3.parse(" {2 , 1} ") == p3.parse("{1,2}")


def test_parse_errors(p3):
    with pytest.raises(PreconditionError):
        p3.parse("{1,}")
    with pytest.raises(PreconditionError):
        p3.parse("{9}")
    with pytest.raises(PreconditionError):
        p3.parse("1,2")


def test_algebra_mismatch():
    a = make_algebra(["1", "2"])
    b = make_algebra(["1", "2"])
    with pytest.raises(AlgebraMismatchError) as info:
        a.one & b.one
    assert str(info.value) == "elements from different algebras"
    # ``>=`` is the reflected ``<=``, and it checks the algebras the same way.
    for x, y in ((a.one, b.zero), (b.zero, a.one)):
        with pytest.raises(AlgebraMismatchError) as le:
            y <= x
        with pytest.raises(AlgebraMismatchError) as ge:
            x >= y
        assert str(ge.value) == str(le.value)


def test_from_atoms_and_masks(p3):
    assert p3.from_atoms(["3", "1"]) == p3.parse("{1,3}")
    assert p3.from_mask(0b101) == p3.parse("{1,3}")
    with pytest.raises(PreconditionError):
        p3.from_mask(8)
    with pytest.raises(PreconditionError):
        p3.from_atoms(["nope"])


def test_atom_accessors(p3):
    assert p3.atom(0) == p3.parse("{1}")
    with pytest.raises(PreconditionError):
        p3.atom(3)


def test_reprs_and_truth_values(p3):
    assert repr(p3) == "Algebra(['1', '2', '3'])"
    assert repr(p3.parse("{1,3}")) == "Elem({1,3} over ('1', '2', '3'))"
    assert repr(p3.one) == "Elem(* over ('1', '2', '3'))"
    assert repr(BVec((1, 6, 0), p3)) == "BVec({1},{2,3},{})"
    assert [bool(p3.from_mask(m)) for m in range(8)] == [False] + [True] * 7


def test_algebra_not_picklable(p3):
    import pickle

    with pytest.raises(TypeError):
        pickle.dumps(p3)


@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_laws_hold_on_wide_algebra(x, y, z):
    # 70 atoms exercises the multi-word masks beyond the packed fast path.
    alg = _WIDE
    a = alg.from_mask(x % (alg._full + 1))
    b = alg.from_mask(y % (alg._full + 1))
    c = alg.from_mask(z % (alg._full + 1))
    assert ~(a | b) == ~a & ~b
    assert a & (b | c) == (a & b) | (a & c)
    assert ~~a == a


_WIDE = make_algebra([f"a{i}" for i in range(70)])


def _reference_literal(mask, alg):
    """An element literal by its definition: one, or every atom name whose
    bit is set, in name order."""
    if mask == alg._full:
        return "*"
    return "{" + ",".join([n for i, n in enumerate(alg.atom_names) if mask >> i & 1]) + "}"


def _literal_cases():
    rng = random.Random(25)
    for k in (*range(1, 9), 64, 96):
        # Names out of sorted order, so a literal must follow the bit order.
        alg = make_algebra([f"x{rng.randrange(10**6)}_{i}" for i in reversed(range(k))])
        full = alg._full
        masks = list(range(full + 1)) if k <= 8 else [0, full] + [rng.getrandbits(k) for _ in range(300)]
        wild = [-1, -2, -full, -full - 1, full + 1, full + 2, (full + 1) * 5 + 3, -rng.getrandbits(k + 8)]
        yield alg, masks, wild


def test_literals_match_the_reference_formula():
    for alg, masks, wild in _literal_cases():
        for m in masks + wild:
            assert str(Elem(m, alg)) == alg.literal(m) == _reference_literal(m, alg), (alg, m)
        for n in (1, 3, 8):
            for start in range(0, len(masks) - n + 1, 7 * n):
                chunk = masks[start : start + n]
                ref = [_reference_literal(m, alg) for m in chunk]
                assert str(BVec(tuple(chunk), alg)) == "(" + ",".join(ref) + ")"
                grid = BMatrix(n, n, tuple((chunk * n)[: n * n]), alg)
                assert element_rows(grid) == [[_reference_literal(m, alg) for m in row] for row in (
                    grid.masks[i * n : (i + 1) * n] for i in range(n))]
