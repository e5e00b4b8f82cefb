import ast
import dataclasses
import inspect
import math
import random
from itertools import combinations, combinations_with_replacement, islice, permutations, product
from typing import Any, Callable, Sequence

import pytest

from boolmat import BMatrix, BVec, PreconditionError, make_algebra
from boolmat import _draw, oracle
from boolmat import rand as br
from boolmat.oracle import (
    DEFAULT_BUDGET,
    THEOREMS,
    BudgetExceededError,
    _fmt_mat,
    _iter_stochastic_masks,
    _matvec,
    _or_all,
    _trace,
    brute_check,
    sample_check,
)

from conftest import selection_meets


def test_spec_validation():
    for n, k in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(PreconditionError, match="n and k must be at least 1"):
            brute_check("STOINV", n, k)
        with pytest.raises(PreconditionError, match="n and k must be at least 1"):
            sample_check("STOINV", n, k, samples=3)
    # The theorem name is looked up first, the dimension precondition last.
    with pytest.raises(PreconditionError, match="unknown theorem 'FERMAT'"):
        brute_check("FERMAT", 0, 2)
    with pytest.raises(PreconditionError, match="n and k must be at least 1"):
        brute_check("ODDINV", 0, 2)


@pytest.mark.parametrize("n,k", [(2.0, 2), (2, 2.0), ("2", 2), (2, None)])
def test_non_int_dimensions_rejected(n, k):
    """Caught before any comparison: ``"2" < 1`` would raise TypeError."""
    with pytest.raises(PreconditionError, match="n and k must be ints"):
        brute_check("STOINV", n, k)
    with pytest.raises(PreconditionError, match="n and k must be ints"):
        sample_check("STOINV", n, k, samples=3)


@pytest.mark.parametrize("samples", [2.0, "2", None])
def test_non_int_sample_counts_rejected(samples):
    with pytest.raises(PreconditionError, match="sample count must be an int"):
        sample_check("STOINV", 2, 2, samples)


def _involutions(n):
    return sum(
        math.factorial(n) // (math.factorial(j) * 2**j * math.factorial(n - 2 * j))
        for j in range(n // 2 + 1)
    )


# Objects an exhaustive run checks, for every theorem whose source is not a
# search over orthonormal families.
CHECKED = {
    "NORM": lambda n, k: 2 ** (2 * k * n + k),
    "DESCENT": lambda n, k: n ** (2 * k),
    "INVERSE": lambda n, k: 2 ** (k * n * n),
    "STOINV": lambda n, k: n ** (k * n),
    "ODDINV": lambda n, k: _involutions(n) ** k,
    "UNITREDUCE": lambda n, k: math.factorial(n) ** k + math.factorial(n) ** (2 * k),
    "ATOMS": lambda n, k: n ** (k * n),
    "POWER": lambda n, k: n ** (k * n) + math.factorial(n) ** k,
    "PERIOD_DIVIDES": lambda n, k: n ** (k * n),
}
SEARCH_SHAPED = {"DUALITY", "BASIS_UPBOUND", "DIMENSION", "DIMCOR2", "INCOMPLETE"}


def test_space_sizes():
    """The closed forms at small scales, against literal counts; the
    exhaustive grid checks them on every verdict."""
    assert set(CHECKED) | SEARCH_SHAPED == set(THEOREMS)
    assert (_involutions(3), _involutions(5)) == (4, 26)
    for theorem, n, k, size in (
        ("NORM", 2, 2, 1024),
        ("DESCENT", 3, 1, 9),
        ("INVERSE", 2, 2, 256),
        ("STOINV", 2, 2, 16),
        ("STOINV", 2, 3, 64),
        ("STOINV", 2, 6, 4096),
        ("ODDINV", 3, 2, 16),
        ("UNITREDUCE", 3, 2, 36 + 36 * 36),
        ("POWER", 2, 2, 16 + 4),
    ):
        assert CHECKED[theorem](n, k) == size
        verdict = brute_check(theorem, n, k)
        assert verdict.passed, str(verdict)
        assert verdict.checked == size


def test_enumerations_match_closed_forms():
    for n, k in ((2, 2), (3, 1), (2, 3)):
        for masks, size in (
            (oracle._iter_vector_masks(n, k), 2 ** (k * n)),
            (oracle._iter_stochastic_masks(n, k), n**k),
            (oracle._iter_stochastic_matrix_masks(n, k), n ** (k * n)),
            (oracle._iter_unitary_masks(n, k), math.factorial(n) ** k),
        ):
            objects = list(masks)
            assert len(objects) == size
            assert len(set(objects)) == len(objects)


def test_enumerated_stochastic_vectors_are_stochastic():
    alg = make_algebra(["1", "2"])
    for v in oracle._iter_stochastic_masks(3, 2):
        assert BVec(v, alg).is_stochastic()


def test_stochastic_vectors_n2_k2_listed():
    alg = make_algebra(["1", "2"])
    got = {str(BVec(v, alg)) for v in oracle._iter_stochastic_masks(2, 2)}
    assert got == {"(*,{})", "({},*)", "({1},{2})", "({2},{1})"}


def test_enumerated_unitaries_are_unitary():
    from boolmat import is_unitary

    alg = make_algebra(["1", "2"])
    mats = [BMatrix(2, 2, m, alg) for m in oracle._iter_unitary_masks(2, 2)]
    assert len(mats) == 4
    assert all(is_unitary(m) for m in mats)


def test_orthonormal_set_enumeration_is_orthonormal():
    from boolmat import is_orthonormal_set

    alg = make_algebra(["1", "2"])
    families = list(THEOREMS["DUALITY"].source(2, 2, DEFAULT_BUDGET))
    assert families
    assert len(set(families)) == len(families)
    assert all(is_orthonormal_set([BVec(v, alg) for v in f]) for f in families)
    assert all(len(f) <= 2 for f in families)


def test_budget_refusal_reports_required_size():
    with pytest.raises(BudgetExceededError) as err:
        brute_check("STOINV", 8, 8, budget=1000)
    assert err.value.required == 8**64
    with pytest.raises(BudgetExceededError):
        brute_check("POWER", 8, 8, budget=1000)
    # A search over families has no closed form: it counts node visits.
    with pytest.raises(BudgetExceededError) as err:
        brute_check("DUALITY", 3, 2, budget=10)
    assert err.value.required is None


@pytest.mark.parametrize(
    "theorem, n, k",
    [
        ("DUALITY", 4, 5),
        ("DIMENSION", 3, 6),
        ("DIMCOR2", 3, 6),
        ("BASIS_UPBOUND", 6, 7),
        ("INCOMPLETE", 9, 7),
        ("ODDINV", 11, 1),
    ],
)
def test_exhaustive_sources_refuse_before_listing_a_candidate(monkeypatch, theorem, n, k):
    """Past the budget, a run is refused before any candidate vector or
    permutation is listed and before the predicate builds its tables."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a candidate was listed")

    for name in ("_iter_vector_masks", "_iter_stochastic_masks", "_unit_masks", "_involutions", "permutations"):
        monkeypatch.setattr(oracle, name, forbidden)
    with pytest.raises(BudgetExceededError) as err:
        brute_check(theorem, n, k, budget=10)
    assert err.value.required == (35696 if theorem == "ODDINV" else None)


def test_direct_listings_match_the_filtered_ones():
    """Unit vectors and involutions are built, not filtered from every
    vector or permutation, and come in the same order as the filter's."""
    for n in range(1, 8):
        assert oracle._involutions(n) == [
            p for p in permutations(range(n)) if all(p[p[i]] == i for i in range(n))
        ]
    for n, k in product(range(1, 5), range(1, 4)):
        assert oracle._unit_masks(n, k) == [
            v for v in oracle._iter_vector_masks(n, k) if _or_all(v) == (1 << k) - 1
        ]


def test_power_budget_counts_stochastic_matrices_and_unitaries():
    """POWER streams 16 stochastic matrices and 4 unitaries at n = k = 2; the
    guard counts both, so a budget of the stochastic half alone is refused."""
    for budget in (16, 19):
        with pytest.raises(BudgetExceededError) as err:
            brute_check("POWER", 2, 2, budget=budget)
        assert err.value.required == 20
    verdict = brute_check("POWER", 2, 2, budget=20)
    assert verdict.passed and verdict.checked == 20


def test_unknown_theorem_rejected():
    with pytest.raises(PreconditionError):
        brute_check("FERMAT", 2, 2)


GRID = [
    ("NORM", 2, 2),
    ("NORM", 1, 3),
    ("DUALITY", 2, 2),
    ("DESCENT", 2, 2),
    ("DESCENT", 3, 2),
    ("BASIS_UPBOUND", 2, 2),
    ("BASIS_UPBOUND", 3, 2),
    ("DIMENSION", 2, 2),
    ("DIMCOR2", 2, 2),
    ("INCOMPLETE", 2, 2),
    ("INCOMPLETE", 3, 2),
    ("INVERSE", 2, 2),
    ("STOINV", 2, 2),
    ("STOINV", 3, 2),
    ("ODDINV", 3, 2),
    ("UNITREDUCE", 2, 2),
    ("UNITREDUCE", 3, 2),
    ("ATOMS", 2, 2),
    ("ATOMS", 3, 2),
    ("POWER", 2, 2),
    ("POWER", 3, 1),
    ("PERIOD_DIVIDES", 2, 2),
    ("PERIOD_DIVIDES", 3, 2),
]


@pytest.mark.parametrize("theorem,n,k", GRID)
def test_exhaustive_theorem_check_passes(theorem, n, k):
    verdict = brute_check(theorem, n, k)
    assert verdict.passed, str(verdict)
    assert verdict.checked > 0
    if theorem in CHECKED:
        assert verdict.checked == CHECKED[theorem](n, k)


def test_stoinv_exhaustive_object_count():
    verdict = brute_check("STOINV", 3, 2)
    assert verdict.checked == 729


def test_oddinv_rejects_even_dimension():
    with pytest.raises(PreconditionError):
        brute_check("ODDINV", 2, 2)


SAMPLED = [
    ("NORM", 4, 6),
    ("DESCENT", 5, 5),
    ("DESCENT", 2, 3),
    ("STOINV", 4, 4),
    ("ODDINV", 5, 4),
    ("ATOMS", 4, 4),
    ("POWER", 4, 4),
    ("PERIOD_DIVIDES", 4, 4),
    ("INCOMPLETE", 4, 3),
    ("INCOMPLETE", 2, 2),
]


@pytest.mark.parametrize("theorem,n,k", SAMPLED)
def test_sampled_theorem_check_passes(theorem, n, k):
    verdict = sample_check(theorem, n, k, samples=50, seed=5)
    assert verdict.passed, str(verdict)
    assert verdict.checked == 50
    assert verdict.mode == "sampled"


@pytest.mark.parametrize("theorem", sorted({t for t, _, _ in SAMPLED}))
def test_sampler_draws_from_the_exhaustive_object_space(theorem):
    """Both modes feed one predicate, so a sampled object must be one the
    exhaustive source also yields (families compared as sets)."""
    n, k = (3, 2) if theorem == "ODDINV" else (2, 2)
    entry = THEOREMS[theorem]

    def key(obj):
        return frozenset(obj) if theorem == "INCOMPLETE" else obj

    space = {key(obj) for obj in entry.source(n, k, DEFAULT_BUDGET)}
    rng = random.Random(11)
    drawn = {key(entry.sampler(rng, k, n)) for _ in range(200)}
    assert drawn <= space
    if theorem == "POWER":
        assert {unitary for unitary, _ in drawn} == {False, True}


# The literal ``randrange``/``shuffle`` forms the draws were first written
# in. Each sampler, and each ``rand`` generator through its masks, must make
# the same rng calls and build the same masks, so seeded verdicts, golden
# files and benchmark models do not depend on how the draws are written.


def _literal_matrix(n, maps):
    masks = [0] * (n * n)
    for bit, col_to_row in enumerate(maps):
        for j, i in enumerate(col_to_row):
            masks[i * n + j] |= 1 << bit
    return tuple(masks)


def _literal_stochastic_matrix(rng, alg, n):
    return _literal_matrix(n, [[rng.randrange(n) for _ in range(n)] for _ in range(alg.atom_count)])


def _literal_unitary(rng, alg, n):
    assigns = []
    for _ in range(alg.atom_count):
        perm = list(range(n))
        rng.shuffle(perm)
        assigns.append(perm)
    return _literal_matrix(n, assigns)


def _literal_involution(rng, n):
    counts = [1, 1]
    for i in range(2, n + 1):
        counts.append(counts[i - 1] + (i - 1) * counts[i - 2])
    perm = list(range(n))
    remaining = list(range(n))
    while remaining:
        size = len(remaining)
        x = remaining.pop()
        if size == 1 or rng.randrange(counts[size]) < counts[size - 1]:
            continue
        y = remaining.pop(rng.randrange(len(remaining)))
        perm[x], perm[y] = y, x
    return perm


def _literal_symmetric_stochastic(rng, alg, n):
    return _literal_matrix(n, [_literal_involution(rng, n) for _ in range(alg.atom_count)])


def _literal_short_family(rng, alg, n):
    m = rng.randrange(1, n)
    u = _literal_unitary(rng, alg, n)
    return tuple(tuple(u[i * n + j] for i in range(n)) for j in range(m))


def _literal_power(rng, alg, n):
    if rng.randrange(2):
        return True, _literal_unitary(rng, alg, n)
    return False, _literal_stochastic_matrix(rng, alg, n)


def _randrange_stochastic_pair(rng, alg, n):
    a, b = [0] * n, [0] * n
    for bit in range(alg.atom_count):
        a[rng.randrange(n)] |= 1 << bit
        b[rng.randrange(n)] |= 1 << bit
    return tuple(a), tuple(b)


def _literal_norm_triple(rng, alg, n):
    k = alg.atom_count
    a = tuple(rng.getrandbits(k) for _ in range(n))
    b = tuple(rng.getrandbits(k) for _ in range(n))
    return a, b, rng.getrandbits(k)


def _draws(atoms, sizes, seeds, cases):
    return [pytest.param(draw, reference, atoms, sizes, seeds, id=name) for name, draw, reference in cases]


def _masks(generator):
    return lambda rng, alg, n: generator(rng, alg, n).masks


def _by_k(sampler):
    """An oracle sampler, which takes the atom count, called with an algebra."""
    return lambda rng, alg, n: sampler(rng, alg.atom_count, n)


DRAWS = _draws(range(1, 5), range(2, 6), range(300), [
    ("STOINV", _by_k(THEOREMS["STOINV"].sampler), _literal_stochastic_matrix),
    ("ODDINV", _by_k(THEOREMS["ODDINV"].sampler), _literal_symmetric_stochastic),
    ("POWER", _by_k(THEOREMS["POWER"].sampler), _literal_power),
    ("INCOMPLETE", _by_k(THEOREMS["INCOMPLETE"].sampler), _literal_short_family),
    ("rand-stochastic", _masks(br.random_stochastic_matrix), _literal_stochastic_matrix),
    ("rand-unitary", _masks(br.random_unitary), _literal_unitary),
    ("rand-symmetric", _masks(br.random_symmetric_stochastic), _literal_symmetric_stochastic),
    ("rand-involution", lambda rng, alg, n: br.random_involution(rng, n), lambda rng, alg, n: _literal_involution(rng, n)),
    ("rand-orthonormal", lambda rng, alg, n: tuple(
        v.masks for v in br.random_stochastic_orthonormal_set(rng, alg, n, rng.randrange(1, n))
    ), _literal_short_family),
]) + _draws(range(1, 6), range(2, 7), range(100), [
    ("DESCENT", _by_k(THEOREMS["DESCENT"].sampler), _randrange_stochastic_pair),
    ("NORM", _by_k(THEOREMS["NORM"].sampler), _literal_norm_triple),
])


@pytest.mark.parametrize("draw,reference,atoms,sizes,seeds", DRAWS)
def test_samplers_draw_what_the_random_generators_draw(draw, reference, atoms, sizes, seeds):
    for k in atoms:
        alg = make_algebra([str(i + 1) for i in range(k)])
        for n in sizes:
            for seed in seeds:
                mine, theirs = random.Random(seed), random.Random(seed)
                assert draw(mine, alg, n) == reference(theirs, alg, n), (k, n, seed)
                assert mine.getstate() == theirs.getstate(), (k, n, seed)


def test_orthonormal_columns_are_the_per_atom_permutation_loop():
    """Each atom's permutation puts it in slot ``perm[j]`` of column j: the
    same columns, and the same rng state after, for every m."""
    for seed in range(3000):
        n, k = seed % 7 + 1, seed // 7 % 9 + 1
        for m in range(1, n + 1):
            mine, theirs = random.Random(seed), random.Random(seed)
            columns = [[0] * n for _ in range(m)]
            for bit in range(k):
                perm = list(range(n))
                theirs.shuffle(perm)
                for j in range(m):
                    columns[j][perm[j]] |= 1 << bit
            assert _draw.orthonormal_columns(mine, k, n, m) == tuple(map(tuple, columns)), (seed, m)
            assert mine.getstate() == theirs.getstate(), (seed, m)


def test_draw_helper_is_randrange():
    for seed in (0, 1, 2, 99, 2**40 + 7):
        mine, theirs = random.Random(seed), random.Random(seed)
        for m in range(1, 301):
            assert _draw.below(mine, m) == theirs.randrange(m), (seed, m)
            assert mine.getstate() == theirs.getstate(), (seed, m)


def test_inline_shuffle_is_rng_shuffle():
    for seed in range(40):
        mine, theirs = random.Random(seed), random.Random(seed)
        for n in range(10):
            perm = list(range(n))
            theirs.shuffle(perm)
            assert _draw.permutation(mine, n) == perm, (seed, n)
            assert mine.getstate() == theirs.getstate(), (seed, n)


def test_sampled_incomplete_runs_the_generating_check(monkeypatch):
    monkeypatch.setattr(oracle, "_is_generating", lambda vectors, n, k: False)
    verdict = sample_check("INCOMPLETE", 4, 2, 20)
    assert not verdict.passed
    assert verdict.checked == 1


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_incomplete_completes_only_by_orthogonal_vectors(monkeypatch, n, k):
    """With no family generating, the completion search visits every way to
    extend each short family; each one it hands over must be orthonormal."""
    handed = []

    def never(vectors, n, k):
        handed.append(vectors)
        return False

    monkeypatch.setattr(oracle, "_is_generating", never)
    check = oracle._incomplete(n, k)
    for fam in THEOREMS["INCOMPLETE"].source(n, k, DEFAULT_BUDGET):
        assert check(fam) is not None
    assert handed
    assert all(len(f) == n and oracle._is_orthonormal_family(f, (1 << k) - 1) for f in handed)


def test_dimension_fails_when_no_basis_is_enumerated(monkeypatch):
    monkeypatch.setattr(oracle, "_is_generating", lambda vectors, n, k: False)
    verdict = brute_check("DIMENSION", 2, 2)
    assert not verdict.passed
    assert verdict.checked > 0


def test_run_over_no_objects_is_not_a_pass(monkeypatch):
    empty = dataclasses.replace(THEOREMS["STOINV"], source=lambda n, k, budget: iter(()))
    monkeypatch.setitem(THEOREMS, "STOINV", empty)
    verdict = brute_check("STOINV", 2, 2)
    assert not verdict.passed
    assert verdict.checked == 0


@pytest.mark.parametrize("samples", [0, -5])
def test_non_positive_sample_counts_rejected(samples):
    with pytest.raises(PreconditionError):
        sample_check("NORM", 2, 2, samples)


@pytest.mark.parametrize("theorem,n", [("INCOMPLETE", 1), ("DESCENT", 1), ("ODDINV", 4)])
def test_preconditions_apply_to_both_modes(theorem, n):
    with pytest.raises(PreconditionError):
        brute_check(theorem, n, 2)
    with pytest.raises(PreconditionError):
        sample_check(theorem, n, 2, samples=3)


def _spans_everything(vectors, n, k):
    """Reference: enumerate every combination and count the distinct results."""
    image = set()
    for coeffs in product(range(1 << k), repeat=len(vectors)):
        image.add(tuple(
            oracle._or_all(c & v[i] for c, v in zip(coeffs, vectors)) for i in range(n)
        ))
    return len(image) == 1 << (k * n)


def test_residuation_generating_test_matches_span_enumeration():
    for n, k in product((1, 2), (1, 2)):
        vectors = list(product(range(1 << k), repeat=n))
        for m in range(4):
            for fam in combinations_with_replacement(vectors, m):
                assert oracle._is_generating(fam, n, k) == _spans_everything(fam, n, k), fam
    # Columns of a random unitary generate; a flipped bit or an extra vector
    # moves the family to either side of the boundary.
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        k = rng.randrange(1, 3)
        u = br.random_unitary(rng, make_algebra([str(i + 1) for i in range(k)]), 3)
        fam = [list(u.masks[j::3]) for j in range(3)]
        if rng.randrange(2):
            fam[rng.randrange(3)][rng.randrange(3)] ^= 1 << rng.randrange(k)
        if rng.randrange(2):
            fam.append([rng.randrange(1 << k) for _ in range(3)])
        fam = [tuple(v) for v in fam]
        expected = _spans_everything(fam, 3, k)
        outcomes.add(expected)
        assert oracle._is_generating(fam, 3, k) == expected, fam
    assert outcomes == {True, False}


def test_sampling_unavailable_for_search_shaped_checks():
    with pytest.raises(PreconditionError):
        sample_check("DUALITY", 2, 2, samples=5)


def test_registered_theorem_ids_are_complete():
    assert set(THEOREMS) == {
        "NORM", "DUALITY", "DESCENT", "BASIS_UPBOUND", "DIMENSION", "DIMCOR2",
        "INCOMPLETE", "INVERSE", "STOINV", "ODDINV", "UNITREDUCE", "ATOMS",
        "POWER", "PERIOD_DIVIDES",
    }


# --- UNITREDUCE: the per-unitary conjugator sets against the direct search ---

UNITREDUCE_SCALES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


def _direct_unitreduce(n, k):
    """UNITREDUCE with reducibility as the plain any(all(...)) search: every
    conjugator tried on every member of every family, nothing remembered."""
    full = (1 << k) - 1
    conjugators = [(b, oracle._transpose(n, b)) for b in oracle._iter_unitary_masks(n, k)]

    def check(mats):
        reducible = any(
            all(oracle._block_form(n, oracle._pack(_triple_loop(n, bt, _triple_loop(n, m, b)), k), full) for m in mats)
            for b, bt in conjugators
        )
        joint_trace = oracle._or_all(oracle._and_all(m[i * n + i] for m in mats) & full for i in range(n))
        if reducible != (joint_trace == full):
            return ", ".join(oracle._fmt_mat(n, m, k) for m in mats)
        return None

    return check


def _scrambled_block_form(n, d, full):
    """A fixed stand-in for the block-form test that holds for about a third
    of all products, so reducibility stops following the joint trace. It
    reads the packed product's lanes, as wide as ``full``."""
    lanes = _unpack(d, full.bit_length(), n * n)
    return sum((i + 1) * x for i, x in enumerate(lanes)) % 3 == 0


def _families(n, k):
    return list(oracle._unitary_families(n, k, DEFAULT_BUDGET))


@pytest.mark.parametrize("n,k", UNITREDUCE_SCALES)
def test_unitreduce_matches_direct_search_on_every_family(n, k):
    families = _families(n, k)
    count = math.factorial(n) ** k
    assert len(families) == count + count * count
    check, direct = oracle._unitreduce(n, k), _direct_unitreduce(n, k)
    assert [check(f) for f in families] == [direct(f) for f in families] == [None] * len(families)


def test_unitreduce_matches_direct_search_when_reducibility_is_scrambled(monkeypatch):
    monkeypatch.setattr(oracle, "_block_form", _scrambled_block_form)
    outcomes = set()
    for n, k in UNITREDUCE_SCALES:
        families = _families(n, k)
        check, direct = oracle._unitreduce(n, k), _direct_unitreduce(n, k)
        got = [check(f) for f in families]
        assert got == [direct(f) for f in families]
        outcomes.update(c is None for c in got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n,k", [(2, 3), (3, 1)])
def test_unitreduce_fails_like_direct_search_when_nothing_reduces(monkeypatch, n, k):
    monkeypatch.setattr(oracle, "_block_form", lambda n, d, full: False)
    direct = _direct_unitreduce(n, k)
    first = next((i, c) for i, f in enumerate(_families(n, k), start=1) if (c := direct(f)) is not None)
    verdict = brute_check("UNITREDUCE", n, k)
    assert not verdict.passed
    assert (verdict.checked, verdict.counterexample) == first


def test_unitreduce_remembers_nothing_across_runs(monkeypatch):
    assert brute_check("UNITREDUCE", 2, 3).passed
    monkeypatch.setattr(oracle, "_block_form", lambda n, d, full: False)
    assert not brute_check("UNITREDUCE", 2, 3).passed
    monkeypatch.undo()
    assert brute_check("UNITREDUCE", 2, 3).passed


def test_unitreduce_exhaustive_at_n2_k6():
    verdict = brute_check("UNITREDUCE", 2, 6)
    assert verdict.passed, str(verdict)
    assert verdict.checked == 64 + 64 * 64


def test_unitreduce_checks_every_pair_at_n3_k3():
    verdict = brute_check("UNITREDUCE", 3, 3)
    assert verdict.passed, str(verdict)
    assert verdict.checked == 216 + 216 * 216 == 46872


def test_unitreduce_pairs_need_only_a_quadratic_budget():
    verdict = brute_check("UNITREDUCE", 2, 4, budget=300)
    assert verdict.passed, str(verdict)
    assert verdict.checked == 16 + 16 * 16 == 272
    with pytest.raises(BudgetExceededError):
        brute_check("UNITREDUCE", 2, 4, budget=255)


# --- POWER and PERIOD_DIVIDES walk a whole chunk at once ---


def _alone(first_failure):
    """A chunk predicate asked about one object: its counterexample or None."""

    def check(obj):
        found = first_failure([obj])
        assert found is None or found[0] == 0
        return found and found[1]

    return check


def _unmemoised_period_exponent(n, a):
    """The exhaustive horizon walk, one fresh product per step."""
    horizon = (n - 1) ** 2 + 1 + math.lcm(*range(1, n + 1))
    powers = [tuple(a)]
    for _ in range(horizon):
        powers.append(_triple_loop(n, powers[-1], a))
    for p in range(1, horizon + 1):
        for e in range(1, horizon - p + 2):
            if powers[e - 1 + p] == powers[e - 1]:
                return e, p
    raise AssertionError("no repeat within the guaranteed horizon")


def _unmemoised_power(n, k):
    """The POWER predicate with one fresh product per step, from ``A**1 = A``."""
    lcm = math.lcm(*range(1, n + 1))
    ident = oracle._identity_masks(n, (1 << k) - 1)

    def naive_power(a, e):
        cur = ident if e == 0 else tuple(a)
        for _ in range(e - 1):
            cur = _triple_loop(n, cur, a)
        return cur

    def check(obj):
        unitary, a = obj
        if unitary:
            return None if naive_power(a, lcm) == ident else f"unitary {oracle._fmt_mat(n, a, k)}"
        low = naive_power(a, n - 1)
        high = low
        for _ in range(lcm):
            high = _triple_loop(n, high, a)
        return None if high == low else oracle._fmt_mat(n, a, k)

    return check


def _seeded_square_masks(count, seed):
    """(n, k, masks) for n 1-4 and k 1-3: general, stochastic and unitary in turn."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, k = rng.randrange(1, 5), rng.randrange(1, 4)
        alg = oracle._numbered_algebra(k)
        if i % 3 == 0:
            masks = tuple(rng.getrandbits(k) for _ in range(n * n))
        elif i % 3 == 1:
            masks = br.random_stochastic_matrix(rng, alg, n).masks
        else:
            masks = br.random_unitary(rng, alg, n).masks
        out.append((n, k, masks))
    return out


def test_power_walk_matches_unmemoised_loops():
    seen = set()
    checks = {}
    for n, k, a in _seeded_square_masks(2000, 1103):
        if (n, k) not in checks:
            checks[n, k] = (_alone(oracle._power(n, k)), _unmemoised_power(n, k))
        walked, fresh = checks[n, k]
        assert oracle._brute_period_exponent(n, a) == _unmemoised_period_exponent(n, a)
        for obj in ((False, a), (True, a)):
            verdict = walked(obj)
            assert verdict == fresh(obj)
            seen.add(verdict is None)
    assert seen == {True, False}


def _counting_wordmul(monkeypatch):
    calls = [0]
    product = oracle._wordmul

    def counted(n, w, x, tiles):
        calls[0] += 1
        return product(n, w, x, tiles)

    monkeypatch.setattr(oracle, "_wordmul", counted)
    return calls


def test_power_walk_costs_one_product_per_distinct_power(monkeypatch):
    objects = _seeded_square_masks(600, 2207)
    distinct = []
    for n, k, a in objects:
        powers = [oracle._identity_masks(n, (1 << k) - 1)]
        for _ in range((n - 1) ** 2 + 1 + math.lcm(*range(1, n + 1))):
            powers.append(_triple_loop(n, powers[-1], a))
        # A**1 .. A**horizon are the powers the exponent search multiplies.
        # POWER's walks start at A as well and stop before the horizon, so
        # they multiply no power the search does not.
        distinct.append(len(set(powers[1:])))
    calls = _counting_wordmul(monkeypatch)
    for (n, k, a), searched in zip(objects, distinct):
        calls[0] = 0
        oracle._brute_period_exponent(n, a)
        assert calls[0] == searched
        for obj in ((False, a), (True, a)):
            calls[0] = 0
            oracle._power(n, k)([obj])
            assert calls[0] <= searched


def test_a_chunk_walk_costs_one_product_per_distinct_word(monkeypatch):
    """A chunk's word repeats when every block's power does: PERIOD_DIVIDES'
    walk over a chunk of the matrices above, to ``A**(m+lcm)``, multiplies
    each distinct word once, except the last word of a chunk whose words
    never repeat, which no later power needs; POWER's walk makes no more.
    The products of the (e, p) search for a failing chunk's reported matrix
    are counted apart."""
    objects = _seeded_square_masks(600, 2207)
    calls = _counting_wordmul(monkeypatch)
    search, reported = oracle._brute_period_exponent, []

    def counted_search(n, a):
        before = calls[0]
        found = search(n, a)
        reported.append(calls[0] - before)
        return found

    monkeypatch.setattr(oracle, "_brute_period_exponent", counted_search)
    for n, k in product(range(1, 5), range(1, 4)):
        chunk = [a for m, j, a in objects if (m, j) == (n, k)]
        walks = []
        for a in chunk:
            walks.append([tuple(a)])
            for _ in range(max(n - 1, 1) + math.lcm(*range(1, n + 1)) - 1):
                walks[-1].append(_triple_loop(n, walks[-1][-1], a))
        calls[0], reported[:] = 0, []
        oracle._period_divides(n, k)(chunk)
        searched, words = calls[0] - sum(reported), set(zip(*walks))
        assert searched == len(words) - (len(words) == len(walks[0]))
        calls[0] = 0
        oracle._power(n, k)([(False, a) for a in chunk])
        assert calls[0] <= searched


def test_only_a_reported_matrix_has_its_exponent_and_period_searched(monkeypatch):
    """A passing chunk searches no (e, p); a failing one searches once, for
    the matrix it reports, however many of its matrices fail."""
    searched = []
    search = oracle._brute_period_exponent
    monkeypatch.setattr(oracle, "_brute_period_exponent", lambda n, a: searched.append(a) or search(n, a))
    assert brute_check("PERIOD_DIVIDES", 3, 2).passed
    assert searched == []
    rng = random.Random(6101)
    for n, k in product(range(2, 5), range(1, 4)):
        chunk = [tuple(rng.getrandbits(k) for _ in range(n * n)) for _ in range(60)]
        failing = _reference_failures(_unmemoised_period_divides(n, k), chunk)
        assert len(failing) > 1
        searched.clear()
        assert oracle._period_divides(n, k)(chunk) == failing[0]
        assert searched == [chunk[failing[0][0]]]


def test_one_object_period_divides_matches_the_definitions_on_general_matrices():
    """General matrices can have an exponent past ``max(n-1, 1)``, the side
    of ``A**(m+lcm) == A**m`` that stochastic matrices never reach: the
    verdict and the text equal the definition-level search's."""
    rng = random.Random(7207)
    checks, seen = {}, set()
    for _ in range(3000):
        n, k = rng.randrange(1, 5), rng.randrange(1, 4)
        if (n, k) not in checks:
            checks[n, k] = _alone(oracle._period_divides(n, k)), _unmemoised_period_divides(n, k)
        walked, fresh = checks[n, k]
        a = tuple(rng.getrandbits(k) for _ in range(n * n))
        verdict = walked(a)
        assert verdict == fresh(a), (n, k, a)
        seen.add(verdict is None)
    assert seen == {True, False}


@pytest.mark.parametrize("theorem,n,samples", [("POWER", 9, 40), ("PERIOD_DIVIDES", 9, 40), ("POWER", 11, 12), ("PERIOD_DIVIDES", 11, 12)])
def test_large_sampled_power_checks_walk_each_matrix_to_its_first_repeat(monkeypatch, theorem, n, samples):
    """Past n = 6 a chunk's walk would not fit the byte cap, so each matrix
    walks alone and stops at its first repeated power: one product per
    distinct power, far below the horizon's 2,586 (n = 9) or 27,822 (n = 11)
    steps, and a few kilobytes held."""
    import tracemalloc

    expected = 0
    for obj in _drawn(theorem, n, 2, samples, 5):
        a = obj[1] if theorem == "POWER" else obj
        seen, power = set(), tuple(a)
        while power not in seen:
            seen.add(power)
            power = _triple_loop(n, power, a)
        expected += len(seen)
    calls = _counting_wordmul(monkeypatch)
    tracemalloc.start()
    try:
        verdict = sample_check(theorem, n, 2, samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.checked == samples
    assert calls[0] == expected
    assert peak < 1 << 20


@pytest.mark.parametrize("theorem,most", [("PERIOD_DIVIDES", 1702), ("POWER", 1817)])
def test_exhaustive_power_checks_stay_within_their_product_counts(monkeypatch, theorem, most):
    calls = _counting_wordmul(monkeypatch)
    verdict = brute_check(theorem, 3, 2)
    assert verdict.passed, str(verdict)
    assert 0 < calls[0] <= most


def test_a_walk_multiplies_no_word_past_its_top(monkeypatch):
    """A walk stops at its ``top``-th word: POWER at n = 1 (top 1) makes no
    product, a 3x3 cyclic shift walked to ``X**2`` makes one, and the
    exhaustive (3,2) walks, whose chunks all repeat before their top, keep
    their 21 products each."""
    calls = _counting_wordmul(monkeypatch)
    for k in (1, 2, 3):
        calls[0] = 0
        assert brute_check("POWER", 1, k).passed
        assert calls[0] == 0
    shift = (0, 0, 1, 1, 0, 0, 0, 1, 0)
    calls[0] = 0
    power = oracle._walk(3, 1, oracle._pack(shift, 1), 2)
    assert calls[0] == 1
    assert [_unpack(power(m), 1, 9) for m in (1, 2)] == [shift, _triple_loop(3, shift, shift)]
    for theorem in ("POWER", "PERIOD_DIVIDES"):
        calls[0] = 0
        assert brute_check(theorem, 3, 2).passed
        assert calls[0] == 21


def _unmemoised_period_divides(n, k):
    lcm = math.lcm(*range(1, n + 1))

    def check(a):
        e, p = _unmemoised_period_exponent(n, a)
        return f"e={e}, p={p} for {oracle._fmt_mat(n, a, k)}" if lcm % p or e > max(n - 1, 1) else None

    return check


_REFERENCE_WORDMUL = oracle._wordmul


def _word_product_dropping_last_term(n, w, x, tiles):
    columns, spread, _ = oracle._columns(n, w)
    out = 0
    for (column, shift), tile in list(zip(columns, tiles))[: n - 1]:
        out |= ((x & column) >> shift) * spread & tile
    return out


def _unpack(word, w, count):
    lane = (1 << w) - 1
    return tuple(word >> w * i & lane for i in range(count))


def _transposed_word_product(n, w, x, tiles):
    """The true product with each block (``n*n`` lanes and a guard lane)
    transposed."""
    word, out = _REFERENCE_WORDMUL(n, w, x, tiles), 0
    stride = (n * n + 1) * w
    for b in range(word.bit_length() // stride + 1):
        lanes = _unpack(word >> stride * b, w, n * n)
        out |= oracle._pack(oracle._transpose(n, lanes), w) << stride * b
    return out


# The same two mistakes made on mask tuples, by literal loops.


def _triple_loop(n, a, b, terms=None):
    """``OR_t (a_it & b_tj)`` over the first ``terms`` (default n) values of t."""
    return tuple(
        oracle._or_all(a[i * n + t] & b[t * n + j] for t in range(n if terms is None else terms))
        for i in range(n)
        for j in range(n)
    )


_REFERENCE_TRIPLE_LOOP = _triple_loop


def _product_dropping_last_term(n, a, b):
    return _REFERENCE_TRIPLE_LOOP(n, a, b, n - 1)


def _transposed_product(n, a, b):
    return oracle._transpose(n, _REFERENCE_TRIPLE_LOOP(n, a, b))


@pytest.mark.parametrize("wrong_word,wrong", [
    pytest.param(_word_product_dropping_last_term, _product_dropping_last_term, id="_product_dropping_last_term"),
    pytest.param(_transposed_word_product, _transposed_product, id="_transposed_product"),
])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2)])
@pytest.mark.parametrize("theorem,fresh", [("POWER", _unmemoised_power), ("PERIOD_DIVIDES", _unmemoised_period_divides)])
def test_power_theorems_fail_under_a_wrong_product(monkeypatch, wrong_word, wrong, n, k, theorem, fresh):
    """A wrong word product fails the walks on the first object, and with
    the counterexample, that the one-product-per-step loops give under the
    same mistake made on mask tuples. The word mistakes are made in every
    block of a chunk."""
    monkeypatch.setattr(oracle, "_wordmul", wrong_word)
    monkeypatch.setitem(globals(), "_triple_loop", wrong)
    check = fresh(n, k)
    objects = THEOREMS[theorem].source(n, k, DEFAULT_BUDGET)
    first = next((i, c) for i, obj in enumerate(objects, start=1) if (c := check(obj)) is not None)
    verdict = brute_check(theorem, n, k)
    assert not verdict.passed
    assert (verdict.checked, verdict.counterexample) == first


def test_word_product_matches_the_triple_loop_on_general_matrices():
    """Lanes of every width 1-9, masks of every width up to the lane's
    (narrower masks leave high lane bits clear), n from 0 to 6."""
    rng = random.Random(4409)
    for _ in range(1500):
        n, w = rng.randrange(7), rng.randrange(1, 10)
        a = tuple(rng.getrandbits(rng.randrange(w + 1)) for _ in range(n * n))
        b = tuple(rng.getrandbits(rng.randrange(w + 1)) for _ in range(n * n))
        word = oracle._wordmul(n, w, oracle._pack(a, w), oracle._row_tiles(n, w, oracle._pack(b, w)))
        assert _unpack(word, w, n * n) == _triple_loop(n, a, b), (n, w, a, b)
        assert word >> w * n * n == 0
    # Three-bit masks in nine-bit lanes: the top six bits of each lane stay clear.
    a, b = (5, 7, 0, 3), (6, 1, 7, 4)
    word = oracle._wordmul(2, 9, oracle._pack(a, 9), oracle._row_tiles(2, 9, oracle._pack(b, 9)))
    assert word == oracle._pack(_triple_loop(2, a, b), 9) == oracle._pack((7, 5, 3, 0), 9)


def test_lane_folds_are_the_joins_of_the_lanes():
    """``_fold`` halves the lane count each step, so odd counts and single
    lanes are where a wrong step would lose a lane."""
    rng = random.Random(5119)
    for _ in range(2000):
        n, w = rng.randrange(10), rng.randrange(1, 7)
        a = tuple(rng.getrandbits(w) for _ in range(n))
        b = tuple(rng.getrandbits(w) for _ in range(n))
        pa, pb = oracle._pack(a, w), oracle._pack(b, w)
        assert oracle._fold(pa, w, n) == _or_all(a), (n, w, a)
        assert oracle._dot(pa, pb, w, n) == oracle._inner(a, b), (n, w, a, b)


@pytest.mark.parametrize("w", [1, 3, 9])
def test_pack_is_the_shift_and_or_of_its_masks(w):
    """Lengths either side of the halving cutoff and one far past it; each
    mask fills its lane, so a slot that lands a bit off would show."""
    rng = random.Random(8311 + w)
    for length in (0, 1, 64, 65, 129, 100_000):
        v = [rng.getrandbits(w) for _ in range(length)]
        expected = 0
        for i, m in enumerate(v):
            expected |= m << w * i
        assert oracle._pack(v, w) == oracle._pack(tuple(v), w) == expected, length


def _word_product(n, w, a, b):
    return _unpack(oracle._wordmul(n, w, oracle._pack(a, w), oracle._row_tiles(n, w, oracle._pack(b, w))), w, n * n)


def test_naive_products_stay_the_kernel_reference():
    assert _word_product(0, 1, (), ()) == ()
    assert oracle._matvec(0, (), ()) == ()
    assert _word_product(2, 2, (1, 2, 0, 3), (3, 0, 1, 2)) == (1, 2, 1, 2)
    assert oracle._matvec(2, (1, 2, 0, 3), (3, 1)) == (1, 1)
    rng = random.Random(3301)
    for n in range(1, 5):
        a = tuple(rng.getrandbits(5) for _ in range(n * n))
        b = tuple(rng.getrandbits(5) for _ in range(n * n))
        for i in range(n):
            for j in range(n):
                expected = 0
                for t in range(n):
                    expected |= a[i * n + t] & b[t * n + j]
                assert _word_product(n, 5, a, b)[i * n + j] == expected


# --- the chunked predicates against one object at a time ---


def _literal_inner(u, v):
    return _or_all(x & y for x, y in zip(u, v))


def _literal_orthovector(v):
    return all(x & y == 0 for x, y in combinations(v, 2))


def _literal_norm_laws(n, k, inner=_literal_inner, orthovector=_literal_orthovector):
    """NORM's laws on one triple, straight from the definitions: a norm is
    the join of the entries, an orthovector has pairwise disjoint entries."""

    def check(obj):
        a, b, c = obj
        ca, cb = tuple(c & x for x in a), tuple(c & x for x in b)
        na, nb, ab = _or_all(a), _or_all(b), inner(a, b)
        equal_orthovectors = orthovector(a) and orthovector(b) and na == nb
        for law, holds in (
            ("definiteness", (inner(a, a) == 0) == (a == (0,) * n)),
            ("symmetry", inner(b, a) == ab),
            ("norm of sum", _or_all(x | y for x, y in zip(a, b)) == na | nb),
            ("norm bound", ab & ~(na & nb) == 0),
            ("orthovector equality law", not equal_orthovectors or (ab == na & nb) == (a == b)),
            ("scaled norm", _or_all(ca) == c & na),
            ("scalar slide", inner(ca, b) == c & ab == inner(a, cb)),
            ("bilinearity", inner(tuple(x | y for x, y in zip(ca, b)), b) == (c & ab) | nb),
        ):
            if not holds:
                return f"{law} fails at c={c}, a={oracle._fmt_vec(a, k)}, b={oracle._fmt_vec(b, k)}"
        return None

    return check


_REFERENCES = {"NORM": _literal_norm_laws, "POWER": _unmemoised_power, "PERIOD_DIVIDES": _unmemoised_period_divides}


def _every_failure(first_failure, objects, size):
    """Every ``(index, counterexample)`` a chunk predicate reports, asked
    again from the object after each one, in chunks of ``size``."""
    found, start = [], 0
    while start < len(objects):
        hit = first_failure(objects[start : start + size])
        if hit is None:
            start += size
        else:
            found.append((start + hit[0], hit[1]))
            start += hit[0] + 1
    return found


def _reference_failures(check, objects):
    return [(i, c) for i, obj in enumerate(objects) if (c := check(obj)) is not None]


def _drawn(theorem, n, k, count, seed):
    rng = random.Random(seed)
    return [THEOREMS[theorem].sampler(rng, k, n) for _ in range(count)]


_CHUNKED_OBJECTS = [
    *((theorem, n, k, None) for theorem in ("POWER", "PERIOD_DIVIDES", "NORM")
      for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2), (2, 4)) if (theorem, n, k) != ("NORM", 2, 4)),
    # Lanes of two bytes (k > 8), and sizes the exhaustive grid cannot reach.
    *((theorem, n, k, 150) for theorem in ("POWER", "PERIOD_DIVIDES", "NORM") for n, k in ((4, 3), (5, 2), (3, 9))),
    *(("NORM", n, k, 300) for n, k in ((2, 4), (4, 4), (4, 6), (7, 3))),
]


@pytest.mark.parametrize("theorem,n,k,samples", _CHUNKED_OBJECTS)
def test_chunked_predicates_match_one_object_at_a_time(theorem, n, k, samples):
    """Every object of the exhaustive space (or seeded draws), in chunks of
    several sizes, against the per-object reference loops."""
    if samples is None:
        objects = list(THEOREMS[theorem].source(n, k, DEFAULT_BUDGET))
    else:
        objects = _drawn(theorem, n, k, samples, 7 * n + k)
    predicate = THEOREMS[theorem].predicate(n, k)
    expected = _reference_failures(_REFERENCES[theorem](n, k), objects)
    assert expected == []
    for size in (1, 5, oracle._CHUNK):
        assert _every_failure(predicate, objects, size) == expected


@pytest.mark.parametrize("theorem", ["POWER", "PERIOD_DIVIDES"])
def test_chunked_power_predicates_pass_every_object_at_n4_k2(theorem):
    """65,536 stochastic matrices (and 576 unitaries): every chunk passes,
    and every 97th object is checked against the reference on its own."""
    verdict = brute_check(theorem, 4, 2)
    assert verdict.passed, str(verdict)
    assert verdict.checked == CHECKED[theorem](4, 2)
    objects = list(THEOREMS[theorem].source(4, 2, DEFAULT_BUDGET))[::97]
    assert _reference_failures(_REFERENCES[theorem](4, 2), objects) == []
    assert _every_failure(THEOREMS[theorem].predicate(4, 2), objects, oracle._CHUNK) == []


@pytest.mark.parametrize("wrong_word,wrong", [
    pytest.param(_word_product_dropping_last_term, _product_dropping_last_term, id="_product_dropping_last_term"),
    pytest.param(_transposed_word_product, _transposed_product, id="_transposed_product"),
])
@pytest.mark.parametrize("theorem,n,k,samples", [
    ("POWER", 2, 2, None), ("POWER", 3, 2, None), ("POWER", 4, 3, 120),
    ("PERIOD_DIVIDES", 2, 3, None), ("PERIOD_DIVIDES", 3, 2, None), ("PERIOD_DIVIDES", 4, 3, 120),
])
def test_chunked_power_predicates_fail_where_the_references_fail(monkeypatch, wrong_word, wrong, theorem, n, k, samples):
    """Under the same wrong product, word and tuple, every failure and its
    text match, and both outcomes occur. The predicate is asked again after
    each failure, so the chunks here are short."""
    monkeypatch.setattr(oracle, "_wordmul", wrong_word)
    monkeypatch.setitem(globals(), "_triple_loop", wrong)
    if samples is None:
        objects = list(THEOREMS[theorem].source(n, k, DEFAULT_BUDGET))
    else:
        objects = _drawn(theorem, n, k, samples, 31)
    expected = _reference_failures(_REFERENCES[theorem](n, k), objects)
    assert 0 < len(expected) < len(objects)
    assert _every_failure(THEOREMS[theorem].predicate(n, k), objects, 13) == expected


_BLIND_INNER = (
    ("_dot", lambda dot: lambda x, y, w, n, firsts: dot(x, y & ~(firsts << w * (n - 1)), w, n, firsts)),
    lambda u, v: _literal_inner(u, v[:-1]), _literal_orthovector,
)
_NO_TWICE = (("_twice", lambda twice: lambda x, w, n, firsts: 0), _literal_inner, lambda v: True)


@pytest.mark.parametrize("plant,inner,orthovector,n,k,samples", [
    # The oracle's blocks have a power-of-two lane count, so its last lane
    # is the last slot only when n is a power of two.
    pytest.param(*_BLIND_INNER, 2, 2, None, id="blind-inner-2-2"),
    pytest.param(*_BLIND_INNER, 4, 3, 400, id="blind-inner-4-3x400"),
    pytest.param(*_NO_TWICE, 2, 2, None, id="no-twice-2-2"),
    pytest.param(*_NO_TWICE, 3, 1, None, id="no-twice-3-1"),
    pytest.param(*_NO_TWICE, 3, 2, None, id="no-twice-3-2"),
    pytest.param(*_NO_TWICE, 4, 3, 400, id="no-twice-4-3x400"),
])
def test_chunked_norm_laws_fail_where_the_literal_laws_fail(monkeypatch, plant, inner, orthovector, n, k, samples):
    helper, wrong = plant
    monkeypatch.setattr(oracle, helper, wrong(getattr(oracle, helper)))
    objects = list(THEOREMS["NORM"].source(n, k, DEFAULT_BUDGET)) if samples is None else _drawn("NORM", n, k, samples, 41)
    expected = _reference_failures(_literal_norm_laws(n, k, inner, orthovector), objects)
    assert 0 < len(expected) < len(objects)
    assert _every_failure(THEOREMS["NORM"].predicate(n, k), objects, oracle._CHUNK) == expected


def test_carry_save_fold_finds_the_atoms_in_two_slots():
    rng = random.Random(7723)
    for _ in range(2000):
        lanes, w = 1 << rng.randrange(4), 8 * rng.randrange(1, 3)
        blocks = [tuple(rng.getrandbits(rng.randrange(1, 4)) for _ in range(lanes)) for _ in range(rng.randrange(1, 9))]
        firsts = oracle._spread(len(blocks), (lanes + 1) * w) * ((1 << w) - 1)
        twice = oracle._twice(oracle._pack_all(blocks, lanes + 1, w), w, lanes, firsts)
        for b, v in enumerate(blocks):
            many = _or_all(x & y for x, y in combinations(v, 2))
            assert twice >> (lanes + 1) * w * b & (1 << (lanes + 1) * w) - 1 == many, (lanes, w, v)


# A 3x3 matrix whose third power is zero: its exponent is 3 > n - 1, and
# A**8 != A**2. It is not stochastic, so ATOMS fails on it too.
_NILPOTENT = (0, 0, 0, 3, 0, 0, 0, 3, 0)
_PLANTED = {
    "POWER": ((False, _NILPOTENT), None),
    "PERIOD_DIVIDES": (_NILPOTENT, None),
    "ATOMS": (_NILPOTENT, None),
    "NORM": (((1, 1, 0), (1, 0, 0), 0), ("_twice", lambda twice: lambda x, w, n, firsts: 0)),
}


def _planted_objects(theorem, at, total):
    """``total`` objects of the (3, 2) space (of (3, 1) for NORM), with the
    planted one at ``at``."""
    k = 1 if theorem == "NORM" else 2
    if theorem == "NORM":
        objects = [((0, 0, 0), (0, 0, 0), 0)] * total
    else:
        objects = list(islice(THEOREMS[theorem].source(3, k, DEFAULT_BUDGET), total))
    objects[at] = _PLANTED[theorem][0]
    return k, objects


def _reference(theorem, k):
    return {"ATOMS": _atoms, "POWER": _unmemoised_power, "PERIOD_DIVIDES": _unmemoised_period_divides}[theorem](3, k)


@pytest.mark.parametrize("theorem", sorted(_PLANTED))
@pytest.mark.parametrize("at", [0, 255, 256, 511, 590])
def test_a_counterexample_at_a_chunk_edge_is_reported_as_one_at_a_time_would(monkeypatch, theorem, at):
    """First and last object of a chunk, and inside the short final chunk
    of 600 objects: the run stops there, with that object's text."""
    k, objects = _planted_objects(theorem, at, 600)
    if _PLANTED[theorem][1] is None:
        reference = _reference(theorem, k)
    else:
        helper, wrong = _PLANTED[theorem][1]
        monkeypatch.setattr(oracle, helper, wrong(getattr(oracle, helper)))
        reference = _literal_norm_laws(3, k, orthovector=lambda v: True)
    entry = dataclasses.replace(THEOREMS[theorem], source=lambda n, k, budget: iter(objects))
    monkeypatch.setitem(THEOREMS, theorem, entry)
    verdict = brute_check(theorem, 3, k)
    expected = (at + 1, reference(objects[at]))
    assert _reference_failures(reference, objects)[0] == (at, expected[1])
    assert (verdict.passed, verdict.checked, verdict.counterexample) == (False, *expected)


@pytest.mark.parametrize("theorem", ["POWER", "PERIOD_DIVIDES"])
@pytest.mark.parametrize("samples,at", [(600, None), (1, None), (600, 517), (257, 256)])
def test_sampled_runs_draw_in_order_whatever_the_chunk(monkeypatch, theorem, samples, at):
    """A sample count that is not a multiple of the chunk: every draw is
    checked, in the order drawn, and a planted draw is the one reported."""
    sampler, seen, drawn = THEOREMS[theorem].sampler, [], _drawn(theorem, 3, 2, samples, 3)

    def planted(rng, k, n):
        obj = sampler(rng, k, n)
        seen.append(obj)
        return _PLANTED[theorem][0] if len(seen) - 1 == at else obj

    monkeypatch.setitem(THEOREMS, theorem, dataclasses.replace(THEOREMS[theorem], sampler=planted))
    verdict = sample_check(theorem, 3, 2, samples, seed=3)
    if at is None:
        assert verdict.passed and verdict.checked == len(seen) == samples
        assert seen == drawn
    else:
        assert (verdict.checked, verdict.counterexample) == (at + 1, _reference(theorem, 2)(_PLANTED[theorem][0]))


def test_a_budget_refused_midway_still_checks_what_was_streamed(monkeypatch):
    """Objects streamed before a source refuses its budget are checked, as
    one at a time: a counterexample among them is the verdict; without one,
    the refusal stands."""
    good = list(islice(THEOREMS["ATOMS"].source(3, 2, DEFAULT_BUDGET), 300))

    def refusing(objects):
        def source(n, k, budget):
            yield from objects
            raise BudgetExceededError(None, budget)

        return dataclasses.replace(THEOREMS["ATOMS"], source=source)

    monkeypatch.setitem(THEOREMS, "ATOMS", refusing(good[:270] + [_NILPOTENT]))
    verdict = brute_check("ATOMS", 3, 2)
    assert (verdict.passed, verdict.checked) == (False, 271)
    assert verdict.counterexample == _atoms(3, 2)(_NILPOTENT)
    monkeypatch.setitem(THEOREMS, "ATOMS", refusing(good))
    with pytest.raises(BudgetExceededError):
        brute_check("ATOMS", 3, 2)


@pytest.mark.parametrize("theorem,n,k,required", [("STOINV", 4, 3, 64), ("DESCENT", 5, 4, 256), ("INCOMPLETE", 4, 2, 16)])
def test_sampled_runs_refuse_a_table_past_the_budget(monkeypatch, capsys, theorem, n, k, required):
    """The predicate's table of stochastic vectors is refused before it is
    listed, in sampled runs and from the CLI (exit 2); at the budget it runs."""
    from boolmat.cli import main

    listing = oracle._iter_stochastic_masks

    def forbidden(*args):
        raise AssertionError("a table was listed")

    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", required - 1)
    monkeypatch.setattr(oracle, "_iter_stochastic_masks", forbidden)
    with pytest.raises(BudgetExceededError) as err:
        sample_check(theorem, n, k, samples=5)
    assert (err.value.required, err.value.budget) == (required, required - 1)
    argv = ["verify", "--theorem", theorem, "--n", str(n), "--atoms", str(k), "--samples", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: enumeration needs budget {required}, configured {required - 1}\n"
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", required)
    monkeypatch.setattr(oracle, "_iter_stochastic_masks", listing)
    assert sample_check(theorem, n, k, samples=5).passed


@pytest.mark.parametrize("theorem,n,k", [("STOINV", 3, 2), ("DESCENT", 3, 2), ("INCOMPLETE", 3, 2)])
def test_an_exhaustive_run_lists_its_table_under_its_own_budget(monkeypatch, theorem, n, k):
    """The table cap is the sampled runs' only: an exhaustive run's space
    holds the table, so the run's budget, above ``DEFAULT_BUDGET`` here,
    bounds both."""
    expected = brute_check(theorem, n, k)
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 3)
    assert brute_check(theorem, n, k, budget=100_000) == expected
    assert expected.passed
    with pytest.raises(BudgetExceededError):
        sample_check(theorem, n, k, samples=5)


# --- ATOMS and STOINV against their unpruned forms ---
# The two functions below, with conftest's ``selection_meets``, are the
# plain definitions the oracle started from: every selection met in full,
# one matrix-vector product per atom and column, and a whole A b compared
# with b.


def _stoinv(n: int, k: int) -> Callable[[Any], str | None]:
    """Invariant stochastic vector exists exactly when the trace is one."""
    stoch_vecs = list(_iter_stochastic_masks(n, k))

    def check(a: Any) -> str | None:
        has_invariant = any(_matvec(n, a, b) == b for b in stoch_vecs)
        if has_invariant != (_trace(n, a) == (1 << k) - 1):
            return _fmt_mat(n, a, k)
        return None

    return check


def _atoms(n: int, k: int) -> Callable[[Any], str | None]:
    """Atoms partition one, rebuild every entry, and drive the slot action."""
    full = (1 << k) - 1

    def problem(a: Sequence[int]) -> str | None:
        atoms = selection_meets(n, a, full)
        joined = 0
        for idx, (m, _) in enumerate(atoms):
            if any(m & m2 for m2, _ in atoms[:idx]):
                return "overlapping atoms"
            joined |= m
        if joined != full:
            return "atoms do not cover one"
        for i in range(n):
            for j in range(n):
                rebuilt = _or_all(m for m, _ in atoms if m & ~a[i * n + j] == 0)
                if rebuilt != a[i * n + j]:
                    return f"entry ({i},{j}) is not the join of its atoms"
        for m, selection in atoms:
            for j in range(n):
                scaled = [m if t == j else 0 for t in range(n)]
                expect = tuple(m if t == selection[j] else 0 for t in range(n))
                if _matvec(n, a, scaled) != expect:
                    return f"atom action fails at column {j}"
        return None

    def check(a: Any) -> str | None:
        found = problem(a)
        return None if found is None else f"{found} in {_fmt_mat(n, a, k)}"

    return check


def _general_square_masks(count, seed, sizes, atoms):
    """Seeded (n, k, masks) with n drawn from ``sizes`` and k from ``atoms``,
    any mask in any entry; the zero and all-``*`` matrix of every shape first."""
    rng = random.Random(seed)
    out = [(n, k, (fill,) * (n * n)) for n in sizes for k in atoms for fill in (0, (1 << k) - 1)]
    for _ in range(count):
        n, k = rng.choice(sizes), rng.choice(atoms)
        out.append((n, k, tuple(rng.getrandbits(k) for _ in range(n * n))))
    return out


def test_pruned_atom_walk_lists_what_the_full_loop_lists():
    objects = _general_square_masks(1500, 4409, range(1, 6), range(1, 5))
    objects += [(n, k, a) for n, k in ((2, 2), (3, 2)) for a in oracle._iter_stochastic_matrix_masks(n, k)]
    lengths = set()
    for n, k, a in objects:
        got = oracle._atoms_of(n, a, (1 << k) - 1)
        assert got == [m for m, _ in selection_meets(n, a, (1 << k) - 1)], (n, k, a)
        lengths.add(len(got))
    assert 0 in lengths and max(lengths) > 8


@pytest.mark.parametrize("theorem,reference", [("ATOMS", _atoms), ("STOINV", _stoinv)])
@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
def test_atoms_and_stoinv_match_their_references_on_every_object(theorem, reference, n, k):
    objects = list(THEOREMS[theorem].source(n, k, DEFAULT_BUDGET))
    check, ref = _alone(THEOREMS[theorem].predicate(n, k)), reference(n, k)
    assert [check(a) for a in objects] == [ref(a) for a in objects] == [None] * len(objects)


@pytest.mark.parametrize("theorem,reference", [("ATOMS", _atoms), ("STOINV", _stoinv)])
def test_atoms_and_stoinv_match_their_references_on_general_matrices(theorem, reference):
    """Off the stochastic matrices both statements fail often, so the
    counterexample strings are compared as well as the passes."""
    checks = {}
    outcomes = []
    for n, k, a in _general_square_masks(2000, 5501, range(1, 5), range(1, 4)):
        if (n, k) not in checks:
            checks[n, k] = (_alone(THEOREMS[theorem].predicate(n, k)), reference(n, k))
        check, ref = checks[n, k]
        got = check(a)
        assert got == ref(a), (n, k, a)
        outcomes.append(got is None)
    assert outcomes.count(False) > 500 and outcomes.count(True) > 100


def _first_reference_failure(theorem, reference, n, k):
    check = reference(n, k)
    objects = THEOREMS[theorem].source(n, k, DEFAULT_BUDGET)
    return next((i, c) for i, obj in enumerate(objects, start=1) if (c := check(obj)) is not None)


def test_atoms_fails_like_its_reference_when_the_last_atom_is_dropped(monkeypatch):
    pruned, full_loop = oracle._atoms_of, selection_meets
    monkeypatch.setattr(oracle, "_atoms_of", lambda n, a, full: pruned(n, a, full)[:-1])
    monkeypatch.setitem(globals(), "selection_meets", lambda n, a, full: full_loop(n, a, full)[:-1])
    first = _first_reference_failure("ATOMS", _atoms, 3, 2)
    verdict = brute_check("ATOMS", 3, 2)
    assert not verdict.passed
    assert (verdict.checked, verdict.counterexample) == first


def _fixer_comparing_rows(rows):
    """A ``_fixer`` that compares only the rows ``rows(n)`` of ``A v`` with
    ``v``: every other row of the matrix is the identity's, whose row of
    ``A v`` is ``v``'s own entry."""
    fixer = oracle._fixer

    def planted(n, w, vectors):
        fixes_some = fixer(n, w, vectors)
        lane = (1 << w) - 1
        kept = oracle._pack([lane if i in rows(n) else 0 for i in range(n) for _ in range(n)], w)
        identity = oracle._pack(oracle._identity_masks(n, lane), w)
        return lambda a: fixes_some(a & kept | identity & ~kept)

    return planted


def test_stoinv_fails_like_its_reference_when_only_the_first_row_is_compared(monkeypatch):
    def matvec_copying_all_but_the_first_row(n, a, v):
        return oracle._matvec(n, a, v)[:1] + tuple(v[1:])

    monkeypatch.setattr(oracle, "_fixer", _fixer_comparing_rows(lambda n: {0}))
    monkeypatch.setitem(globals(), "_matvec", matvec_copying_all_but_the_first_row)
    first = _first_reference_failure("STOINV", _stoinv, 3, 2)
    verdict = brute_check("STOINV", 3, 2)
    assert not verdict.passed
    assert (verdict.checked, verdict.counterexample) == first
    assert first[0] > 1


def test_stoinv_needs_no_last_row_on_stochastic_input(monkeypatch):
    """A b is stochastic when A and b are, so its last row is the complement
    of the others: comparing all rows but the last decides A b == b."""
    monkeypatch.setattr(oracle, "_fixer", _fixer_comparing_rows(lambda n: range(n - 1)))
    assert brute_check("STOINV", 3, 2).passed
    assert sample_check("STOINV", 4, 3, samples=200, seed=9).passed


def _merge_first_two_atoms(atoms_of):
    def merged(n, a, full):
        atoms = atoms_of(n, a, full)
        return [atoms[0] | atoms[1], *atoms[2:]] if len(atoms) > 1 else atoms

    return merged


@pytest.mark.parametrize("theorem,n,k,helper,plant,checked,counterexample", [
    pytest.param(
        "NORM", 2, 1, "_dot", lambda dot: lambda x, y, w, n, firsts: dot(x, y & ~(firsts << w * (n - 1)), w, n, firsts),
        3, "bilinearity fails at c=0, a=({},{}), b=({},*)", id="NORM",
    ),
    pytest.param(
        "DESCENT", 2, 2, "_inner", lambda inner: lambda a, b: inner(a[1:], b[1:]),
        1, "a=(*,{}) b=(*,{}): orthogonal=True, witness=False", id="DESCENT-witness",
    ),
    pytest.param(
        "DESCENT", 2, 2, "_inner", lambda inner: lambda a, b: inner(a[:-1], b[:-1]),
        8, "a=({1},{2}) b=({},*): constructed c not stochastic", id="DESCENT-construction",
    ),
    pytest.param(
        "DESCENT", 3, 2, "_inner", lambda inner: lambda a, b: inner(a, b) | b[-1],
        9, "a=(*,{},{}) b=({},{},*): orthogonal=False, witness=True", id="DESCENT-search-first",
    ),
    pytest.param(
        "DESCENT", 3, 2, "_inner", lambda inner: lambda a, b: inner(a, b) | (a[-2] & b[-1]),
        15, "a=({1},{2},{}) b=({},{1},{2}): orthogonal=False, witness=True", id="DESCENT-search-last",
    ),
    pytest.param(
        "DUALITY", 2, 1, "_is_generating", lambda gen: lambda vectors, n, k: False,
        2, "['({},*)', '(*,{})']: generating=False, dual orthonormal=True", id="DUALITY",
    ),
    pytest.param(
        "BASIS_UPBOUND", 2, 2, "_inner", lambda inner: lambda a, b: 0,
        3, "3 orthonormal stochastic vectors in dimension 2: ['(*,{})', '({1},{2})', '({2},{1})']",
        id="BASIS_UPBOUND",
    ),
    pytest.param(
        "DIMENSION", 2, 1, "_is_generating", lambda gen: lambda vectors, n, k: True,
        1, "basis of cardinality 1 != 2: ['({},*)']", id="DIMENSION",
    ),
    pytest.param(
        "DIMCOR2", 2, 1, "_is_generating", lambda gen: lambda vectors, n, k: False,
        2, "cardinality 2 vs generating mismatch: ['({},*)', '(*,{})']", id="DIMCOR2",
    ),
    pytest.param(
        "INVERSE", 2, 1, "_matvec", lambda matvec: lambda n, a, v: matvec(n, a, (*v[:-1], 0)),
        7, "[{} *; * {}]: bijective=False unitary=True cols=True rows=True", id="INVERSE",
    ),
    pytest.param(
        "ATOMS", 2, 2, "_atoms_of", _merge_first_two_atoms,
        2, "entry (0,1) is not the join of its atoms in [* {1}; {} {2}]", id="ATOMS-rebuild",
    ),
])
def test_planted_falsehood_gives_the_first_counterexample(monkeypatch, theorem, n, k, helper, plant, checked, counterexample):
    """Each counterexample return fires on the first object a wrong helper
    makes false: an inner product blind to the last slot (of every block of
    a chunk), a generating test that
    always answers the same, a product that drops the last column, atoms
    with two merged into one.

    The two DESCENT-search inner products also meet b's last entry (with
    everything, or with a's second-last entry), so pairs that are in fact
    orthogonal reach the non-orthogonal search, which must find their
    witness: the first and the last of the four short stochastic vectors
    respectively. A search that drops either of them moves the first
    counterexample."""
    monkeypatch.setattr(oracle, helper, plant(getattr(oracle, helper)))
    verdict = brute_check(theorem, n, k)
    assert (verdict.passed, verdict.checked, verdict.counterexample) == (False, checked, counterexample)


def test_invariance_helper_matches_the_product():
    rng = random.Random(6607)
    seen = set()
    for n, k, a in _general_square_masks(3000, 6607, range(1, 5), range(1, 4)):
        v = tuple(rng.getrandbits(k) for _ in range(n))
        if rng.randrange(2):
            v = oracle._matvec(n, a, v)
        fixed = oracle._fixer(n, k, [v])(oracle._pack(a, k))
        assert fixed == (oracle._matvec(n, a, v) == v)
        seen.add(fixed)
    assert seen == {True, False}


def _descent_pairs():
    """(n, k, a, b): every stochastic pair at (3,2) and (4,2), then 2,000
    sampled at (5,4)."""
    for n, k in ((3, 2), (4, 2)):
        for a, b in oracle._stochastic_pairs(n, k, DEFAULT_BUDGET):
            yield n, k, a, b
    rng = random.Random(8123)
    for _ in range(2000):
        yield (5, 4, *oracle._sample_stochastic_pair(rng, 4, 5))


def test_one_word_witness_search_is_the_any_loop():
    searches = {}
    seen = set()
    for n, k, a, b in _descent_pairs():
        if (n, k) not in searches:
            short = [oracle._pack(c, k) for c in _iter_stochastic_masks(n - 1, k)]
            searches[n, k] = short, oracle._lane_search(short, k * (n - 1))
        short, search = searches[n, k]
        head = oracle._pack(b[: n - 1], k)
        outside_a = oracle._pack(a[: n - 1], k) ^ oracle._pack(((1 << k) - 1,) * (n - 1), k)
        found = search(outside_a, head)
        assert found == any(c & outside_a == head for c in short), (n, k, a, b)
        seen.add(found)
    assert seen == {True, False}


# --- the oracle stays independent of what it checks ---


def _boolmat_imports(module):
    """The ``boolmat`` modules that ``module`` imports from, by name."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "boolmat"}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "boolmat"):
            found.add(node.module or "")
    return found


def test_oracle_imports_nothing_it_checks():
    """No kernel, bvec, bmatrix, chains or rand import. Besides ``algebra``
    it imports only ``_draw``, which imports nothing of ``boolmat``: the
    draws ``rand`` shares with the oracle stay stdlib. Neither module reads
    a private attribute (``Algebra._full``, ``_index``, ``_mask_of``, ...),
    and the oracle builds an ``Algebra`` only in the cached
    ``_numbered_algebra``, which only its counterexample formatters call.
    Every sampler and every ``_draw`` draw takes the atom count as an int."""
    assert _boolmat_imports(oracle) == {"_draw", "algebra"}
    assert _boolmat_imports(_draw) == set()
    tree = ast.parse(inspect.getsource(oracle))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    for module, name in imported:
        parts = set(module.split(".")) | {name}
        assert not parts & {"_kernel", "bvec", "bmatrix", "chains", "rand", "_atom_slots"}, (module, name)
    for module in (oracle, _draw):
        nodes = ast.walk(ast.parse(inspect.getsource(module)))
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert not {a for a in attributes if a.startswith("_") and not a.endswith("__")}, module.__name__
    # Each top-level statement's name (None for a plain statement) and every name it reads.
    names = [(getattr(node, "name", None), {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}) for node in tree.body]
    assert {owner for owner, read in names if "Algebra" in read} == {"_numbered_algebra"}
    assert {owner for owner, read in names if "_numbered_algebra" in read} <= {"_fmt_vec", "_fmt_family", "_fmt_mat"}
    assert oracle._numbered_algebra(3) is oracle._numbered_algebra(3)
    rng = random.Random(5)
    for k in (1, 3):
        for entry in THEOREMS.values():
            if entry.sampler is not None:
                entry.sampler(rng, k, 3)
        draws = [_draw.stochastic_matrix(rng, k, 3), _draw.unitary(rng, k, 3), _draw.symmetric_stochastic(rng, k, 3)]
        for masks in draws + list(_draw.orthonormal_columns(rng, k, 3, 2)):
            assert _or_all(masks) == (1 << k) - 1, masks
