import random
from itertools import product

import pytest

from boolmat import (
    BMatrix,
    BVec,
    PreconditionError,
    ShapeError,
    apply,
    delta,
    identity,
    is_stochastic_matrix,
    lcm_upto,
    make_algebra,
    matrix_atoms,
    power,
    power_profile,
    reachable,
    relation_report,
    scalar_mul,
    verify_power_theorem,
)
from boolmat import _kernel, chains
from boolmat import rand as br
from boolmat.chains import _transitivity_witness
from boolmat.oracle import (
    _brute_period_exponent,
    _iter_stochastic_matrix_masks,
    _matvec,
)

from conftest import mat, selection_meets, vec


def _reachable_sites_by_iteration(n, a, full, from_site):
    """Sites (1-based) that ever light up when ``a`` is applied again and
    again to ``full`` at ``from_site``, collected until the state cycles.

    The iteration reference for :func:`boolmat.chains.reachable`.
    """
    cur = tuple(full if i == from_site - 1 else 0 for i in range(n))
    seen = set()
    hit = set()
    while True:
        cur = _matvec(n, a, cur)
        if cur in seen:
            return hit
        seen.add(cur)
        hit.update(i + 1 for i, m in enumerate(cur) if m)


@pytest.fixture
def final_example(p3):
    return mat(p3, """
        {2,3} {1} {}
        {1}   {2} {1}
        {}    {3} {2,3}
    """)


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(3) == 6
    assert lcm_upto(4) == 12
    assert lcm_upto(5) == 60
    with pytest.raises(PreconditionError):
        lcm_upto(0)


# --- matrix atoms ---


def test_atoms_of_identity(p2):
    atoms = matrix_atoms(identity(p2, 2))
    assert atoms.atoms == [p2.one]
    assert atoms.selectors == ((0, 1),)


def test_atoms_of_final_example(final_example, p3):
    atoms = matrix_atoms(final_example)
    assert sorted(str(a) for a in atoms.atoms) == ["{1}", "{2}", "{3}"]


def test_atoms_reject_columns_outside_the_matrix(final_example):
    atoms = matrix_atoms(final_example)
    assert atoms.selectors == ((0, 1, 2), (0, 2, 2), (1, 0, 1))
    assert [atoms.reached(j) for j in range(3)] == [{0, 1}, {0, 1, 2}, {0, 1, 2}]
    for bad in (-1, 3):
        with pytest.raises(ShapeError, match=f"column {bad} out of range"):
            atoms.reached(bad)


def test_atoms_reject_non_stochastic(p2):
    bad = mat(p2, """
        {1} {}
        {}  {2}
    """)
    with pytest.raises(PreconditionError):
        matrix_atoms(bad)


def test_atoms_partition_and_rebuild_random():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        atoms = matrix_atoms(a)
        joined = 0
        for i, w in enumerate(atoms.atom_masks):
            assert not any(w & other for other in atoms.atom_masks[:i])
            joined |= w
        assert joined == alg._full
        for i in range(n):
            for j in range(n):
                entry = a.masks[i * n + j]
                below = [w for w in atoms.atom_masks if w & ~entry == 0]
                acc = 0
                for w in below:
                    acc |= w
                assert acc == entry


def _atoms_as_selections(a):
    atoms = matrix_atoms(a)
    return list(zip(atoms.atom_masks, atoms.selectors))


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2)])
def test_atoms_match_brute_force_on_every_stochastic_matrix(n, k):
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    count = 0
    for masks in _iter_stochastic_matrix_masks(n, k):
        assert _atoms_as_selections(BMatrix(n, n, masks, alg)) == selection_meets(n, masks, alg._full)
        count += 1
    assert count == n ** (n * k)


@pytest.mark.parametrize("k", [1, 8, 65])
def test_atoms_match_brute_force_on_seeded_matrices(k):
    rng = random.Random(3000 + k)
    alg = make_algebra([str(i) for i in range(1, k + 1)])
    empty = BMatrix(0, 0, (), alg)
    assert _atoms_as_selections(empty) == selection_meets(0, (), alg._full) == [(alg._full, ())]
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = br.random_stochastic_matrix(rng, alg, n)
        assert _atoms_as_selections(a) == selection_meets(n, a.masks, alg._full)


def test_atom_action_drives_dynamics():
    rng = random.Random(103)
    for _ in range(50):
        n = rng.randrange(2, 6)
        alg = make_algebra([str(i) for i in range(1, rng.randrange(1, 5) + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        atoms = matrix_atoms(a)
        for idx, w in enumerate(atoms.atoms):
            for j in range(n):
                target = atoms.selectors[idx][j]
                assert w <= a[target, j]
                moved = apply(a, scalar_mul(w, delta(alg, n, j)))
                assert moved == scalar_mul(w, delta(alg, n, target))


# --- power profile ---


def test_profile_of_identity(p3):
    profile = power_profile(identity(p3, 3))
    assert profile.exponent == 1 and profile.period == 1
    assert len(profile.powers) == 1


def test_profile_of_final_example(final_example):
    profile = power_profile(final_example)
    assert profile.exponent == 1 and profile.period == 2
    assert profile.powers[0] == final_example
    assert profile.power_at(5) == final_example
    assert profile.power_at(4) == profile.powers[1]
    with pytest.raises(PreconditionError):
        profile.power_at(0)


def test_profile_consistent_with_eighth_power():
    rng = random.Random(107)
    alg = make_algebra(["1", "2", "3"])
    for _ in range(100):
        a = br.random_stochastic_matrix(rng, alg, 3)
        assert power(a, 8) == power(a, 2)


def test_profile_matches_definition_search():
    # first-repeat detection must agree with the smallest-(p, e) definition
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 4)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        profile = power_profile(a)
        e, p = _brute_period_exponent(n, a.masks)
        assert (profile.exponent, profile.period) == (e, p)


def test_profile_of_arbitrary_matrices_bounded():
    rng = random.Random(113)
    alg = make_algebra(["1", "2"])
    for _ in range(100):
        n = rng.randrange(1, 5)
        a = BMatrix(n, n, tuple(rng.randrange(4) for _ in range(n * n)), alg)
        profile = power_profile(a)
        assert profile.exponent <= (n - 1) ** 2 + 1


def test_profile_stochastic_bounds_randomized():
    rng = random.Random(127)
    for _ in range(100):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 6)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        profile = power_profile(a)
        assert profile.exponent <= n - 1
        assert lcm_upto(n) % profile.period == 0


# --- power theorem ---


def test_power_theorem_two_by_two_exhaustive():
    alg = make_algebra(["1", "2"])
    stoch_vecs = [
        BVec(m, alg) for m in product(range(4), repeat=2) if BVec(m, alg).is_stochastic()
    ]
    for c1 in stoch_vecs:
        for c2 in stoch_vecs:
            a = BMatrix.from_columns([c1, c2])
            assert verify_power_theorem(a)
            assert power(a, 3) == a


def test_power_theorem_five_by_five_random(p5):
    rng = random.Random(131)
    for _ in range(20):
        a = br.random_stochastic_matrix(rng, p5, 5)
        assert verify_power_theorem(a)
        assert power(a, 64) == power(a, 4)


def test_unitary_power_corollary():
    rng = random.Random(137)
    for n in (2, 3, 4):
        alg = make_algebra(["1", "2", "3"])
        for _ in range(30):
            u = br.random_unitary(rng, alg, n)
            assert power(u, lcm_upto(n)) == identity(alg, n)


def test_power_theorem_rejects_non_stochastic(p2):
    bad = mat(p2, """
        {1} {}
        {}  {2}
    """)
    with pytest.raises(PreconditionError):
        verify_power_theorem(bad)


def test_power_theorem_makes_logarithmically_many_products(monkeypatch):
    rng = random.Random(141)
    alg = make_algebra(["1", "2", "3"])
    # 12 sites; the cycle types give period lcm(5, 7, 8, 9) = 2520
    long_chain = _from_functions(alg, [_cycles(rng, 12, t) for t in [(5, 7), (8, 4), (9, 3)]])
    assert power_profile(long_chain).period == 2520
    samples = [br.random_stochastic_matrix(rng, alg, 12), long_chain]
    bound = 2 * (lcm_upto(12) + 11).bit_length()
    calls = []
    real = _kernel.matmul
    monkeypatch.setattr(_kernel, "matmul", lambda *args: calls.append(args) or real(*args))
    for a in samples:
        calls.clear()
        assert verify_power_theorem(a)
        assert 0 < len(calls) <= bound


@pytest.mark.parametrize("bad", [2.0, "2", None])
def test_atom_powers_reject_exponents_that_are_not_ints(final_example, bad):
    with pytest.raises(PreconditionError, match="not an int"):
        matrix_atoms(final_example).power(bad)
    with pytest.raises(PreconditionError, match="not an int"):
        power_profile(final_example).power_at(bad)


# --- reachability ---


def test_final_example_reachability(final_example):
    a = final_example
    assert reachable(a, 1, 2)
    assert reachable(a, 2, 3)
    assert not reachable(a, 1, 3)
    assert reachable(a, 3, 1)
    assert reachable(a, 2, 1)
    assert reachable(a, 3, 2)


def test_identity_reachability(p3):
    ident = identity(p3, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert reachable(ident, i, j) == (i == j)


def test_reachable_site_range(final_example):
    with pytest.raises(PreconditionError):
        reachable(final_example, 0, 1)
    with pytest.raises(PreconditionError):
        reachable(final_example, 1, 4)


def test_relation_report_of_final_example(final_example):
    report = relation_report(final_example)
    assert report.site_count == 3
    assert (1, 2) in report.arrows and (2, 3) in report.arrows
    assert (1, 3) not in report.arrows
    assert (3, 1) in report.arrows
    assert report.mutual == frozenset({(1, 2), (2, 3)})
    assert not report.transitive
    assert report.transitivity_witness == (1, 2, 3)
    assert not report.equivalence
    assert "1<->2 and 2<->3 but not 1<->3" in report.equivalence_witness


def test_relation_report_of_identity(p3):
    report = relation_report(identity(p3, 3))
    assert report.arrows == frozenset({(1, 1), (2, 2), (3, 3)})
    assert report.transitive and report.equivalence


def test_reachability_cross_check_random():
    rng = random.Random(139)
    for _ in range(60):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 5)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a = br.random_stochastic_matrix(rng, alg, n)
        for j in range(1, n + 1):
            via_iteration = _reachable_sites_by_iteration(n, a.masks, alg._full, j)
            via_atoms = {i for i in range(1, n + 1) if reachable(a, j, i)}
            assert via_iteration == via_atoms


# --- the atom route against the product and iteration references ---


def _from_functions(alg, functions):
    """Stochastic matrix whose i-th atom moves column j to row functions[i][j]."""
    n = len(functions[0])
    masks = [0] * (n * n)
    for bit, f in enumerate(functions):
        for j, i in enumerate(f):
            masks[i * n + j] |= 1 << bit
    return BMatrix(n, n, tuple(masks), alg)


def _cycles(rng, n, lengths):
    """A permutation of range(n) with the given cycle lengths, summing to n."""
    sites = list(range(n))
    rng.shuffle(sites)
    perm = [0] * n
    start = 0
    for length in lengths:
        cyc = sites[start : start + length]
        for i, s in enumerate(cyc):
            perm[s] = cyc[(i + 1) % length]
        start += length
    return perm


def _assert_matches_references(a):
    n = a.rows
    profile = power_profile(a)
    e, p = profile.exponent, profile.period
    assert (e, p) == _brute_period_exponent(n, a.masks)
    assert len(profile.powers) == e + p - 1
    for s in range(1, e + p + 3):
        assert profile.power_at(s) == power(a, s)
    for far in (10**6 + 7, 2**99 + 12345, 10**30, 10**30 + 1):
        assert profile.power_at(far) == power(a, far)
    report = relation_report(a)
    assert (report.exponent, report.period) == (e, p)
    for j in range(1, n + 1):
        expected = _reachable_sites_by_iteration(n, a.masks, a.algebra._full, j)
        assert {i for (x, i) in report.arrows if x == j} == expected
        assert {i for i in range(1, n + 1) if reachable(a, j, i)} == expected


def test_atom_route_random_stochastic_differential():
    rng = random.Random(149)
    algebras = [make_algebra([str(i) for i in range(1, k + 1)]) for k in range(1, 7)]
    for _ in range(500):
        n = rng.randrange(1, 8)
        a = br.random_stochastic_matrix(rng, rng.choice(algebras), n)
        _assert_matches_references(a)


@pytest.mark.parametrize(
    "types,period",
    [
        (((2, 3),), 6),
        (((3, 4),), 12),
        (((2, 5),), 10),
        (((7,),), 7),
        (((1, 2, 4),), 4),
        (((3, 4), (2, 5)), 60),
        (((7,), (3, 4)), 84),
        (((7,), (5, 2), (3, 4)), 420),
        (((1, 1, 1, 1, 1, 1),), 1),
    ],
)
def test_atom_route_permutation_chains_with_known_period(types, period):
    rng = random.Random(151)
    n = sum(types[0])
    alg = make_algebra([str(i) for i in range(1, len(types) + 1)])
    for _ in range(3):
        a = _from_functions(alg, [_cycles(rng, n, t) for t in types])
        profile = power_profile(a)
        assert (profile.exponent, profile.period) == (1, period)
        _assert_matches_references(a)


def test_non_stochastic_keeps_the_product_loop():
    rng = random.Random(157)
    alg = make_algebra(["1", "2", "3"])
    for _ in range(80):
        n = rng.randrange(1, 5)
        a = BMatrix(n, n, tuple(rng.randrange(8) for _ in range(n * n)), alg)
        if is_stochastic_matrix(a):
            continue
        profile = power_profile(a)
        assert isinstance(profile.powers, tuple)
        assert (profile.exponent, profile.period) == _brute_period_exponent(n, a.masks)
        assert list(profile.powers) == [power(a, s) for s in range(1, len(profile.powers) + 1)]
        report = relation_report(a)
        lit = {(j + 1, i + 1) for m in profile.powers for i in range(n) for j in range(n) if m.masks[i * n + j]}
        assert report.arrows == lit


def test_empty_matrix_has_no_power_profile(p2):
    empty = BMatrix(0, 0, (), p2)
    with pytest.raises(PreconditionError):
        power_profile(empty)
    with pytest.raises(PreconditionError):
        relation_report(empty)


def test_lazy_powers_index_like_a_tuple(final_example):
    powers = power_profile(final_example).powers
    assert list(powers) == [final_example, power(final_example, 2)]
    assert powers[-1] == powers[1]
    with pytest.raises(IndexError):
        powers[2]
    with pytest.raises(IndexError):
        powers[-3]


def test_transitivity_witness_is_the_first_in_sorted_order():
    rng = random.Random(163)
    for _ in range(300):
        n = rng.randrange(1, 13)
        relation = {(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if rng.random() < 0.4}
        expected = None
        for (x, y) in sorted(relation):
            for (y2, z) in sorted(relation):
                if y2 == y and (x, z) not in relation:
                    expected = (x, y, z)
                    break
            if expected:
                break
        succ = {x: {y for (x2, y) in relation if x2 == x} for x in range(1, n + 1)}
        assert _transitivity_witness(succ) == expected


def test_stochastic_dynamics_make_no_matrix_product(monkeypatch, final_example):
    def forbidden(*args, **kwargs):
        raise AssertionError("a matrix product was computed")

    monkeypatch.setattr(chains, "mul", forbidden)
    monkeypatch.setattr(_kernel, "matmul", forbidden)

    rng = random.Random(167)
    alg = make_algebra([str(i) for i in range(1, 6)])
    # 16 sites; the cycle types give period lcm(16, 9, 7, 11, 5, 13, 3) = 720720
    types = [(16,), (9, 7), (11, 5), (13, 3), (1,) * 16]
    long_chain = _from_functions(alg, [_cycles(rng, 16, t) for t in types])
    samples = [final_example, long_chain] + [br.random_stochastic_matrix(rng, alg, 6) for _ in range(5)]
    for a in samples:
        profile = power_profile(a)
        report = relation_report(a)
        assert report.period == profile.period
        assert reachable(a, 1, 1) == ((1, 1) in report.arrows)

    profile = power_profile(long_chain)
    assert profile.exponent == 1
    assert profile.period == 720720
    assert len(profile.powers) == 720720
    assert profile.power_at(720721) == long_chain
    report = relation_report(long_chain)
    assert report.arrows == frozenset((i, j) for i in range(1, 17) for j in range(1, 17))
    assert report.transitive and report.equivalence


def test_one_column_scan_decides_stochasticity_and_reads_the_atoms(monkeypatch):
    rng = random.Random(173)
    alg = make_algebra(["1", "2", "3"])
    samples = []
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = br.random_stochastic_matrix(rng, alg, n)
        masks = list(a.masks)
        if rng.randrange(3):  # drop an atom from, or add one to, one entry
            masks[rng.randrange(n * n)] ^= 1 << rng.randrange(3)
        samples.append(BMatrix(n, n, tuple(masks), alg))
    verdicts = [is_stochastic_matrix(a) for a in samples]
    assert set(verdicts) == {True, False}

    def forbidden(a):
        raise AssertionError("a separate stochastic check ran")

    scans = [0]
    atom_slots = chains._atom_slots

    def counted(columns, k):
        scans[0] += 1
        return atom_slots(columns, k)

    monkeypatch.setattr(chains, "is_stochastic_matrix", forbidden)
    monkeypatch.setattr(chains, "_atom_slots", counted)
    for a, stochastic in zip(samples, verdicts):
        for call in (matrix_atoms, power_profile, relation_report, lambda a: reachable(a, 1, a.rows)):
            scans[0] = 0
            if stochastic or call in (power_profile, relation_report):
                call(a)
            else:
                with pytest.raises(PreconditionError, match="stochastic matrices"):
                    call(a)
            assert scans[0] == 1
    with pytest.raises(ShapeError):
        matrix_atoms(BMatrix(1, 2, (7, 7), alg))
