"""Acceptance suite: one test per release criterion, one printed line each.

Every expected value is exact (bit-level equality); the only tolerances are
the wall-clock limits stated alongside the criteria.
"""

import random
import time
from itertools import product

import pytest

from boolmat import (
    BMatrix,
    BVec,
    apply,
    descent,
    extend_to_basis,
    find_invariant_stochastic,
    identity,
    is_basis,
    is_orthonormal_set,
    lcm_upto,
    lift,
    make_algebra,
    mul,
    power,
    power_profile,
    reflection_from,
    relation_report,
    trace,
    verify_power_theorem,
)
from boolmat import rand as br
from boolmat.bmatrix import is_stochastic_matrix
from boolmat.cli import fixture_path
from boolmat.model import parse_model
from boolmat.oracle import brute_check


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def load_fixture(name: str):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return parse_model(fh.read())


def stochastic_vectors(alg, n):
    """Every stochastic vector of length n: each atom in exactly one slot."""
    out = []
    for slots in product(range(n), repeat=alg.atom_count):
        masks = [0] * n
        for bit, slot in enumerate(slots):
            masks[slot] |= 1 << bit
        out.append(BVec(tuple(masks), alg))
    assert len(out) == n**alg.atom_count
    return out


def stochastic_2x2(alg):
    """Every 2x2 stochastic matrix, columns drawn from the stochastic vectors."""
    columns = stochastic_vectors(alg, 2)
    return [
        BMatrix(2, 2, (c1.masks[0], c2.masks[0], c1.masks[1], c2.masks[1]), alg)
        for c1 in columns
        for c2 in columns
    ]


# --- shared randomized sweeps (criteria 2, 3 and 8 see the same matrices) ---


@pytest.fixture(scope="module")
def sweep_2x2_k3():
    mats = stochastic_2x2(make_algebra(["1", "2", "3"]))
    assert len(mats) == 64
    return mats


@pytest.fixture(scope="module")
def sweep_2x2_k6():
    mats = stochastic_2x2(make_algebra([str(i) for i in range(1, 7)]))
    assert len(mats) == 4096
    return mats


@pytest.fixture(scope="module")
def sweep_3x3_random():
    rng = random.Random(0xACCE)
    mats = []
    for _ in range(1000):
        k = rng.randrange(1, 5)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        mats.append(br.random_stochastic_matrix(rng, alg, 3))
    return mats


@pytest.fixture(scope="module")
def sweep_3x3_unitaries():
    rng = random.Random(0xACCE + 1)
    mats = []
    for _ in range(500):
        k = rng.randrange(1, 5)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        mats.append(br.random_unitary(rng, alg, 3))
    return mats


@pytest.fixture(scope="module")
def sweep_general():
    rng = random.Random(0xACCE + 2)
    mats = []
    for n in (4, 5):
        for _ in range(200):
            k = rng.randrange(1, 6)
            alg = make_algebra([str(i) for i in range(1, k + 1)])
            mats.append(br.random_stochastic_matrix(rng, alg, n))
    return mats


def test_criterion_1_worked_example_bit_exact():
    start = time.perf_counter()
    model = load_fixture("paper_s5.bm")
    a = model.matrix("A")
    b_vec = model.vector("b")
    assert apply(a, b_vec) == b_vec
    refl = reflection_from(b_vec)
    assert refl == model.matrix("B")
    conjugated = mul(refl, mul(a, refl))
    assert conjugated == model.matrix("BAB")
    core = BMatrix(
        4, 4,
        tuple(conjugated.masks[i * 5 + j] for i in range(1, 5) for j in range(1, 5)),
        a.algebra,
    )
    expected_trace = a.algebra.parse("{4,5}")
    assert trace(core) == expected_trace
    assert trace(core) != a.algebra.one
    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"5x5 fixture reproduced bit-exactly in {elapsed:.3f}s (< 1s)")


def test_criterion_2_power_theorem_exhaustive_small(
    sweep_2x2_k3, sweep_2x2_k6, sweep_3x3_random, sweep_3x3_unitaries
):
    start = time.perf_counter()
    failures = 0
    for a in sweep_2x2_k3:
        assert is_stochastic_matrix(a)
        if power(a, 3) != a:
            failures += 1
    for a in sweep_2x2_k6:
        assert is_stochastic_matrix(a)
        if power(a, 3) != a:
            failures += 1
    for a in sweep_3x3_random:
        if power(a, 8) != power(a, 2):
            failures += 1
    for u in sweep_3x3_unitaries:
        if power(u, 6) != identity(u.algebra, 3):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        failures == 0 and elapsed < 10.0,
        f"A^3=A on all 64 (k=3) and all 4096 (k=6) 2x2 stochastic, A^8=A^2 on 1000 "
        f"random 3x3, A^6=I on 500 random unitaries; {failures} failures, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_power_theorem_general(sweep_general):
    failures = 0
    for a in sweep_general:
        n = a.rows
        if not verify_power_theorem(a):
            failures += 1
        expected_exp = {4: (15, 3), 5: (64, 4)}[n]
        if power(a, expected_exp[0]) != power(a, expected_exp[1]):
            failures += 1
    report(
        3,
        failures == 0,
        f"A^(lcm+n-1)=A^(n-1) (A^15=A^3, A^64=A^4) on 200 random stochastic "
        f"matrices per n in {{4,5}}; {failures} failures",
    )


def test_criterion_4_dimension_exhaustive():
    problems = []
    for n, k in ((2, 2), (3, 2), (2, 3)):
        verdict = brute_check("DIMENSION", n, k)
        if not verdict.passed:
            problems.append(str(verdict))
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        stoch = stochastic_vectors(alg, n)
        for combo in product(stoch, repeat=n):
            family = list(combo)
            if is_orthonormal_set(family) and len(set(v.masks for v in family)) == n:
                if not is_basis(family):
                    problems.append(f"stochastic orthonormal {family} not a basis")
    report(
        4,
        not problems,
        "no orthonormal basis of cardinality != n at (2,2),(3,2),(2,3); every "
        "stochastic orthonormal n-set passes is_basis" + ("" if not problems else f": {problems[:1]}"),
    )


def test_criterion_5_invariant_exhaustive():
    alg = make_algebra(["1", "2"])
    stoch_vecs = [
        BVec(m, alg) for m in product(range(4), repeat=3) if BVec(m, alg).is_stochastic()
    ]
    count = 0
    bad = 0
    for columns in product(stoch_vecs, repeat=3):
        a = BMatrix.from_columns(list(columns))
        count += 1
        found = find_invariant_stochastic([a])
        exists = any(apply(a, s) == s for s in stoch_vecs)
        if (found is not None) != exists or (found is not None) != (trace(a) == alg.one):
            bad += 1
        if found is not None and apply(a, found) != found:
            bad += 1
    report(
        5,
        count == 729 and bad == 0,
        f"invariant existence <=> trace=1 and A.b=b on all {count} stochastic 3x3 over k=2",
    )


def test_criterion_6_odd_dimension_invariants():
    rng = random.Random(0xACCE + 6)
    bad = 0
    for n in (3, 5):
        for _ in range(500):
            k = rng.randrange(1, 5)
            alg = make_algebra([str(i) for i in range(1, k + 1)])
            a = br.random_symmetric_stochastic(rng, alg, n)
            if trace(a) != alg.one:
                bad += 1
            if find_invariant_stochastic([a]) is None:
                bad += 1
    alg2 = make_algebra(["1", "2"])
    swap = BMatrix(2, 2, (0, alg2._full, alg2._full, 0), alg2)
    ok_counterexample = (
        is_stochastic_matrix(swap)
        and trace(swap).is_zero
        and find_invariant_stochastic([swap]) is None
    )
    report(
        6,
        bad == 0 and ok_counterexample,
        f"1000 random symmetric stochastic (n=3,5) all have trace one and an "
        f"invariant; even swap matrix has trace {{}} and none; {bad} failures",
    )


def test_criterion_7_basis_extension():
    rng = random.Random(0xACCE + 7)
    bad = 0
    for _ in range(500):
        n = rng.randrange(2, 6)
        m = rng.randrange(1, n)
        k = rng.randrange(1, 5)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        family = br.random_stochastic_orthonormal_set(rng, alg, n, m)
        basis = extend_to_basis(family)
        if basis[:m] != family or len(basis) != n or not is_orthonormal_set(basis):
            bad += 1
        if not is_basis(basis):
            bad += 1
    report(
        7,
        bad == 0,
        f"500 random stochastic orthonormal sets (m<n<=5, k<=4) all extend to "
        f"orthonormal bases keeping the input prefix; {bad} failures",
    )


def test_criterion_8_period_bounds_and_reach_report(
    sweep_2x2_k3, sweep_2x2_k6, sweep_3x3_random, sweep_3x3_unitaries, sweep_general
):
    violations = 0
    for a in (*sweep_2x2_k3, *sweep_2x2_k6, *sweep_3x3_random, *sweep_3x3_unitaries, *sweep_general):
        profile = power_profile(a)
        n = a.rows
        if profile.exponent > n - 1:
            violations += 1
        if lcm_upto(n) % profile.period != 0:
            violations += 1

    model = load_fixture("s6_final.bm")
    a = model.matrix("A")
    profile = power_profile(a)
    fixture_ok = profile.exponent == 1 and profile.period == 2
    rep = relation_report(a)
    reach_ok = (
        (1, 2) in rep.arrows
        and (2, 3) in rep.arrows
        and (1, 3) not in rep.arrows
        and not rep.transitive
        and rep.transitivity_witness == (1, 2, 3)
    )
    report(
        8,
        violations == 0 and fixture_ok and reach_ok,
        f"e<=n-1 and p | lcm(1..n) over all {64 + 4096 + 1000 + 500 + 400} sweep matrices "
        f"({violations} violations); chain fixture gives e=1, p=2 with 1->2, 2->3, not 1->3",
    )


def test_criterion_9_descent_lift_roundtrip():
    rng = random.Random(0xACCE + 9)
    bad = 0
    for _ in range(1000):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, 6)
        alg = make_algebra([str(i) for i in range(1, k + 1)])
        a, b = br.random_orthogonal_stochastic_pair(rng, alg, n)
        c = descent(a, b)
        if not c.is_stochastic():
            bad += 1
        if lift(a, c) != b:
            bad += 1
    report(
        9,
        bad == 0,
        f"lift(a, descent(a,b)) == b with stochastic descent on 1000 random "
        f"orthogonal stochastic pairs (n<=6, k<=5); {bad} failures",
    )


def test_criterion_10_performance_smoke():
    alg = make_algebra([str(i) for i in range(1, 65)])
    rng = random.Random(0xACCE + 10)
    a = br.random_stochastic_matrix(rng, alg, 8)
    b = br.random_stochastic_matrix(rng, alg, 8)
    start = time.perf_counter()
    acc = a
    for _ in range(100_000):
        acc = mul(acc, b)
    elapsed = time.perf_counter() - start
    assert is_stochastic_matrix(acc)
    report(
        10,
        elapsed < 2.0,
        f"100000 products of 8x8 matrices over 64 atoms in {elapsed:.3f}s (< 2s)",
    )
