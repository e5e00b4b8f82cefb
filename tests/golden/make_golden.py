"""Write the golden records: what every model command prints on the
fixtures (``cli_outputs.json``), what ``verify`` prints
(``verify_outputs.json``), what the two atom-slot constructions,
``extend_to_basis`` and ``matrix_atoms``, return on seeded stochastic input
(``construct_outputs.json``), what the two reductions,
``reduce_unitary`` and ``reduce_by_orthogonal_set``, return on seeded
unitary input (``reduce_outputs.json``), and every counterexample each
oracle predicate reports on seeded objects outside its theorem's class
(``counterexample_outputs.json``), at two small scales for every theorem and
in two-byte lanes for NORM and DESCENT.

Run from the root of a checkout whose output is the reference::

    PYTHONPATH=src python tests/golden/make_golden.py

Each record holds one in-process ``boolmat.cli.main`` call with its exit
code, stdout and stderr. Model records name command, fixture and mode;
verify records hold the argv itself. Construction and reduction records
hold input and output as masks; counterexample records hold the objects as
masks, the wrong helper a run substitutes (if any), and every ``(index,
text)`` the predicate reports. ``tests/test_golden.py`` replays the
records, so a change that alters one output byte fails there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from contextlib import contextmanager

from boolmat import (
    BMatrix,
    BVec,
    extend_to_basis,
    make_algebra,
    matrix_atoms,
    reduce_by_orthogonal_set,
    reduce_unitary,
)
from boolmat import oracle
from boolmat.cli import fixture_path, main
from boolmat.oracle import THEOREMS
from boolmat.rand import random_stochastic_matrix, random_stochastic_orthonormal_set

COMMANDS = ("check", "invariant", "reduce", "powers", "period", "atoms", "reach", "basis-extend")
FIXTURES = ("paper_s5.bm", "s6_final.bm")
# Named picks that reach output the all-matrices runs do not: the whole s5
# family is not jointly reducible, its matrix A alone is.
NAMED = (("reduce", "paper_s5.bm", ("A",)), ("invariant", "paper_s5.bm", ("A",)))
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_outputs.json")
VERIFY_GOLDEN = os.path.join(HERE, "verify_outputs.json")
CONSTRUCT_GOLDEN = os.path.join(HERE, "construct_outputs.json")
REDUCE_GOLDEN = os.path.join(HERE, "reduce_outputs.json")
TEXT_GOLDEN = os.path.join(HERE, "counterexample_outputs.json")

# Every theorem runs exhaustively at (n, k) = (3, 2): odd, at least two and
# each run under a second. INVERSE is refused there (16,777,216 matrices
# against the default budget), so it also runs at (2, 2).
EXHAUSTIVE_SCALE = (3, 2)
EXTRA_EXHAUSTIVE = (("INVERSE", 2, 2), ("UNITREDUCE", 2, 4), ("UNITREDUCE", 2, 5))
# One seeded sampled scale per theorem with a sampler: (n, k, samples).
SAMPLED_SCALES = {
    "NORM": (4, 4, 60), "DESCENT": (5, 4, 60), "INCOMPLETE": (4, 2, 20),
    "STOINV": (4, 3, 10), "ODDINV": (5, 4, 60), "ATOMS": (4, 3, 10),
    "POWER": (4, 3, 10), "PERIOD_DIVIDES": (4, 3, 10),
}
SAMPLE_SEED = 11
# Runs refused with exit code 2: an unmet dimension, and a zero sample count.
REFUSED = (
    ("DESCENT", 1, 2, ()),
    ("ODDINV", 2, 2, ()),
    ("NORM", 2, 2, ("--samples", "0")),
)


# Construction inputs: one to sixty-five atoms (past the 64-bit word),
# orthonormal sets at n = 1..12 with m = 0, 1, about n/2, n - 1 and n, and two
# stochastic matrices at every n = 1..10 plus the 0x0 matrix.
CONSTRUCT_SEED = 29
CONSTRUCT_ATOMS = (1, 3, 8, 65)
BASIS_DIMS = range(1, 13)
ATOM_DIMS = range(0, 11)


# Reduction inputs, atom by atom: a unitary moves each atom's slots by a
# permutation. At every n = 1..9 and k in CONSTRUCT_ATOMS, one family of 1-3
# unitaries whose permutations fix a common slot per atom (joint trace one)
# and one of 1-3 uniform unitaries (joint trace one only by chance); at every
# n and m = 1..n, with k cycling, one unitary fixing m orthogonal invariants,
# passed in shuffled order.
REDUCE_SEED = 31
REDUCE_DIMS = range(1, 10)


# Counterexample inputs: at each scale, seeded objects of each predicate's
# shape with every mask drawn at random, so most lie outside the theorem's
# class; families hold 1 to n+1 vectors (INCOMPLETE's 1 to n-1), UNITREDUCE
# families 1 or 2 matrices, and half of INVERSE's matrices are unitaries.
# NORM, DUALITY, DIMENSION and INVERSE hold on such objects, so each also
# runs under a wrong helper that the oracle tests substitute: a fold that
# finds no atom in two slots, a generating test that always says yes, and a
# matrix-vector product blind to the last slot.
TEXT_SEED = 37
TEXT_SCALES = ((3, 2), (2, 4))
TEXT_OBJECTS = 120
FAKES = {
    "NORM": ("_twice", lambda twice: lambda x, w, n, firsts: 0),
    "DUALITY": ("_is_generating", lambda gen: lambda vectors, n, k: True),
    "DIMENSION": ("_is_generating", lambda gen: lambda vectors, n, k: True),
    "INVERSE": ("_matvec", lambda matvec: lambda n, a, v: matvec(n, a, (*v[:-1], 0))),
}
# Two-byte lanes: NORM and DESCENT give each slot a lane of whole bytes, two
# of them at k = 9. Uniform masks over nine atoms almost never fail either
# check, so these objects are near-stochastic pairs (NORM's with a uniform
# scalar), drawn from their own rng after every record above.
WIDE_SEED = 43
WIDE_SCALE = (3, 9)
WIDE_THEOREMS = ("DESCENT", "NORM")


def argv_of(command: str, fixture: str, names: list[str], porcelain: bool) -> list[str]:
    return [command, fixture_path(fixture), *names] + (["--porcelain"] if porcelain else [])


def verify_argv(theorem: str, n: int, k: int, extra=()) -> list[str]:
    return ["verify", "--theorem", theorem, "--n", str(n), "--atoms", str(k), *extra]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def records() -> list[dict]:
    cases = [(c, f, ()) for c in COMMANDS for f in FIXTURES] + list(NAMED)
    found = []
    for command, fixture, names in cases:
        for porcelain in (True, False):
            code, stdout, stderr = run(argv_of(command, fixture, list(names), porcelain))
            found.append({
                "command": command,
                "fixture": fixture,
                "names": list(names),
                "porcelain": porcelain,
                "exit": code,
                "stdout": stdout,
                "stderr": stderr,
            })
    return found


def verify_cases() -> list[list[str]]:
    """The argv of every recorded ``verify`` run, porcelain mode last."""
    n, k = EXHAUSTIVE_SCALE
    runs = [verify_argv(t, n, k) for t in THEOREMS]
    runs += [verify_argv(t, n, k) for t, n, k in EXTRA_EXHAUSTIVE]
    runs += [
        verify_argv(t, n, k, ("--samples", str(s), "--seed", str(SAMPLE_SEED)))
        for t, (n, k, s) in SAMPLED_SCALES.items()
    ]
    runs += [verify_argv(t, n, k, extra) for t, n, k, extra in REFUSED]
    return [argv + mode for argv in runs for mode in (["--porcelain"], [])]


def verify_records() -> list[dict]:
    found = []
    for argv in verify_cases():
        code, stdout, stderr = run(argv)
        found.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    return found


def construct_algebra(k: int):
    return make_algebra([str(i) for i in range(1, k + 1)])


def basis_output(n: int, k: int, vectors: list[list[int]]) -> list[list[int]]:
    """``extend_to_basis`` on the given masks, as masks."""
    alg = construct_algebra(k)
    vs = [BVec(tuple(v), alg) for v in vectors]
    return [list(v.masks) for v in extend_to_basis(vs, n=n, algebra=alg)]


def atoms_output(n: int, k: int, matrix: list[int]) -> dict:
    """``matrix_atoms`` on the given masks: atom masks and selectors."""
    atoms = matrix_atoms(BMatrix(n, n, tuple(matrix), construct_algebra(k)))
    return {"atom_masks": list(atoms.atom_masks), "selectors": [list(f) for f in atoms.selectors]}


def construct_records() -> list[dict]:
    rng = random.Random(CONSTRUCT_SEED)
    found = []
    for k in CONSTRUCT_ATOMS:
        alg = construct_algebra(k)
        for n in BASIS_DIMS:
            for m in sorted({0, 1, (n + 1) // 2, n - 1, n}):
                vectors = [list(v.masks) for v in random_stochastic_orthonormal_set(rng, alg, n, m)] if m else []
                found.append({
                    "construct": "extend_to_basis", "n": n, "k": k,
                    "vectors": vectors, "basis": basis_output(n, k, vectors),
                })
        for n in ATOM_DIMS:
            for _ in range(1 if n == 0 else 2):
                matrix = list(random_stochastic_matrix(rng, alg, n).masks) if n else []
                found.append({"construct": "matrix_atoms", "n": n, "k": k, "matrix": matrix, **atoms_output(n, k, matrix)})
    return found


def _permutation_fixing(rng: random.Random, n: int, fixed: list[int]) -> list[int]:
    """A uniform permutation of ``range(n)`` that fixes every slot in ``fixed``."""
    moved = [s for s in range(n) if s not in fixed]
    image = moved[:]
    rng.shuffle(image)
    perm = list(range(n))
    for s, t in zip(moved, image):
        perm[s] = t
    return perm


def _unitary_masks(n: int, perms: list[list[int]]) -> list[int]:
    """The unitary whose atom ``bit`` sends column j to row ``perms[bit][j]``."""
    masks = [0] * (n * n)
    for bit, perm in enumerate(perms):
        for j, i in enumerate(perm):
            masks[i * n + j] |= 1 << bit
    return masks


def _reduction_masks(red) -> dict:
    return {
        "conjugator": list(red.conjugator.masks),
        "core_rows": red.core.rows,
        "core": list(red.core.masks),
        "fixed_count": red.fixed_count,
    }


def unitary_reduce_output(n: int, k: int, family: list[list[int]]) -> list[dict] | None:
    """``reduce_unitary`` on the given masks, as masks, or None."""
    alg = construct_algebra(k)
    reductions = reduce_unitary([BMatrix(n, n, tuple(m), alg) for m in family])
    return None if reductions is None else [_reduction_masks(r) for r in reductions]


def orthogonal_reduce_output(n: int, k: int, matrix: list[int], invariants: list[list[int]]) -> dict:
    """``reduce_by_orthogonal_set`` on the given masks, as masks."""
    alg = construct_algebra(k)
    a = BMatrix(n, n, tuple(matrix), alg)
    return _reduction_masks(reduce_by_orthogonal_set(a, [BVec(tuple(v), alg) for v in invariants]))


def reduce_records() -> list[dict]:
    rng = random.Random(REDUCE_SEED)
    found = []
    for k in CONSTRUCT_ATOMS:
        for n in REDUCE_DIMS:
            for shared in (True, False):
                fixed = [[rng.randrange(n)] if shared else [] for _ in range(k)]
                family = [
                    _unitary_masks(n, [_permutation_fixing(rng, n, f) for f in fixed])
                    for _ in range(rng.randint(1, 3))
                ]
                found.append({
                    "reduce": "unitary", "n": n, "k": k, "family": family,
                    "result": unitary_reduce_output(n, k, family),
                })
    for n in REDUCE_DIMS:
        for m in range(1, n + 1):
            k = CONSTRUCT_ATOMS[(n + m) % len(CONSTRUCT_ATOMS)]
            slots = [rng.sample(range(n), m) for _ in range(k)]
            matrix = _unitary_masks(n, [_permutation_fixing(rng, n, s) for s in slots])
            invariants = [[0] * n for _ in range(m)]
            for bit, s in enumerate(slots):
                for v, slot in zip(invariants, s):
                    v[slot] |= 1 << bit
            rng.shuffle(invariants)
            found.append({
                "reduce": "orthogonal", "n": n, "k": k, "matrix": matrix, "invariants": invariants,
                "result": orthogonal_reduce_output(n, k, matrix, invariants),
            })
    return found


def _vector(rng: random.Random, n: int, k: int) -> list[int]:
    return [rng.getrandbits(k) for _ in range(n)]


def _family(rng: random.Random, n: int, k: int, most: int, length: int) -> list[list[int]]:
    return [_vector(rng, length, k) for _ in range(1 + rng.randrange(most))]


def text_object(theorem: str, rng: random.Random, n: int, k: int):
    """One object of ``theorem``'s predicate shape, every mask at random."""
    if theorem == "NORM":
        return [_vector(rng, n, k), _vector(rng, n, k), rng.getrandbits(k)]
    if theorem == "DESCENT":
        return [_vector(rng, n, k), _vector(rng, n, k)]
    if theorem in ("DUALITY", "BASIS_UPBOUND", "DIMENSION", "DIMCOR2", "INCOMPLETE"):
        return _family(rng, n, k, n - 1 if theorem == "INCOMPLETE" else n + 1, n)
    if theorem == "UNITREDUCE":
        return _family(rng, n, k, 2, n * n)
    if theorem == "POWER":
        return [bool(rng.getrandbits(1)), _vector(rng, n * n, k)]
    if theorem == "INVERSE" and rng.getrandbits(1):
        return _unitary_masks(n, [rng.sample(range(n), n) for _ in range(k)])
    return _vector(rng, n * n, k)


def near_stochastic_pair(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Two stochastic vectors whose atoms sit in distinct slots (orthogonal)
    or in the same slots (equal) by a fair coin, then, by another, one bit
    of one of them flipped."""
    a, b, apart = [0] * n, [0] * n, rng.getrandbits(1)
    for bit in range(k):
        s, t = rng.sample(range(n), 2) if apart else (rng.randrange(n),) * 2
        a[s] |= 1 << bit
        b[t] |= 1 << bit
    if rng.getrandbits(1):
        (a, b)[rng.getrandbits(1)][rng.randrange(n)] ^= 1 << rng.randrange(k)
    return [a, b]


def _tuples(obj):
    return tuple(map(_tuples, obj)) if isinstance(obj, list) else obj


@contextmanager
def substituted(theorem: str, fake: str | None):
    """The oracle with ``theorem``'s wrong helper in place, if ``fake`` names it."""
    if fake is None:
        yield
        return
    helper, wrong = FAKES[theorem]
    assert fake == helper, (theorem, fake)
    right = getattr(oracle, helper)
    setattr(oracle, helper, wrong(right))
    try:
        yield
    finally:
        setattr(oracle, helper, right)


def text_output(theorem: str, n: int, k: int, fake: str | None, objects: list) -> list[list]:
    """Every ``[index, text]`` the predicate reports, asked again from the
    object after each one."""
    objects = [_tuples(obj) for obj in objects]
    found, start = [], 0
    with substituted(theorem, fake):
        first_failure = THEOREMS[theorem].predicate(n, k)
        while start < len(objects):
            hit = first_failure(objects[start:])
            if hit is None:
                break
            found.append([start + hit[0], hit[1]])
            start += hit[0] + 1
    return found


def _text_records(theorem: str, n: int, k: int, objects: list) -> list[dict]:
    """One record of ``objects``, and one more under the theorem's wrong helper if it has one."""
    return [
        {
            "theorem": theorem, "n": n, "k": k, "fake": fake, "objects": objects,
            "failures": text_output(theorem, n, k, fake, objects),
        }
        for fake in ((None, FAKES[theorem][0]) if theorem in FAKES else (None,))
    ]


def text_records() -> list[dict]:
    rng = random.Random(TEXT_SEED)
    found = []
    for theorem in THEOREMS:
        for n, k in TEXT_SCALES:
            found += _text_records(theorem, n, k, [text_object(theorem, rng, n, k) for _ in range(TEXT_OBJECTS)])
    rng, (n, k) = random.Random(WIDE_SEED), WIDE_SCALE
    for theorem in WIDE_THEOREMS:
        pairs = [near_stochastic_pair(rng, n, k) for _ in range(TEXT_OBJECTS)]
        found += _text_records(theorem, n, k, [pair + [rng.getrandbits(k)] if theorem == "NORM" else pair for pair in pairs])
    return found


def write(path: str, recs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def write_lines(path: str, recs: list[dict]) -> None:
    """One compact record per line, so the file stays small and diffs by record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in recs) + "\n]\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    write(GOLDEN, records())
    write(VERIFY_GOLDEN, verify_records())
    write_lines(CONSTRUCT_GOLDEN, construct_records())
    write_lines(REDUCE_GOLDEN, reduce_records())
    write_lines(TEXT_GOLDEN, text_records())
