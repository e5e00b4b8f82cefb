"""The three workloads: inputs made from a seed, the ops that run on them,
and the independent check of every op's output.

A workload is built by ``WORKLOADS[name](mods, seed, workdir)`` and hands
out its ops in passes (``next_pass``). A pass has a fixed composition, and
the runner only stops between passes, so every run sees the same mix of
op kinds whatever its length. An op is ``(kind, call, check)``: ``call``
runs the program and returns its output, ``check`` returns ``None`` when
that output is right and a reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import reference as ref
from textio import Model, porcelain, read_model

# --- products --------------------------------------------------------------

# (n, m, p, atoms, pool size, ops per 40-op block). 8x8 over 64 atoms is the
# criterion-10 shape and the majority; 2x2 and 4x4 are call-overhead bound;
# 16x16 over 64 atoms is compute bound; 96 atoms forces the wide pure
# fallback; 16x16 over 4 atoms is sparse, since a stochastic column has at
# most one nonzero entry per atom. Where there are at least as many atoms as
# rows (2x2 aside), the pool's matrices run evenly from sparse to dense (see
# ``spread_stochastic``), so the latencies of one shape spread smoothly
# instead of forming one narrow peak whose position against the 50th or 90th
# percentile would swing those percentiles. With these weights the median op
# is an 8x8 product and the 90th percentile lies inside the 16x16x64
# products. The pools give more pairs of each shape than a 30 s run makes
# products of it, except 2x2 over 3 atoms: its pool is all 64 stochastic
# matrices, hence 4096 pairs.
PRODUCT_SHAPES = (
    (2, 2, 2, 3, 64, 1),
    (4, 4, 4, 16, 256, 4),
    (16, 16, 16, 4, 256, 4),
    (8, 8, 8, 64, 512, 23),
    (8, 8, 8, 96, 256, 2),
    (16, 16, 16, 64, 256, 6),
)


def shape_name(n, m, p, k):
    return f"{n}x{m}x{p}x{k}"


def spread_stochastic(rng, n, k, d):
    """Row-major masks of an n-by-n stochastic matrix over ``k`` atoms.

    Column ``j`` puts each atom in one of ``d`` rows drawn for that column,
    so about ``d`` of its ``n`` entries are nonzero. The pure kernel skips
    zero entries, so a pool whose ``d`` runs evenly over 1..n spans dense
    and sparse products of the same shape, and every seed gives it the same
    spread of densities.
    """
    masks = [0] * (n * n)
    for j in range(n):
        for bit, i in enumerate(rng.choices(rng.sample(range(n), d), k=k)):
            masks[i * n + j] |= 1 << bit
    return tuple(masks)


class Products:
    """Distinct stochastic operand pairs, each used once per pass over its pool.

    Pairs of a shape are visited in the order ``q -> (step * q + offset) mod
    M**2`` with ``step`` odd, hence coprime to ``M**2`` (every pool size is
    a power of two), so no pair repeats until all ``M**2`` pairs of that
    pool were used; no result cache can hit.
    """

    def __init__(self, mods, seed, workdir):
        rng = random.Random(seed)
        self.mods = mods
        self.pools = []
        for n, m, p, k, size, _ in PRODUCT_SHAPES:
            alg = mods.boolmat.make_algebra([str(i) for i in range(1, k + 1)])
            seen = {}
            while len(seen) < size:
                if k >= n > 2:
                    masks = spread_stochastic(rng, n, k, 1 + len(seen) % n)
                    seen.setdefault(masks, mods.bmatrix.BMatrix(n, n, masks, alg))
                else:
                    mat = mods.rand.random_stochastic_matrix(rng, alg, n)
                    seen.setdefault(mat.masks, mat)
            pool = list(seen.values())
            step = rng.randrange(1, size * size, 2)
            self.pools.append([(n, m, p, k), pool, step, rng.randrange(size * size), 0])
        self.block = [i for i, shape in enumerate(PRODUCT_SHAPES) for _ in range(shape[5])]
        self.rng = rng

    def _op(self, index):
        entry = self.pools[index]
        (n, m, p, k), pool, step, offset, used = entry
        entry[4] += 1
        size = len(pool)
        q = (step * used + offset) % (size * size)
        a, b = pool[q // size], pool[q % size]
        bmatrix = self.mods.bmatrix
        pure = self.mods.pure

        def call():
            return bmatrix.mul(a, b)

        def check(out):
            want = ref.matmul(n, m, p, a.masks, b.masks)
            if (out.rows, out.cols, tuple(out.masks)) != (n, p, want):
                return f"{shape_name(n, m, p, k)} product differs from the triple loop"
            if self.mods.packed is not None and k <= 64 and tuple(pure.matmul(n, m, p, a.masks, b.masks)) != want:
                return f"{shape_name(n, m, p, k)} pure backend differs from the packed backend"
            return None

        return shape_name(n, m, p, k), call, check

    def next_pass(self):
        order = self.block[:]
        self.rng.shuffle(order)
        return [self._op(i) for i in order]

    def warmup(self):
        return [self._op(i) for i in range(len(PRODUCT_SHAPES))]


# --- commands through the CLI ---------------------------------------------


def cli_op(mods, kind, argv, check):
    """An op that runs ``boolmat.cli.main`` in process and captures its output."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    verified = []

    def checked(result):
        if verified and result == verified[0]:
            return None
        rc, out, err = result
        try:
            problem = check(rc, porcelain(out))
        except (KeyError, ValueError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem is None:
            verified.append(result)
        return problem

    return kind, call, checked


# --- chains ------------------------------------------------------------------

RANDOM_SIZES = [(n, k) for n in range(6, 13) for k in (4, 6, 8)]
UNITARY_SIZES = [(n, k) for n in range(6, 11) for k in (4, 8)]
BASIS_SIZES = [(n, k) for n in range(6, 13) for k in (4, 8)]
# One permutation cycle type per atom, on 12 sites; the period is the lcm
# of all cycle lengths (420 and 2520) and the exponent is 1.
LONG_PERIOD_TYPES = [((5, 7), (3, 4, 5)), ((5, 7), (3, 9), (4, 8))]


def _cycle_permutation(rng, n, cycles):
    sites = list(range(n))
    rng.shuffle(sites)
    perm = [0] * n
    start = 0
    for length in cycles:
        cyc = sites[start : start + length]
        for i, s in enumerate(cyc):
            perm[s] = cyc[(i + 1) % length]
        start += length
    return perm


def _from_functions(n, functions):
    """Stochastic matrix whose atom ``b`` moves column j to row functions[b][j]."""
    masks = [0] * (n * n)
    for bit, f in enumerate(functions):
        for j, i in enumerate(f):
            masks[i * n + j] |= 1 << bit
    return tuple(masks)


def _reflection(b, full):
    n = len(b)
    masks = [0] * (n * n)
    for i in range(n):
        masks[i] = masks[i * n] = b[i]
    for i in range(1, n):
        masks[i * n + i] = b[i] ^ full
    return tuple(masks)


def _names(model, names):
    return names or list(model.matrices)


def check_period(model, names):
    def check(rc, out):
        for name in _names(model, names):
            n, a = model.matrices[name]
            e, p, powers = ref.power_sequence(n, a)
            got = (out[f"{name}.exponent"], out[f"{name}.period"], out[f"{name}.distinct"])
            if got != (str(e), str(p), str(len(powers))):
                return f"{name}: period output {got} but iteration gives e={e} p={p}"
        return None if rc == 0 else f"exit code {rc}"

    return check


def check_reach(model, names):
    def check(rc, out):
        for name in _names(model, names):
            n, a = model.matrices[name]
            arrows, mutual, transitive, equivalence = ref.reach(n, ref.power_sequence(n, a)[2])
            want = {
                f"{name}.sites": str(n),
                f"{name}.arrows": " ".join(f"{x}>{y}" for x, y in sorted(arrows)),
                f"{name}.mutual": " ".join(f"{x}<>{y}" for x, y in sorted(mutual)),
                f"{name}.transitive": str(int(transitive)),
                f"{name}.equivalence": str(int(equivalence)),
            }
            for key, value in want.items():
                if out[key] != value:
                    return f"{key}={out[key]!r}, expected {value!r}"
        return None if rc == 0 else f"exit code {rc}"

    return check


def check_atoms(model, names):
    def check(rc, out):
        for name in _names(model, names):
            n, a = model.matrices[name]
            want = ref.atoms(n, a, model.k)
            got = [model.elem(t) for t in out[f"{name}.atoms"].split()]
            if got != want or out[f"{name}.count"] != str(len(want)):
                return f"{name}: atoms {got} but column selections give {want}"
        return None if rc == 0 else f"exit code {rc}"

    return check


def check_powers(model, names):
    def check(rc, out):
        for name in _names(model, names):
            n, _ = model.matrices[name]
            want = f"A^{ref.lcm_upto(n) + n - 1}=A^{n - 1}"
            if out[f"{name}.identity"] != want or out[f"{name}.ok"] != "1":
                return f"{name}: power identity line {out[f'{name}.identity']!r}"
        return None if rc == 0 else f"exit code {rc}"

    return check


def check_check(model, names):
    def check(rc, out):
        bad = 0
        for name in _names(model, names):
            n, a = model.matrices[name]
            stoch = ref.is_stochastic(n, a, model.full)
            unit = ref.is_unitary(n, a, model.full)
            if (out[f"{name}.stochastic"], out[f"{name}.unitary"]) != (str(int(stoch)), str(int(unit))):
                return f"{name}: stochastic/unitary verdicts differ from the naive checks"
            bad += not stoch
        return None if rc == (1 if bad else 0) else f"exit code {rc}"

    return check


def check_invariant(model, names):
    def check(rc, out):
        mats = [model.matrices[name] for name in _names(model, names)]
        n = mats[0][0]
        trace = ref.joint_trace(n, [a for _, a in mats], model.full)
        if model.elem(out["trace"]) != trace:
            return f"joint trace {out['trace']} differs from the diagonal meet"
        if out["invariant"] == "none":
            # An invariant stochastic vector exists exactly when the joint
            # trace is one (the STOINV statement the oracle verifies).
            if trace == model.full:
                return "no invariant vector although the joint trace is one"
            return None if rc == 1 else f"exit code {rc}"
        v = model.vector(out["invariant"])
        if not ref.is_stochastic_vector(v, model.full):
            return "invariant vector is not stochastic"
        if any(ref.matvec(n, a, v) != v for _, a in mats):
            return "invariant vector is moved by a matrix"
        return None if rc == 0 else f"exit code {rc}"

    return check


def check_reduce(model, names):
    def check(rc, out):
        picked = _names(model, names)
        n = model.matrices[picked[0]][0]
        if out["reducible"] != "1" or out["fixed"] != "1" or rc != 0:
            return f"family not reduced (reducible={out['reducible']}, exit {rc})"
        conj = tuple(x for i in range(n) for x in model.row(out[f"conjugator.row{i + 1}"]))
        if conj != ref.transpose(n, conj) or ref.matmul(n, n, n, conj, conj) != ref.identity(n, model.full):
            return "conjugator is not a symmetric involution"
        for name in picked:
            _, a = model.matrices[name]
            core = [model.row(out[f"{name}.core.row{i + 1}"]) for i in range(n - 1)]
            if ref.matmul(n, n, n, conj, ref.matmul(n, n, n, a, conj)) != ref.block_one(core, model.full):
                return f"{name}: conjugated matrix is not diag(1, core)"
            trace = 0
            for i, row in enumerate(core):
                trace |= row[i]
            if model.elem(out[f"{name}.core.trace"]) != trace:
                return f"{name}: core trace is not the join of the core diagonal"
            if out[f"{name}.further"] != str(int(trace == model.full)):
                return f"{name}: further-reduction flag disagrees with the core trace"
        return None

    return check


def check_basis(model, names):
    def check(rc, out):
        given = [model.vectors[name] for name in (names or list(model.vectors))]
        n = len(given[0])
        basis = [model.vector(out[f"basis.{i + 1}"]) for i in range(n)]
        if len(out) != n:
            return f"{len(out)} output lines for a basis of {n} vectors"
        if basis[: len(given)] != given:
            return "basis does not start with the given vectors"
        for i, v in enumerate(basis):
            if not ref.is_stochastic_vector(v, model.full):
                return f"basis vector {i + 1} is not stochastic"
            if any(x & y for w in basis[:i] for x, y in zip(v, w)):
                return f"basis vector {i + 1} is not orthogonal to an earlier one"
        return None if rc == 0 else f"exit code {rc}"

    return check


CHECKS = {
    "period": check_period,
    "reach": check_reach,
    "atoms": check_atoms,
    "powers": check_powers,
    "check": check_check,
    "invariant": check_invariant,
    "reduce": check_reduce,
    "basis-extend": check_basis,
}


def _s5_facts(rc, out):
    """The comment of ``paper_s5.bm``: reducing A leaves a core of trace {4,5}."""
    if (out["A.core.trace"], out["A.further"]) != ("{4,5}", "0"):
        return "paper_s5 A: the fixture states core trace {4,5} and no further reduction"
    return None


def _s6_facts(rc, out):
    """Facts the comment of ``s6_final.bm`` states about its chain A."""
    arrows = out.get("A.arrows", "").split()
    if "A.period" in out and (out["A.exponent"], out["A.period"]) != ("1", "2"):
        return "s6_final A: the fixture states exponent 1 and period 2"
    if "A.arrows" in out and not ("1>2" in arrows and "2>3" in arrows and "1>3" not in arrows):
        return "s6_final A: the fixture states 1->2 and 2->3 but not 1->3"
    return None


class Chains:
    """CLI analysis commands on the two fixtures and on generated model files."""

    def __init__(self, mods, seed, workdir):
        rng = random.Random(seed)
        self.mods = mods
        self.rng = rng
        os.makedirs(workdir, exist_ok=True)
        ops = []

        def add(kind, path, model, names=(), facts=None):
            check = CHECKS[kind](model, list(names))
            if facts is not None:
                def check(rc, out, general=check):
                    return general(rc, out) or facts(rc, out)
            ops.append(cli_op(mods, kind, [kind, path, *names, "--porcelain"], check))

        def write(name, model):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(model.text())
            return path

        s5 = mods.cli.fixture_path("paper_s5.bm")
        with open(s5, encoding="utf-8") as fh:
            s5_model = read_model(fh.read())
        s6 = mods.cli.fixture_path("s6_final.bm")
        with open(s6, encoding="utf-8") as fh:
            s6_model = read_model(fh.read())
        for kind in ("check", "powers", "period", "atoms", "reach"):
            add(kind, s5, s5_model)
            add(kind, s6, s6_model, facts=_s6_facts)
        add("invariant", s5, s5_model, ["A"])
        add("invariant", s6, s6_model)
        add("reduce", s5, s5_model, ["A"], facts=_s5_facts)
        add("basis-extend", s5, s5_model)
        self.fixture_ops = len(ops)

        algebras = {}

        def algebra(k):
            if k not in algebras:
                algebras[k] = mods.boolmat.make_algebra([str(i) for i in range(1, k + 1)])
            return algebras[k]

        def numbered(k):
            return Model([str(i) for i in range(1, k + 1)])

        for idx, (n, k) in enumerate(RANDOM_SIZES):
            model = numbered(k)
            model.matrices["A"] = (n, mods.rand.random_stochastic_matrix(rng, algebra(k), n).masks)
            path = write(f"random{idx}.bm", model)
            for kind in ("period", "reach", "atoms", "powers", "check", "invariant"):
                add(kind, path, model)

        for idx, types in enumerate(LONG_PERIOD_TYPES):
            model = numbered(len(types))
            model.matrices["A"] = (12, _from_functions(12, [_cycle_permutation(rng, 12, t) for t in types]))
            path = write(f"long{idx}.bm", model)
            for kind in ("period", "reach", "atoms", "powers", "check"):
                add(kind, path, model)

        # Unitary families with joint trace one, built as R diag(1, C) R for
        # a reflection R: random unitaries at k >= 6 almost never have it.
        for idx, (n, k) in enumerate(UNITARY_SIZES):
            model = numbered(k)
            b = mods.rand.random_stochastic_vector(rng, algebra(k), n).masks
            refl = _reflection(b, model.full)
            for name in ("U", "V"):
                core = mods.rand.random_unitary(rng, algebra(k), n - 1).masks
                block = ref.block_one([core[i * (n - 1) : (i + 1) * (n - 1)] for i in range(n - 1)], model.full)
                model.matrices[name] = (n, ref.matmul(n, n, n, refl, ref.matmul(n, n, n, block, refl)))
            path = write(f"unitary{idx}.bm", model)
            for kind in ("reduce", "check", "invariant"):
                add(kind, path, model)

        for idx, (n, k) in enumerate(BASIS_SIZES):
            model = numbered(k)
            m = rng.randrange(1, n)
            for j, v in enumerate(mods.rand.random_stochastic_orthonormal_set(rng, algebra(k), n, m)):
                model.vectors[f"v{j + 1}"] = v.masks
            path = write(f"basis{idx}.bm", model)
            add("basis-extend", path, model)

        self.ops = ops

    def next_pass(self):
        order = self.ops[:]
        self.rng.shuffle(order)
        return order

    def warmup(self):
        return self.ops[:self.fixture_ops]


# --- oracle ------------------------------------------------------------------

# Exhaustive checks with a closed-form object count, each well under a
# second, and sampled checks (theorem, n, k, samples) for every theorem that
# has a sampler, each sized to about 20 ms. One pass is 4 quick exhaustive
# runs, the 8 sampled runs, 3 runs of 25-40 ms, 2 of about 55 ms and one of
# about 300 ms, so the median op is a sampled run and the 90th percentile
# lies between the two 55 ms runs (ATOMS and PERIOD_DIVIDES at n=3, k=2).
ORACLE_EXHAUSTIVE = [
    ("POWER", 2, 4), ("PERIOD_DIVIDES", 2, 4), ("STOINV", 2, 4), ("ATOMS", 2, 4),
    ("STOINV", 3, 2), ("UNITREDUCE", 2, 4), ("POWER", 3, 2),
    ("ATOMS", 3, 2), ("PERIOD_DIVIDES", 3, 2),
    ("UNITREDUCE", 2, 5),
]
ORACLE_SAMPLED = [
    ("NORM", 4, 4, 1450), ("DESCENT", 5, 4, 2000), ("STOINV", 4, 3, 52),
    ("ODDINV", 5, 4, 800), ("ATOMS", 4, 3, 100), ("POWER", 4, 3, 66),
    ("PERIOD_DIVIDES", 4, 3, 60), ("INCOMPLETE", 4, 2, 160),
]


def _verdict_check(theorem, n, k, checked, mode):
    want = {
        "theorem": theorem, "n": str(n), "atoms": str(k), "mode": mode,
        "checked": str(checked), "verdict": "pass",
    }

    def check(rc, out):
        if out != want:
            return f"verdict {out} differs from {want}"
        return None if rc == 0 else f"exit code {rc}"

    return check


class Oracle:
    """``boolmat verify`` runs, exhaustive and sampled, each a pass verdict."""

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.rng = random.Random(seed)

    def _ops(self, exhaustive, sampled):
        ops = []
        for theorem, n, k in exhaustive:
            argv = ["verify", "--theorem", theorem, "--n", str(n), "--atoms", str(k), "--porcelain"]
            ops.append(cli_op(self.mods, f"verify.{theorem}.{n}.{k}", argv,
                              _verdict_check(theorem, n, k, ref.oracle_count(theorem, n, k), "exhaustive")))
        for theorem, n, k, samples in sampled:
            argv = ["verify", "--theorem", theorem, "--n", str(n), "--atoms", str(k),
                    "--samples", str(samples), "--seed", str(self.rng.randrange(1 << 30)), "--porcelain"]
            ops.append(cli_op(self.mods, f"verify.{theorem}.sampled", argv,
                              _verdict_check(theorem, n, k, samples, "sampled")))
        return ops

    def next_pass(self):
        ops = self._ops(ORACLE_EXHAUSTIVE, ORACLE_SAMPLED)
        self.rng.shuffle(ops)
        return ops

    def warmup(self):
        return self._ops([(t, 2, 2) for t, _, _ in ORACLE_EXHAUSTIVE],
                         [(t, n, 2, 5) for t, n, _, _ in ORACLE_SAMPLED])


WORKLOADS = {"products": Products, "chains": Chains, "oracle": Oracle}
