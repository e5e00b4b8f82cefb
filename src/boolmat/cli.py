"""Command-line interface: inspect models, run reductions, verify theorems.

Exit codes: 0 for success or a passing verdict, 1 for a negative verdict
(not stochastic, no invariant vector, not reducible, failed check), 2 for
usage, parse, precondition and budget errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Iterable, Sequence

from . import chains
from .algebra import BoolmatError, PreconditionError
from .bmatrix import (
    BMatrix,
    find_invariant_stochastic,
    is_row_stochastic,
    is_stochastic_matrix,
    joint_trace,
    reduce_unitary,
    trace,
)
from .bvec import extend_to_basis
from .model import ModelFile, ModelSyntaxError, element_rows, matrix_lines, parse_model

__all__ = ["main", "fixture_path"]


def fixture_path(name: str) -> str:
    """Absolute path of a bundled example model file."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def _load(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


def _pick(model: ModelFile, names: Sequence[str], kind: str = "matrix") -> list[tuple[str, Any]]:
    """``(name, value)`` for the named matrices (or vectors) of the model, or
    for all of them when no name is given."""
    if kind == "matrix":
        lookup, table, plural = model.matrix, model.matrices, "matrices"
    else:
        lookup, table, plural = model.vector, model.vectors, "vectors"
    if names:
        return [(n, lookup(n)) for n in names]
    if not table:
        raise PreconditionError(f"the model contains no {plural}")
    return list(table.items())


def _emit_matrix(prefix: str, mat: BMatrix, porcelain: bool) -> None:
    if porcelain:
        for i, row in enumerate(element_rows(mat), start=1):
            print(f"{prefix}.row{i}=" + " ".join(row))
    else:
        for line in matrix_lines(mat) or ["(empty)"]:
            print("  " + line)


def _cmd_check(args, model: ModelFile) -> int:
    bad = 0
    for name, mat in _pick(model, args.names):
        stoch = mat.is_square() and is_stochastic_matrix(mat)
        unit = stoch and is_row_stochastic(mat)
        if args.porcelain:
            print(f"{name}.stochastic={int(stoch)}")
            print(f"{name}.unitary={int(unit)}")
        else:
            print(
                f"{name}: {mat.rows}x{mat.cols}, "
                f"stochastic {'yes' if stoch else 'no'}, unitary {'yes' if unit else 'no'}"
            )
        if not stoch:
            bad += 1
    return 1 if bad else 0


def _cmd_invariant(args, model: ModelFile) -> int:
    picked = _pick(model, args.names)
    mats = [m for _, m in picked]
    joint = joint_trace(mats)
    vec = find_invariant_stochastic(mats)
    if args.porcelain:
        print(f"trace={joint}")
        print(f"invariant={'none' if vec is None else vec}")
    else:
        label = ", ".join(n for n, _ in picked)
        if vec is None:
            print(f"{label}: none (trace = {joint})")
        else:
            print(f"{label}: invariant vector {vec}")
    return 0 if vec is not None else 1


def _cmd_reduce(args, model: ModelFile) -> int:
    picked = _pick(model, args.names)
    mats = [m for _, m in picked]
    joint = joint_trace(mats)
    reductions = reduce_unitary(mats)
    if reductions is None:
        if args.porcelain:
            print(f"trace={joint}")
            print("reducible=0")
        else:
            print(f"not reducible: joint trace = {joint} (need *)")
        return 1
    conj = reductions[0].conjugator
    full_trace = conj.algebra.one
    core_traces = [trace(red.core) for red in reductions]
    if args.porcelain:
        print(f"trace={joint}")
        print("reducible=1")
        print(f"fixed={reductions[0].fixed_count}")
        _emit_matrix("conjugator", conj, True)
        for (name, _), red, core_trace in zip(picked, reductions, core_traces):
            _emit_matrix(f"{name}.core", red.core, True)
            print(f"{name}.core.trace={core_trace}")
            print(f"{name}.further={int(core_trace == full_trace)}")
    else:
        print(f"joint trace = {joint}")
        print("conjugator (symmetric reflection):")
        _emit_matrix("conjugator", conj, False)
        for (name, _), red, core_trace in zip(picked, reductions, core_traces):
            print(f"core of {name} ({red.core.rows}x{red.core.cols}), trace {core_trace}:")
            _emit_matrix(f"{name}.core", red.core, False)
            if core_trace == full_trace:
                print(f"{name}: further reduction possible (core trace = *)")
            else:
                print(f"{name}: no further reduction possible (core trace = {core_trace})")
    return 0


def _cmd_powers(args, model: ModelFile) -> int:
    failures = 0
    for name, mat in _pick(model, args.names):
        n = mat.rows
        ok = chains.verify_power_theorem(mat)
        exponent = chains.lcm_upto(n) + n - 1
        if args.porcelain:
            print(f"{name}.identity=A^{exponent}=A^{n - 1}")
            print(f"{name}.ok={int(ok)}")
        else:
            verdict = "holds" if ok else "FAILS (library bug)"
            print(f"{name}: {n}x{n} stochastic, A^{exponent} = A^{n - 1} {verdict}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_period(args, model: ModelFile) -> int:
    for name, mat in _pick(model, args.names):
        profile = chains.power_profile(mat)
        if args.porcelain:
            print(f"{name}.exponent={profile.exponent}")
            print(f"{name}.period={profile.period}")
            print(f"{name}.distinct={len(profile.powers)}")
        else:
            print(
                f"{name}: exponent {profile.exponent}, period {profile.period} "
                f"({len(profile.powers)} distinct powers)"
            )
    return 0


def _cmd_atoms(args, model: ModelFile) -> int:
    for name, mat in _pick(model, args.names):
        atoms = chains.matrix_atoms(mat)
        if args.porcelain:
            print(f"{name}.count={len(atoms)}")
            print(f"{name}.atoms=" + " ".join(str(a) for a in atoms.atoms))
        else:
            listing = ", ".join(str(a) for a in atoms.atoms)
            print(f"{name}: {len(atoms)} atoms: {listing}")
    return 0


def _fmt_pairs(pairs: Iterable[tuple[int, int]], arrow: str) -> str:
    return ", ".join(f"{a}{arrow}{b}" for a, b in sorted(pairs))


def _cmd_reach(args, model: ModelFile) -> int:
    for name, mat in _pick(model, args.names):
        report = chains.relation_report(mat)
        if args.porcelain:
            print(f"{name}.sites={report.site_count}")
            print(f"{name}.arrows=" + " ".join(f"{a}>{b}" for a, b in sorted(report.arrows)))
            print(f"{name}.mutual=" + " ".join(f"{a}<>{b}" for a, b in sorted(report.mutual)))
            print(f"{name}.transitive={int(report.transitive)}")
            print(f"{name}.equivalence={int(report.equivalence)}")
        else:
            print(
                f"{name}: sites 1..{report.site_count}, "
                f"exponent {report.exponent}, period {report.period}"
            )
            print(f"  arrows: {_fmt_pairs(report.arrows, '->') or 'none'}")
            print(f"  mutual: {_fmt_pairs(report.mutual, '<->') or 'none'}")
            if report.transitive:
                print("  arrow relation transitive: yes")
            else:
                x, y, z = report.transitivity_witness
                print(f"  arrow relation not transitive: {x}->{y} and {y}->{z} but not {x}->{z}")
            if report.equivalence:
                print("  mutual relation is an equivalence")
            else:
                print(f"  mutual relation not an equivalence: {report.equivalence_witness}")
    return 0


def _cmd_basis_extend(args, model: ModelFile) -> int:
    basis = extend_to_basis([v for _, v in _pick(model, args.names, "vector")])
    if args.porcelain:
        for i, v in enumerate(basis, start=1):
            print(f"basis.{i}={v}")
    else:
        print(f"extended basis ({len(basis)} vectors):")
        for v in basis:
            print(f"  {v}")
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    theorem = args.theorem.upper()
    if args.samples is not None:
        verdict = oracle.sample_check(theorem, args.n, args.atoms, args.samples, seed=args.seed)
    else:
        budget = oracle.DEFAULT_BUDGET if args.budget is None else args.budget
        verdict = oracle.brute_check(theorem, args.n, args.atoms, budget=budget)
    if args.porcelain:
        print(f"theorem={verdict.theorem}")
        print(f"n={verdict.n}")
        print(f"atoms={verdict.k}")
        print(f"mode={verdict.mode}")
        print(f"checked={verdict.checked}")
        print(f"verdict={'pass' if verdict.passed else 'fail'}")
        if verdict.counterexample:
            print(f"counterexample={verdict.counterexample}")
    else:
        print(str(verdict))
    return 0 if verdict.passed else 1


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own subparser by name, built
    once per process and shared by every :func:`main` call; parsing leaves
    them unchanged."""
    parser = argparse.ArgumentParser(
        prog="boolmat",
        description="Boolean-algebra linear algebra: stochastic and unitary matrices, "
        "invariant vectors, reductions, and Markov power analysis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true", help="stable key=value output")

    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    def model_cmd(name: str, help_text: str, func, names_help: str = "matrix names (default: all)"):
        p = command(name, help_text, lambda args: func(args, _load(args.file)))
        p.add_argument("file", help="model file path")
        p.add_argument("names", nargs="*", help=names_help)

    model_cmd("check", "report stochastic/unitary verdicts per matrix", _cmd_check)
    model_cmd("invariant", "common invariant stochastic vector of the matrices", _cmd_invariant)
    model_cmd("reduce", "block-diagonalize unitary matrices by a shared reflection", _cmd_reduce)
    model_cmd("powers", "verify the stochastic power identity", _cmd_powers)
    model_cmd("period", "exponent and period of the power sequence", _cmd_period)
    model_cmd("atoms", "atoms of a stochastic matrix", _cmd_atoms)
    model_cmd("reach", "site accessibility report", _cmd_reach)
    model_cmd(
        "basis-extend",
        "extend stochastic orthonormal vectors to a basis",
        _cmd_basis_extend,
        names_help="vector names (default: all)",
    )

    v = command("verify", "run a brute-force theorem check", _cmd_verify)
    v.add_argument("--theorem", required=True, help="registered theorem id, e.g. POWER")
    v.add_argument("--n", type=int, required=True, help="vector length / matrix size")
    v.add_argument("--atoms", type=int, required=True, help="atom count k")
    v.add_argument("--budget", type=int, help="object budget for exhaustive runs")
    v.add_argument("--samples", type=int, help="use randomized sampling with this many draws (at least 1)")
    v.add_argument("--seed", type=int, default=0, help="seed for sampled runs")

    return parser, commands


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    # A known command goes straight to its own subparser, which parses what
    # the top-level parser would have handed it; the top-level parser handles
    # the rest (no argument, an unknown command, --help).
    command = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except ModelSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BoolmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
