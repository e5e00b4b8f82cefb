"""Every CLI command prints byte-for-byte what ``tests/golden`` recorded.

``cli_outputs.json`` holds exit code, stdout and stderr of all 8 model
commands on both bundled fixtures in porcelain and human mode.
``verify_outputs.json`` holds ``verify`` runs in both modes: every theorem at
one exhaustive scale, UNITREDUCE at three, every theorem with a sampler at
one seeded sampled scale, and refused runs. ``construct_outputs.json`` holds
``extend_to_basis`` and ``matrix_atoms`` on seeded stochastic input, and
``reduce_outputs.json`` holds ``reduce_unitary`` and
``reduce_by_orthogonal_set`` on seeded unitary input, both as masks.
``counterexample_outputs.json`` holds every counterexample text each oracle
predicate reports on seeded objects outside its theorem's class, some under
a wrong helper, plus NORM and DESCENT in two-byte lanes. An intended output change regenerates them with
``tests/golden/make_golden.py``.
"""

import json

import pytest

from boolmat.oracle import THEOREMS
from golden.make_golden import (
    CONSTRUCT_GOLDEN,
    GOLDEN,
    REDUCE_GOLDEN,
    TEXT_GOLDEN,
    TEXT_SCALES,
    VERIFY_GOLDEN,
    WIDE_SCALE,
    WIDE_THEOREMS,
    argv_of,
    atoms_output,
    basis_output,
    orthogonal_reduce_output,
    run,
    text_output,
    unitary_reduce_output,
)

with open(GOLDEN, encoding="utf-8") as fh:
    RECORDS = json.load(fh)
with open(VERIFY_GOLDEN, encoding="utf-8") as fh:
    VERIFY_RECORDS = json.load(fh)
with open(CONSTRUCT_GOLDEN, encoding="utf-8") as fh:
    CONSTRUCT_RECORDS = json.load(fh)
with open(REDUCE_GOLDEN, encoding="utf-8") as fh:
    REDUCE_RECORDS = json.load(fh)
with open(TEXT_GOLDEN, encoding="utf-8") as fh:
    TEXT_RECORDS = json.load(fh)
UNITARY_RECORDS = [r for r in REDUCE_RECORDS if r["reduce"] == "unitary"]
ORTHOGONAL_RECORDS = [r for r in REDUCE_RECORDS if r["reduce"] == "orthogonal"]
BASIS_RECORDS = [r for r in CONSTRUCT_RECORDS if r["construct"] == "extend_to_basis"]
ATOM_RECORDS = [r for r in CONSTRUCT_RECORDS if r["construct"] == "matrix_atoms"]


def test_records_cover_every_command_fixture_and_mode():
    seen = {(r["command"], r["fixture"], r["porcelain"]) for r in RECORDS if not r["names"]}
    assert len(seen) == 8 * 2 * 2


def test_verify_records_cover_every_theorem_in_both_modes():
    passed = {
        (r["argv"][2], "--samples" in r["argv"], "--porcelain" in r["argv"])
        for r in VERIFY_RECORDS
        if r["exit"] == 0
    }
    samplers = [t for t, entry in THEOREMS.items() if entry.sampler is not None]
    want = {(t, False, p) for t in THEOREMS for p in (True, False)}
    want |= {(t, True, p) for t in samplers for p in (True, False)}
    assert passed == want


@pytest.mark.parametrize(
    "record",
    RECORDS,
    ids=[
        "-".join([r["command"], r["fixture"], *r["names"], "porcelain" if r["porcelain"] else "human"])
        for r in RECORDS
    ],
)
def test_cli_output_matches_golden(record):
    argv = argv_of(record["command"], record["fixture"], record["names"], record["porcelain"])
    assert run(argv) == (record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", VERIFY_RECORDS, ids=[" ".join(r["argv"][1:]) for r in VERIFY_RECORDS])
def test_verify_output_matches_golden(record):
    assert run(record["argv"]) == (record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize(
    "record", BASIS_RECORDS, ids=[f"n{r['n']}-k{r['k']}-m{len(r['vectors'])}" for r in BASIS_RECORDS]
)
def test_extend_to_basis_matches_golden(record):
    assert basis_output(record["n"], record["k"], record["vectors"]) == record["basis"]


@pytest.mark.parametrize(
    "record", ATOM_RECORDS, ids=[f"n{r['n']}-k{r['k']}-{i}" for i, r in enumerate(ATOM_RECORDS)]
)
def test_matrix_atoms_matches_golden(record):
    got = atoms_output(record["n"], record["k"], record["matrix"])
    assert got == {"atom_masks": record["atom_masks"], "selectors": record["selectors"]}


def test_construct_records_cover_every_scale():
    basis = {(r["n"], r["k"]) for r in BASIS_RECORDS if len(r["vectors"]) == r["n"]}
    atoms = {(r["n"], r["k"]) for r in ATOM_RECORDS}
    ks = (1, 3, 8, 65)
    assert basis == {(n, k) for n in range(1, 13) for k in ks}
    assert atoms == {(n, k) for n in range(0, 11) for k in ks}


@pytest.mark.parametrize(
    "record", UNITARY_RECORDS, ids=[f"n{r['n']}-k{r['k']}-{i}" for i, r in enumerate(UNITARY_RECORDS)]
)
def test_reduce_unitary_matches_golden(record):
    assert unitary_reduce_output(record["n"], record["k"], record["family"]) == record["result"]


@pytest.mark.parametrize(
    "record",
    ORTHOGONAL_RECORDS,
    ids=[f"n{r['n']}-k{r['k']}-m{len(r['invariants'])}" for r in ORTHOGONAL_RECORDS],
)
def test_reduce_by_orthogonal_set_matches_golden(record):
    got = orthogonal_reduce_output(record["n"], record["k"], record["matrix"], record["invariants"])
    assert got == record["result"]


def test_reduce_records_cover_every_scale():
    ks = (1, 3, 8, 65)
    reduced = {(r["n"], r["k"]) for r in UNITARY_RECORDS if r["result"] is not None}
    assert reduced == {(n, k) for n in range(1, 10) for k in ks}
    assert {r["k"] for r in UNITARY_RECORDS if r["result"] is None} == set(ks)
    assert {len(r["family"]) for r in UNITARY_RECORDS} == {1, 2, 3}
    orthogonal = {(r["n"], len(r["invariants"])) for r in ORTHOGONAL_RECORDS}
    assert orthogonal == {(n, m) for n in range(1, 10) for m in range(1, n + 1)}
    assert {r["k"] for r in ORTHOGONAL_RECORDS} == set(ks)


@pytest.mark.parametrize(
    "record",
    TEXT_RECORDS,
    ids=[f"{r['theorem']}-n{r['n']}-k{r['k']}" + (f"-{r['fake']}" if r["fake"] else "") for r in TEXT_RECORDS],
)
def test_counterexample_texts_match_golden(record):
    got = text_output(record["theorem"], record["n"], record["k"], record["fake"], record["objects"])
    assert got == record["failures"]


def test_counterexample_records_fail_every_theorem_at_every_scale():
    failing = {(r["theorem"], r["n"], r["k"]) for r in TEXT_RECORDS if r["failures"]}
    wide = {(t, *WIDE_SCALE) for t in WIDE_THEOREMS}
    assert failing == {(t, n, k) for t in THEOREMS for n, k in TEXT_SCALES} | wide
