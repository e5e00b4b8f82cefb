"""Every CLI command prints byte-for-byte what ``tests/golden`` recorded.

``cli_outputs.json`` holds exit code, stdout and stderr of all 8 model
commands on both bundled fixtures in porcelain and human mode.
``verify_outputs.json`` holds ``verify`` runs in both modes: every theorem at
one exhaustive scale, UNITREDUCE at three, every theorem with a sampler at
one seeded sampled scale, and refused runs. An intended output change
regenerates them with ``tests/golden/make_golden.py``.
"""

import json

import pytest

from boolmat.oracle import THEOREMS
from golden.make_golden import GOLDEN, VERIFY_GOLDEN, argv_of, run

with open(GOLDEN, encoding="utf-8") as fh:
    RECORDS = json.load(fh)
with open(VERIFY_GOLDEN, encoding="utf-8") as fh:
    VERIFY_RECORDS = json.load(fh)


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
