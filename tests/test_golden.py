"""Every model command prints byte-for-byte what ``tests/golden`` recorded.

The records hold exit code, stdout and stderr of all 8 model commands on
both bundled fixtures in porcelain and human mode. An intended output
change regenerates them with ``tests/golden/make_golden.py``.
"""

import json

import pytest

from golden.make_golden import GOLDEN, argv_of, run

with open(GOLDEN, encoding="utf-8") as fh:
    RECORDS = json.load(fh)


def test_records_cover_every_command_fixture_and_mode():
    seen = {(r["command"], r["fixture"], r["porcelain"]) for r in RECORDS if not r["names"]}
    assert len(seen) == 8 * 2 * 2


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
