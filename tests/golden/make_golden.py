"""Write ``cli_outputs.json``: what every model command prints on the fixtures.

Run from the root of a checkout whose output is the reference::

    PYTHONPATH=src python tests/golden/make_golden.py

Each record holds one in-process ``boolmat.cli.main`` call (command, fixture,
mode) with its exit code, stdout and stderr. ``tests/test_golden.py``
replays the records, so a change that alters one output byte fails there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from boolmat.cli import fixture_path, main

COMMANDS = ("check", "invariant", "reduce", "powers", "period", "atoms", "reach", "basis-extend")
FIXTURES = ("paper_s5.bm", "s6_final.bm")
# Named picks that reach output the all-matrices runs do not: the whole s5
# family is not jointly reducible, its matrix A alone is.
NAMED = (("reduce", "paper_s5.bm", ("A",)), ("invariant", "paper_s5.bm", ("A",)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_outputs.json")


def argv_of(command: str, fixture: str, names: list[str], porcelain: bool) -> list[str]:
    return [command, fixture_path(fixture), *names] + (["--porcelain"] if porcelain else [])


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


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
