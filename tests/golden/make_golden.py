"""Write the golden records: what every model command prints on the
fixtures (``cli_outputs.json``) and what ``verify`` prints
(``verify_outputs.json``).

Run from the root of a checkout whose output is the reference::

    PYTHONPATH=src python tests/golden/make_golden.py

Each record holds one in-process ``boolmat.cli.main`` call with its exit
code, stdout and stderr. Model records name command, fixture and mode;
verify records hold the argv itself. ``tests/test_golden.py`` replays the
records, so a change that alters one output byte fails there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from boolmat.cli import fixture_path, main
from boolmat.oracle import THEOREMS

COMMANDS = ("check", "invariant", "reduce", "powers", "period", "atoms", "reach", "basis-extend")
FIXTURES = ("paper_s5.bm", "s6_final.bm")
# Named picks that reach output the all-matrices runs do not: the whole s5
# family is not jointly reducible, its matrix A alone is.
NAMED = (("reduce", "paper_s5.bm", ("A",)), ("invariant", "paper_s5.bm", ("A",)))
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_outputs.json")
VERIFY_GOLDEN = os.path.join(HERE, "verify_outputs.json")

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


def write(path: str, recs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    write(GOLDEN, records())
    write(VERIFY_GOLDEN, verify_records())
