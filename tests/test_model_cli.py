import os
import shutil
import subprocess
import sys

import pytest

import boolmat
from boolmat import is_unitary, mul
from boolmat.cli import fixture_path, main
from boolmat.model import ModelSyntaxError, format_model, parse_model

from conftest import vec

P5 = fixture_path("paper_s5.bm")
S6 = fixture_path("s6_final.bm")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- model parsing ---


def test_parse_worked_example_fixture():
    model = parse_model(read(P5))
    assert set(model.matrices) == {"A", "B", "BAB"}
    assert set(model.vectors) == {"b"}
    a, b_mat, bab = model.matrix("A"), model.matrix("B"), model.matrix("BAB")
    assert all(m.rows == m.cols == 5 for m in (a, b_mat, bab))
    # the fixture is consistent: A = B (BAB) B and all three are unitary
    assert mul(b_mat, mul(bab, b_mat)) == a
    assert all(is_unitary(m) for m in (a, b_mat, bab))


def test_parse_final_example_fixture():
    model = parse_model(read(S6))
    a = model.matrix("A")
    assert mul(a, a) == model.matrix("Asquared")


def test_parse_simple_vector():
    model = parse_model("atoms: 1 2\nvector v 2\n{1} {2}\n")
    assert model.vector("v").is_stochastic()


def test_parse_reports_position_of_bad_literal():
    text = "atoms: 1 2\nvector v 2\n{1} {1,}\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert err.value.column == 5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty model"),
        ("matrix A 2x2\n", "expected 'atoms:'"),
        ("atoms:\n", "at least one atom"),
        ("atoms: 1 1\n", "duplicate"),
        ("atoms: 1\nmatrix A 1x2\n{1}\n", "expected 2 elements"),
        ("atoms: 1\nmatrix A 2x2\n{1} {}\n", "unexpected end of file"),
        ("atoms: 1\nmatrix A 1x1\n{2}\n", "unknown atom"),
        ("atoms: 1\nmatrix A 1x1\n*\nmatrix A 1x1\n*\n", "duplicate name"),
        ("atoms: 1\nmatrix A 0x2\n", "positive"),
        ("atoms: 1\nvector v 1\n", "unexpected end of file"),
        ("atoms: 1\nbanana B 1x1\n*\n", "expected 'matrix' or 'vector'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_format_parse_roundtrip():
    model = parse_model(read(P5))
    again = parse_model(format_model(model))
    assert again.algebra.atom_names == model.algebra.atom_names
    assert again.order == model.order
    for name, m in model.matrices.items():
        assert again.matrices[name].masks == m.masks
    for name, v in model.vectors.items():
        assert again.vectors[name].masks == v.masks


def test_comments_and_blank_lines_ignored():
    text = "# header\natoms: 1 2  # trailing\n\nvector v 2  # note\n{1} {2}  # row\n"
    model = parse_model(text)
    assert model.vector("v").is_stochastic()


# --- CLI commands, captured via capsys ---


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_porcelain(capsys):
    rc, out, _ = run_cli(["check", "--porcelain", P5], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "A.stochastic=1",
        "A.unitary=1",
        "B.stochastic=1",
        "B.unitary=1",
        "BAB.stochastic=1",
        "BAB.unitary=1",
    ]


def test_invariant_porcelain(capsys):
    rc, out, _ = run_cli(["invariant", "--porcelain", P5, "A"], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "trace=*",
        "invariant=({1},{4,5},{},{2,3},{})",
    ]


def test_invariant_none_exits_one(tmp_path, capsys):
    path = tmp_path / "swap.bm"
    path.write_text("atoms: 1 2\nmatrix S 2x2\n{} *\n* {}\n")
    rc, out, _ = run_cli(["invariant", "--porcelain", str(path), "S"], capsys)
    assert rc == 1
    assert out.splitlines() == ["trace={}", "invariant=none"]


def test_reduce_porcelain_golden(capsys):
    rc, out, _ = run_cli(["reduce", "--porcelain", P5, "A"], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "trace=*",
        "reducible=1",
        "fixed=1",
        "conjugator.row1={1} {4,5} {} {2,3} {}",
        "conjugator.row2={4,5} {1,2,3} {} {} {}",
        "conjugator.row3={} {} * {} {}",
        "conjugator.row4={2,3} {} {} {1,4,5} {}",
        "conjugator.row5={} {} {} {} *",
        "A.core.row1={} {} {2,4} {1,3,5}",
        "A.core.row2={} {4,5} {1,3} {2}",
        "A.core.row3={2,4} {1,3} {5} {}",
        "A.core.row4={1,3,5} {2} {} {4}",
        "A.core.trace={4,5}",
        "A.further=0",
    ]


def test_reduce_human_mentions_no_further_reduction(capsys):
    rc, out, _ = run_cli(["reduce", P5, "A"], capsys)
    assert rc == 0
    assert "no further reduction possible (core trace = {4,5})" in out


def test_reduce_not_reducible_exits_one(tmp_path, capsys):
    path = tmp_path / "swap.bm"
    path.write_text("atoms: 1 2\nmatrix S 2x2\n{} *\n* {}\n")
    rc, out, _ = run_cli(["reduce", str(path)], capsys)
    assert rc == 1
    assert "not reducible" in out


def test_reduce_rejects_stochastic_non_unitary(tmp_path, capsys):
    path = tmp_path / "collapse.bm"
    path.write_text("atoms: 1 2\nmatrix C 2x2\n* *\n{} {}\n")
    rc, _, err = run_cli(["reduce", str(path)], capsys)
    assert rc == 2
    assert "unitary" in err


def test_period_porcelain(capsys):
    rc, out, _ = run_cli(["period", "--porcelain", S6, "A"], capsys)
    assert rc == 0
    assert out.splitlines() == ["A.exponent=1", "A.period=2", "A.distinct=2"]


def test_atoms_porcelain(capsys):
    rc, out, _ = run_cli(["atoms", "--porcelain", S6, "A"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "A.count=3"
    assert sorted(lines[1].removeprefix("A.atoms=").split()) == ["{1}", "{2}", "{3}"]


def test_reach_porcelain_golden(capsys):
    rc, out, _ = run_cli(["reach", "--porcelain", S6, "A"], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "A.sites=3",
        "A.arrows=1>1 1>2 2>1 2>2 2>3 3>1 3>2 3>3",
        "A.mutual=1<>2 2<>3",
        "A.transitive=0",
        "A.equivalence=0",
    ]


def test_reach_human_report_verbatim(capsys):
    rc, out, _ = run_cli(["reach", S6, "A"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "  arrow relation not transitive: 1->2 and 2->3 but not 1->3" in lines
    assert "  mutual: 1<->2, 2<->3" in lines


def test_powers_porcelain(capsys):
    rc, out, _ = run_cli(["powers", "--porcelain", S6, "A"], capsys)
    assert rc == 0
    assert out.splitlines() == ["A.identity=A^8=A^2", "A.ok=1"]


def test_basis_extend(capsys):
    rc, out, _ = run_cli(["basis-extend", "--porcelain", P5, "b"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "basis.1=({1},{},{},{2,3,5},{4})"


def test_verify_porcelain(capsys):
    rc, out, _ = run_cli(
        ["verify", "--porcelain", "--theorem", "STOINV", "--n", "2", "--atoms", "2"],
        capsys,
    )
    assert rc == 0
    assert out.splitlines() == [
        "theorem=STOINV",
        "n=2",
        "atoms=2",
        "mode=exhaustive",
        "checked=16",
        "verdict=pass",
    ]


def test_verify_sampled(capsys):
    rc, out, _ = run_cli(
        ["verify", "--porcelain", "--theorem", "POWER", "--n", "4", "--atoms", "4",
         "--samples", "25", "--seed", "7"],
        capsys,
    )
    assert rc == 0
    assert "mode=sampled" in out.splitlines()
    assert "verdict=pass" in out.splitlines()


def test_verify_budget_refusal(capsys):
    rc, _, err = run_cli(
        ["verify", "--theorem", "POWER", "--n", "6", "--atoms", "6"], capsys
    )
    assert rc == 2
    assert "budget" in err


def test_verify_unknown_theorem(capsys):
    rc, _, err = run_cli(
        ["verify", "--theorem", "NOPE", "--n", "2", "--atoms", "2"], capsys
    )
    assert rc == 2
    assert "unknown theorem" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_non_positive_samples(samples, capsys):
    rc, out, err = run_cli(
        ["verify", "--theorem", "NORM", "--n", "2", "--atoms", "2", "--samples", samples], capsys
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [[], ["--samples", "3"]])
def test_verify_outside_preconditions_is_a_usage_error(extra, capsys):
    rc, out, err = run_cli(
        ["verify", "--porcelain", "--theorem", "INCOMPLETE", "--n", "1", "--atoms", "2", *extra],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.bm"
    path.write_text("atoms: 1 2\nvector v 2\n{1} {1,}\n")
    rc, _, err = run_cli(["check", str(path)], capsys)
    assert rc == 2
    assert "line 3, col 5" in err


def test_missing_file_exit_code(capsys):
    rc, _, err = run_cli(["check", "/nonexistent/path.bm"], capsys)
    assert rc == 2
    assert "cannot read" in err


def test_unknown_matrix_name(capsys):
    rc, _, err = run_cli(["period", S6, "Z"], capsys)
    assert rc == 2
    assert "no matrix named" in err


def test_console_script_runs():
    exe = shutil.which("boolmat")
    assert exe, "console script should be installed"
    proc = subprocess.run(
        [exe, "check", "--porcelain", P5], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "A.unitary=1" in proc.stdout



def test_successive_in_process_calls_match_fresh_runs(capsys):
    # main() shares one parser across calls; no value may carry over from
    # one call to the next, so each must print what a fresh process prints.
    calls = [
        ["verify", "--porcelain", "--theorem", "POWER", "--n", "2", "--atoms", "2", "--samples", "3"],
        ["verify", "--porcelain", "--theorem", "POWER", "--n", "2", "--atoms", "2"],
        ["verify", "--theorem", "POWER", "--n", "2"],
        ["reach", S6],
    ]
    src = os.path.dirname(os.path.dirname(boolmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from boolmat.cli import main; sys.exit(main(sys.argv[1:]))"
    results = []
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        results.append((rc, out))
    assert "mode=sampled" in results[0][1].splitlines()
    assert "mode=exhaustive" in results[1][1].splitlines()
    assert results[2] == (2, "")
    assert results[3][0] == 0
