import ast
import collections
import gc
import inspect
import os
import random
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolmat
from boolmat import is_unitary, mul
from boolmat.algebra import Algebra, Elem, PreconditionError
from boolmat.cli import _build_parser, fixture_path, main
from boolmat.model import ModelFile, ModelSyntaxError, format_model, parse_model

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


# (text, line, column, message): one case per raise site of parse_model,
# then comment and whitespace edges.
SYNTAX_ERRORS = [
    ("\n  # only a comment\n", 1, 1, "empty model: expected an 'atoms:' line"),
    ("\n  x y\n", 2, 3, "expected 'atoms:', got 'x'"),
    ("  atoms:  # no names\n", 1, 3, "at least one atom name is required"),
    ("atoms: 1 1\n", 1, 8, "duplicate atom names: ('1', '1')"),
    ("atoms:  a,b\n", 1, 9, "atom names must be non-empty and free of ' ,{}()*'"),
    ("atoms: 1\nmatrix A 2x2\n* {}\n\n", 4, 1, "unexpected end of file inside matrix A"),
    ("atoms: 1\nvector v 1\n", 2, 1, "unexpected end of file inside vector v"),
    ("atoms: 1\nmatrix A 1x2\n  {1}\n", 3, 3, "matrix A: expected 2 elements, got 1"),
    ("atoms: 1 2\nvector v 2\n{1} {3}\n", 3, 5, "unknown atom name '3' (atoms: ('1', '2'))"),
    ("atoms: 1 2\nvector v 2\n{1} {1,}\n", 3, 5, "bad element literal '{1,}' (empty atom name)"),
    ("atoms: 1\n banana B 1x1\n*\n", 2, 2, "expected 'matrix' or 'vector', got 'banana'"),
    ("atoms: 1\n vector v\n", 2, 2, "vector header needs a name and a shape"),
    ("atoms: 1\nmatrix 9A 1x1\n", 2, 8, "bad name '9A'"),
    ("atoms: 1\nmatrix A 1x1\n*\nvector  A 1\n*\n", 4, 9, "duplicate name 'A'"),
    ("atoms: 1\nmatrix A 1\n", 2, 10, "bad shape '1', expected like 3x4"),
    ("atoms: 1\nmatrix A 0x1\n", 2, 10, "matrix dimensions must be positive"),
    ("atoms: 1\nvector v -1\n", 2, 10, "bad vector length '-1'"),
    # only ASCII digits give a size: int() reads '\u0662' as 2 and rejects '\u00b2'
    ("atoms: 1\nmatrix A \u0662x\u0662\n* *\n* *\n", 2, 10, "bad shape '\u0662x\u0662', expected like 3x4"),
    ("atoms: 1\nvector v \u00b2\n*\n", 2, 10, "bad vector length '\u00b2'"),
    # '#' inside a token does not start a comment: the token is a bad literal
    ("atoms: 1 2\nvector v 2\n{2} {1}#x\n", 3, 5,
     "bad element literal '{1}#x' (expected '{...}' or '*')"),
    # a tab, U+00A0 and U+2003 separate tokens and count one column each
    ("atoms:\t1\t2\nvector v 2\n\t{1}\t{3}\n", 3, 6, "unknown atom name '3' (atoms: ('1', '2'))"),
    ("atoms: 1 2\nvector v 2\n{1}\u00a0\u2003{3}\n", 3, 6, "unknown atom name '3' (atoms: ('1', '2'))"),
    # a form feed ends a line
    ("atoms: 1 2\fvector v 2\f{1} {2}\f{3}", 4, 1, "expected 'matrix' or 'vector', got '{3}'"),
    # the same bad literal on two lines is reported where it first occurs
    ("atoms: 1\nmatrix A 2x2\n* {9}\n{9} *\n", 3, 3, "unknown atom name '9' (atoms: ('1',))"),
    ("atoms: 1\nvector v 2\n{} *\nmatrix A 2x2\n{9} {}\n{} {9}\n", 5, 1,
     "unknown atom name '9' (atoms: ('1',))"),
]


@pytest.mark.parametrize("text,line,column,message", SYNTAX_ERRORS)
def test_parse_error_position_and_message(text, line, column, message):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, col {column}: {message}"


def test_comment_and_whitespace_edges_parse():
    text = (
        "#atoms: 9\n"
        "atoms:\t1\u00a02\u2003# names\n"
        "vector v 2 #\n"
        "{1}\t{2}\u00a0#{3}\n"
        "matrix A 2x2\f* {}\f{}\u2003*\n"
    )
    model = parse_model(text)
    assert model.algebra.atom_names == ("1", "2")
    assert model.vector("v").masks == (1, 2)
    assert model.matrix("A").masks == (3, 0, 0, 3)


def test_element_text_of_out_of_range_masks():
    # Elem is unchecked (Algebra.from_mask, BMatrix and BVec check); pin what
    # an out-of-range mask prints.
    p2 = boolmat.Algebra(["1", "2"])
    assert str(Elem(-1, p2)) == "{1,2}"
    assert str(Elem(7, p2)) == "{1,2}"
    assert str(Elem(4, p2)) == "{}"
    assert [str(Elem(m, p2)) for m in range(4)] == ["{}", "{1}", "{2}", "*"]


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def models(draw):
    atoms = draw(st.lists(st.from_regex(r"[0-9a-z]{1,3}", fullmatch=True), min_size=1, max_size=70, unique=True))
    alg = boolmat.Algebra(atoms)
    mask = st.integers(0, alg._full)
    model = ModelFile(algebra=alg)
    for name in draw(st.lists(_NAMES, max_size=4, unique=True)):
        if draw(st.booleans()):
            rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            masks = draw(st.lists(mask, min_size=rows * cols, max_size=rows * cols))
            model.matrices[name] = boolmat.BMatrix(rows, cols, tuple(masks), alg)
            model.order.append(("matrix", name))
        else:
            masks = draw(st.lists(mask, min_size=1, max_size=4))
            model.vectors[name] = boolmat.BVec(tuple(masks), alg)
            model.order.append(("vector", name))
    return model


@pytest.mark.parametrize("rows,cols", [(0, 0), (2, 0), (0, 3)])
def test_format_model_rejects_empty_matrix(rows, cols):
    # The text format has no way to write a matrix without rows or columns.
    alg = boolmat.Algebra(["1", "2"])
    model = ModelFile(algebra=alg)
    model.matrices["A"] = boolmat.BMatrix(rows, cols, (), alg)
    model.order.append(("matrix", "A"))
    with pytest.raises(PreconditionError, match="no empty matrices"):
        format_model(model)


@settings(max_examples=150, deadline=None)
@given(models())
def test_format_parse_roundtrip_random(model):
    again = parse_model(format_model(model))
    assert again.algebra.atom_names == model.algebra.atom_names
    assert again.order == model.order
    assert {n: (m.rows, m.cols, m.masks) for n, m in again.matrices.items()} == {
        n: (m.rows, m.cols, m.masks) for n, m in model.matrices.items()
    }
    assert {n: v.masks for n, v in again.vectors.items()} == {
        n: v.masks for n, v in model.vectors.items()
    }



# --- the model parser against a row-by-row reference parser ---
#
# Reference copies, verbatim apart from names: `Algebra.parse` and
# `parse_model` as they were before a model block was read in one lookup
# pass. The reference parser reads literals with the reference `parse`.


def _reference_algebra_parse(self, text):
    t = text.strip()
    if t == "*":
        return self.one
    if not (t.startswith("{") and t.endswith("}")):
        raise PreconditionError(f"bad element literal {text!r} (expected '{{...}}' or '*')")
    body = t[1:-1].strip()
    if not body:
        return self.zero
    parts = [p.strip() for p in body.split(",")]
    if any(not p for p in parts):
        raise PreconditionError(f"bad element literal {text!r} (empty atom name)")
    return self.from_atoms(parts)


_REF_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_REF_SHAPE_RE = re.compile(r"([0-9]+)x([0-9]+)$")
_REF_TOKEN_RE = re.compile(r"\S+")


def _reference_tokens(raw):
    tokens = raw.split()
    if "#" in raw:
        for i, tok in enumerate(tokens):
            if tok[0] == "#":
                return tokens[:i]
    return tokens


def _reference_error(line, index, message):
    lineno, raw, _ = line
    column = list(_REF_TOKEN_RE.finditer(raw))[index].start() + 1
    return ModelSyntaxError(lineno, column, message)


def _reference_parse_model(text):
    lines = text.splitlines()
    meaningful = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = _reference_tokens(raw)
        if tokens:
            meaningful.append((lineno, raw, tokens))
    if not meaningful:
        raise ModelSyntaxError(1, 1, "empty model: expected an 'atoms:' line")

    line = meaningful[0]
    tokens = line[2]
    if tokens[0] != "atoms:":
        raise _reference_error(line, 0, f"expected 'atoms:', got {tokens[0]!r}")
    if len(tokens) == 1:
        raise _reference_error(line, 0, "at least one atom name is required")
    try:
        algebra = boolmat.Algebra(tokens[1:])
    except PreconditionError as exc:
        raise _reference_error(line, 1, str(exc)) from None

    model = ModelFile(algebra=algebra)
    known = {}  # literal -> mask, valid for this algebra only
    pos = 1

    def parse_elements(expected, what):
        nonlocal pos
        if pos >= len(meaningful):
            raise ModelSyntaxError(len(lines), 1, f"unexpected end of file inside {what}")
        line = meaningful[pos]
        pos += 1
        tokens = line[2]
        if len(tokens) != expected:
            raise _reference_error(line, 0, f"{what}: expected {expected} elements, got {len(tokens)}")
        try:
            return list(map(known.__getitem__, tokens))
        except KeyError:
            pass
        for index, tok in enumerate(tokens):
            if tok not in known:
                try:
                    known[tok] = _reference_algebra_parse(algebra, tok).mask
                except PreconditionError as exc:
                    raise _reference_error(line, index, str(exc)) from None
        return list(map(known.__getitem__, tokens))

    while pos < len(meaningful):
        line = meaningful[pos]
        pos += 1
        tokens = line[2]
        kind = tokens[0]
        if kind not in ("matrix", "vector"):
            raise _reference_error(line, 0, f"expected 'matrix' or 'vector', got {kind!r}")
        if len(tokens) != 3:
            raise _reference_error(line, 0, f"{kind} header needs a name and a shape")
        name, shape = tokens[1], tokens[2]
        if not _REF_NAME_RE.match(name):
            raise _reference_error(line, 1, f"bad name {name!r}")
        if name in model.matrices or name in model.vectors:
            raise _reference_error(line, 1, f"duplicate name {name!r}")
        if kind == "matrix":
            m = _REF_SHAPE_RE.match(shape)
            if not m:
                raise _reference_error(line, 2, f"bad shape {shape!r}, expected like 3x4")
            rows, cols = int(m.group(1)), int(m.group(2))
            if rows < 1 or cols < 1:
                raise _reference_error(line, 2, "matrix dimensions must be positive")
            masks = []
            for _ in range(rows):
                masks.extend(parse_elements(cols, f"matrix {name}"))
            model.matrices[name] = boolmat.BMatrix(rows, cols, tuple(masks), algebra)
        else:
            if not (shape.isascii() and shape.isdigit()) or int(shape) < 1:
                raise _reference_error(line, 2, f"bad vector length {shape!r}")
            length = int(shape)
            model.vectors[name] = boolmat.BVec(tuple(parse_elements(length, f"vector {name}")), algebra)
        model.order.append((kind, name))
    return model


def _outcome(parse, text):
    """A parsed model as plain values, or the position and text of its error."""
    try:
        model = parse(text)
    except ModelSyntaxError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return (
        "model",
        model.algebra.atom_names,
        model.order,
        {n: (m.rows, m.cols, m.masks) for n, m in model.matrices.items()},
        {n: v.masks for n, v in model.vectors.items()},
    )


# Characters a mutation inserts or writes over: literal syntax, atom names
# that exist and one that does not, comment and separator characters, and
# line ends (U+00A0 separates tokens; a form feed also ends a line).
_MUTATION_CHARS = "{},*123459xA#\t \u00a0\f\n"


def _mutant(rng, text):
    """One seeded mutation of a model text: character edits, a dropped,
    duplicated or moved token, a dropped or duplicated row, or a bad literal
    in the first, middle or last row of a block."""
    lines = text.split("\n")
    kind = rng.randrange(6)
    if kind == 0:  # delete, insert or replace one to three characters
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(chars):
                del chars[i]
            elif op == 1 or i == len(chars):
                chars.insert(i, rng.choice(_MUTATION_CHARS))
            else:
                chars[i] = rng.choice(_MUTATION_CHARS)
        return "".join(chars)
    if kind in (1, 2):  # drop or duplicate one token, or move one to the next line
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        if tokens:
            j = rng.randrange(len(tokens))
            if kind == 1:
                del tokens[j]
            elif i + 1 < len(lines) and rng.random() < 0.5:
                lines[i + 1] = tokens.pop() + " " + lines[i + 1]
            else:
                tokens.insert(j, tokens[j])
        lines[i] = " ".join(tokens)
        return "\n".join(lines)
    if kind in (3, 4):  # drop or duplicate one line
        i = rng.randrange(len(lines))
        if kind == 3:
            del lines[i]
        else:
            lines.insert(i, lines[i])
        return "\n".join(lines)
    # a bad literal in the first, middle or last row of some block
    headers = [i for i, line in enumerate(lines) if line.split()[:1] in (["matrix"], ["vector"])]
    h = rng.choice(headers)
    rows = int(lines[h].split()[2].split("x")[0]) if lines[h].startswith("matrix") else 1
    i = h + 1 + rng.choice([0, rows // 2, rows - 1])
    tokens = lines[i].split()
    j = rng.randrange(len(tokens))
    tokens[j] = rng.choice(["{9}", "{1,}", "{,}", "{x,1}", "1", "{1", "**", "{}}", "{1}#"])
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _base_texts(rng):
    texts = [read(P5), read(S6)]
    for _ in range(40):
        alg = boolmat.Algebra([str(i) for i in range(1, rng.randint(1, 5) + 1)])
        model = ModelFile(algebra=alg)
        for idx in range(rng.randint(1, 3)):
            name = f"M{idx}"
            if rng.random() < 0.6:
                rows, cols = rng.randint(1, 5), rng.randint(1, 5)
                masks = tuple(rng.randrange(alg._full + 1) for _ in range(rows * cols))
                model.matrices[name] = boolmat.BMatrix(rows, cols, masks, alg)
                model.order.append(("matrix", name))
            else:
                masks = tuple(rng.randrange(alg._full + 1) for _ in range(rng.randint(1, 5)))
                model.vectors[name] = boolmat.BVec(masks, alg)
                model.order.append(("vector", name))
        texts.append(format_model(model))
    return texts


def test_block_parser_matches_row_by_row_reference_on_mutated_texts():
    rng = random.Random(20261019)
    bases = _base_texts(rng)
    seen = collections.Counter()
    for _ in range(3600):
        text = _mutant(rng, rng.choice(bases))
        expected = _outcome(_reference_parse_model, text)
        assert _outcome(parse_model, text) == expected, text
        kind = expected[0]
        if kind == "error":
            kind = next((m for m in _BLOCK_ERRORS if m in expected[3]), "other")
        seen[kind] += 1
    # the corpus reaches parsed models and every error a block can raise
    assert seen["model"] >= 300, seen
    for message in _BLOCK_ERRORS:
        assert seen[message] >= 50, seen


_BLOCK_ERRORS = ("unexpected end of file", "elements, got", "unknown atom name", "(empty atom name)",
                 "(expected '{...}' or '*')")


@pytest.mark.parametrize("fixture", ["paper_s5.bm", "s6_final.bm"])
def test_parse_reads_each_distinct_literal_once(monkeypatch, fixture):
    """The per-parse memo: ``_mask_of`` runs once per distinct literal text,
    however often that literal repeats in the file."""
    text = read(fixture_path(fixture))
    calls = collections.Counter()
    mask_of = Algebra._mask_of

    def counting(self, literal):
        calls[literal] += 1
        return mask_of(self, literal)

    monkeypatch.setattr(Algebra, "_mask_of", counting)
    parse_model(text)
    rows = map(_reference_tokens, text.splitlines())
    literals = [tok for row in rows if row and row[0] not in ("atoms:", "matrix", "vector") for tok in row]
    assert len(literals) > len(set(literals))
    assert calls == collections.Counter(set(literals))



_P3_ATOMS = "(atoms: ('1', '2', '3'))"


@pytest.mark.parametrize(
    "text,expected",
    [
        (" {2 , 1} ", 0b011),
        ("{1,1}", 0b001),
        ("{ }", 0),
        ("{,}", "bad element literal '{,}' (empty atom name)"),
        ("{x,}", "bad element literal '{x,}' (empty atom name)"),
        ("{x,y}", f"unknown atom name 'x' {_P3_ATOMS}"),
        ("{", "bad element literal '{' (expected '{...}' or '*')"),
        ("}", "bad element literal '}' (expected '{...}' or '*')"),
        ("1,2", "bad element literal '1,2' (expected '{...}' or '*')"),
    ],
)
def test_algebra_parse_edges_match_the_reference(text, expected):
    p3 = boolmat.Algebra(["1", "2", "3"])
    for parse in (p3.parse, lambda t: _reference_algebra_parse(p3, t)):
        if isinstance(expected, int):
            assert parse(text) == Elem(expected, p3)
        else:
            with pytest.raises(PreconditionError) as err:
                parse(text)
            assert str(err.value) == expected


_NAME_CHARS = "ab#,\t \u00a0\u2003\x1c\f\n"  # '#', ',' and whitespace model text treats specially


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_NAME_CHARS, min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
def test_every_accepted_atom_name_survives_format_and_parse(names):
    try:
        alg = boolmat.Algebra(names)
    except PreconditionError:
        return
    model = ModelFile(algebra=alg)
    model.vectors["v"] = boolmat.BVec((alg._full,), alg)
    model.order.append(("vector", "v"))
    assert parse_model(format_model(model)).algebra.atom_names == tuple(names)


def _live_algebras():
    return sum(isinstance(obj, Algebra) for obj in gc.get_objects())


def test_parsed_models_are_freed_without_the_cycle_collector():
    """An algebra holds no element of itself, so a model dropped by its last
    reference goes at once rather than at the next collection."""
    text = read(P5)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_algebras()
        for _ in range(50):
            parse_model(text)
        assert _live_algebras() - before == 0
    finally:
        if enabled:
            gc.enable()


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


def test_check_exits_one_on_a_non_stochastic_matrix(tmp_path, capsys):
    path = tmp_path / "mixed.bm"
    path.write_text("atoms: 1 2\nmatrix I 2x2\n* {}\n{} *\nmatrix N 2x2\n* *\n* {}\n")
    rc, out, _ = run_cli(["check", str(path)], capsys)
    assert rc == 1
    assert out.splitlines() == [
        "I: 2x2, stochastic yes, unitary yes",
        "N: 2x2, stochastic no, unitary no",
    ]


def test_check_refuses_a_model_without_matrices(tmp_path, capsys):
    path = tmp_path / "vector.bm"
    path.write_text("atoms: 1\nvector v 1\n*\n")
    rc, out, err = run_cli(["check", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: the model contains no matrices\n"


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


def test_reduce_to_empty_core(tmp_path, capsys):
    path = tmp_path / "one.bm"
    path.write_text("atoms: 1 2\nmatrix A 1x1\n*\n")
    rc, out, _ = run_cli(["reduce", str(path)], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "joint trace = *",
        "conjugator (symmetric reflection):",
        "  *",
        "core of A (0x0), trace {}:",
        "  (empty)",
        "A: no further reduction possible (core trace = {})",
    ]
    rc, out, _ = run_cli(["reduce", "--porcelain", str(path)], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "trace=*", "reducible=1", "fixed=1", "conjugator.row1=*", "A.core.trace={}", "A.further=0",
    ]


def test_reduce_reports_each_members_own_core_trace(tmp_path, capsys):
    path = tmp_path / "two.bm"
    path.write_text(
        "atoms: 1 2\n"
        "matrix I 3x3\n* {} {}\n{} * {}\n{} {} *\n"
        "matrix S 3x3\n* {} {}\n{} {} *\n{} * {}\n"
    )
    rc, out, _ = run_cli(["reduce", "--porcelain", str(path)], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert ["I.core.trace=*", "I.further=1"] == lines[lines.index("I.core.trace=*"):][:2]
    assert ["S.core.trace={}", "S.further=0"] == lines[-2:]
    rc, out, _ = run_cli(["reduce", str(path)], capsys)
    assert rc == 0
    assert "core of I (2x2), trace *:" in out and "I: further reduction possible (core trace = *)" in out
    assert "core of S (2x2), trace {}:" in out
    assert out.splitlines()[-1] == "S: no further reduction possible (core trace = {})"


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


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


_FAMILY_ERROR_MODELS = {
    "rectangular": "atoms: 1 2\nmatrix R 2x3\n* {} {}\n{} * *\n",
    "two_sizes": "atoms: 1 2\nmatrix A 2x2\n* {}\n{} *\nmatrix B 3x3\n* {} {}\n{} * {}\n{} {} *\n",
    "not_stochastic": "atoms: 1 2\nmatrix N 2x2\n* {1}\n{} *\n",
    "not_unitary": "atoms: 1 2\nmatrix C 2x2\n* *\n{} {}\n",
}


_FAMILY_ERRORS = [
    ("rectangular", "invariant", 2, {}, "error: joint trace needs square matrices\n"),
    ("rectangular", "reduce", 2, {}, "error: joint trace needs square matrices\n"),
    ("two_sizes", "invariant", 2, {}, "error: joint trace needs equal sizes\n"),
    ("two_sizes", "reduce", 2, {}, "error: joint trace needs equal sizes\n"),
    ("not_stochastic", "invariant", 2, {}, "error: find_invariant_stochastic needs stochastic matrices\n"),
    ("not_stochastic", "reduce", 2, {}, "error: reduce_unitary needs unitary matrices\n"),
    ("not_unitary", "invariant", 0,
     {False: "C: invariant vector (*,{})\n", True: "trace=*\ninvariant=(*,{})\n"}, ""),
    ("not_unitary", "reduce", 2, {}, "error: reduce_unitary needs unitary matrices\n"),
]


@pytest.mark.parametrize(
    "model,command,rc,out,err", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _FAMILY_ERRORS]
)
@pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
def test_family_commands_check_the_joint_trace_first(tmp_path, capsys, model, command, rc, out, err, porcelain):
    """The joint trace's shape checks come before the family's stochastic or
    unitary check: a 2x3 matrix and a 2x2 beside a 3x3 are reported as
    joint-trace errors."""
    path = tmp_path / f"{model}.bm"
    path.write_text(_FAMILY_ERROR_MODELS[model])
    argv = [command, *(["--porcelain"] if porcelain else []), str(path)]
    assert run_cli(argv, capsys) == (rc, out.get(porcelain, ""), err)


def test_reduce_unitary_scans_each_member_only_in_is_unitary(monkeypatch):
    """``is_unitary`` scans each member's columns and rows once and builds no
    adjoint; nothing scans again, and the diagonal meet runs once."""
    bmatrix = boolmat.bmatrix
    mats = list(parse_model(read(P5)).matrices.values())
    scans, inside = [], [False]
    real_scan, real_unitary = bmatrix._is_partition, bmatrix.is_unitary

    def scan(masks, full):
        scans.append((inside[0], tuple(masks)))
        return real_scan(masks, full)

    def unitary(a):
        inside[0] = True
        try:
            return real_unitary(a)
        finally:
            inside[0] = False

    def adjoint(a):
        raise AssertionError("an adjoint was built")

    monkeypatch.setattr(bmatrix, "_is_partition", scan)
    monkeypatch.setattr(bmatrix, "is_unitary", unitary)
    monkeypatch.setattr(bmatrix, "adjoint", adjoint)
    meets = _count_calls(monkeypatch, bmatrix, "_diagonal_meet")
    for family in ([mats[0]], mats):
        scans.clear()
        meets[0] = 0
        boolmat.reduce_unitary(family)
        expected = [
            (True, line)
            for m in family
            for line in [m.masks[j :: m.cols] for j in range(m.cols)]
            + [m.masks[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]
        ]
        assert sorted(scans) == sorted(expected)
        assert meets[0] == 1


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


def test_reach_human_report_of_a_transitive_relation(tmp_path, capsys):
    path = tmp_path / "identity.bm"
    path.write_text("atoms: 1 2\nmatrix I 2x2\n* {}\n{} *\n")
    rc, out, _ = run_cli(["reach", str(path)], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "I: sites 1..2, exponent 1, period 1",
        "  arrows: 1->1, 2->2",
        "  mutual: none",
        "  arrow relation transitive: yes",
        "  mutual relation is an equivalence",
    ]


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


def test_verify_porcelain_prints_the_counterexample_of_a_failed_check(monkeypatch, capsys):
    from boolmat import oracle

    # Every product zero: A**3 == A**1 fails on the first stochastic matrix.
    monkeypatch.setattr(oracle, "_wordmul", lambda n, w, x, tiles: 0)
    rc, out, _ = run_cli(
        ["verify", "--theorem", "POWER", "--n", "2", "--atoms", "2", "--porcelain"], capsys
    )
    assert rc == 1
    assert out.splitlines() == [
        "theorem=POWER",
        "n=2",
        "atoms=2",
        "mode=exhaustive",
        "checked=1",
        "verdict=fail",
        "counterexample=[* *; {} {}]",
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


@pytest.mark.parametrize("extra", [["--atoms", "2"], ["--atoms", "0", "--samples", "3"]])
def test_verify_reports_an_unknown_theorem_before_its_dimensions(extra, capsys):
    rc, out, err = run_cli(["verify", "--theorem", "FERMAT", "--n", "0", *extra], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown theorem 'FERMAT'; registered: ")


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


COMMANDS = ("check", "invariant", "reduce", "powers", "period", "atoms", "reach", "basis-extend", "verify")


def _exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_unrecognized_option_after_a_command_is_reported_by_that_command(capsys):
    rc, out, err = _exit(["check", P5, "--bogus"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: boolmat check ")
    assert "boolmat check: error: unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["--porcelain", "check", P5]], ids=["none", "unknown", "option-first"])
def test_a_missing_or_unknown_command_is_a_top_level_usage_error(argv, capsys):
    rc, out, err = _exit(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: boolmat [-h]")
    assert "boolmat: error:" in err


def test_help_lists_every_command(capsys):
    rc, out, err = _exit(["--help"], capsys)
    assert (rc, err) == (0, "")
    assert out.startswith("usage: boolmat [-h]")
    assert set(_build_parser()[1]) == set(COMMANDS)
    for name in COMMANDS:
        assert f"    {name} " in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", P5],
        ["reduce", "--porcelain", P5, "A", "B"],
        ["basis-extend", P5, "b", "--porcelain"],
        ["verify", "--theorem", "POWER", "--n", "2", "--atoms", "3", "--samples", "4", "--seed", "9"],
        ["verify", "--porcelain", "--atoms=2", "--n=3", "--theorem=NORM", "--budget", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_parses_as_it_would_through_the_top_level_parser(argv):
    parser, commands = _build_parser()
    direct = vars(commands[argv[0]].parse_args(argv[1:]))
    assert vars(parser.parse_args(argv)) == {"command": argv[0], **direct}


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.bm"
    path.write_text("atoms: 1 2\nvector v 2\n{1} {1,}\n")
    rc, _, err = run_cli(["check", str(path)], capsys)
    assert rc == 2
    assert "line 3, col 5" in err


def test_non_ascii_vector_length_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.bm"
    path.write_text("atoms: 1 2\nmatrix A 1x1\n*\nvector b \u00b2\n", encoding="utf-8")
    rc, out, err = run_cli(["check", str(path)], capsys)
    assert (rc, out, err) == (2, "", "parse error: line 4, col 10: bad vector length '\u00b2'\n")


def test_missing_file_exit_code(capsys):
    rc, _, err = run_cli(["check", "/nonexistent/path.bm"], capsys)
    assert rc == 2
    assert "cannot read" in err


def test_non_utf8_file_is_a_precondition_error(tmp_path, capsys):
    # Exit code 1 would claim a negative verdict; an unreadable file is 2.
    path = tmp_path / "bad.bm"
    path.write_bytes(b"atoms: 1\nvector v 1\n\xff\n")
    rc, out, err = run_cli(["check", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_unknown_matrix_name(capsys):
    rc, _, err = run_cli(["period", S6, "Z"], capsys)
    assert rc == 2
    assert "no matrix named" in err


def test_unknown_vector_name(p3):
    model = ModelFile(algebra=p3, vectors={"a": vec(p3, "({1},{2,3})"), "b": vec(p3, "(*,{})")})
    assert model.vector("b") == vec(p3, "(*,{})")
    with pytest.raises(PreconditionError, match="^no vector named 'c'; have: a, b$"):
        model.vector("c")
    with pytest.raises(PreconditionError, match="^no vector named 'a'; have: none$"):
        ModelFile(algebra=p3).vector("a")


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(boolmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "boolmat.cli", "check", "--porcelain", P5], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "A.unitary=1" in proc.stdout.splitlines()


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


def test_importing_the_library_and_cli_leaves_the_oracle_unloaded():
    src = os.path.dirname(os.path.dirname(boolmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, boolmat, boolmat.cli, boolmat.rand\n"
        "print('boolmat.oracle' in sys.modules)\n"
        "from boolmat.oracle import brute_check\n"
        "names = ['BudgetExceededError', 'Verdict', 'brute_check', 'sample_check']\n"
        "print(boolmat.brute_check is brute_check, all(hasattr(boolmat, n) for n in names))\n"
        "print(hasattr(boolmat, 'no_such_name'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "False"]


def test_importing_the_cli_leaves_importlib_resources_unloaded():
    # -S skips site, whose .pth files may load importlib.resources themselves.
    src = os.path.dirname(os.path.dirname(boolmat.__file__))
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import boolmat.cli\n"
        "print('importlib.resources' in sys.modules, boolmat.cli.fixture_path('s6_final.bm'))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", S6]


def test_lazy_oracle_names_are_public_oracle_names():
    from boolmat import oracle

    assert boolmat._ORACLE_NAMES <= set(oracle.__all__)
    assert all(getattr(boolmat, name) is getattr(oracle, name) for name in boolmat._ORACLE_NAMES)


def test_verify_budget_defaults_to_the_oracle_budget(capsys):
    from boolmat.oracle import DEFAULT_BUDGET

    argv = ["verify", "--porcelain", "--theorem", "STOINV", "--n", "2", "--atoms", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--budget", str(DEFAULT_BUDGET)]) == 0
    assert capsys.readouterr().out == default
    assert main([*argv, "--budget", "15"]) == 2
    assert "enumeration needs budget 16, configured 15" in capsys.readouterr().err


def test_cli_imports_no_private_library_name():
    """The CLI calls the public functions, so it shares their checks and
    their trace: a private twin of one would import an underscore name."""
    import boolmat.cli

    tree = ast.parse(inspect.getsource(boolmat.cli))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("boolmat"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_library_holds_no_run_time_self_check():
    """Theorems are checked by the oracle and the tests, not re-proved on every
    call: no module holds an ``assert``, which ``python -O`` strips, or reads
    ``__debug__``."""
    package = os.path.dirname(boolmat.__file__)
    found = []
    for folder, _, files in os.walk(package):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    tree = ast.parse(f.read())
                found += [
                    (os.path.relpath(path, package), node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
                ]
    assert found == []
