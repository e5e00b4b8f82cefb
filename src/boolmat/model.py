"""Text format for algebra models: named matrices and vectors in one file.

Grammar, one item per line; a token that starts with ``#`` begins a
comment that runs to the end of the line::

    atoms: 1 2 3 4 5
    matrix A 2x3
    {1} {2,3} {}
    *   {}    {4}
    vector b 3
    {1} {2,3} {4,5}

Element literals are ``{}``, ``{name,name}`` and ``*``; matrix rows list
one line each, vectors sit on a single line. Formatting a parsed model and
parsing it back reproduces every value bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import Algebra, BoolmatError, PreconditionError
from .bmatrix import BMatrix
from .bvec import BVec

__all__ = [
    "ModelFile",
    "ModelSyntaxError",
    "parse_model",
    "format_model",
    "element_rows",
    "matrix_lines",
]


class ModelSyntaxError(BoolmatError):
    """Parse failure, annotated with 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


@dataclass
class ModelFile:
    """Parsed model: one algebra plus named matrices and vectors."""

    algebra: Algebra
    matrices: dict[str, BMatrix] = field(default_factory=dict)
    vectors: dict[str, BVec] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def matrix(self, name: str) -> BMatrix:
        return _named("matrix", self.matrices, name)

    def vector(self, name: str) -> BVec:
        return _named("vector", self.vectors, name)


def _named(kind: str, table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise PreconditionError(
            f"no {kind} named {name!r}; have: {', '.join(table) or 'none'}"
        ) from None


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_SHAPE_RE = re.compile(r"([0-9]+)x([0-9]+)$")
_TOKEN_RE = re.compile(r"\S+")

# One meaningful line: 1-based number, raw text, tokens before any comment.
_Line = tuple[int, str, list[str]]


def _tokens(raw: str) -> list[str]:
    """Whitespace-separated tokens of a line; a token starting with ``#``
    ends its content."""
    tokens = raw.split()
    if "#" in raw:
        for i, tok in enumerate(tokens):
            if tok[0] == "#":
                return tokens[:i]
    return tokens


def _error(line: _Line, index: int, message: str) -> ModelSyntaxError:
    """Error at the ``index``-th token of ``line``; only here is a column needed."""
    lineno, raw, _ = line
    column = list(_TOKEN_RE.finditer(raw))[index].start() + 1
    return ModelSyntaxError(lineno, column, message)


def parse_model(text: str) -> ModelFile:
    """Parse model text; raises :class:`ModelSyntaxError` with position."""
    lines = text.splitlines()
    meaningful: list[_Line] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokens(raw)
        if tokens:
            meaningful.append((lineno, raw, tokens))
    if not meaningful:
        raise ModelSyntaxError(1, 1, "empty model: expected an 'atoms:' line")

    line = meaningful[0]
    tokens = line[2]
    if tokens[0] != "atoms:":
        raise _error(line, 0, f"expected 'atoms:', got {tokens[0]!r}")
    if len(tokens) == 1:
        raise _error(line, 0, "at least one atom name is required")
    try:
        algebra = Algebra(tokens[1:])
    except PreconditionError as exc:
        raise _error(line, 1, str(exc)) from None

    model = ModelFile(algebra=algebra)
    known: dict[str, int] = {}  # literal -> mask, valid for this algebra only
    pos = 1
    while pos < len(meaningful):
        line = meaningful[pos]
        pos += 1
        tokens = line[2]
        kind = tokens[0]
        if kind not in ("matrix", "vector"):
            raise _error(line, 0, f"expected 'matrix' or 'vector', got {kind!r}")
        if len(tokens) != 3:
            raise _error(line, 0, f"{kind} header needs a name and a shape")
        name, shape = tokens[1], tokens[2]
        if not _NAME_RE.match(name):
            raise _error(line, 1, f"bad name {name!r}")
        if name in model.matrices or name in model.vectors:
            raise _error(line, 1, f"duplicate name {name!r}")
        if kind == "matrix":
            m = _SHAPE_RE.match(shape)
            if not m:
                raise _error(line, 2, f"bad shape {shape!r}, expected like 3x4")
            rows, cols = int(m.group(1)), int(m.group(2))
            if rows < 1 or cols < 1:
                raise _error(line, 2, "matrix dimensions must be positive")
        else:
            if not (shape.isascii() and shape.isdigit()) or int(shape) < 1:
                raise _error(line, 2, f"bad vector length {shape!r}")
            rows, cols = 1, int(shape)
        block = meaningful[pos : pos + rows]
        pos += rows
        masks: list[int] = []
        for row in block:
            tokens = row[2]
            if len(tokens) != cols:
                raise _error(row, 0, f"{kind} {name}: expected {cols} elements, got {len(tokens)}")
            for index, tok in enumerate(tokens):
                if tok not in known:
                    try:
                        known[tok] = algebra._mask_of(tok)
                    except PreconditionError as exc:
                        raise _error(row, index, str(exc)) from None
            masks.extend(map(known.__getitem__, tokens))
        if len(block) < rows:
            raise ModelSyntaxError(len(lines), 1, f"unexpected end of file inside {kind} {name}")
        if kind == "matrix":
            model.matrices[name] = BMatrix._unchecked(rows, cols, tuple(masks), algebra)
        else:
            model.vectors[name] = BVec._unchecked(tuple(masks), algebra)
        model.order.append((kind, name))
    return model


def element_rows(mat: BMatrix) -> list[list[str]]:
    """Entry literals of ``mat``, row by row; each distinct mask is printed once."""
    literal = mat.algebra.literal
    texts = {mask: literal(mask) for mask in set(mat.masks)}
    cells = [texts[mask] for mask in mat.masks]
    cols = mat.cols
    return [cells[i * cols : (i + 1) * cols] for i in range(mat.rows)]


def matrix_lines(mat: BMatrix) -> list[str]:
    """One line per row, columns left-aligned to their widest literal."""
    cells = element_rows(mat)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return [" ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]


def format_model(model: ModelFile) -> str:
    """Canonical text for a model; ``parse_model`` inverts it bit-exactly."""
    out = ["atoms: " + " ".join(model.algebra.atom_names)]
    for kind, name in model.order:
        out.append("")
        if kind == "matrix":
            mat = model.matrices[name]
            if not mat.rows or not mat.cols:
                raise PreconditionError(
                    f"matrix {name} is {mat.rows}x{mat.cols}; the model format has no empty matrices"
                )
            out.append(f"matrix {name} {mat.rows}x{mat.cols}")
            out.extend(matrix_lines(mat))
        else:
            vec = model.vectors[name]
            out.append(f"vector {name} {len(vec)}")
            out.append(" ".join(map(vec.algebra.literal, vec.masks)))
    return "\n".join(out) + "\n"
