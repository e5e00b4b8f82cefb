"""Model files and ``--porcelain`` output, read and written without ``boolmat``.

The benchmark writes the generated model files itself and reads the
program's answers back into masks, so its checks compare bit masks rather
than the program's own formatting.
"""

from __future__ import annotations


class Model:
    """Atom names plus named square matrices and vectors, as masks."""

    def __init__(self, atom_names):
        self.atom_names = list(atom_names)
        self.matrices = {}
        self.vectors = {}

    @property
    def k(self):
        return len(self.atom_names)

    @property
    def full(self):
        return (1 << self.k) - 1

    def elem(self, text):
        """Mask of an element literal: ``*``, ``{}`` or ``{a,b}``."""
        if text == "*":
            return self.full
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad element {text!r}")
        inner = text[1:-1]
        mask = 0
        for name in inner.split(",") if inner else ():
            mask |= 1 << self.atom_names.index(name)
        return mask

    def fmt(self, mask):
        return "{" + ",".join(a for i, a in enumerate(self.atom_names) if mask >> i & 1) + "}"

    def row(self, text):
        return [self.elem(t) for t in text.split()]

    def vector(self, text):
        """Masks of a vector literal ``({1},{2,3},*)``."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad vector {text!r}")
        parts, depth, cur = [], 0, ""
        for ch in body[1:-1]:
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
                continue
            depth += ch == "{"
            depth -= ch == "}"
            cur += ch
        parts.append(cur)
        return tuple(self.elem(p.strip()) for p in parts)

    def text(self):
        out = ["atoms: " + " ".join(self.atom_names)]
        for name, (n, masks) in self.matrices.items():
            out.append(f"matrix {name} {n}x{n}")
            for i in range(n):
                out.append(" ".join(self.fmt(x) for x in masks[i * n : (i + 1) * n]))
        for name, masks in self.vectors.items():
            out.append(f"vector {name} {len(masks)}")
            out.append(" ".join(self.fmt(x) for x in masks))
        return "\n".join(out) + "\n"


def read_model(text):
    """Parse the subset of the model format the bundled fixtures use."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    model = Model(lines[0][1:])
    pos = 1
    while pos < len(lines):
        kind, name, shape = lines[pos]
        if kind == "matrix":
            n = int(shape.split("x")[0])
            masks = []
            for ln in lines[pos + 1 : pos + 1 + n]:
                masks.extend(model.elem(t) for t in ln)
            model.matrices[name] = (n, tuple(masks))
            pos += 1 + n
        else:
            model.vectors[name] = tuple(model.elem(t) for t in lines[pos + 1])
            pos += 2
    return model


def porcelain(text):
    """``key=value`` lines as a dict; a repeated key is a malformed answer."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in out:
            raise ValueError(f"bad porcelain line {line!r}")
        out[key] = value
    return out
