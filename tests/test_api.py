"""The declared public surface and the README's ``## API`` list agree.

The surface is every ``__all__`` entry of the modules below, plus the
public attributes and dataclass fields of each class declared there, and
the operators and other dunder methods written in its body. The
README lists it one bullet per member, under a ``### `module``` heading, so
adding a public member without documenting it (or deleting one and leaving
its line) fails here.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import boolmat
from boolmat import algebra, bmatrix, bvec, chains, cli, model, oracle, rand

MODULES = (algebra, bvec, bmatrix, chains, model, rand, cli, oracle)
README = Path(__file__).resolve().parent.parent / "README.md"


def _public(name):
    return not name.startswith("_")


def _written_dunder(name, value, path):
    """A dunder method defined in the class body, not one ``dataclass`` made."""
    return (
        name.startswith("__")
        and name.endswith("__")
        and name not in ("__init__", "__post_init__")
        and inspect.isfunction(value)
        and value.__code__.co_filename == path
    )


def declared_surface():
    names = set()
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            names.add(f"{mod.__name__}.{name}")
            if inspect.isclass(obj):
                path = inspect.getfile(mod)
                members = {m for m, v in vars(obj).items() if _public(m) or _written_dunder(m, v, path)}
                if dataclasses.is_dataclass(obj):
                    # A field with a default (or none at all) is not in vars.
                    members |= {f.name for f in dataclasses.fields(obj)}
                names |= {f"{mod.__name__}.{name}.{m}" for m in members}
    return names


def readme_api():
    """The dotted names of the README's API bullets, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    names, module = [], None
    for line in section.splitlines():
        if heading := re.match(r"### `([\w.]+)`$", line):
            module = heading.group(1)
        elif bullet := re.match(r"- `(\w+(?:\.\w+)?)`", line):
            assert module is not None, line
            names.append(f"{module}.{bullet.group(1)}")
    return names


def test_readme_lists_exactly_the_declared_surface():
    listed = readme_api()
    assert len(listed) == len(set(listed)), "a member is listed twice"
    declared = declared_surface()
    assert sorted(declared - set(listed)) == [], "public members without a README line"
    assert sorted(set(listed) - declared) == [], "README lines naming no public member"


def test_every_public_definition_is_declared():
    for mod in MODULES:
        defined = {n for n, v in vars(mod).items() if _public(n) and getattr(v, "__module__", None) == mod.__name__}
        assert defined <= set(mod.__all__), mod.__name__


def test_package_exports_come_from_declared_names():
    owners = {name: mod for mod in MODULES for name in mod.__all__}
    exported = {n for n, v in vars(boolmat).items() if _public(n) and not inspect.ismodule(v)}
    library = (algebra, bvec, bmatrix, chains, model)
    assert exported == {name for mod in library for name in mod.__all__}
    for name in exported | boolmat._ORACLE_NAMES:
        assert name in owners, name
        assert getattr(boolmat, name) is getattr(owners[name], name), name
