import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolmat import _kernel, apply, identity, make_algebra, mul
from boolmat._kernel import pure
from boolmat import rand as br
from boolmat.oracle import _matvec as naive_matvec

REPO = Path(__file__).resolve().parent.parent
MODULE = "boolmat._kernel._packed"


def naive_matmul(n, a, b):
    """``OR_t (a_it & b_tj)`` in every entry: the product as defined, one
    literal loop per index."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for t in range(n):
                acc |= a[i * n + t] & b[t * n + j]
            out.append(acc)
    return tuple(out)


@pytest.fixture(scope="session")
def packed(tmp_path_factory):
    """The C kernel, built by setup.py exactly as an install builds it.

    The build runs with -Werror, so a new compiler warning in the kernel
    fails the suite wherever gcc or clang is present. The module is loaded
    from the build directory under its real name but never registered in
    sys.modules, so no later import of boolmat._kernel sees it.
    """
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the kernel")
    out = tmp_path_factory.mktemp("kernel_build")
    env = dict(os.environ, CFLAGS="-Wall -Wextra -Werror")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    built = sorted((out / "lib").glob("boolmat/_kernel/_packed*"))
    assert proc.returncode == 0 and built, f"kernel build failed:\n{proc.stdout}\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location(MODULE, built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loaded_kernel_stays_out_of_the_import_system(packed):
    assert packed.name == "packed64"
    assert sys.modules.get(MODULE) is not packed
    assert _kernel._packed is not packed


def test_square_matmul_matches_reference_oracle(packed):
    rng = random.Random(4242)
    for n in (0, 1, 2, 4, 7):
        for bits in (16, 64):
            a = [rng.getrandbits(bits) for _ in range(n * n)]
            b = [rng.getrandbits(bits) for _ in range(n * n)]
            expected = list(naive_matmul(n, a, b))
            assert pure.matmul(n, n, n, a, b) == expected
            assert packed.matmul(n, n, n, a, b) == expected


_DIMS = st.integers(0, 7)
_BITS = st.sampled_from([1, 2, 7, 63, 64])


@st.composite
def _product_inputs(draw, cols=_DIMS):
    n, m, p, bits = draw(_DIMS), draw(_DIMS), draw(cols), draw(_BITS)
    word = st.integers(0, (1 << bits) - 1) | st.just((1 << 64) - 1)
    a = draw(st.lists(word, min_size=n * m, max_size=n * m))
    b = draw(st.lists(word, min_size=m * p, max_size=m * p))
    return n, m, p, a, b


@settings(max_examples=300, deadline=None)
@given(_product_inputs())
def test_c_and_pure_agree_on_matmul(packed, args):
    n, m, p, a, b = args
    got = packed.matmul(n, m, p, a, b)
    assert got == pure.matmul(n, m, p, a, b)
    assert packed.matmul(n, m, p, tuple(a), tuple(b)) == got


@settings(max_examples=300, deadline=None)
@given(_product_inputs(cols=st.just(1)))
def test_c_and_pure_agree_on_matvec(packed, args):
    n, m, _, a, v = args
    assert packed.matvec(n, m, a, v) == pure.matvec(n, m, a, v)


@pytest.mark.parametrize("n,m,p", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0)])
def test_empty_shapes(packed, n, m, p):
    full = (1 << 64) - 1
    a, b = [full] * (n * m), [full] * (m * p)
    assert packed.matmul(n, m, p, a, b) == pure.matmul(n, m, p, a, b) == [0] * (n * p)
    assert packed.matvec(n, m, a, [full] * m) == pure.matvec(n, m, a, [full] * m)


# Malformed dimensions and operand lengths: both backends raise ValueError.
_DIMENSION_ERRORS = [
    lambda k: k.matmul(1, 1, 1, [0, 0], [0]),
    lambda k: k.matmul(2, 2, 2, [0] * 4, [0] * 3),
    lambda k: k.matvec(2, 1, [1], [1]),
    lambda k: k.matmul(-1, 0, 0, [], []),
    lambda k: k.matmul(0, 0, -1, [], []),
    lambda k: k.matvec(1, -1, [], []),
    lambda k: k.matmul(1 << 62, 1 << 62, 0, [], []),
    lambda k: k.matmul(1, 1, 1, [0, 5], [1]),
    lambda k: k.matvec(2, 1, [1, 1, 1], [1, 9]),
]


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda k: k.matmul(1, 1, 1, [-1], [0]), OverflowError),
        (lambda k: k.matmul(1, 1, 1, [0], [1 << 64]), OverflowError),
        (lambda k: k.matvec(1, 1, [1], [-1]), OverflowError),
        *((call, ValueError) for call in _DIMENSION_ERRORS),
        (lambda k: k.matmul(1, 1, 1, ["1"], [0]), TypeError),
        (lambda k: k.matmul(1, 1, 1, 5, [0]), TypeError),
    ],
)
def test_bad_input_raises(packed, call, error):
    with pytest.raises(error):
        call(packed)


@pytest.mark.parametrize("call", _DIMENSION_ERRORS)
def test_pure_rejects_malformed_dimensions(call):
    with pytest.raises(ValueError):
        call(pure)


def _wrong_backend(*args):
    raise AssertionError("product sent to the wrong backend")


@pytest.mark.parametrize("atoms", [64, 65])
def test_dispatch_through_the_c_kernel(packed, monkeypatch, atoms):
    # 64 atoms must reach the C kernel and 65 the pure one; the other
    # backend is made to fail so that a wrong dispatch cannot pass.
    monkeypatch.setattr(_kernel, "_packed", packed)
    unused = pure if atoms <= 64 else packed
    monkeypatch.setattr(unused, "matmul", _wrong_backend)
    monkeypatch.setattr(unused, "matvec", _wrong_backend)
    rng = random.Random(atoms)
    alg = make_algebra([f"a{i}" for i in range(atoms)])
    a = br.random_stochastic_matrix(rng, alg, 5)
    b = br.random_stochastic_matrix(rng, alg, 5)
    v = br.random_stochastic_vector(rng, alg, 5)
    assert mul(a, b).masks == naive_matmul(5, a.masks, b.masks)
    assert mul(a, identity(alg, 5)) == a
    assert apply(a, v).masks == naive_matvec(5, a.masks, v.masks)


def test_dispatch_uses_pure_path_beyond_word_width():
    # 65+ atoms cannot use the packed kernel; results must still be exact
    rng = random.Random(77)
    wide = make_algebra([f"a{i}" for i in range(70)])
    a = br.random_stochastic_matrix(rng, wide, 4)
    b = br.random_stochastic_matrix(rng, wide, 4)
    got = mul(a, b)
    assert list(got.masks) == pure.matmul(4, 4, 4, a.masks, b.masks)
    assert max(got.masks).bit_length() <= 70


def test_dispatch_empty_dimensions():
    assert _kernel.matmul(0, 0, 0, [], [], 4) == []
    assert _kernel.matmul(2, 0, 2, [], [], 4) == [0, 0, 0, 0]
