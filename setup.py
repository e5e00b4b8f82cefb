"""Build script: compiles the packed-word C kernel when a C compiler works.

The package is fully functional without the extension: ``optional=True``
lets a failed compile finish the build without it, and `boolmat._kernel`
then falls back to the pure-Python implementation at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "boolmat._kernel._packed",
            sources=["src/boolmat/_kernel/_packed.c"],
            optional=True,
        )
    ]
)
