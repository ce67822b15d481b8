"""Legacy setuptools shim + optional native-scheduler extension.

The metadata lives in ``pyproject.toml``; this file exists so
``pip install -e .`` works on environments whose setuptools predates
PEP-660 editable wheels (no ``wheel`` package available offline), and
to build the *optional* compiled scheduler backend::

    python setup.py build_ext --inplace    # drops repro/sim/_csched*.so next to sched.py

The extension is strictly optional: every build failure (no compiler,
no Python headers) degrades to a warning and the pure-python fallback
(``repro.sim.sched`` kind ``"native"`` then serves the reference
``HeapScheduler``), so the wheel always builds and all tests pass
either way.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """A build_ext that treats every extension as best-effort."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing toolchain entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compiler present but the build failed
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        sys.stderr.write(
            "WARNING: skipping optional native scheduler extension "
            f"({exc.__class__.__name__}: {exc}); "
            "repro will use the pure-python scheduler fallback\n"
        )


setup(
    ext_modules=[
        Extension(
            "repro.sim._csched",
            sources=["src/repro/sim/_csched.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
