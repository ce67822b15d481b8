"""Legacy setuptools shim + the optional native extensions.

The metadata lives in ``pyproject.toml``; this file exists so
``pip install -e .`` works on environments whose setuptools predates
PEP-660 editable wheels (no ``wheel`` package available offline), and
to build the *optional* compiled kernels::

    python setup.py build_ext --inplace

That builds four extensions next to their Python twins:

* ``repro/sim/_csched*.so`` — the DES kernel's event heap
  (:mod:`repro.sim.sched`; ``HeapScheduler`` is the reference);
* ``repro/net/_cadmit*.so`` — the fabric's flow-clock slice loop
  (:mod:`repro.net.flowclock`; ``HierarchicalFabric._admit_unicast``
  is the reference).  It is compiled with ``-ffp-contract=off`` so no
  multiply-add is fused: its float operations are the Python loop's,
  in the same order, and its clocks are bit-equal to them;
* ``repro/apps/sort/_cbucket*.so`` — the sort's stable bucket scatter
  (:mod:`repro.apps.sort.bucketsort`; the numpy body of
  ``split_by_bits`` is the reference).  It places every key where the
  stable argsort does, so the buckets are byte-identical;
* ``repro/inic/_ctrain*.so`` — the card-train fast path's scatter and
  receive loops (:mod:`repro.inic.card`; ``INICCard._scatter_blocks``
  and ``INICCard._account_frames`` are the reference).  Like
  ``_cadmit`` it is compiled with ``-ffp-contract=off``, so the bus
  clock and the card's counters are bit-equal to the Python loops'.

All four are strictly optional: every build failure (no compiler, no
Python headers) degrades to a warning and the pure-python reference
serves instead, so the wheel always builds and all tests pass either
way.
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
            self._skip("native extensions", exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compiler present but the build failed
            self._skip(ext.name, exc)

    @staticmethod
    def _skip(what, exc):
        sys.stderr.write(
            f"WARNING: skipping optional {what} "
            f"({exc.__class__.__name__}: {exc}); "
            "repro will use the pure-python fallback\n"
        )


setup(
    ext_modules=[
        Extension(
            "repro.sim._csched",
            sources=["src/repro/sim/_csched.c"],
            optional=True,
        ),
        Extension(
            "repro.net._cadmit",
            sources=["src/repro/net/_cadmit.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        ),
        Extension(
            "repro.apps.sort._cbucket",
            sources=["src/repro/apps/sort/_cbucket.c"],
            optional=True,
        ),
        Extension(
            "repro.inic._ctrain",
            sources=["src/repro/inic/_ctrain.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        ),
    ],
    cmdclass={"build_ext": optional_build_ext},
)
