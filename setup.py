"""Build script.

The compiled search engine is optional.  It is always compiled from the
shipped, pre-generated `_engine.c`, so building needs a C compiler but
not Cython.  Without a C compiler the extension build fails softly and
the package installs pure-Python, falling back to the pure-Python engine
at import time.

    python setup.py build_ext --inplace    # kernel next to the sources

After editing `_engine.pyx`, regenerate `_engine.c` with Cython (>= 3.0)
and commit both; `tests/test_engine_source.py` fails while they differ:

    cython -3 -X boundscheck=False,wraparound=False,initializedcheck=False,cdivision=True src/linkcensus/_engine.pyx
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("linkcensus._engine",
                             ["src/linkcensus/_engine.c"], optional=True)])
