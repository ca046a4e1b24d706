"""The BLAS / OpenMP thread pin of the bench gates; importable before numpy.

This module imports nothing but ``os``, so the repository-root
``conftest.py`` can pin the thread pools before the first ``import numpy``.

``perfbench/harness.py`` keeps its own copy of the variable list: it runs as
a script with ``perfbench/`` on ``sys.path`` and imports ``catalog`` when it
loads, so the test harness cannot import it.
``tests/test_bench_baselines.py`` checks that the two copies stay equal.
"""

from __future__ import annotations

import os

#: BLAS / OpenMP thread variables pinned before numpy loads.
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_THREADS = "1"


def pin_blas_threads(environ=os.environ) -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before importing numpy."""
    for name in THREAD_ENV_VARS:
        environ[name] = PINNED_THREADS
