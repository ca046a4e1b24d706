"""Repository-wide pytest set-up: run every test at one BLAS thread.

The speed-up gates under ``benchmarks/`` are a contract about the work the
fast paths save, measured at one BLAS thread (see "Bench-gate measuring
condition" in ``docs/ARCHITECTURE.md``).  The thread count is fixed when numpy
is first imported, and ``tests/conftest.py`` imports ``repro`` (and with it
numpy), so the pin lives here: pytest loads this file before any conftest
below it, both for the whole suite and for a single test file.
"""

from __future__ import annotations

from benchmarks.threads import pin_blas_threads

pin_blas_threads()
