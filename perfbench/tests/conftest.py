"""Make the benchmark modules and the in-tree ``repro`` package importable.

Run with ``python -m pytest perfbench/tests`` from the repository root.  The
tier-1 command does not collect this directory (``testpaths`` in
``pyproject.toml``), and nothing here times anything.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent

for path in (BENCH_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
