"""Measurement helpers shared by the workloads: percentiles, context, results."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from catalog import METRIC_NAME

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10

#: BLAS / OpenMP thread variables the entry point pins before numpy loads.
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


def samples_beyond(n: int, percentile: float) -> float:
    """How many of ``n`` samples lie above the ``percentile``-th percentile."""
    return n * (1.0 - percentile / 100.0)


def highest_tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the lowest candidate has fewer than ten samples beyond.
    The comparison carries a small tolerance so that, e.g., 100 samples
    qualify for p90 despite ``100 * 0.1`` not being exactly 10 in binary.
    """
    best = None
    for percentile in sorted(candidates):
        if samples_beyond(n, percentile) >= MIN_BEYOND_TAIL - 1e-9:
            best = percentile
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method), pure Python."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_latency(values: Sequence[float], declared: float) -> float:
    """The ``declared`` percentile of ``values``, refusing too few samples.

    Each workload fixes its tail percentile so the metric means the same on
    every run; this enforces the rule that at least ten samples lie beyond it.
    """
    top = highest_tail_percentile(len(values))
    if top is None or declared > top:
        raise ValueError(
            f"p{declared:g} needs at least {MIN_BEYOND_TAIL} samples beyond it; "
            f"{len(values)} samples allow at most p{top}"
        )
    return percentile(values, declared)


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}: use [A-Za-z0-9_.-], at most 64")
    return name


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def machine_context() -> Dict[str, object]:
    """Where a result was measured: cores, numpy, BLAS and its pinned threads."""
    import numpy

    blas_name, blas_version = "unknown", "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas_name = str(blas.get("name", blas_name))
        blas_version = str(blas.get("version", blas_version))
    except (TypeError, AttributeError):  # numpy < 1.25 has no mode="dicts"
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not a finite number")
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> str:
    """The benchmark's last stdout line."""
    for name in metrics:
        validate_metric_name(name)
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics},
        sort_keys=False,
    )


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return path


def format_named(named: Dict[str, List]) -> List[str]:
    """Human-readable ``name = value unit`` lines."""
    return [f"  {name:<28} {value:>14.6g} {unit}" for name, (value, unit) in named.items()]
