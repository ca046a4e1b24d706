#!/usr/bin/env python
"""Fold benchmark timing artifacts into the committed BENCH_*.json baselines.

The benchmarks (run with ``REPRO_BENCH_ARTIFACTS=<dir>``) each drop a timing
JSON into ``<dir>``.  This tool folds the *gated ratio metrics* of those
artifacts — speedups — into one committed baseline file per benchmark area at
the repository root:

========================  =====================================================
``BENCH_train.json``      ``bench_train_fused`` (tg_speedup, full_speedup)
``BENCH_roadnet.json``    ``bench_roadnet_queries`` / ``_dataset_build`` /
                          ``_dijkstra`` (each contributes ``<part>.speedup``)
``BENCH_scoring.json``    ``bench_score_throughput`` (score_speedup,
                          sweep_speedup)
``BENCH_fleet.json``      ``bench_fleet_throughput`` (speedup)
========================  =====================================================

A ratio does not divide machine speed out: its two arms use BLAS and the
cores differently, so it moves with the host.  The benchmarks therefore run
at one BLAS thread (the repository-root ``conftest.py`` pins it), every
artifact records the ``machine`` fingerprint it was measured on, and each
baseline file carries the fingerprint of the artifacts it was folded from.
A baseline applies only on that machine: ``benchmarks/support.baseline_floor``
ratchets a bench gate up to ``baseline * (1 - tolerance)`` (never below the
fixed floor) only when the running machine matches, and ``--check`` compares
only against baselines recorded on the artifacts' machine, reporting any
other as not comparable.  The fingerprint names CPUs, Python, numpy, BLAS
and its threads, so a baseline recorded on one host never ratchets a hosted
CI runner.  A baseline recorded before baselines named their machine (no
``machine`` key) still applies everywhere, as it always has, until it is
refreshed.

``--artifacts`` takes one directory per benchmark run; with several, each
metric is the median over the runs, so one lucky or unlucky run does not set
the ratchet.  All artifacts of an area must name one machine, else the area
counts as measured on an unknown machine.

Usage::

    # refresh the committed baselines from three fresh benchmark runs
    python tools/update_bench_baselines.py --artifacts run1 run2 run3

    # CI drift gate: compare fresh artifacts against the committed baselines
    python tools/update_bench_baselines.py --check --artifacts bench-artifacts

``--check`` exits 1 when no artifact exists or a comparable metric regressed
beyond the tolerance, and 0 otherwise — also when no baseline is comparable.
Absolute timings (seconds) in the artifacts are deliberately *not* folded into
the baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: area -> {artifact name -> {artifact metric -> baseline metric}}.  Multi-
#: artifact areas prefix the baseline metric with the artifact's short part
#: name so one file carries the whole area.
AREAS: Dict[str, Dict[str, Dict[str, str]]] = {
    "train": {
        "bench_train_fused": {
            "tg_speedup": "tg_speedup",
            "full_speedup": "full_speedup",
        },
    },
    "roadnet": {
        "bench_roadnet_queries": {"speedup": "queries.speedup"},
        "bench_roadnet_dataset_build": {"speedup": "dataset_build.speedup"},
        "bench_roadnet_dijkstra": {"speedup": "dijkstra.speedup"},
    },
    "scoring": {
        "bench_score_throughput": {
            "score_speedup": "score_speedup",
            "sweep_speedup": "sweep_speedup",
        },
    },
    "fleet": {
        "bench_fleet_throughput": {"speedup": "speedup"},
    },
}

DEFAULT_TOLERANCE = float(os.environ.get("REPRO_BENCH_BASELINE_TOLERANCE", "0.25"))


def _load_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _baseline_path(area: str, root: str) -> str:
    return os.path.join(root, f"BENCH_{area}.json")


def _as_dirs(artifacts: Union[str, Sequence[str]]) -> List[str]:
    return [artifacts] if isinstance(artifacts, str) else list(artifacts)


def collect_area_metrics(
    area: str, artifacts: Union[str, Sequence[str]]
) -> Tuple[Dict[str, float], Any]:
    """Gated metrics the artifacts present for ``area`` measured, and where.

    ``artifacts`` is one artifact directory or several (one per run); each
    metric is its median over the runs that measured it.  The second item is
    the artifacts' common ``machine`` fingerprint: ``None`` when any of them
    lacks one or two of them disagree, since the metrics then describe no one
    machine.
    """
    samples: Dict[str, List[float]] = {}
    machines: List[Any] = []
    for directory in _as_dirs(artifacts):
        for artifact, mapping in AREAS[area].items():
            payload = _load_json(os.path.join(directory, f"{artifact}.json"))
            if payload is None:
                continue
            machines.append(payload.get("machine"))
            for source, target in mapping.items():
                if source in payload:
                    samples.setdefault(target, []).append(float(payload[source]))
    machine = machines[0] if machines else None
    if any(other != machine for other in machines):
        machine = None
    return {name: statistics.median(values) for name, values in samples.items()}, machine


def comparable(baseline: dict, measured: Any) -> bool:
    """Whether ``baseline`` applies to artifacts measured on ``measured``.

    A baseline that names a ``machine`` applies only to that machine.  One
    recorded before baselines named their machine (no ``machine`` key)
    applies to any machine, as it always has.  Artifacts that name no one
    machine compare with nothing.
    """
    return measured is not None and baseline.get("machine", measured) == measured


def describe_machine(machine: Any) -> str:
    """One line naming a ``machine`` fingerprint (or its absence)."""
    if not isinstance(machine, dict):
        return "an unrecorded machine"
    threads = machine.get("blas_threads")
    if isinstance(threads, dict):
        threads = threads.get("OPENBLAS_NUM_THREADS")
    return (
        f"{machine.get('machine')}, {machine.get('nproc')} CPUs, "
        f"Python {machine.get('python')}, numpy {machine.get('numpy')}, "
        f"{machine.get('blas')} {machine.get('blas_version')}, BLAS threads {threads}"
    )


def update(artifacts: Union[str, Sequence[str]], root: str, log=print) -> int:
    """Fold fresh artifact metrics into the committed baselines.

    The baseline takes the artifacts' ``machine``; metrics already committed
    are kept only when they were recorded on that same machine.  An area whose
    artifacts name no one machine is left unchanged, and the exit code is 1.
    """
    wrote = 0
    refused = 0
    where = ", ".join(_as_dirs(artifacts))
    for area in AREAS:
        measured, machine = collect_area_metrics(area, artifacts)
        if not measured:
            log(f"[{area}] no artifacts in {where}; baseline unchanged")
            continue
        if machine is None:
            log(f"error: [{area}] the artifacts in {where} name no one machine; "
                "baseline unchanged")
            refused += 1
            continue
        path = _baseline_path(area, root)
        existing = _load_json(path) or {}
        keep = existing.get("machine") == machine
        metrics = dict(existing.get("metrics", {})) if keep else {}
        metrics.update(measured)
        scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
        baseline = {
            "area": area,
            "scale": scale,
            "machine": machine,
            "metrics": {name: round(value, 4) for name, value in sorted(metrics.items())},
            "sources": sorted(AREAS[area]),
            "note": "speedup ratios at one BLAS thread; they ratchet the bench gates "
            "only on the machine recorded here; refreshed by tools/update_bench_baselines.py",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        log(f"[{area}] wrote {os.path.relpath(path, root)}: "
            + ", ".join(f"{k}={v:.2f}x" for k, v in sorted(measured.items())))
        wrote += 1
    if wrote == 0 and refused == 0:
        log(f"error: no benchmark artifacts found under {where}")
        return 1
    return 1 if refused else 0


def check(artifacts: Union[str, Sequence[str]], root: str, tolerance: float, log=print) -> int:
    """Fail (exit 1) when a fresh run regresses beyond ``tolerance``.

    Only baselines recorded on the artifacts' machine are compared; others
    are reported as not comparable.  Also fails when no artifact exists.
    """
    regressions = []
    compared = 0
    found = False
    for area in AREAS:
        measured, machine = collect_area_metrics(area, artifacts)
        found = found or bool(measured)
        if not measured:
            continue
        baseline = _load_json(_baseline_path(area, root))
        if baseline is None:
            log(f"[{area}] no committed BENCH_{area}.json; skipping")
            continue
        if not comparable(baseline, machine):
            log(f"[{area}] not comparable (recorded on "
                f"{describe_machine(baseline.get('machine'))}; measured on "
                f"{describe_machine(machine)}); skipping")
            continue
        recorded = baseline.get("metrics", {})
        for metric, value in sorted(measured.items()):
            reference = recorded.get(metric)
            if reference is None:
                log(f"[{area}] {metric}: {value:.2f}x (no recorded baseline)")
                continue
            compared += 1
            floor = float(reference) * (1.0 - tolerance)
            status = "OK" if value >= floor else "REGRESSED"
            log(
                f"[{area}] {metric}: measured {value:.2f}x vs baseline "
                f"{float(reference):.2f}x (floor {floor:.2f}x) {status}"
            )
            if value < floor:
                regressions.append(f"{area}/{metric}")
    if not found:
        log(f"error: no benchmark artifacts found under {', '.join(_as_dirs(artifacts))}")
        return 1
    if regressions:
        log(f"FAIL: {len(regressions)} metric(s) regressed beyond "
            f"{tolerance:.0%} tolerance: {', '.join(regressions)}")
        return 1
    if compared == 0:
        log("nothing compared: no committed baseline was recorded on the artifacts' machine")
        return 0
    log(f"{compared} comparable gated metric(s) within {tolerance:.0%} of the committed baselines")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        nargs="+",
        default=["bench-artifacts"],
        help="directories of bench_*.json timing artifacts, one per run; each "
        "metric is the median over the runs (default: bench-artifacts)",
    )
    parser.add_argument(
        "--root",
        default=REPO_ROOT,
        help="repository root holding the BENCH_*.json baselines",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baselines instead of rewriting them",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression in --check mode "
        f"(default: {DEFAULT_TOLERANCE}, or $REPRO_BENCH_BASELINE_TOLERANCE)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.artifacts, args.root, args.tolerance)
    return update(args.artifacts, args.root)


if __name__ == "__main__":
    sys.exit(main())
