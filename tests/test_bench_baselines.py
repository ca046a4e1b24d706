"""The bench-gate measuring condition: one BLAS thread, same-machine ratchet.

Covers ``benchmarks.support.baseline_floor`` (a baseline that names a
``machine`` ratchets only where that fingerprint matches the running process),
``tools/update_bench_baselines.py`` (records the artifacts' fingerprint and
the median of several runs, and ``--check`` compares only against comparable
baselines) and the repository-root ``conftest.py`` thread pin.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from benchmarks import support
from benchmarks.threads import THREAD_ENV_VARS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    path = os.path.join(REPO_ROOT, "tools", "update_bench_baselines.py")
    spec = importlib.util.spec_from_file_location("update_bench_baselines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

OTHER_MACHINE = {
    "nproc": 64,
    "cpu_count": 64,
    "machine": "riscv64",
    "python": "3.0.0",
    "numpy": "0.0",
    "blas": "reference",
    "blas_version": "0.0",
    "blas_threads": {name: "8" for name in THREAD_ENV_VARS},
}


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _openblas_threads():
    """The thread count the loaded OpenBLAS reports, or ``None`` if not found."""
    np.ones((2, 2)) @ np.ones((2, 2))
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                return int(getter())
    return None


# ----------------------------------------------------------------- thread pin


def test_pytest_process_runs_at_one_blas_thread():
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert set(support.machine_fingerprint()["blas_threads"].values()) == {"1"}
    reported = _openblas_threads()
    if reported is not None:
        assert reported == 1


# -------------------------------------------------------------- baseline_floor


@pytest.fixture
def baseline_root(tmp_path, monkeypatch):
    monkeypatch.setattr(support, "_REPO_ROOT", str(tmp_path))
    return tmp_path


def test_machine_fingerprint_is_json_stable():
    fingerprint = support.machine_fingerprint()
    assert set(fingerprint) == set(OTHER_MACHINE)
    assert json.loads(json.dumps(fingerprint)) == fingerprint
    assert fingerprint == support.machine_fingerprint()


def test_thread_pin_and_fingerprint_match_the_end_to_end_benchmark(monkeypatch):
    """The bench gates and ``perfbench`` pin the same pools and name a machine alike."""
    perfbench_dir = os.path.join(REPO_ROOT, "perfbench")
    monkeypatch.syspath_prepend(perfbench_dir)
    for name in ("catalog", "perfbench_harness"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location(
        "perfbench_harness", os.path.join(perfbench_dir, "harness.py")
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    try:
        assert harness.THREAD_ENV_VARS == THREAD_ENV_VARS
        assert harness.machine_context() == support.machine_fingerprint()
    finally:
        sys.modules.pop("catalog", None)


def test_baseline_floor_ratchets_on_the_same_machine(baseline_root):
    _write_json(
        baseline_root / "BENCH_scoring.json",
        {"machine": support.machine_fingerprint(), "metrics": {"score_speedup": 10.0}},
    )
    expected = 10.0 * (1.0 - support.BENCH_BASELINE_TOLERANCE)
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == pytest.approx(expected)
    # The fixed floor still wins when the ratchet would sit below it.
    assert support.baseline_floor("scoring", "score_speedup", 9.9) == 9.9


def test_baseline_floor_ignores_a_baseline_from_another_machine(baseline_root):
    _write_json(
        baseline_root / "BENCH_scoring.json",
        {"machine": OTHER_MACHINE, "metrics": {"score_speedup": 10.0}},
    )
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == 3.0


def test_baseline_floor_keeps_ratcheting_a_baseline_without_machine(baseline_root):
    """A baseline from before baselines named their machine still ratchets."""
    _write_json(baseline_root / "BENCH_scoring.json", {"metrics": {"score_speedup": 10.0}})
    expected = 10.0 * (1.0 - support.BENCH_BASELINE_TOLERANCE)
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == pytest.approx(expected)
    _write_json(
        baseline_root / "BENCH_scoring.json",
        {"machine": None, "metrics": {"score_speedup": 10.0}},
    )
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == 3.0


def test_baseline_floor_without_baseline_or_metric(baseline_root):
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == 3.0
    _write_json(
        baseline_root / "BENCH_scoring.json",
        {"machine": support.machine_fingerprint(), "metrics": {}},
    )
    assert support.baseline_floor("scoring", "score_speedup", 3.0) == 3.0


def test_timing_artifact_carries_the_fingerprint(tmp_path, monkeypatch):
    monkeypatch.setattr(support, "BENCH_ARTIFACTS", str(tmp_path))
    support.write_timing_artifact("bench_demo", {"speedup": 2.0})
    payload = _read_json(tmp_path / "bench_demo.json")
    assert payload == {"speedup": 2.0, "machine": support.machine_fingerprint()}


# ------------------------------------------------------ update_bench_baselines


def _artifacts(tmp_path, machine, score=4.0, sweep=20.0):
    directory = tmp_path / "artifacts"
    directory.mkdir(exist_ok=True)
    _write_json(
        directory / "bench_score_throughput.json",
        {"score_speedup": score, "sweep_speedup": sweep, "machine": machine},
    )
    return str(directory)


def _quiet(*_args):
    pass


def test_update_records_the_artifacts_fingerprint(tmp_path):
    artifacts = _artifacts(tmp_path, OTHER_MACHINE)
    root = tmp_path / "root"
    root.mkdir()
    assert tool.update(artifacts, str(root), log=_quiet) == 0
    baseline = _read_json(root / "BENCH_scoring.json")
    assert baseline["machine"] == OTHER_MACHINE
    assert baseline["machine"] != support.machine_fingerprint()
    assert baseline["metrics"] == {"score_speedup": 4.0, "sweep_speedup": 20.0}


def test_update_records_the_median_of_several_runs(tmp_path):
    runs = []
    for run, score in enumerate((3.0, 5.0, 4.0)):
        directory = tmp_path / f"run{run}"
        directory.mkdir()
        _write_json(
            directory / "bench_score_throughput.json",
            {"score_speedup": score, "sweep_speedup": 10.0 * score, "machine": OTHER_MACHINE},
        )
        runs.append(str(directory))
    root = tmp_path / "root"
    root.mkdir()
    assert tool.update(runs, str(root), log=_quiet) == 0
    baseline = _read_json(root / "BENCH_scoring.json")
    assert baseline["metrics"] == {"score_speedup": 4.0, "sweep_speedup": 40.0}
    assert baseline["machine"] == OTHER_MACHINE


def test_collect_names_no_machine_when_artifacts_disagree(tmp_path):
    directory = tmp_path / "artifacts"
    directory.mkdir()
    queries = {"speedup": 80.0, "machine": OTHER_MACHINE}
    _write_json(directory / "bench_roadnet_queries.json", queries)
    _write_json(
        directory / "bench_roadnet_dijkstra.json",
        {"speedup": 10.0, "machine": support.machine_fingerprint()},
    )
    measured, machine = tool.collect_area_metrics("roadnet", str(directory))
    assert measured == {"queries.speedup": 80.0, "dijkstra.speedup": 10.0}
    assert machine is None
    _write_json(directory / "bench_roadnet_dijkstra.json", {**queries, "speedup": 10.0})
    assert tool.collect_area_metrics("roadnet", str(directory))[1] == OTHER_MACHINE
    # Mixed artifacts make no baseline and are compared with none.
    _write_json(directory / "bench_roadnet_dijkstra.json", {"speedup": 10.0})
    root = tmp_path / "root"
    root.mkdir()
    assert tool.update(str(directory), str(root), log=_quiet) == 1
    assert not (root / "BENCH_roadnet.json").exists()
    _write_json(root / "BENCH_roadnet.json", {"metrics": {"queries.speedup": 500.0}})
    lines = []
    assert tool.check(str(directory), str(root), 0.25, log=lines.append) == 0
    assert any("not comparable (recorded on" in line for line in lines)


@pytest.mark.parametrize("recorded", [{}, {"machine": None}, {"machine": {"nproc": 1}}])
def test_update_drops_metrics_recorded_on_another_machine(tmp_path, recorded):
    root = tmp_path / "root"
    root.mkdir()
    _write_json(
        root / "BENCH_scoring.json",
        {**recorded, "metrics": {"score_speedup": 9.0, "stale_speedup": 5.0}},
    )
    assert tool.update(_artifacts(tmp_path, OTHER_MACHINE), str(root), log=_quiet) == 0
    assert set(_read_json(root / "BENCH_scoring.json")["metrics"]) == {
        "score_speedup",
        "sweep_speedup",
    }


def _baseline(root, machine, score=4.0, sweep=20.0):
    _write_json(
        root / "BENCH_scoring.json",
        {"machine": machine, "metrics": {"score_speedup": score, "sweep_speedup": sweep}},
    )


def test_check_passes_a_comparable_baseline(tmp_path):
    _baseline(tmp_path, OTHER_MACHINE)
    lines = []
    artifacts = _artifacts(tmp_path, OTHER_MACHINE, score=3.5)
    assert tool.check(artifacts, str(tmp_path), 0.25, log=lines.append) == 0
    assert any("score_speedup" in line and "OK" in line for line in lines)


def test_check_fails_a_comparable_regression(tmp_path):
    _baseline(tmp_path, OTHER_MACHINE)
    artifacts = _artifacts(tmp_path, OTHER_MACHINE, score=2.0)
    lines = []
    assert tool.check(artifacts, str(tmp_path), 0.25, log=lines.append) == 1
    assert any("REGRESSED" in line for line in lines)


def test_check_compares_a_baseline_without_machine(tmp_path):
    """A baseline from before baselines named their machine is still compared."""
    _write_json(
        tmp_path / "BENCH_scoring.json",
        {"metrics": {"score_speedup": 4.0, "sweep_speedup": 20.0}},
    )
    lines = []
    artifacts = _artifacts(tmp_path, OTHER_MACHINE)
    assert tool.check(artifacts, str(tmp_path), 0.25, log=lines.append) == 0
    assert any("score_speedup" in line and "OK" in line for line in lines)
    artifacts = _artifacts(tmp_path, OTHER_MACHINE, score=2.0)
    assert tool.check(artifacts, str(tmp_path), 0.25, log=_quiet) == 1


@pytest.mark.parametrize(
    "recorded, measured",
    [
        (None, OTHER_MACHINE),
        (OTHER_MACHINE, None),
        (None, None),
        (OTHER_MACHINE, {**OTHER_MACHINE, "nproc": 1}),
    ],
    ids=["unknown-baseline", "unknown-artifacts", "both-unknown", "other-nproc"],
)
def test_check_skips_a_baseline_from_another_machine(tmp_path, recorded, measured):
    _baseline(tmp_path, recorded, score=100.0, sweep=100.0)
    artifacts = _artifacts(tmp_path, measured, score=2.0)
    lines = []
    assert tool.check(artifacts, str(tmp_path), 0.25, log=lines.append) == 0
    assert any("not comparable (recorded on" in line for line in lines)
    assert not any("REGRESSED" in line for line in lines)
    assert lines[-1].startswith("nothing compared")


def test_check_fails_without_artifacts(tmp_path):
    _baseline(tmp_path, OTHER_MACHINE)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert tool.check(str(empty), str(tmp_path), 0.25, log=_quiet) == 1
