"""The measurement helpers: tail-percentile rule, percentiles, names, result line."""

import json

import numpy as np
import pytest

import harness


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.highest_tail_percentile(n) == expected
    if expected is not None:
        assert harness.samples_beyond(n, expected) >= 10 - 1e-9


def test_tail_latency_refuses_a_percentile_with_too_few_samples_beyond():
    values = [float(i) for i in range(150)]
    assert harness.tail_latency(values, 90.0) == pytest.approx(np.percentile(values, 90))
    with pytest.raises(ValueError, match="p95"):
        harness.tail_latency(values, 95.0)
    with pytest.raises(ValueError):
        harness.tail_latency(values[:50], 90.0)


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=37))
    for q in (0, 10, 50, 90, 95, 100):
        assert harness.percentile(values, q) == pytest.approx(np.percentile(values, q))
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize("name", ["setup_s", "dag.stage_s.train.GM-VSAE", "a", "9x", "x" * 64])
def test_valid_metric_names(name):
    assert harness.validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "-lead", "has space", "slash/name", "x" * 65, "ü", None, 3]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        harness.validate_metric_name(name)


def test_result_line_shape_and_validation():
    line = harness.result_line(True, 5, 0, {"latency_ms": harness.metric(1.25, "ms")})
    assert json.loads(line) == {
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        harness.result_line(True, 0, 0, {})
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, {"bad name": harness.metric(1.0, "s")})
    with pytest.raises(ValueError):
        harness.metric(float("nan"), "s")


def test_pin_blas_threads_sets_every_pool_to_one():
    env = {"OPENBLAS_NUM_THREADS": "8"}
    harness.pin_blas_threads(env)
    assert all(env[name] == "1" for name in harness.THREAD_ENV_VARS)
