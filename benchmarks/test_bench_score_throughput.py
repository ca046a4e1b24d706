"""Benchmark — graph-free batched scoring vs the ``no_grad`` Tensor path.

The offline evaluation layer (Tables I–III, Figs. 4–8) scores datasets through
``CausalTAD.score_dataset``.  Historically that ran the full autograd
``TGVAE.forward`` per batch; the inference engine
(:mod:`repro.core.inference`) replaces it with a pure-numpy mirror that

* never materialises the ``(batch, time, vocab)`` decoder logits on
  road-constrained models (hidden states are contracted against only the
  successor weight columns — O(out-degree) per step instead of O(vocab)),
* packs length-bucketed batches into reusable workspaces, and
* returns a :class:`~repro.core.inference.ScoreDecomposition` so the Fig. 8
  λ sweep scores the dataset **once** and evaluates the whole grid as a
  vectorized ``likelihood − λ ⊗ scaling`` outer product.

Gates:

* batched dataset scoring at least **3×** faster than the Tensor path;
* the λ sweep performs **exactly one** dataset pass for the whole grid and
  beats the per-λ Tensor loop by at least **4×** at 6 grid points;
* maximum score drift vs the graph path at most **1e-10** (measured ~1e-14).

The city is generated at a paper-realistic road-network scale (~1200 directed
segments — the 9×9 benchmark city's ~290 segments understate the win because
the O(vocab) projection the engine eliminates is small there), and the scored
trajectories are road-constrained walks in the length regime of the paper's
real Xi'an/Chengdu data.

Both arms are timed at one BLAS thread (the repository-root ``conftest.py``
pins it): the Tensor arm's output-projection GEMM is the only part a second
thread speeds up, so at the default thread count the ratio would track the
host's cores.  The gates are the fixed floors above; they ratchet up to a
committed ``BENCH_scoring.json`` only when it was recorded on the same machine.

Timing JSON is written via ``REPRO_BENCH_ARTIFACTS`` for the CI artifact.
"""

from __future__ import annotations

import numpy as np

from benchmarks.support import (
    BENCH_SCALE,
    BENCH_SEED,
    baseline_floor,
    write_timing_artifact,
)
from repro.core import CausalTAD, CausalTADConfig
from repro.roadnet import CityConfig, generate_arterial_city
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState
from repro.utils.timing import Timer, format_duration

MIN_SCORE_SPEEDUP = 3.0
MIN_SWEEP_SPEEDUP = 4.0
DRIFT_ATOL = 1e-10
LAMBDAS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
CITY_ROWS = 18
NUM_TRAJECTORIES = 320 if BENCH_SCALE == "full" else 224
MIN_WALK, MAX_WALK = 24, 96
ROUNDS = 5


def _walk_dataset(network, num_segments: int, count: int) -> TrajectoryDataset:
    """Road-constrained random walks at paper-realistic trajectory lengths."""
    graph = network.compiled()
    succ_idx, succ_valid = graph.successor_tables()
    rng = np.random.default_rng(BENCH_SEED)
    walks = []
    for ride in range(count):
        target = int(rng.integers(MIN_WALK, MAX_WALK + 1))
        segments = [int(rng.integers(0, num_segments))]
        while len(segments) < target:
            valid = succ_valid[segments[-1]]
            if not valid.any():
                break
            segments.append(int(rng.choice(succ_idx[segments[-1]][valid])))
        walks.append(MapMatchedTrajectory(trajectory_id=f"walk-{ride}", segments=segments))
    return TrajectoryDataset.from_trajectories(walks, num_segments, name="score-walks")


def _graph_scores(model, dataset, lambda_weight=None) -> np.ndarray:
    """The Tensor reference arm: ``_tensor_scores`` over ``iter_batches(64)``."""
    scores = np.empty(len(dataset), dtype=np.float64)
    cursor = 0
    for batch in dataset.iter_batches(64, shuffle=False):
        batch_scores = model._tensor_scores(batch, lambda_weight=lambda_weight)
        scores[cursor : cursor + len(batch_scores)] = batch_scores
        cursor += len(batch_scores)
    return scores


def _graph_sweep(model, dataset) -> np.ndarray:
    """The per-λ Tensor loop the one-pass λ sweep is gated against."""
    return np.stack([_graph_scores(model, dataset, lambda_weight=lam) for lam in LAMBDAS])


def _interleaved_best(step_a, step_b, rounds=ROUNDS):
    """Best-of wall times, rounds interleaved so load drift hits both paths."""
    step_a(), step_b()
    best_a = best_b = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            step_a()
        best_a = min(best_a, timer.elapsed)
        with Timer() as timer:
            step_b()
        best_b = min(best_b, timer.elapsed)
    return best_a, best_b


def test_bench_score_throughput_and_lambda_sweep():
    city = generate_arterial_city(
        CityConfig(name="score-bench", rows=CITY_ROWS, cols=CITY_ROWS, num_pois=5),
        rng=RandomState(BENCH_SEED),
    )
    network = city.network
    num_segments = network.num_segments
    dataset = _walk_dataset(network, num_segments, NUM_TRAJECTORIES)
    model = CausalTAD(
        CausalTADConfig.small(num_segments), network=network, rng=RandomState(BENCH_SEED)
    )
    # Precompute the RP-VAE scaling cache so neither path pays it inside the
    # timed region (the paper precomputes it once per trained model).
    model.scaling_factors()
    engine = model.inference_engine()

    # --- parity: drift vs the Tensor path ------------------------------- #
    graph_scores = _graph_scores(model, dataset)
    numpy_scores = model.score_dataset(dataset)
    score_drift = float(np.abs(graph_scores - numpy_scores).max())
    assert score_drift <= DRIFT_ATOL, f"score drift {score_drift:.2e} > {DRIFT_ATOL}"

    # --- batched dataset scoring ----------------------------------------- #
    graph_time, numpy_time = _interleaved_best(
        lambda: _graph_scores(model, dataset),
        lambda: model.score_dataset(dataset),
    )
    score_speedup = graph_time / numpy_time

    # --- Fig. 8 λ sweep: one forward for the whole grid ------------------- #
    engine.stats.reset()
    sweep = model.lambda_sweep_scores(dataset, LAMBDAS)
    assert engine.stats.dataset_passes == 1, (
        f"λ sweep ran {engine.stats.dataset_passes} dataset passes; the "
        "decomposition must be computed exactly once for the whole grid"
    )
    assert engine.stats.trajectories_scored == len(dataset)
    graph_sweep = _graph_sweep(model, dataset)
    sweep_drift = float(np.abs(sweep - graph_sweep).max())
    assert sweep_drift <= DRIFT_ATOL, f"λ-sweep drift {sweep_drift:.2e} > {DRIFT_ATOL}"

    graph_sweep_time, numpy_sweep_time = _interleaved_best(
        lambda: _graph_sweep(model, dataset),
        lambda: model.lambda_sweep_scores(dataset, LAMBDAS),
        rounds=2,
    )
    sweep_speedup = graph_sweep_time / numpy_sweep_time

    mean_length = dataset.mean_length()
    print()
    print(
        f"Offline scoring of {len(dataset)} walks (mean {mean_length:.0f} segments) "
        f"on a {num_segments}-segment network:"
    )
    print(
        f"  score_dataset      graph {format_duration(graph_time)}  "
        f"numpy {format_duration(numpy_time)}  speedup {score_speedup:.1f}x"
    )
    print(
        f"  λ sweep ({len(LAMBDAS)} pts)   graph {format_duration(graph_sweep_time)}  "
        f"numpy {format_duration(numpy_sweep_time)}  speedup {sweep_speedup:.1f}x"
    )
    print(f"  max score drift    {score_drift:.2e}   sweep drift {sweep_drift:.2e}")

    write_timing_artifact(
        "bench_score_throughput",
        {
            "num_segments": num_segments,
            "num_trajectories": len(dataset),
            "mean_length": mean_length,
            "graph_score_seconds": graph_time,
            "numpy_score_seconds": numpy_time,
            "score_speedup": score_speedup,
            "graph_sweep_seconds": graph_sweep_time,
            "numpy_sweep_seconds": numpy_sweep_time,
            "sweep_speedup": sweep_speedup,
            "lambda_grid": list(LAMBDAS),
            "sweep_dataset_passes": 1,
            "score_drift": score_drift,
            "sweep_drift": sweep_drift,
            "min_score_speedup_required": MIN_SCORE_SPEEDUP,
            "min_sweep_speedup_required": MIN_SWEEP_SPEEDUP,
        },
    )

    score_floor = baseline_floor("scoring", "score_speedup", MIN_SCORE_SPEEDUP)
    assert score_speedup >= score_floor, (
        f"numpy engine only {score_speedup:.1f}x faster than the no_grad "
        f"Tensor path (required {score_floor:.1f}x)"
    )
    sweep_floor = baseline_floor("scoring", "sweep_speedup", MIN_SWEEP_SPEEDUP)
    assert sweep_speedup >= sweep_floor, (
        f"single-forward λ sweep only {sweep_speedup:.1f}x faster than the "
        f"per-λ Tensor loop (required {sweep_floor:.1f}x)"
    )
