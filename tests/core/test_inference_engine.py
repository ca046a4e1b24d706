"""Parity suite for the graph-free batched inference engine.

The numpy engine (``repro/core/inference.py``) must reproduce the autograd
Tensor path bit-tight (≤ 1e-12) across every scoring configuration the
models support: road-constrained and unconstrained decoding, fused and
per-step graph reference paths, padded batches containing zero-prediction
rows, the λ grid, and the full Seq2Seq baseline family.  The Tensor
references are composed here from ``CausalTAD._tensor_scores``, the TG-VAE
forward's ``step_log_probs`` and ``Seq2SeqVAEModel.anomaly_scores``.  It also
pins the decomposition contract — summing the pieces reproduces
``score_batch`` — and the train/eval-mode restoration of both paths.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    BetaVAEDetector,
    DeepTEADetector,
    DetectorConfig,
    GMVSAEDetector,
    SAEDetector,
    VSAEDetector,
)
from repro.core import (
    CausalTAD,
    CausalTADConfig,
    ScoreDecomposition,
    TrainingConfig,
)
from repro.core.inference import (
    _BATCH_POSITION_BUDGET,
    Workspace,
    _gru_forward_np,
    _length_sorted_batches,
)
from repro.nn import GRUCell
from repro.nn import no_grad
from repro.trajectory.dataset import TrajectoryDataset, encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState

PARITY_ATOL = 1e-12
LAMBDAS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mixed_dataset(benchmark_data) -> TrajectoryDataset:
    """ID + OOD trajectories of both anomaly kinds (varied lengths, labels)."""
    return (
        benchmark_data.id_detour.merge(benchmark_data.id_switch)
        .merge(benchmark_data.ood_detour)
        .merge(benchmark_data.ood_switch)
    )


@pytest.fixture(scope="module")
def padded_batch(benchmark_data):
    """A batch mixing long rows with a minimal two-segment (one-prediction) row.

    The stub row is padding almost everywhere, so it exercises the padded
    successor-gather rows (segment-0 tables, batch-mask zeroing) of the
    road-constrained scorer.
    """
    trajectories = [item.trajectory for item in benchmark_data.id_detour.items[:6]]
    first = trajectories[0]
    stub = MapMatchedTrajectory(
        trajectory_id="stub", segments=list(first.segments[:2])
    )
    return encode_batch(trajectories + [stub], benchmark_data.num_segments)


def _model_for(benchmark_data, config: CausalTADConfig, attach: bool = True) -> CausalTAD:
    network = benchmark_data.city.network if attach else None
    model = CausalTAD(config, network=network, rng=RandomState(1234))
    model.scaling_factors()  # warm the RP-VAE cache so both engines share it
    return model


def _graph_dataset_scores(model: CausalTAD, dataset, batch_size: int = 64, **kwargs):
    """Tensor-reference scores for a dataset: ``_tensor_scores`` per batch."""
    scores = np.empty(len(dataset), dtype=np.float64)
    cursor = 0
    for batch in dataset.iter_batches(batch_size, shuffle=False):
        batch_scores = model._tensor_scores(batch, **kwargs)
        scores[cursor : cursor + len(batch_scores)] = batch_scores
        cursor += len(batch_scores)
    return scores


def _graph_step_scores(model: CausalTAD, trajectory) -> np.ndarray:
    """``−log P(t_i | c, t_<i)`` per segment from the TG-VAE Tensor forward."""
    batch = encode_batch([trajectory], model.config.num_segments)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            output = model.tg_vae(batch, model._road_constraint(), deterministic_latent=True)
    finally:
        model.train(was_training)
    return -output.step_log_probs[0][: len(trajectory.segments) - 1]


def _seq2seq_graph_scores(detector, dataset) -> np.ndarray:
    """Tensor-reference Seq2Seq scores: ``anomaly_scores`` per batch in eval mode."""
    model = detector.model
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            chunks = [
                model.anomaly_scores(batch)
                for batch in dataset.iter_batches(
                    detector.config.training.batch_size, shuffle=False
                )
            ]
    finally:
        model.train(was_training)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


# --------------------------------------------------------------------------- #
# CausalTAD parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("road_constrained", [True, False], ids=["road", "free"])
def test_score_batch_parity_all_configs(
    benchmark_data, mixed_dataset, fused, road_constrained
):
    config = dataclasses.replace(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        fused=fused,
        road_constrained=road_constrained,
    )
    model = _model_for(benchmark_data, config)
    batch = mixed_dataset.encode(range(24))
    graph = model._tensor_scores(batch)
    numpy_scores = model.score_batch(batch)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


@pytest.mark.parametrize("use_sd_decoder", [True, False], ids=["sd", "nosd"])
def test_score_dataset_parity(benchmark_data, mixed_dataset, use_sd_decoder):
    config = dataclasses.replace(
        CausalTADConfig.tiny(benchmark_data.num_segments), use_sd_decoder=use_sd_decoder
    )
    model = _model_for(benchmark_data, config)
    graph = _graph_dataset_scores(model, mixed_dataset)
    numpy_scores = model.score_dataset(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_trained_model_parity(trained_causal_tad, mixed_dataset):
    """Parity holds on trained weights, not just the random initialisation."""
    trained_causal_tad.scaling_factors()
    graph = _graph_dataset_scores(trained_causal_tad, mixed_dataset)
    numpy_scores = trained_causal_tad.score_dataset(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_padded_and_minimal_rows(benchmark_data, padded_batch):
    """Heavily padded rows (one real prediction) match the graph path."""
    model = _model_for(benchmark_data, CausalTADConfig.tiny(benchmark_data.num_segments))
    graph = model._tensor_scores(padded_batch)
    numpy_scores = model.score_batch(padded_batch)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)
    decomposition = model.inference_engine().decompose_batch(padded_batch)
    # The stub row made exactly one prediction; its padded tail is zero.
    assert decomposition.lengths[-1] == 2
    assert np.all(decomposition.step_log_probs[-1, 1:] == 0.0)
    assert decomposition.step_log_probs[-1, 0] != 0.0


def test_zero_timestep_batch(benchmark_data):
    """A batch with no decoder timesteps (all rows length 1) still scores.

    ``MapMatchedTrajectory`` forbids single-segment routes, but the encoded
    form can arise from external callers; the engine returns the SD + KL
    likelihood pieces with an empty step matrix instead of crashing.
    """
    from repro.trajectory.dataset import EncodedBatch

    model = _model_for(benchmark_data, CausalTADConfig.tiny(benchmark_data.num_segments))
    pad = benchmark_data.num_segments
    count = 3
    batch = EncodedBatch(
        inputs=np.zeros((count, 0), dtype=np.int64),
        targets=np.zeros((count, 0), dtype=np.int64),
        mask=np.zeros((count, 0), dtype=bool),
        full_segments=np.arange(count, dtype=np.int64)[:, None],
        full_mask=np.ones((count, 1), dtype=bool),
        sources=np.arange(count, dtype=np.int64),
        destinations=np.arange(count, dtype=np.int64) + 1,
        lengths=np.ones(count, dtype=np.int64),
        labels=np.zeros(count, dtype=np.int64),
        pad_id=pad,
    )
    decomposition = model.inference_engine().decompose_batch(batch)
    assert decomposition.step_log_probs.shape == (count, 0)
    assert np.all(decomposition.trajectory_nll == 0.0)
    # Likelihood still carries the SD and KL terms.
    assert np.all(decomposition.likelihood > 0.0)


def test_step_scores_and_breakdown_parity(trained_causal_tad, mixed_dataset):
    trajectory = mixed_dataset[0].trajectory
    lam = trained_causal_tad.config.lambda_weight
    breakdown = trained_causal_tad.segment_score_breakdown(trajectory)
    graph_steps = _graph_step_scores(trained_causal_tad, trajectory)
    graph_debiased = graph_steps - lam * trained_causal_tad.scaling_factors()[breakdown.segments]
    graph_total = trained_causal_tad._tensor_scores(
        encode_batch([trajectory], trained_causal_tad.config.num_segments)
    )[0]
    np.testing.assert_allclose(
        breakdown.likelihood_scores, graph_steps, atol=PARITY_ATOL, rtol=0.0
    )
    np.testing.assert_allclose(
        breakdown.debiased_scores, graph_debiased, atol=PARITY_ATOL, rtol=0.0
    )
    assert abs(breakdown.total_score - graph_total) <= PARITY_ATOL
    # The breakdown's total matches the standalone trajectory score.
    direct = trained_causal_tad.score_trajectory(trajectory)
    assert abs(breakdown.total_score - direct) <= PARITY_ATOL


# --------------------------------------------------------------------------- #
# decomposition contract
# --------------------------------------------------------------------------- #
def test_decomposition_sum_equals_score_batch(trained_causal_tad, mixed_dataset):
    batch = mixed_dataset.encode(range(16))
    decomposition = trained_causal_tad.inference_engine().decompose_batch(batch)
    lam = trained_causal_tad.config.lambda_weight
    # likelihood = trajectory + SD + KL, and the step rows sum to the
    # trajectory term.
    np.testing.assert_allclose(
        decomposition.likelihood,
        decomposition.trajectory_nll + decomposition.sd_nll + decomposition.kl,
        atol=0.0,
        rtol=0.0,
    )
    np.testing.assert_allclose(
        (-decomposition.step_log_probs).sum(axis=1),
        decomposition.trajectory_nll,
        atol=PARITY_ATOL,
        rtol=0.0,
    )
    np.testing.assert_allclose(
        decomposition.scores(lam),
        trained_causal_tad.score_batch(batch),
        atol=0.0,
        rtol=0.0,
    )
    # use_scaling=False drops the scaling term entirely (Table III ablation).
    np.testing.assert_allclose(
        decomposition.scores(lam, use_scaling=False),
        trained_causal_tad._tensor_scores(batch, use_scaling=False),
        atol=PARITY_ATOL,
        rtol=0.0,
    )


def test_lambda_grid_parity(trained_causal_tad, mixed_dataset):
    """The vectorized λ sweep matches per-λ scoring on both paths."""
    sweep = trained_causal_tad.lambda_sweep_scores(mixed_dataset, LAMBDAS)
    assert sweep.shape == (len(LAMBDAS), len(mixed_dataset))
    graph_sweep = np.stack(
        [
            _graph_dataset_scores(trained_causal_tad, mixed_dataset, lambda_weight=lam)
            for lam in LAMBDAS
        ]
    )
    np.testing.assert_allclose(sweep, graph_sweep, atol=PARITY_ATOL, rtol=0.0)
    for index, lam in enumerate(LAMBDAS):
        per_lambda = trained_causal_tad.score_dataset(mixed_dataset, lambda_weight=lam)
        np.testing.assert_allclose(sweep[index], per_lambda, atol=PARITY_ATOL, rtol=0.0)


def test_lambda_sweep_runs_one_dataset_pass(trained_causal_tad, mixed_dataset):
    stats = trained_causal_tad.inference_engine().stats
    stats.reset()
    trained_causal_tad.lambda_sweep_scores(mixed_dataset, LAMBDAS)
    assert stats.dataset_passes == 1
    assert stats.trajectories_scored == len(mixed_dataset)


@pytest.mark.parametrize("start_training", [True, False], ids=["train", "eval"])
def test_tensor_scores_restore_mode(benchmark_data, mixed_dataset, start_training):
    """The Tensor reference scores in eval mode and restores the caller's mode."""
    model = _model_for(benchmark_data, CausalTADConfig.tiny(benchmark_data.num_segments))
    model.train(start_training)
    model._tensor_scores(mixed_dataset.encode(range(4)))
    assert model.training is start_training


def test_decomposition_dataset_order(trained_causal_tad, mixed_dataset):
    """Length-bucketed scoring scatters results back into dataset order."""
    decomposition = trained_causal_tad.score_decomposition(mixed_dataset)
    lengths = np.array([len(item.trajectory) for item in mixed_dataset])
    np.testing.assert_array_equal(decomposition.lengths, lengths)
    # Spot-check a few rows against single-trajectory scoring.
    lam = trained_causal_tad.config.lambda_weight
    scores = decomposition.scores(lam)
    for index in (0, len(mixed_dataset) // 2, len(mixed_dataset) - 1):
        single = trained_causal_tad.score_trajectory(mixed_dataset[index].trajectory)
        assert abs(scores[index] - single) <= PARITY_ATOL


def test_empty_dataset_matches_graph_path(trained_causal_tad, benchmark_data):
    """Both paths return empty results for an empty dataset (no raise)."""
    empty = TrajectoryDataset([], benchmark_data.num_segments, name="empty")
    assert trained_causal_tad.score_dataset(empty).shape == (0,)
    assert _graph_dataset_scores(trained_causal_tad, empty).shape == (0,)
    decomposition = trained_causal_tad.score_decomposition(empty)
    assert len(decomposition) == 0
    assert trained_causal_tad.lambda_sweep_scores(empty, LAMBDAS).shape == (len(LAMBDAS), 0)


def test_length_bucketed_batches_cover_every_index(benchmark_data, mixed_dataset):
    for batch_size in (None, 7, 64):
        batches = _length_sorted_batches(mixed_dataset, batch_size)
        seen = np.concatenate([np.asarray(b) for b in batches])
        assert sorted(seen.tolist()) == list(range(len(mixed_dataset)))
        for indices in batches:
            lengths = [len(mixed_dataset[int(i)].trajectory) for i in indices]
            assert lengths == sorted(lengths)


def test_budget_packing_leaves_the_shortest_trajectories_over():
    """Only the batch of the shortest trajectories may fall short of the budget."""
    walks = [
        MapMatchedTrajectory(trajectory_id=f"w{i}", segments=list(range(2 + i % 97)))
        for i in range(400)
    ]
    dataset = TrajectoryDataset.from_trajectories(walks, 128, name="lengths")
    batches = _length_sorted_batches(dataset, None)
    longest = [max(len(dataset[int(i)].trajectory) for i in b) for b in batches]
    assert longest == sorted(longest)
    for indices, length in zip(batches[1:], longest[1:]):
        assert len(indices) == _BATCH_POSITION_BUDGET // length


def test_padding_free_gru_matches_the_full_unroll():
    """Rows sorted by length run only their real steps, with unchanged states."""
    rng = np.random.default_rng(3)
    cell = GRUCell(8, 6, rng=RandomState(4))
    steps = np.array([0, 2, 2, 5, 7, 9, 9, 11])
    x_tm = rng.standard_normal((11, len(steps), 8))
    h0 = np.tanh(rng.standard_normal((len(steps), 6)))
    full = _gru_forward_np(x_tm, h0, cell, Workspace(), "full").copy()
    packed = _gru_forward_np(x_tm, h0, cell, Workspace(), "packed", steps=steps).copy()
    for row, count in enumerate(steps):
        np.testing.assert_array_equal(packed[: count + 1, row], full[: count + 1, row])
    # Finished rows stay zero, except the two rows kept running to the end.
    for row, count in enumerate(steps[:-2]):
        assert not packed[count + 1 :, row].any()


def test_workspace_reuses_and_grows():
    ws = Workspace()
    a = ws.take("buf", (4, 8))
    b = ws.take("buf", (2, 8))
    assert b.base is a.base  # shrinking reuses the same allocation
    c = ws.take("buf", (16, 8))
    assert c.shape == (16, 8)
    ws.clear()
    assert ws.take("buf", (1, 1)).shape == (1, 1)


# --------------------------------------------------------------------------- #
# Seq2Seq baseline family parity
# --------------------------------------------------------------------------- #
SEQ2SEQ_DETECTORS = [
    SAEDetector,
    VSAEDetector,
    BetaVAEDetector,
    GMVSAEDetector,
    DeepTEADetector,
]


@pytest.fixture(scope="module")
def seq2seq_config(benchmark_data) -> DetectorConfig:
    return DetectorConfig.tiny(
        benchmark_data.num_segments,
        training=TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02),
    )


@pytest.mark.parametrize("detector_cls", SEQ2SEQ_DETECTORS, ids=lambda c: c.name)
def test_seq2seq_engine_parity(detector_cls, seq2seq_config, mixed_dataset):
    detector = detector_cls(seq2seq_config, rng=RandomState(55))
    detector._fitted = True  # untrained weights exercise the same arithmetic
    graph = _seq2seq_graph_scores(detector, mixed_dataset)
    numpy_scores = detector.score(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_seq2seq_trained_parity(benchmark_data, seq2seq_config, mixed_dataset):
    detector = VSAEDetector(seq2seq_config, rng=RandomState(56))
    detector.fit(benchmark_data.train)
    graph = _seq2seq_graph_scores(detector, mixed_dataset)
    numpy_scores = detector.score(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


@pytest.mark.parametrize("engine", ["numpy", "graph"])
def test_seq2seq_score_restores_mode(seq2seq_config, mixed_dataset, engine):
    """Regression: ``score`` used to force the model back into train mode.

    ``numpy`` is the production ``detector.score``; ``graph`` the Tensor
    reference the parity tests compare it against.
    """
    detector = VSAEDetector(seq2seq_config, rng=RandomState(57))
    detector._fitted = True

    def score():
        if engine == "numpy":
            detector.score(mixed_dataset)
        else:
            _seq2seq_graph_scores(detector, mixed_dataset)

    detector.model.eval()
    score()
    assert detector.model.training is False
    detector.model.train()
    score()
    assert detector.model.training is True


def test_rp_vae_detector_score_restores_mode(benchmark_data, mixed_dataset):
    """Regression: the RP-VAE-only ablation leaked train mode the same way."""
    from repro.baselines import RPVAEOnlyDetector

    detector = RPVAEOnlyDetector(
        DetectorConfig.tiny(
            benchmark_data.num_segments,
            training=TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02),
        ),
        rng=RandomState(58),
    )
    detector._fitted = True
    detector.model.eval()
    detector.score(mixed_dataset)
    assert detector.model.training is False
