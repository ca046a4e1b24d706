"""Tests for the Trainer loop and the O(1) online detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CausalTAD,
    CausalTADConfig,
    OnlineDetector,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    advance_sessions,
    init_session_states,
)
from repro.utils import RandomState


class TestTrainer:
    def test_loss_decreases(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=6, batch_size=16, learning_rate=0.02), rng=RandomState(1))
        history = trainer.fit(benchmark_data.train)
        assert history.num_epochs == 6
        assert history.train_losses[-1] < history.train_losses[0]
        assert all(np.isfinite(loss) for loss in history.train_losses)
        assert history.total_seconds > 0

    def test_validation_split(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(
            model,
            TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02, validation_fraction=0.25),
            rng=RandomState(1),
        )
        history = trainer.fit(benchmark_data.train)
        assert len(history.validation_losses) == 2
        assert history.best_epoch in (0, 1)

    def test_explicit_validation_set(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=16), rng=RandomState(1))
        history = trainer.fit(benchmark_data.train, validation=benchmark_data.id_test)
        assert len(history.validation_losses) == 1

    def test_train_one_epoch(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=16), rng=RandomState(1))
        loss = trainer.train_one_epoch(benchmark_data.train)
        assert np.isfinite(loss)
        assert trainer.history.num_epochs == 1

    def test_history_as_dict(self):
        history = TrainingHistory(train_losses=[1.0, 0.5], epoch_seconds=[0.1, 0.1])
        payload = history.as_dict()
        assert payload["train_losses"] == [1.0, 0.5]

    def test_rejects_model_without_loss(self, benchmark_data):
        class Broken:
            def parameters(self):
                from repro.nn import Parameter

                return [Parameter(np.zeros(1))]

            def train(self):
                return self

            def eval(self):
                return self

            def __call__(self, batch):
                return "not a loss"

        trainer = Trainer(Broken(), TrainingConfig(epochs=1, batch_size=8))
        with pytest.raises(TypeError):
            trainer.fit(benchmark_data.train)


class TestOnlineDetector:
    def test_online_matches_offline_score(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        for item in benchmark_data.id_test.items[:5]:
            offline = trained_causal_tad.score_trajectory(item.trajectory)
            online = detector.final_score(item.trajectory)
            assert online == pytest.approx(offline, rel=1e-10, abs=1e-10)

    def test_prefix_scores_length(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        prefix_scores = detector.score_prefixes(trajectory)
        assert len(prefix_scores) == len(trajectory)

    def test_session_updates_accumulate(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[1]
        session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
        assert session.observed_length == 1
        for segment in trajectory.segments[1:]:
            update = session.update(segment)
            assert np.isfinite(update.cumulative_score)
            assert update.step_likelihood_score >= 0
        assert session.observed_length == len(trajectory)
        assert len(session.updates) == len(trajectory) - 1

    def test_session_rejects_invalid_segment(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        session = detector.start_session(trajectory.sd_pair)
        with pytest.raises(ValueError):
            session.update(10**6)
        with pytest.raises(ValueError):
            session.update(-1)

    def test_session_rejects_invalid_first_segment(self, trained_causal_tad, benchmark_data):
        """Negative ids must not silently wrap in the embedding lookup."""
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        with pytest.raises(ValueError):
            detector.start_session(trajectory.sd_pair, first_segment=-3)

    def test_online_update_time_independent_of_length(self, trained_causal_tad, benchmark_data):
        """The cost of update() must not grow with the number of observed segments (O(1) claim)."""
        import time

        detector = OnlineDetector(trained_causal_tad)
        trajectory = max(benchmark_data.id_test.trajectories, key=len)
        session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
        timings = []
        for segment in trajectory.segments[1:]:
            start = time.perf_counter()
            session.update(segment)
            timings.append(time.perf_counter() - start)
        # Compare the first and last thirds: no systematic growth beyond noise.
        third = max(1, len(timings) // 3)
        early = np.median(timings[:third])
        late = np.median(timings[-third:])
        assert late < early * 10

    def test_custom_lambda(self, trained_causal_tad, benchmark_data):
        trajectory = benchmark_data.ood_test.trajectories[0]
        biased = OnlineDetector(trained_causal_tad, lambda_weight=0.0).final_score(trajectory)
        debiased = OnlineDetector(trained_causal_tad, lambda_weight=0.5).final_score(trajectory)
        assert debiased <= biased + 1e-9


class TestAdvanceSessionsValidation:
    """``advance_sessions`` is public: malformed input raises ``ValueError``."""

    @pytest.fixture
    def ride(self, trained_causal_tad, benchmark_data):
        trajectory = benchmark_data.id_test.trajectories[0]
        init = init_session_states(
            trained_causal_tad, [trajectory.source], [trajectory.destination]
        )
        return trajectory.segments[0], trajectory.segments[1], init.hidden

    def test_rejects_negative_previous_segment(self, trained_causal_tad, ride):
        _, entered, hidden = ride
        with pytest.raises(ValueError, match="outside"):
            advance_sessions(trained_causal_tad, [-1], [entered], hidden)

    def test_rejects_out_of_range_next_segment(self, trained_causal_tad, ride):
        current, _, hidden = ride
        too_large = trained_causal_tad.config.num_segments
        with pytest.raises(ValueError, match="outside"):
            advance_sessions(trained_causal_tad, [current], [too_large], hidden)

    def test_rejects_hidden_rows_not_matching_rides(self, trained_causal_tad, ride):
        current, entered, hidden = ride
        with pytest.raises(ValueError, match="hidden must have shape"):
            advance_sessions(trained_causal_tad, [current], [entered], np.vstack([hidden, hidden]))

    def test_rejects_unequal_segment_arrays(self, trained_causal_tad, ride):
        current, entered, hidden = ride
        with pytest.raises(ValueError, match="equal length"):
            advance_sessions(
                trained_causal_tad, [current, current], [entered], np.vstack([hidden, hidden])
            )
