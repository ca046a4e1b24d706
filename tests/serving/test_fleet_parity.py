"""Scoring parity: fleet engine == per-ride online session == offline model.

The acceptance bar for the serving subsystem: for the same trajectories, the
batched :class:`FleetEngine`, the per-ride :class:`OnlineSession` replay and
the offline :meth:`CausalTAD.score_trajectory` must agree to 1e-10, on both the
road-constrained (successor-set softmax) and unconstrained softmax paths, and
whatever ``kl_weight`` the model was trained with (the score always adds the
unweighted KL).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig, OnlineDetector
from repro.serving import FleetEngine, replay_trajectories
from repro.utils import RandomState

TOL = 1e-10
KL_WEIGHTS = pytest.mark.parametrize("kl_weight", [1.0, 0.5])


def with_kl_weight(model, kl_weight, network=None):
    """A twin of ``model`` (same parameters) whose config has ``kl_weight``."""
    twin = CausalTAD(
        replace(model.config, kl_weight=kl_weight), network=network, rng=RandomState(0)
    )
    twin.load_state_dict(model.state_dict())
    twin.eval()
    return twin


def fleet_final_scores(model, trajectories, **engine_kwargs):
    engine = FleetEngine(model, **engine_kwargs)
    summary = engine.run(replay_trajectories(trajectories))
    return {ride_id: record.final_score for ride_id, record in summary.finished.items()}


class TestMaskedPathParity:
    """Trained model with an attached road network (road-constrained softmax)."""

    @KL_WEIGHTS
    def test_fleet_matches_session_and_offline(self, trained_causal_tad, benchmark_data, kl_weight):
        model = with_kl_weight(trained_causal_tad, kl_weight, benchmark_data.city.network)
        assert model.transition_mask is not None
        trajectories = benchmark_data.id_test.trajectories[:12]
        detector = OnlineDetector(model)
        fleet = fleet_final_scores(model, trajectories)
        for trajectory in trajectories:
            session_score = detector.final_score(trajectory)
            offline_score = model.score_trajectory(trajectory)
            assert fleet[trajectory.trajectory_id] == pytest.approx(session_score, abs=TOL, rel=TOL)
            assert fleet[trajectory.trajectory_id] == pytest.approx(offline_score, abs=TOL, rel=TOL)

    def test_fleet_matches_session_prefixes(self, trained_causal_tad, benchmark_data):
        """Cumulative scores agree at *every* prefix, not just the end."""
        trajectory = benchmark_data.id_test.trajectories[0]
        detector = OnlineDetector(trained_causal_tad)
        prefix_scores = detector.score_prefixes(trajectory)

        engine = FleetEngine(trained_causal_tad)
        from repro.serving import RideStart, SegmentObserved

        engine.submit(RideStart("r", trajectory.sd_pair, trajectory.segments[0]))
        engine.tick()
        assert engine.score("r") == pytest.approx(prefix_scores[0], abs=TOL, rel=TOL)
        for position, segment in enumerate(trajectory.segments[1:], start=1):
            engine.submit(SegmentObserved("r", segment))
            engine.tick()
            assert engine.score("r") == pytest.approx(prefix_scores[position], abs=TOL, rel=TOL)

    def test_anomalous_trajectories_also_agree(self, trained_causal_tad, benchmark_data):
        anomalies = [item.trajectory for item in benchmark_data.id_detour.items if item.label == 1][:6]
        detector = OnlineDetector(trained_causal_tad)
        fleet = fleet_final_scores(trained_causal_tad, anomalies)
        for trajectory in anomalies:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )


class TestUnconstrainedPathParity:
    """Model without a road network (plain softmax over all segments)."""

    @pytest.fixture(scope="class")
    def unmasked_model(self, benchmark_data):
        model = CausalTAD(CausalTADConfig.tiny(benchmark_data.num_segments), rng=RandomState(7))
        model.eval()
        assert model.transition_mask is None
        return model

    @KL_WEIGHTS
    def test_fleet_matches_session_and_offline(self, unmasked_model, benchmark_data, kl_weight):
        model = with_kl_weight(unmasked_model, kl_weight)
        trajectories = benchmark_data.id_test.trajectories[:12]
        detector = OnlineDetector(model)
        fleet = fleet_final_scores(model, trajectories)
        for trajectory in trajectories:
            session_score = detector.final_score(trajectory)
            offline_score = model.score_trajectory(trajectory)
            assert fleet[trajectory.trajectory_id] == pytest.approx(session_score, abs=TOL, rel=TOL)
            assert fleet[trajectory.trajectory_id] == pytest.approx(offline_score, abs=TOL, rel=TOL)

    def test_road_constrained_flag_off_with_network(self, benchmark_data):
        """road_constrained=False must ignore an attached transition mask."""
        config = CausalTADConfig(
            num_segments=benchmark_data.num_segments,
            embedding_dim=16,
            hidden_dim=16,
            latent_dim=8,
            road_constrained=False,
        )
        model = CausalTAD(config, network=benchmark_data.city.network, rng=RandomState(9))
        model.eval()
        trajectories = benchmark_data.id_test.trajectories[:6]
        detector = OnlineDetector(model)
        fleet = fleet_final_scores(model, trajectories)
        for trajectory in trajectories:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                model.score_trajectory(trajectory), abs=TOL, rel=TOL
            )
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )


class TestLambdaOverrideParity:
    def test_custom_lambda_agrees(self, trained_causal_tad, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:5]
        lam = 0.3
        detector = OnlineDetector(trained_causal_tad, lambda_weight=lam)
        fleet = fleet_final_scores(trained_causal_tad, trajectories, lambda_weight=lam)
        for trajectory in trajectories:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                trained_causal_tad.score_trajectory(trajectory, lambda_weight=lam), abs=TOL, rel=TOL
            )
