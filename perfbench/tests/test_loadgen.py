"""Load generation: seeded, road-constrained, separate from the engine."""

import numpy as np
import pytest

import loadgen
from repro.roadnet import generate_arterial_city
from repro.roadnet.generators import CityConfig
from repro.serving import RideEnd, RideStart, SegmentObserved
from repro.utils.rng import RandomState


@pytest.fixture(scope="module")
def network():
    city = generate_arterial_city(CityConfig(name="t", rows=6, cols=6), rng=RandomState(0))
    return city.network


def test_walks_are_valid_routes_within_length_bounds_and_seeded(network):
    idx, valid = network.compiled().successor_tables()
    walks = loadgen.walk_segments(idx, valid, 50, np.random.default_rng(4), 5, 12)
    again = loadgen.walk_segments(idx, valid, 50, np.random.default_rng(4), 5, 12)
    assert len(walks) == 50
    assert all(np.array_equal(a, b) for a, b in zip(walks, again))
    for walk in walks:
        assert 5 <= len(walk) <= 12
        assert network.is_valid_route([int(s) for s in walk])


def test_fleet_load_keeps_rides_consistent_and_closes_them(network):
    idx, valid = network.compiled().successor_tables()
    load = loadgen.FleetLoad(idx, valid, seed=3, concurrency=40)
    started, ended, seen = set(), set(), {}
    for _ in range(30):
        for event in load.next_tick():
            if isinstance(event, RideStart):
                assert event.ride_id not in started
                started.add(event.ride_id)
                seen[event.ride_id] = [event.start_segment]
            elif isinstance(event, SegmentObserved):
                assert event.ride_id in started and event.ride_id not in ended
                seen[event.ride_id].append(event.segment_id)
            else:
                assert isinstance(event, RideEnd)
                ended.add(event.ride_id)
    ended.update(event.ride_id for event in load.close())
    assert ended == started == set(load.rides)
    for ride_id, segments in seen.items():
        sd_pair, observed = load.observed_route(ride_id)
        assert observed == segments
        assert network.is_valid_route(observed) or len(observed) == 1
