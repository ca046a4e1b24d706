"""Load generation, kept apart from the system under test.

Everything here is derived from the benchmark seed with numpy's own PCG64
stream (never the program's ``RandomState``), runs outside the timed regions,
and is reported as ``loadgen.s``.  The program only ever receives the
generated inputs: walks, per-tick event lists and GPS traces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.serving import RideEnd, RideStart, SegmentObserved
from repro.trajectory.types import MapMatchedTrajectory, SDPair

MIN_WALK = 24
MAX_WALK = 96


def walk_segments(
    successor_idx: np.ndarray,
    successor_valid: np.ndarray,
    count: int,
    rng: np.random.Generator,
    min_length: int = MIN_WALK,
    max_length: int = MAX_WALK,
) -> List[np.ndarray]:
    """``count`` random road-constrained walks with lengths in [min, max].

    Each step moves to a uniformly chosen successor segment (the CSR
    successor tables of :meth:`CompiledRoadGraph.successor_tables`); walks
    that reach a dead end before their drawn length are drawn again.
    """
    degree = successor_valid.sum(axis=1)
    starts_ok = np.flatnonzero(degree > 0)
    walks: List[np.ndarray] = []
    while len(walks) < count:
        need = count - len(walks)
        lengths = rng.integers(min_length, max_length + 1, size=need)
        current = rng.choice(starts_ok, size=need)
        out = np.empty((need, max_length), dtype=np.int64)
        alive = np.ones(need, dtype=bool)
        out[:, 0] = current
        for step in range(1, max_length):
            deg = degree[current]
            alive &= (deg > 0) | (lengths <= step)
            pick = (rng.random(need) * np.maximum(deg, 1)).astype(np.int64)
            current = successor_idx[current, pick]
            out[:, step] = current
        walks.extend(out[row, : lengths[row]] for row in np.flatnonzero(alive))
    return walks[:count]


def walk_trajectories(walks: List[np.ndarray], prefix: str) -> List[MapMatchedTrajectory]:
    return [
        MapMatchedTrajectory(f"{prefix}-{i:06d}", tuple(int(s) for s in walk))
        for i, walk in enumerate(walks)
    ]


class FleetLoad:
    """A closed-loop ride stream holding about ``concurrency`` rides at once.

    At tick 0 the fleet is already in progress: ``concurrency`` rides each
    join part-way along their walk (the engine sees the whole SD pair and the
    current segment), so the engine runs at full load from the first tick.
    Every tick then starts ``concurrency / mean walk length`` new rides, sends
    one :class:`SegmentObserved` per active ride and a :class:`RideEnd` after a
    ride's last segment.  :meth:`close` ends every ride still active.
    """

    def __init__(
        self,
        successor_idx: np.ndarray,
        successor_valid: np.ndarray,
        seed: int,
        concurrency: int = 2048,
    ) -> None:
        self._idx = successor_idx
        self._valid = successor_valid
        self._rng = np.random.default_rng([seed, 0xF1EE7])
        self.concurrency = concurrency
        self.starts_per_tick = int(round(concurrency / ((MIN_WALK + MAX_WALK) / 2.0)))
        self._next_id = 0
        #: ride id -> (walk, index of the segment the ride joined on)
        self.rides: Dict[str, Tuple[np.ndarray, int]] = {}
        #: ride id -> segments observed so far (start segment included)
        self.observed: Dict[str, int] = {}
        self._active: List[List] = []  # [ride_id, walk, next position]
        self._pending_starts = self._new_rides(concurrency, joined=True)

    def _new_rides(self, count: int, joined: bool) -> List[RideStart]:
        walks = walk_segments(self._idx, self._valid, count, self._rng)
        starts = []
        for walk in walks:
            ride_id = f"r{self._next_id:07d}"
            self._next_id += 1
            first = int(self._rng.integers(0, len(walk) - 1)) if joined else 0
            self.rides[ride_id] = (walk, first)
            self.observed[ride_id] = 1
            starts.append(
                RideStart(ride_id, SDPair(int(walk[0]), int(walk[-1])), first_segment=int(walk[first]))
            )
            self._active.append([ride_id, walk, first + 1])
        return starts

    def next_tick(self) -> list:
        """The events of the next tick."""
        events: list = self._pending_starts
        self._pending_starts = []
        events.extend(self._new_rides(self.starts_per_tick, joined=False))
        still: List[List] = []
        for ride in self._active:
            ride_id, walk, position = ride
            events.append(SegmentObserved(ride_id, int(walk[position])))
            self.observed[ride_id] += 1
            ride[2] = position + 1
            if ride[2] < len(walk):
                still.append(ride)
            else:
                events.append(RideEnd(ride_id))
        self._active = still
        return events

    def close(self) -> list:
        """End every ride still active (their remaining segments are never sent)."""
        events = [RideEnd(ride_id) for ride_id, _, _ in self._active]
        self._active = []
        return events

    def observed_route(self, ride_id: str) -> Tuple[SDPair, List[int]]:
        """The SD pair and the segments the engine saw for one ride."""
        walk, first = self.rides[ride_id]
        segments = [int(s) for s in walk[first : first + self.observed[ride_id]]]
        return SDPair(int(walk[0]), int(walk[-1])), segments
