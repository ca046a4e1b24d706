"""Session store of the fleet serving engine.

Holds the per-ride scoring state (one row of the batched
:func:`~repro.core.inference.init_session_states` /
:func:`~repro.core.inference.advance_sessions` state) for every active ride,
with two
production guard-rails:

* **capacity eviction** — a hard cap on concurrent sessions; when a new ride
  would exceed it, the least-recently-active session is evicted (LRU);
* **TTL eviction** — sessions that have not seen an event for ``ttl_ticks``
  engine ticks are dropped (rides whose ends were lost, crashed clients, …).

Evicted sessions are returned to the engine so it can count them and surface
their last known scores.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.trajectory.types import SDPair

__all__ = ["RideState", "SessionStore"]


@dataclass
class RideState:
    """Scoring state of one active ride inside the fleet engine."""

    ride_id: str
    sd_pair: SDPair
    segments: List[int]
    hidden: np.ndarray            # (hidden_dim,) decoder hidden state
    fixed_score: float
    likelihood_sum: float
    scaling_sum: float
    started_tick: int
    last_active_tick: int
    pending: Deque[int] = field(default_factory=deque)
    alerted: bool = False

    @property
    def observed_length(self) -> int:
        return len(self.segments)

    def score(self, lambda_weight: float) -> float:
        """Debiased anomaly score of the observed prefix (Eq. 10)."""
        return self.fixed_score + self.likelihood_sum - lambda_weight * self.scaling_sum

    def per_segment_score(self, lambda_weight: float) -> float:
        """Length-normalised score; comparable across rides of any length."""
        return self.score(lambda_weight) / self.observed_length


class SessionStore:
    """Active ride sessions with LRU capacity and TTL eviction."""

    def __init__(self, capacity: Optional[int] = None, ttl_ticks: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_ticks is not None and ttl_ticks <= 0:
            raise ValueError("ttl_ticks must be positive")
        self.capacity = capacity
        self.ttl_ticks = ttl_ticks
        self._states: "OrderedDict[str, RideState]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, ride_id: str) -> bool:
        return ride_id in self._states

    def get(self, ride_id: str) -> Optional[RideState]:
        return self._states.get(ride_id)

    def states(self) -> List[RideState]:
        """All active sessions, least-recently-active first."""
        return list(self._states.values())

    def active_ids(self) -> List[str]:
        return list(self._states.keys())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, state: RideState) -> List[RideState]:
        """Insert a new session, evicting LRU sessions if over capacity.

        Returns the evicted sessions (empty when under capacity).
        """
        if state.ride_id in self._states:
            raise ValueError(f"ride {state.ride_id!r} already has an active session")
        evicted: List[RideState] = []
        if self.capacity is not None:
            while len(self._states) >= self.capacity:
                _, lru = self._states.popitem(last=False)
                evicted.append(lru)
        self._states[state.ride_id] = state
        return evicted

    def touch(self, ride_id: str, tick: int) -> None:
        """Mark a session as active at ``tick`` (moves it to MRU position)."""
        state = self._states.get(ride_id)
        if state is not None:
            state.last_active_tick = tick
            self._states.move_to_end(ride_id)

    def pop(self, ride_id: str) -> Optional[RideState]:
        """Remove and return a session (``None`` if absent)."""
        return self._states.pop(ride_id, None)

    def evict_expired(self, current_tick: int) -> List[RideState]:
        """Drop sessions idle for more than ``ttl_ticks`` ticks."""
        if self.ttl_ticks is None:
            return []
        expired = [
            state
            for state in self._states.values()
            if current_tick - state.last_active_tick > self.ttl_ticks
        ]
        for state in expired:
            del self._states[state.ride_id]
        return expired
