"""The fleet-scale streaming serving engine.

:class:`FleetEngine` serves the paper's O(1)-per-segment online scoring to a
whole fleet at once.  Where :class:`~repro.core.OnlineSession` advances one
ride at a time (a Python-level GRU step per ride per segment), the engine
buffers incoming :class:`~repro.serving.events.SegmentObserved` events and
executes them in **vectorized micro-batches**: each :meth:`tick` performs

* one batched SD encoding for every ride that started since the last tick
  (:func:`~repro.core.inference.init_session_states`), and
* one batched embedding lookup + one batched GRU step + one batched
  log-softmax for every ride with a pending observation
  (:func:`~repro.core.inference.advance_sessions`).  With a road network
  attached the softmax normalises over each ride's CSR successor set
  (:meth:`CompiledRoadGraph.successor_tables
  <repro.roadnet.csr.CompiledRoadGraph.successor_tables>`) — O(out-degree)
  gathered columns per ride instead of masking the full segment vocabulary,

so the per-segment cost is a handful of matrix ops for *all* pending rides
instead of N scalar passes.  Scores match the per-ride and offline paths to
machine precision — all three run the inference engine's numpy eval forward.

Operational concerns are delegated to the sibling modules: the
:class:`~repro.serving.store.SessionStore` bounds memory via capacity/TTL
eviction, :class:`~repro.serving.telemetry.FleetTelemetry` tracks throughput
and tick latency, and :mod:`repro.serving.alerts` raises threshold alerts and
ranks the currently most anomalous rides.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.causal_tad import CausalTAD
from repro.core.inference import advance_sessions, init_session_states
from repro.obs.registry import MetricsRegistry
from repro.serving.alerts import Alert, ThresholdAlertPolicy, top_k_rides
from repro.serving.events import FleetEvent, RideEnd, RideStart, SegmentObserved
from repro.serving.store import RideState, SessionStore
from repro.serving.telemetry import FleetTelemetry
from repro.utils.logging import get_logger
from repro.utils.timing import Timer

__all__ = ["FleetEngine", "TickReport", "FinishedRide", "FleetRunSummary"]

logger = get_logger("serving.engine")


@dataclass(frozen=True)
class FinishedRide:
    """Final record of a completed (or evicted) ride.

    Attributes
    ----------
    ride_id:
        The ride's unique identifier (as submitted in :class:`RideStart`).
    final_score:
        Cumulative debiased anomaly score (Eq. 10) over the observed prefix;
        higher = more anomalous.
    per_segment_score:
        ``final_score`` normalised by the number of scored transitions —
        comparable across rides of different lengths.
    observed_length:
        Number of segments observed, including the start segment.
    started_tick / finished_tick:
        Engine ticks bracketing the session's lifetime.
    evicted:
        True when the session ended by capacity/TTL eviction rather than a
        :class:`RideEnd` event.
    """

    ride_id: str
    final_score: float
    per_segment_score: float
    observed_length: int
    started_tick: int
    finished_tick: int
    evicted: bool = False


@dataclass
class TickReport:
    """What one :meth:`FleetEngine.tick` did.

    Attributes
    ----------
    tick:
        The tick index the report covers.
    rides_started / rides_finished / rides_evicted:
        Session lifecycle counts within this tick.
    segments_processed:
        Number of observations consumed by the batched kernel step (at most
        one per active ride per tick).
    alerts:
        Alerts raised by the configured policy during this tick.
    seconds:
        Wall-clock duration of the tick.
    """

    tick: int
    rides_started: int = 0
    segments_processed: int = 0
    rides_finished: int = 0
    rides_evicted: int = 0
    alerts: List[Alert] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class FleetRunSummary:
    """Aggregate result of one :meth:`FleetEngine.run` over an event stream.

    ``ticks``, ``finished`` and ``alerts`` cover only that run (the engine can
    be reused across runs and live ingest/tick phases); ``telemetry`` is the
    engine-lifetime snapshot.
    """

    ticks: int
    finished: Dict[str, FinishedRide]
    alerts: List[Alert]
    telemetry: Dict[str, float]


class FleetEngine:
    """Vectorized micro-batched serving of online anomaly scores.

    Parameters
    ----------
    model:
        A (trained) :class:`CausalTAD` model; put into eval mode and its
        per-segment scaling factors precomputed once, as in
        :class:`~repro.core.OnlineDetector`.
    lambda_weight:
        Overrides the configured λ of the debiased score.
    capacity:
        Maximum concurrent sessions; the least-recently-active session is
        evicted when a new ride would exceed it.  ``None`` = unbounded.
    ttl_ticks:
        Sessions idle longer than this many ticks are evicted. ``None`` =
        never.
    alert_policy:
        Optional :class:`ThresholdAlertPolicy` checked after every update.
    retention:
        How many finished-ride records and alerts to keep (FIFO beyond
        that), so a long-running engine's memory stays flat no matter how
        many rides it has ever served.
    metrics_registry:
        Where :class:`FleetTelemetry` registers its instruments.  ``None``
        (default) keeps a private per-engine registry; pass the global
        ``repro.obs.metrics()`` to publish fleet metrics process-wide
        (JSON / Prometheus exporters then include them).
    """

    def __init__(
        self,
        model: CausalTAD,
        lambda_weight: Optional[float] = None,
        capacity: Optional[int] = None,
        ttl_ticks: Optional[int] = None,
        alert_policy: Optional[ThresholdAlertPolicy] = None,
        retention: int = 100_000,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.model.eval()
        self.lambda_weight = (
            model.config.lambda_weight if lambda_weight is None else lambda_weight
        )
        self._scaling = model.scaling_factors()
        if retention <= 0:
            raise ValueError("retention must be positive")
        self.store = SessionStore(capacity=capacity, ttl_ticks=ttl_ticks)
        self.telemetry = FleetTelemetry(registry=metrics_registry)
        self.alert_policy = alert_policy
        self.retention = retention
        self.alerts: Deque[Alert] = deque(maxlen=retention)
        self.finished: "OrderedDict[str, FinishedRide]" = OrderedDict()
        self._pending_starts: List[RideStart] = []
        # Observations arriving before a pending start has been ticked in.
        self._prestart_observations: Dict[str, Deque[int]] = {}
        self._pending_ends: Deque[str] = deque()
        self._tick = 0

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    @property
    def current_tick(self) -> int:
        """Index of the next tick to execute (0 before the first tick)."""
        return self._tick

    @property
    def active_rides(self) -> int:
        """Number of rides with a live session in the store."""
        return len(self.store)

    def _check_segment(self, segment_id: int) -> None:
        # Pure-Python range check: submit() sits on the ingest hot path, so it
        # must not pay numpy array-construction overhead per event.
        if not 0 <= segment_id < self.model.config.num_segments:
            raise ValueError(
                f"segment id {segment_id} outside [0, {self.model.config.num_segments})"
            )

    def submit(self, event: FleetEvent) -> None:
        """Queue one event; it takes effect on the next :meth:`tick`.

        Parameters
        ----------
        event:
            A :class:`RideStart` (opens a session; raises ``ValueError`` on a
            duplicate ride id), :class:`SegmentObserved` (appended to the
            ride's observation queue; silently dropped — and counted in
            telemetry — when the ride is unknown) or :class:`RideEnd`
            (closes the session once its observations have drained).
            Segment ids must lie in ``[0, num_segments)``.
        """
        # SegmentObserved dominates real streams, so it is dispatched first.
        if isinstance(event, SegmentObserved):
            self._check_segment(event.segment_id)
            state = self.store.get(event.ride_id)
            if state is not None:
                state.pending.append(event.segment_id)
            elif event.ride_id in self._prestart_observations:
                self._prestart_observations[event.ride_id].append(event.segment_id)
            else:
                self.telemetry.events_dropped += 1
                logger.debug(
                    "dropped SegmentObserved for unknown ride %r (segment %d, tick %d)",
                    event.ride_id, event.segment_id, self._tick,
                )
        elif isinstance(event, RideStart):
            if event.ride_id in self.store or event.ride_id in self._prestart_observations:
                raise ValueError(f"ride {event.ride_id!r} already has an active session")
            self._check_segment(event.sd_pair.source)
            self._check_segment(event.sd_pair.destination)
            self._check_segment(event.start_segment)
            self._pending_starts.append(event)
            self._prestart_observations[event.ride_id] = deque()
        elif isinstance(event, RideEnd):
            if event.ride_id in self.store or event.ride_id in self._prestart_observations:
                self._pending_ends.append(event.ride_id)
            else:
                self.telemetry.events_dropped += 1
                logger.debug(
                    "dropped RideEnd for unknown ride %r (tick %d)", event.ride_id, self._tick
                )
        else:
            raise TypeError(f"unknown fleet event: {event!r}")

    def ingest(self, events: Iterable[FleetEvent]) -> None:
        """Queue a batch of events (equivalent to :meth:`submit` per event,
        preserving iteration order)."""
        for event in events:
            self.submit(event)

    # ------------------------------------------------------------------ #
    # the micro-batched tick
    # ------------------------------------------------------------------ #
    def tick(self) -> TickReport:
        """Execute all queued work as one vectorized micro-batch.

        Processing order: ride starts (batched session init), then at most one
        pending observation per active ride (one batched kernel step), then
        ride ends whose observation queues have drained, then TTL eviction.
        Rides with more than one queued observation keep the rest for
        subsequent ticks, which preserves per-ride ordering.
        """
        report = TickReport(tick=self._tick)
        with Timer() as timer:
            self._start_rides(report)
            self._advance_rides(report)
            self._finish_rides(report)
            self._evict_expired(report)
        report.seconds = timer.elapsed
        self.telemetry.record_tick(timer.elapsed, report.segments_processed)
        self.telemetry.rides_started += report.rides_started
        self._tick += 1
        return report

    def _start_rides(self, report: TickReport) -> None:
        if not self._pending_starts:
            return
        starts = self._pending_starts
        self._pending_starts = []
        sources = np.array([s.sd_pair.source for s in starts], dtype=np.int64)
        destinations = np.array([s.sd_pair.destination for s in starts], dtype=np.int64)
        init = init_session_states(self.model, sources, destinations)
        for row, start in enumerate(starts):
            first = start.start_segment
            state = RideState(
                ride_id=start.ride_id,
                sd_pair=start.sd_pair,
                segments=[first],
                # Copy the row out of the batch so one long-lived session does
                # not pin the whole (batch, hidden) init array alive.
                hidden=init.hidden[row].copy(),
                fixed_score=float(init.fixed_scores[row]),
                likelihood_sum=0.0,
                scaling_sum=float(self._scaling[first]),
                started_tick=self._tick,
                last_active_tick=self._tick,
                pending=self._prestart_observations.pop(start.ride_id, deque()),
            )
            for lru in self.store.add(state):
                self._retire(lru, evicted=True)
                report.rides_evicted += 1
            report.rides_started += 1

    def _advance_rides(self, report: TickReport) -> None:
        batch = [state for state in self.store.states() if state.pending]
        if not batch:
            return
        previous = np.array([state.segments[-1] for state in batch], dtype=np.int64)
        entered = np.array([state.pending.popleft() for state in batch], dtype=np.int64)
        hidden = np.stack([state.hidden for state in batch], axis=0)

        new_hidden, step_likelihoods = advance_sessions(self.model, previous, entered, hidden)

        # LRU/TTL bookkeeping only matters when eviction is configured; on the
        # unbounded fast path the per-ride touch is pure overhead.
        needs_touch = self.store.capacity is not None or self.store.ttl_ticks is not None
        scaling_steps = self._scaling[entered]
        for row, state in enumerate(batch):
            # Row copy, not a view: a view would keep the whole tick's
            # (batch, hidden) array alive for as long as any ride idles.
            state.hidden = new_hidden[row].copy()
            state.likelihood_sum += float(step_likelihoods[row])
            state.scaling_sum += float(scaling_steps[row])
            state.segments.append(int(entered[row]))
            if needs_touch:
                self.store.touch(state.ride_id, self._tick)
            if self.alert_policy is not None:
                alert = self.alert_policy.check(state, self.lambda_weight, self._tick)
                if alert is not None:
                    report.alerts.append(alert)
                    self.alerts.append(alert)
                    self.telemetry.alerts_raised += 1
                    logger.info(
                        "alert: ride %r per-segment score %.4f at tick %d "
                        "(%d segments observed)",
                        alert.ride_id, alert.per_segment_score, self._tick,
                        alert.observed_length,
                    )
        report.segments_processed += len(batch)

    def _finish_rides(self, report: TickReport) -> None:
        deferred: Deque[str] = deque()
        while self._pending_ends:
            ride_id = self._pending_ends.popleft()
            state = self.store.get(ride_id)
            if state is None:
                if ride_id in self._prestart_observations:
                    deferred.append(ride_id)  # start not ticked in yet
                # else: session was evicted meanwhile; final record already kept
                continue
            if state.pending:
                deferred.append(ride_id)  # keep ordering: drain observations first
                continue
            self.store.pop(ride_id)
            self._retire(state, evicted=False)
            report.rides_finished += 1
        self._pending_ends = deferred

    def _evict_expired(self, report: TickReport) -> None:
        for state in self.store.evict_expired(self._tick):
            self._retire(state, evicted=True)
            report.rides_evicted += 1

    def _retire(self, state: RideState, evicted: bool) -> None:
        self.finished.pop(state.ride_id, None)
        while len(self.finished) >= self.retention:
            self.finished.popitem(last=False)
        self.finished[state.ride_id] = FinishedRide(
            ride_id=state.ride_id,
            final_score=state.score(self.lambda_weight),
            per_segment_score=state.per_segment_score(self.lambda_weight),
            observed_length=state.observed_length,
            started_tick=state.started_tick,
            finished_tick=self._tick,
            evicted=evicted,
        )
        if evicted:
            self.telemetry.rides_evicted += 1
            logger.info(
                "evicted ride %r at tick %d (%d segments observed, score %.4f)",
                state.ride_id, self._tick, state.observed_length,
                self.finished[state.ride_id].final_score,
            )
        else:
            self.telemetry.rides_finished += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def score(self, ride_id: str) -> Optional[float]:
        """Current cumulative debiased score of an active ride.

        Returns ``None`` when the ride has no live session (never started,
        already finished, or evicted); otherwise the running Eq. (10) score
        over the segments observed so far (higher = more anomalous).
        """
        state = self.store.get(ride_id)
        return state.score(self.lambda_weight) if state is not None else None

    def active_scores(self) -> Dict[str, float]:
        """Mapping ``ride_id -> cumulative score`` for every active ride."""
        return {state.ride_id: state.score(self.lambda_weight) for state in self.store.states()}

    def top_k(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` most anomalous active rides as ``(ride_id, score)``.

        Ranked by *per-segment* score descending, so long rides do not
        dominate merely by accumulating more terms.
        """
        return top_k_rides(self.store.states(), k, self.lambda_weight)

    # ------------------------------------------------------------------ #
    # replay driver
    # ------------------------------------------------------------------ #
    def run(self, event_stream: Iterable[Iterable[FleetEvent]]) -> FleetRunSummary:
        """Ingest a per-tick event stream, tick after each batch, then drain.

        After the stream is exhausted, extra ticks run until every queued
        start, observation and end has been processed (each tick consumes at
        least one queued observation per ride, so draining terminates).
        """
        start_tick = self._tick
        for events in event_stream:
            self.ingest(events)
            self.tick()
        while (
            self._pending_starts
            or self._pending_ends
            or any(state.pending for state in self.store.states())
        ):
            self.tick()
        return FleetRunSummary(
            ticks=self._tick - start_tick,
            finished={
                ride_id: record
                for ride_id, record in self.finished.items()
                if record.finished_tick >= start_tick
            },
            alerts=[alert for alert in self.alerts if alert.tick >= start_tick],
            telemetry=self.telemetry.snapshot(),
        )
