"""GPS simulation and map matching.

The paper assumes trajectories are already matched to road segments ("all
trajectories can be mapped into a completed road sequence").  To exercise that
pipeline end-to-end, this module provides

* :func:`simulate_gps` — turn a map-matched route back into noisy GPS points
  (the inverse problem, useful for generating raw-trajectory test data), and
* :class:`MapMatcher` — a lightweight matcher turning raw GPS trajectories
  into road-segment sequences using nearest-segment candidates chained by a
  connectivity-aware Viterbi-style pass.  It runs on the compiled CSR graph,
  or by exhaustive scan on networks with sparse segment ids.

The matcher is intentionally simple (this library's experiments run on
segment sequences produced directly by the simulator); it exists so that users
with their own raw GPS data can still feed the models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.network import RoadNetwork
from repro.roadnet.spatial import Point, euclidean_distance, interpolate_along, project_point_to_segment
from repro.trajectory.types import GPSPoint, MapMatchedTrajectory, Trajectory
from repro.utils.rng import RandomState, get_rng

__all__ = ["simulate_gps", "MapMatcher", "MatchResult"]


def simulate_gps(
    network: RoadNetwork,
    matched: MapMatchedTrajectory,
    sample_spacing: float = 80.0,
    noise_std: float = 12.0,
    rng: Optional[RandomState] = None,
) -> Trajectory:
    """Emit noisy GPS points along a map-matched route.

    Points are placed roughly every ``sample_spacing`` metres along the route
    geometry with isotropic Gaussian noise of ``noise_std`` metres, and
    timestamps interpolated from the matched trajectory's per-segment times
    (or synthesised from free-flow speeds when absent).
    """
    rng = get_rng(rng)
    points: List[GPSPoint] = []
    time_cursor = matched.timestamps[0] if matched.timestamps else 0.0
    for position, sid in enumerate(matched.segments):
        segment = network.segment(sid)
        start = network.intersection(segment.start_node).location
        end = network.intersection(segment.end_node).location
        if matched.timestamps and position + 1 < len(matched.timestamps):
            duration = matched.timestamps[position + 1] - matched.timestamps[position]
        else:
            duration = segment.travel_time
        num_samples = max(1, int(segment.length / sample_spacing))
        for i in range(num_samples):
            fraction = i / num_samples
            base = interpolate_along(start, end, fraction)
            points.append(
                GPSPoint(
                    x=base.x + float(rng.normal(0.0, noise_std)),
                    y=base.y + float(rng.normal(0.0, noise_std)),
                    timestamp=time_cursor + fraction * duration,
                )
            )
        time_cursor += duration
    # Always include the final endpoint.
    last_segment = network.segment(matched.segments[-1])
    final = network.intersection(last_segment.end_node).location
    points.append(
        GPSPoint(
            x=final.x + float(rng.normal(0.0, noise_std)),
            y=final.y + float(rng.normal(0.0, noise_std)),
            timestamp=time_cursor,
        )
    )
    return Trajectory(trajectory_id=matched.trajectory_id, points=tuple(points))


@dataclass
class MatchResult:
    """Output of :meth:`MapMatcher.match`: the matched route plus diagnostics."""

    trajectory: MapMatchedTrajectory
    mean_match_distance: float
    num_points_used: int


class MapMatcher:
    """Nearest-segment map matcher with a connectivity-aware Viterbi pass.

    For each GPS point the matcher finds the ``num_candidates`` closest
    segments; a dynamic program then picks the segment sequence minimising
    ``match_distance + transition_penalty``, where transitions between
    non-adjacent segments are penalised.  Consecutive duplicates are collapsed
    and gaps between non-adjacent chosen segments are bridged with shortest
    paths so that the result is always a *connected* route.

    The path follows the network, by the same rule as
    :func:`~repro.roadnet.shortest_path.dijkstra_route`.  Networks with
    contiguous segment ids match on the compiled graph: candidates come from
    the grid-accelerated :meth:`~repro.roadnet.csr.CompiledRoadGraph.
    nearest_segments` (only grid-local segments are projected, instead of
    every segment for every point) and the Viterbi runs on padded
    ``(points, candidates)`` arrays.  Sparse-id networks, which cannot be
    compiled, use the exhaustive-scan + dict matcher (:meth:`_match_legacy`).
    Both produce identical routes (same costs, same first-minimum
    tie-breaking), which the parity tests and the roadnet pipeline benchmark
    assert.
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_candidates: int = 4,
        disconnect_penalty: float = 250.0,
        heading_weight: float = 60.0,
    ) -> None:
        self.network = network
        self.num_candidates = num_candidates
        self.disconnect_penalty = disconnect_penalty
        self.heading_weight = heading_weight
        self._geometry: Optional[List[Tuple[int, Point, Point]]] = None

    def _segment_geometry(self) -> List[Tuple[int, Point, Point]]:
        """``(segment id, start, end)`` of every segment, built on first use."""
        if self._geometry is None:
            network = self.network
            self._geometry = [
                (
                    seg.segment_id,
                    network.intersection(seg.start_node).location,
                    network.intersection(seg.end_node).location,
                )
                for seg in network.segments()
            ]
        return self._geometry

    # ------------------------------------------------------------------ #
    def _candidates(
        self, point: Point, heading: Optional[Tuple[float, float]] = None
    ) -> List[Tuple[int, float]]:
        """The closest segments to a GPS point, scored by distance + heading.

        Two-way roads produce geometrically identical forward and reverse
        segments; the heading term (misalignment between the vehicle's motion
        vector and the segment direction) is what disambiguates them.
        """
        scored = []
        for sid, start, end in self._segment_geometry():
            _, distance, _ = project_point_to_segment(point, start, end)
            cost = distance
            if heading is not None:
                seg_dx, seg_dy = end.x - start.x, end.y - start.y
                seg_norm = math.hypot(seg_dx, seg_dy)
                head_norm = math.hypot(*heading)
                if seg_norm > 0 and head_norm > 0:
                    cosine = (seg_dx * heading[0] + seg_dy * heading[1]) / (seg_norm * head_norm)
                    cost += self.heading_weight * (1.0 - cosine)
            scored.append((sid, cost))
        scored.sort(key=lambda item: item[1])
        return scored[: self.num_candidates]

    def match(self, trajectory: Trajectory) -> MatchResult:
        """Match a raw GPS trajectory to a connected road-segment route."""
        if self.network._contiguous_segment_ids():
            return self._match_compiled(trajectory)
        return self._match_legacy(trajectory)

    def _match_compiled(self, trajectory: Trajectory) -> MatchResult:
        """Vectorised candidates + array Viterbi on the compiled graph."""
        graph = self.network.compiled()
        points = trajectory.points
        num_points = len(points)
        xy = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(num_points, 2)
        headings = np.empty_like(xy)
        headings[:-1] = xy[1:]
        headings[-1] = xy[-1]
        headings[1:] -= xy[:-1]
        headings[0] -= xy[0]

        k = min(self.num_candidates, graph.num_segments)
        sids, costs = graph.nearest_segments(
            xy, k, headings=headings, heading_weight=self.heading_weight
        )
        valid = sids >= 0
        safe = np.where(valid, sids, 0)
        end_nodes = graph.seg_end[safe]
        start_nodes = graph.seg_start[safe]

        # Viterbi over the padded candidate grid.  ``argmin`` picks the first
        # minimum, matching the reference implementation's strict-improvement
        # scan over candidates in (cost, segment-id) order.
        columns = np.arange(k)
        cumulative = costs[0].copy()
        back = np.zeros((num_points, k), dtype=np.int64)
        for i in range(1, num_points):
            connected = end_nodes[i - 1][:, None] == start_nodes[i][None, :]
            same = sids[i - 1][:, None] == sids[i][None, :]
            transition = np.where(same | connected, 0.0, self.disconnect_penalty)
            total = (cumulative[:, None] + costs[i][None, :]) + transition
            back[i] = np.argmin(total, axis=0)
            cumulative = total[back[i], columns]

        choice = int(np.argmin(cumulative))
        chosen = np.empty(num_points, dtype=np.int64)
        chosen[num_points - 1] = choice
        for i in range(num_points - 1, 0, -1):
            choice = int(back[i, choice])
            chosen[i - 1] = choice
        rows = np.arange(num_points)
        chain = [int(s) for s in sids[rows, chosen]]
        mean_distance = float(np.mean(costs[rows, chosen]))

        route = self._connect(self._collapse(chain))
        matched = MapMatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            segments=tuple(route),
            timestamps=None,
        )
        return MatchResult(
            trajectory=matched, mean_match_distance=mean_distance, num_points_used=num_points
        )

    def _match_legacy(self, trajectory: Trajectory) -> MatchResult:
        """Exhaustive-scan matcher: the sparse-id path and the parity reference."""
        points = trajectory.points
        headings: List[Optional[Tuple[float, float]]] = []
        for i in range(len(points)):
            nxt = points[min(i + 1, len(points) - 1)]
            prev = points[max(i - 1, 0)]
            headings.append((nxt.x - prev.x, nxt.y - prev.y))
        candidate_lists = [
            self._candidates(p.location, heading) for p, heading in zip(points, headings)
        ]

        # Viterbi over candidate segments.
        num_points = len(candidate_lists)
        costs: List[Dict[int, float]] = [dict() for _ in range(num_points)]
        back: List[Dict[int, Optional[int]]] = [dict() for _ in range(num_points)]
        for sid, dist in candidate_lists[0]:
            costs[0][sid] = dist
            back[0][sid] = None
        for i in range(1, num_points):
            for sid, dist in candidate_lists[i]:
                best_prev, best_cost = None, math.inf
                for prev_sid, prev_cost in costs[i - 1].items():
                    transition = 0.0
                    if prev_sid != sid and not self.network.are_connected(prev_sid, sid):
                        transition = self.disconnect_penalty
                    total = prev_cost + dist + transition
                    if total < best_cost:
                        best_prev, best_cost = prev_sid, total
                costs[i][sid] = best_cost
                back[i][sid] = best_prev

        # Backtrack the best chain.
        last = min(costs[-1], key=costs[-1].get)
        chain = [last]
        for i in range(num_points - 1, 0, -1):
            last = back[i][chain[-1]]
            chain.append(last)
        chain.reverse()

        route = self._connect(self._collapse(chain))
        mean_distance = float(
            np.mean([dict(candidate_lists[i]).get(chain[i], 0.0) for i in range(num_points)])
        )
        matched = MapMatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            segments=tuple(route),
            timestamps=None,
        )
        return MatchResult(trajectory=matched, mean_match_distance=mean_distance, num_points_used=num_points)

    @staticmethod
    def _collapse(chain: Sequence[int]) -> List[int]:
        collapsed = [chain[0]]
        for sid in chain[1:]:
            if sid != collapsed[-1]:
                collapsed.append(sid)
        return collapsed

    def _connect(self, chain: Sequence[int]) -> List[int]:
        """Bridge non-adjacent consecutive segments with shortest paths."""
        from repro.roadnet.shortest_path import route_between_segments

        route = [chain[0]]
        for sid in chain[1:]:
            if self.network.are_connected(route[-1], sid):
                route.append(sid)
                continue
            bridge = route_between_segments(self.network, route[-1], sid)
            if bridge is None:
                # Unbridgeable gap (disconnected network): keep going from sid.
                route.append(sid)
                continue
            route.extend(bridge[1:])
        # A bridge may already terminate with sid; drop immediate duplicates.
        return self._collapse(route)
