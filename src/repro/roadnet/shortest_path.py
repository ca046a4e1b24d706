"""Shortest-path routines over road networks.

Three uses in the reproduction:

* The **Detour anomaly generator** (paper §VI-A2) temporarily removes a road
  segment and reroutes between two points of the original trajectory with
  Dijkstra.
* The **trajectory simulator** samples realistic routes as preference-weighted
  stochastic shortest paths.
* The **iBOAT-style metric baseline** needs node-to-node distances to locate
  reference trajectories for unseen SD pairs.

All functions operate on the *node* graph but return routes as *segment-id*
sequences, because that is the representation the models consume.

Since the CSR refactor the public functions run on the network's compiled
flat-array view (:meth:`RoadNetwork.compiled`): weights are resolved to a
per-segment array once per call (``weight`` may now be a numpy array as well
as the historical callable) and the heap loop touches only plain ints and
floats.  Routes, distances and tie-breaking are bit-identical to the original
dict-based implementations, ``legacy_dijkstra_route`` /
``legacy_dijkstra_distances``.  Those remain the path for networks with sparse
segment ids (which cannot be compiled) and the reference points for the
parity tests and the benchmark gates.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.roadnet.csr import csr_dijkstra, csr_dijkstra_batched, csr_route
from repro.roadnet.network import RoadNetwork, RoadSegment

__all__ = [
    "dijkstra_route",
    "dijkstra_distances",
    "batched_dijkstra_distances",
    "route_between_segments",
    "k_shortest_routes",
    "legacy_dijkstra_route",
    "legacy_dijkstra_distances",
]

WeightFn = Callable[[RoadSegment], float]
#: ``weight`` accepts the historical per-segment callable or a weight array.
WeightSpec = Union[WeightFn, np.ndarray, None]


def _as_weight_fn(weight: WeightSpec) -> Optional[WeightFn]:
    """Adapt a weight spec to the callable form the legacy fallback expects."""
    if weight is None or callable(weight):
        return weight
    array = np.asarray(weight, dtype=np.float64)
    return lambda segment: float(array[segment.segment_id])


def dijkstra_route(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    weight: WeightSpec = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Shortest route between two intersections as a list of segment ids.

    Parameters
    ----------
    network:
        The road network.
    source_node, target_node:
        Intersection ids.
    weight:
        Per-segment cost: a ``(num_segments,)`` array, a callable evaluated
        once per segment, or ``None`` for segment length.
    banned_segments:
        Segment ids that may not be used (how the Detour generator removes a
        segment "temporarily" without mutating the network).

    Returns
    -------
    The segment-id route, or ``None`` when the target is unreachable.
    """
    if source_node == target_node:
        return []
    if not network._contiguous_segment_ids():
        # Non-compilable (sparse-id) networks keep the dict implementation.
        return legacy_dijkstra_route(
            network,
            source_node,
            target_node,
            weight=_as_weight_fn(weight),
            banned_segments=banned_segments,
        )
    graph = network.compiled()
    if source_node not in graph.node_index or target_node not in graph.node_index:
        # Unknown intersections behave like isolated nodes: unreachable.
        return None
    return csr_route(
        graph,
        graph.node_index[source_node],
        graph.node_index[target_node],
        weights=graph.resolve_weights(weight),
        banned_segments=banned_segments,
    )


def dijkstra_distances(
    network: RoadNetwork,
    source_node: int,
    weight: WeightSpec = None,
) -> Dict[int, float]:
    """Shortest distance from ``source_node`` to every reachable intersection."""
    if not network._contiguous_segment_ids():
        return legacy_dijkstra_distances(network, source_node, weight=_as_weight_fn(weight))
    graph = network.compiled()
    if source_node not in graph.node_index:
        # Unknown intersections behave like isolated nodes (legacy contract).
        return {source_node: 0.0}
    dist, _, _ = csr_dijkstra(
        graph, graph.node_index[source_node], weights=graph.resolve_weights(weight)
    )
    inf = float("inf")
    node_ids = graph.node_ids
    return {int(node_ids[i]): d for i, d in enumerate(dist) if d < inf}


def batched_dijkstra_distances(
    network: RoadNetwork,
    source_nodes: Sequence[int],
    weight: WeightSpec = None,
) -> np.ndarray:
    """Shortest distances from many sources at once.

    Returns a ``(num_sources, num_intersections)`` array whose columns follow
    ascending intersection id (the compiled graph's node order); unreachable
    entries hold ``inf``.  Weight resolution happens once for the whole batch,
    so this is the kernel to use for SD-pair statistics, iBOAT reference
    lookups and any all-pairs-ish workload.
    """
    if not network._contiguous_segment_ids():
        node_ids = [n.node_id for n in network.intersections()]
        weight_fn = _as_weight_fn(weight)
        out = np.full((len(source_nodes), len(node_ids)), np.inf, dtype=np.float64)
        for row, source in enumerate(source_nodes):
            reachable = legacy_dijkstra_distances(network, int(source), weight=weight_fn)
            out[row] = [reachable.get(node, np.inf) for node in node_ids]
        return out
    graph = network.compiled()
    # Unknown intersections behave like isolated nodes: an all-``inf`` row.
    known = [row for row, s in enumerate(source_nodes) if int(s) in graph.node_index]
    sources = [graph.node_index[int(source_nodes[row])] for row in known]
    out = np.full((len(source_nodes), graph.num_nodes), np.inf, dtype=np.float64)
    out[known] = csr_dijkstra_batched(graph, sources, weights=graph.resolve_weights(weight))
    return out


def route_between_segments(
    network: RoadNetwork,
    from_segment: int,
    to_segment: int,
    weight: WeightSpec = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Shortest route connecting two segments, inclusive of both endpoints.

    Used by the Detour generator: replace the sub-trajectory between segments
    ``t_i`` and ``t_j`` with the shortest path that avoids a deleted segment.
    The returned route starts with ``from_segment`` and ends with
    ``to_segment``.
    """
    start = network.segment(from_segment)
    end = network.segment(to_segment)
    banned = set(banned_segments or set())
    middle = dijkstra_route(
        network,
        start.end_node,
        end.start_node,
        weight=weight,
        banned_segments=banned,
    )
    if middle is None:
        return None
    route = [from_segment, *middle, to_segment]
    # The joined route may revisit the endpoints when from/to are adjacent;
    # deduplicate immediate repetitions only.
    deduped = [route[0]]
    for sid in route[1:]:
        if sid != deduped[-1]:
            deduped.append(sid)
    return deduped if network.is_valid_route(deduped) else None


def k_shortest_routes(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    k: int,
    weight: WeightSpec = None,
) -> List[List[int]]:
    """Up to ``k`` loop-free shortest routes (Yen's algorithm).

    Used by the Switch anomaly generator and the route-diversity statistics in
    the dataset reports.  Routes are returned best-first as segment-id lists.
    """
    if k <= 0:
        return []
    if network._contiguous_segment_ids():
        graph = network.compiled()
        weight_array = np.asarray(graph.resolve_weights(weight), dtype=np.float64)

        def route_cost(route: List[int]) -> float:
            return sum(weight_array[route].tolist())

        spur_weight: WeightSpec = weight_array
    else:
        weight_fn = _as_weight_fn(weight) or _default_weight

        def route_cost(route: List[int]) -> float:
            return sum(weight_fn(network.segment(sid)) for sid in route)

        spur_weight = weight_fn
    best = dijkstra_route(network, source_node, target_node, weight=spur_weight)
    if best is None:
        return []
    routes: List[List[int]] = [best]
    candidates: List[Tuple[float, List[int]]] = []
    seen = {tuple(best)}

    for _ in range(1, k):
        previous_route = routes[-1]
        for spur_index in range(len(previous_route)):
            spur_segment = network.segment(previous_route[spur_index])
            spur_node = spur_segment.start_node
            root = previous_route[:spur_index]

            banned: Set[int] = set()
            for route in routes:
                if route[:spur_index] == root and spur_index < len(route):
                    banned.add(route[spur_index])

            spur = dijkstra_route(
                network, spur_node, target_node, weight=spur_weight, banned_segments=banned
            )
            if spur is None:
                continue
            candidate = root + spur
            key = tuple(candidate)
            if key in seen or not network.is_valid_route(candidate):
                continue
            seen.add(key)
            heapq.heappush(candidates, (route_cost(candidate), candidate))

        if not candidates:
            break
        _, next_route = heapq.heappop(candidates)
        routes.append(next_route)

    return routes


# --------------------------------------------------------------------------- #
# Legacy dict-based reference implementations
# --------------------------------------------------------------------------- #
def _default_weight(segment: RoadSegment) -> float:
    return segment.length


def legacy_dijkstra_route(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    weight: Optional[WeightFn] = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """The dict/dataclass Dijkstra over the network's own adjacency.

    :func:`dijkstra_route` runs it for networks with sparse (non-contiguous)
    segment ids, which cannot be compiled to CSR.  It is also the parity
    reference: ``tests/roadnet/test_csr_graph.py`` asserts the CSR path
    reproduces its routes bit-for-bit and
    ``benchmarks/test_bench_roadnet_pipeline.py`` measures the speedup
    against it.
    """
    if source_node == target_node:
        return []
    weight = weight or _default_weight
    banned = banned_segments or set()

    distances: Dict[int, float] = {source_node: 0.0}
    previous: Dict[int, Tuple[int, int]] = {}  # node -> (prev_node, via_segment)
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source_node)]

    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target_node:
            break
        for segment in network.out_segments(node):
            if segment.segment_id in banned:
                continue
            cost = weight(segment)
            if cost < 0:
                raise ValueError("Dijkstra requires non-negative segment weights")
            candidate = dist + cost
            neighbour = segment.end_node
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                previous[neighbour] = (node, segment.segment_id)
                heapq.heappush(heap, (candidate, neighbour))

    if target_node not in previous and target_node != source_node:
        return None

    route: List[int] = []
    node = target_node
    while node != source_node:
        prev_node, via_segment = previous[node]
        route.append(via_segment)
        node = prev_node
    route.reverse()
    return route


def legacy_dijkstra_distances(
    network: RoadNetwork,
    source_node: int,
    weight: Optional[WeightFn] = None,
) -> Dict[int, float]:
    """Dict-based single-source distances: the sparse-id path and parity reference."""
    weight = weight or _default_weight
    distances: Dict[int, float] = {source_node: 0.0}
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source_node)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for segment in network.out_segments(node):
            cost = weight(segment)
            if cost < 0:
                raise ValueError("Dijkstra requires non-negative segment weights")
            candidate = dist + cost
            neighbour = segment.end_node
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return distances
