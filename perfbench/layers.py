"""Per-layer timing from outside the program.

A :class:`Recorder` installs wrappers on the names callers look up (a module
attribute such as ``repro.serving.engine.advance_sessions`` or a class
attribute such as ``repro.nn.optim.Adam.step``) and restores them on
:meth:`Recorder.uninstall`.  Each wrapper records, per layer:

* the inclusive wall time of the *outermost* call on the current thread, so a
  layer reached through several wrapped names (``dijkstra_route`` called from
  ``route_between_segments``) is never counted twice;
* the number of calls;
* a span in a private :class:`repro.obs.Tracer` (kept in memory, exported as a
  Chrome trace at the end) — except for layers marked ``span=False``, whose
  calls are too frequent to keep one object each (per-ride alert checks,
  per-trip Dijkstra); those are only summed.

No source under ``src/`` changes and the program's own ``repro.obs``
instrumentation stays disabled, so the traced run differs from the untraced
one only by these wrappers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs


class Recorder:
    """Wrapper-based layer timer with an in-memory span trace."""

    def __init__(self) -> None:
        self.tracer = obs.Tracer(enabled=True)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form event counts kept by ``on_call`` hooks.
        self.counters: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        span: bool = True,
        on_call: Optional[Callable[[tuple, dict, object, float], None]] = None,
    ) -> None:
        """Time every call made through ``owner.attr`` as ``layer``.

        ``on_call(args, kwargs, result, seconds)`` runs after each call that
        returns, under the recorder's lock, for counters that need the
        arguments or the result.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            depths = recorder._depths()
            depth = depths.get(layer, 0)
            depths[layer] = depth + 1
            begin = time.perf_counter()
            try:
                if span and depth == 0:
                    with recorder.tracer.span(layer):
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - begin
                depths[layer] = depth
                with recorder._lock:
                    recorder.calls[layer] += 1
                    if depth == 0:
                        recorder.seconds[layer] += elapsed
            if on_call is not None:
                with recorder._lock:
                    on_call(args, kwargs, result, elapsed)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`.

        Class attributes are replaced on the class itself (so every instance
        and subclass sees the wrapper); module attributes on the module.
        """
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_many(self, targets: Iterable[Tuple[object, str]], layer: str, **kwargs) -> None:
        for owner, attr in targets:
            self.wrap(owner, attr, layer, **kwargs)

    def span(self, layer: str):
        """A span plus timing for a region the benchmark itself drives."""
        return _TimedRegion(self, layer)

    def uninstall(self) -> None:
        """Restore every wrapped name (reverse order, so stacked wraps unwind)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def ms(self, layer: str) -> float:
        return self.seconds.get(layer, 0.0) * 1e3

    def count(self, layer: str) -> int:
        return self.calls.get(layer, 0)

    def write_trace(self, path) -> None:
        obs.write_trace_json(self.tracer, path, process_name="perfbench")


class _TimedRegion:
    __slots__ = ("_recorder", "_layer", "_span", "_begin")

    def __init__(self, recorder: Recorder, layer: str) -> None:
        self._recorder = recorder
        self._layer = layer

    def __enter__(self):
        self._span = self._recorder.tracer.span(self._layer)
        self._span.__enter__()
        self._begin = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._begin
        self._span.__exit__(*exc)
        with self._recorder._lock:
            self._recorder.calls[self._layer] += 1
            self._recorder.seconds[self._layer] += elapsed
        return None


def install_standard_layers(recorder: Recorder) -> None:
    """Wrap the public functions of the layers every workload may reach."""
    import repro.core.online
    import repro.core.rp_vae
    import repro.core.tg_vae
    import repro.core.trainer
    import repro.nn.layers
    import repro.nn.optim
    import repro.nn.rnn
    import repro.nn.tensor
    import repro.roadnet
    import repro.roadnet.csr
    import repro.roadnet.shortest_path
    import repro.serving.alerts
    import repro.serving.engine
    import repro.trajectory.anomalies
    import repro.trajectory.generator
    import repro.trajectory.map_matching
    import repro.trajectory.splits

    trainer_mod = repro.core.trainer
    recorder.wrap(trainer_mod.Trainer, "_step", "trainer.batch")
    recorder.wrap(repro.core.tg_vae.TGVAE, "forward", "tg_vae.forward")
    recorder.wrap(repro.core.rp_vae.RPVAE, "forward", "rp_vae.forward")
    recorder.wrap(repro.nn.tensor.Tensor, "backward", "autograd.backward")
    recorder.wrap(trainer_mod, "clip_grad_norm", "optim.clip")
    recorder.wrap(repro.nn.optim.Adam, "step", "optim.adam")
    recorder.wrap(repro.nn.layers, "embedding_gather", "fused.embedding")
    recorder.wrap(repro.nn.layers, "fused_linear", "fused.linear")
    recorder.wrap(repro.nn.rnn, "gru_sequence", "fused.gru_sequence")
    recorder.wrap(repro.core.tg_vae, "fused_successor_nll", "fused.successor_nll")

    for module in (repro.serving.engine, repro.core.online):
        recorder.wrap(module, "init_session_states", "scoring_kernel.init")
        recorder.wrap(module, "advance_sessions", "scoring_kernel.advance")
    recorder.wrap(repro.serving.alerts.ThresholdAlertPolicy, "check", "alerts.check", span=False)

    recorder.wrap_many(
        [(repro.roadnet, "generate_arterial_city"), (repro.trajectory.splits, "generate_arterial_city")],
        "roadnet.generate",
    )
    recorder.wrap(repro.roadnet.csr.CompiledRoadGraph, "__init__", "roadnet.compile")
    recorder.wrap_many(
        [
            (repro.roadnet.shortest_path, "dijkstra_route"),
            (repro.trajectory.generator, "dijkstra_route"),
            (repro.trajectory.anomalies, "dijkstra_route"),
        ],
        "roadnet.route",
        span=False,
    )
    simulator = repro.trajectory.generator.TrajectorySimulator

    def count_accepted(_args, _kwargs, result, _seconds):
        if result is not None:
            recorder.counters["trajectory.accepted"] += 1

    recorder.wrap(simulator, "generate_trajectory", "trajectory.simulate", span=False,
                  on_call=count_accepted)
    recorder.wrap_many(
        [(simulator, "generate_many"), (simulator, "popular_sd_pairs")],
        "trajectory.simulate",
    )
    recorder.wrap(repro.trajectory.generator.RouteChoiceModel, "sample_route",
                  "trajectory.sample_route", span=False)
    recorder.wrap(repro.trajectory.anomalies.AnomalyInjector, "inject", "trajectory.inject")
    recorder.wrap(repro.trajectory.map_matching.MapMatcher, "match", "map_match")


#: Per-layer metric -> recorder layer whose inclusive time (ms) it reports.
_LAYER_MS = {
    "trainer.batch_ms": "trainer.batch",
    "tg_vae.forward_ms": "tg_vae.forward",
    "rp_vae.forward_ms": "rp_vae.forward",
    "autograd.backward_ms": "autograd.backward",
    "optim.clip_ms": "optim.clip",
    "optim.adam_ms": "optim.adam",
    "fused.embedding_ms": "fused.embedding",
    "fused.gru_sequence_ms": "fused.gru_sequence",
    "fused.linear_ms": "fused.linear",
    "fused.successor_nll_ms": "fused.successor_nll",
    "scoring_kernel.init_ms": "scoring_kernel.init",
    "scoring_kernel.advance_ms": "scoring_kernel.advance",
    "alerts.check_ms": "alerts.check",
    "roadnet.generate_ms": "roadnet.generate",
    "roadnet.compile_ms": "roadnet.compile",
    "roadnet.route_ms": "roadnet.route",
}


def recorded_layer_metrics(recorder: Recorder, jobs: int) -> Dict[str, float]:
    """Layer metrics of the standard wrappers, per job over ``jobs`` traced jobs."""
    per_job = 1.0 / max(1, jobs)
    metrics = {name: recorder.ms(layer) * per_job for name, layer in _LAYER_MS.items()}
    sampled = recorder.count("trajectory.sample_route")
    metrics.update({
        "roadnet.route_calls": recorder.count("roadnet.route") * per_job,
        "trajectory.simulate_s": recorder.seconds.get("trajectory.simulate", 0.0) * per_job,
        "trajectory.inject_s": recorder.seconds.get("trajectory.inject", 0.0) * per_job,
        "trajectory.simulate_accept_ratio": (
            recorder.counters.get("trajectory.accepted", 0) / sampled if sampled else 0.0
        ),
    })
    return metrics


def critical_path(durations: Mapping[str, float], deps: Mapping[str, Sequence[str]]) -> float:
    """Longest dependency chain through a DAG, weighting each node by its duration.

    ``deps`` maps every node to its dependencies; nodes missing from
    ``durations`` weigh 0 (cached or skipped stages).  Raises ``ValueError``
    on a cycle or an unknown dependency.
    """
    finish: Dict[str, float] = {}
    visiting: set = set()

    def earliest_finish(node: str) -> float:
        if node in finish:
            return finish[node]
        if node not in deps:
            raise ValueError(f"unknown node {node!r}")
        if node in visiting:
            raise ValueError(f"dependency cycle through {node!r}")
        visiting.add(node)
        start = max((earliest_finish(dep) for dep in deps[node]), default=0.0)
        visiting.discard(node)
        finish[node] = start + float(durations.get(node, 0.0))
        return finish[node]

    return max((earliest_finish(node) for node in deps), default=0.0)


def busy_ratio(durations: Iterable[float], wall_seconds: float, jobs: int) -> float:
    """Sum of stage seconds over the worker-seconds the run had available."""
    capacity = wall_seconds * max(1, jobs)
    return sum(durations) / capacity if capacity > 0 else 0.0


class StepStats:
    """Trainer step latencies and batch shapes, from a ``Trainer._step`` probe.

    Used in both traced and untraced runs (it is how step latency is
    measured); the probe is a span-less :meth:`Recorder.wrap`, so it costs a
    clock pair, a lock and a few appends per step.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []
        #: Class name of the model each step trained, parallel to ``seconds``.
        self.models: List[str] = []
        self.trajectories = 0
        self.real_positions = 0
        self.padded_positions = 0
        self.losses: List[float] = []

    def install(self, probes: Recorder) -> None:
        import repro.core.trainer

        probes.wrap(repro.core.trainer.Trainer, "_step", "trainer.step", span=False,
                    on_call=self._record)

    def _record(self, args, _kwargs, loss, seconds) -> None:
        trainer, batch = args[0], args[1]
        mask = batch.mask
        self.seconds.append(seconds)
        self.models.append(type(trainer.model).__name__)
        self.trajectories += batch.batch_size
        self.real_positions += int(mask.sum())
        self.padded_positions += int(mask.size)
        self.losses.append(loss)

    def layer_metrics(self) -> Dict[str, float]:
        steps = len(self.seconds)
        return {
            "train.steps": float(steps),
            "train.positions_per_step": self.real_positions / steps if steps else 0.0,
            "train.batch_fill": (
                self.real_positions / self.padded_positions if self.padded_positions else 0.0
            ),
        }
