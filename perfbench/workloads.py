"""The four benchmark workloads.

Each workload exposes

* ``setup(seed)`` — the set-up a user pays before the first unit of work
  (imports happen before it, in the caller's timed region); timed by
  ``run.py --setup-only`` in fresh processes;
* ``generate(state, seed)`` — load generation, timed on its own;
* ``job(state, load, recorder)`` — one unit of work, returning a
  :class:`JobResult`; ``recorder`` is a :class:`layers.Recorder` in the traced
  run and ``None`` otherwise.  Every job of a run does the same work on the
  same inputs;
* ``min_steps`` — the fewest steps a run measures, so that at least ten
  samples lie beyond ``tail_percentile``;
* ``min_jobs`` — the fewest jobs a run measures, so that the medians over
  jobs are taken over enough of them.

Output checks run inside ``job`` but outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.cli
import repro.experiments.cache
import repro.experiments.dag
import repro.roadnet
from repro import (
    CausalTAD,
    CausalTADConfig,
    FleetEngine,
    OnlineDetector,
    ThresholdAlertPolicy,
    Trainer,
    TrainingConfig,
    calibrate_threshold,
)
from repro.experiments.pipeline import build_pipeline
from repro.experiments.profiles import get_profile
from repro.roadnet.generators import CityConfig
from repro.trajectory import BenchmarkConfig, build_benchmark_data
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import SimulatorConfig
from repro.trajectory.map_matching import MapMatcher, simulate_gps
from repro.utils.rng import RandomState

import harness
import layers
import loadgen
from catalog import PIPELINE_STAGES


@dataclass
class JobResult:
    """One unit of work and what it produced."""

    wall_s: float
    items: float
    item_seconds: float
    steps: List[float]
    failures: List[str] = field(default_factory=list)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _city(seed: int):
    """The 18x18 arterial city (V=1208) shared by train-1k, fleet-2k and dataset-build."""
    return repro.roadnet.generate_arterial_city(
        CityConfig(name="bench-18x18", rows=18, cols=18), rng=RandomState(seed)
    )


def _walk_tables(network):
    return network.compiled().successor_tables()


# ---------------------------------------------------------------------- #
# pipeline-quick
# ---------------------------------------------------------------------- #
class PipelineQuick:
    """``repro run --profile quick --jobs 1`` into a fresh artifact directory."""

    name = "pipeline-quick"
    tail_percentile = 95.0
    min_steps = 200
    min_jobs = 1
    # One worker: the stages are bound by the interpreter lock, so on 2 cores a
    # second worker left the wall time unchanged in paired runs (17.9-22.1 s
    # either way) while its lock contention spread the train-step p95 from
    # 16-20 ms to 40-65 ms, and peak RSS from ~370 MiB to ~540 MiB.
    jobs = 1

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self._runs = 0

    def setup(self, seed: int):
        profile = get_profile("quick", seed=seed)
        dag = build_pipeline(profile)
        dag.compute_keys()
        return profile

    def generate(self, state, seed: int):
        return None  # the pipeline simulates its own dataset (its `dataset` stage)

    def job(self, profile, _load, recorder: Optional[layers.Recorder]) -> JobResult:
        self._runs += 1
        run_dir = self.out_dir / f"pipeline-{profile.seed}-{self._runs}"
        shutil.rmtree(run_dir, ignore_errors=True)
        artifacts, report = run_dir / "artifacts", run_dir / "REPORT.md"

        probes = layers.Recorder()
        steps = layers.StepStats()
        steps.install(probes)
        captured: Dict[str, object] = {}

        def capture_run(args, _kwargs, summary, _seconds):
            captured["dag"], captured["summary"] = args[0], summary

        probes.wrap(repro.experiments.dag.ExperimentDAG, "run", "dag.run", span=False,
                    on_call=capture_run)
        if recorder is not None:
            self._install_dag_layers(recorder, probes)
        argv = ["run", "--profile", "quick", "--jobs", str(self.jobs), "--seed", str(profile.seed),
                "--artifacts", str(artifacts), "--report", str(report)]
        try:
            begin = time.perf_counter()
            code = repro.cli.main(argv, log=lambda _line: None)
            wall = time.perf_counter() - begin
        finally:
            probes.uninstall()

        # Steps of the nine models form several latency modes; the CausalTAD
        # steps (train/CausalTAD, train/TG-VAE, eval/fig7a) form one, so their
        # median does not jump between modes from run to run.
        causal_steps = [s for s, m in zip(steps.seconds, steps.models) if m == "CausalTAD"]
        result = JobResult(wall_s=wall, items=float(steps.trajectories), item_seconds=wall,
                           steps=causal_steps)
        self._check(code, captured, artifacts, report, result)
        result.layers.update(steps.layer_metrics())
        if recorder is not None and not result.failures:
            self._dag_layer_metrics(recorder, probes, captured, wall, result)
        shutil.rmtree(run_dir, ignore_errors=True)
        return result

    def _install_dag_layers(self, recorder: layers.Recorder, probes: layers.Recorder) -> None:
        """One span per DAG stage, and the bytes the artifact cache writes."""
        original_build = repro.cli.build_pipeline

        def traced_build(profile):
            dag = original_build(profile)
            traced = repro.experiments.dag.ExperimentDAG()
            for stage in dag.stages:  # insertion order, so scheduling is unchanged
                traced.add(replace(stage, func=_spanned(recorder, stage.name, stage.func)))
            return traced

        probes.replace(repro.cli, "build_pipeline", traced_build)

        def count_bytes(args, _kwargs, path, _seconds):
            cache, stage, key = args[:3]
            written = path.stat().st_size + cache.meta_path(stage, key).stat().st_size
            probes.counters["cache.bytes_written"] += written

        probes.wrap(repro.experiments.cache.ArtifactCache, "store", "cache.store", span=False,
                    on_call=count_bytes)

    def _check(self, code, captured, artifacts, report, result: JobResult) -> None:
        failures = result.failures
        if code != 0:
            failures.append(f"repro run exited {code}")
        summary = captured.get("summary")
        if summary is None:
            failures.append("the pipeline DAG never ran")
            return
        ran = [e.name for e in summary.executions if e.status == "ran"]
        if len(ran) != len(summary.executions) or len(ran) != len(PIPELINE_STAGES):
            failures.append(f"{len(ran)} of {len(summary.executions)} stages ran, "
                            f"expected all {len(PIPELINE_STAGES)}")
        if not report.exists() or "Table" not in report.read_text(encoding="utf-8"):
            failures.append("the report was not rendered")
        keys = captured["dag"].compute_keys()
        cache = repro.experiments.cache.ArtifactCache(artifacts)
        for table, splits in (("eval/table1", ("id-detour", "id-switch")),
                              ("eval/table2", ("ood-detour", "ood-switch"))):
            try:
                scores = cache.load(table, keys[table])
            except (OSError, KeyError) as exc:
                failures.append(f"cannot read {table}: {exc}")
                continue
            for split in splits:
                auc = scores.metric("CausalTAD", split)
                if not (math.isfinite(auc) and 0.0 <= auc <= 1.0):
                    failures.append(f"CausalTAD AUC on {split} is {auc}")
                    continue
                name = "auc." + split.replace("-", "_")
                result.named[name] = (float(auc), "AUC")
                result.layers["eval." + name] = float(auc)

    def _dag_layer_metrics(self, recorder, probes, captured, wall, result: JobResult) -> None:
        summary, dag = captured.get("summary"), captured.get("dag")
        durations = {
            stage.name: recorder.seconds.get(_stage_layer(stage.name), 0.0) for stage in dag.stages
        }
        for stage, seconds in durations.items():
            result.layers["dag.stage_s." + stage.replace("/", ".")] = seconds
        deps = {stage.name: list(stage.deps) for stage in dag.stages}
        result.layers["dag.critical_path_s"] = layers.critical_path(durations, deps)
        result.layers["dag.busy_ratio"] = layers.busy_ratio(durations.values(), wall, self.jobs)
        result.layers["dag.stages_ran"] = float(sum(e.status == "ran" for e in summary.executions))
        result.layers["dag.stages_failed"] = float(
            sum(e.status == "failed" for e in summary.executions))
        result.layers["cache.bytes_written"] = float(probes.counters.get("cache.bytes_written", 0))


def _stage_layer(stage_name: str) -> str:
    return "dag.stage." + stage_name


def _spanned(recorder: layers.Recorder, stage_name: str, func):
    def run_stage(ctx):
        with recorder.span(_stage_layer(stage_name)):
            return func(ctx)

    return run_stage


# ---------------------------------------------------------------------- #
# train-1k
# ---------------------------------------------------------------------- #
class Train1k:
    """``Trainer.fit`` of a fused CausalTAD (small) on 1000 road-constrained walks."""

    name = "train-1k"
    tail_percentile = 90.0
    min_steps = 100
    min_jobs = 1
    num_walks = 1000
    epochs = 1
    batch_size = 32

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def setup(self, seed: int):
        network = _city(seed).network
        return {"network": network, "seed": seed, "trainer": self._trainer(network, seed)}

    def _trainer(self, network, seed: int) -> Trainer:
        model = CausalTAD(CausalTADConfig.small(network.num_segments), network=network,
                          rng=RandomState(seed + 1))
        config = TrainingConfig(epochs=self.epochs, batch_size=self.batch_size,
                                learning_rate=0.01, seed=seed)
        return Trainer(model, config, rng=RandomState(seed + 2))

    def generate(self, state, seed: int):
        idx, valid = _walk_tables(state["network"])
        walks = loadgen.walk_segments(idx, valid, self.num_walks, np.random.default_rng([seed, 1]))
        return TrajectoryDataset.from_trajectories(
            loadgen.walk_trajectories(walks, f"walk{seed}"), state["network"].num_segments,
            name="walks")

    def job(self, state, dataset, recorder) -> JobResult:
        # Every job trains from the same initial weights: the set-up's trainer
        # first, then a fresh one built from the same seed.
        trainer = state.pop("trainer", None) or self._trainer(state["network"], state["seed"])
        probes = layers.Recorder()
        steps = layers.StepStats()
        steps.install(probes)
        try:
            begin = time.perf_counter()
            history = trainer.fit(dataset)
            wall = time.perf_counter() - begin
        finally:
            probes.uninstall()
        result = JobResult(wall_s=wall, items=float(steps.trajectories), item_seconds=wall,
                           steps=steps.seconds)
        final_loss = history.train_losses[-1]
        if not all(math.isfinite(loss) for loss in steps.losses):
            result.failures.append("a training loss is not finite")
        previous = state.setdefault("final_losses", [])
        if previous and final_loss != previous[0]:
            result.failures.append(f"final loss {final_loss!r} differs from {previous[0]!r} "
                                   "of the same seed in this run")
        previous.append(final_loss)
        result.failures.extend(self._check_across_runs(state["seed"], final_loss))
        result.named["train.final_loss"] = (final_loss, "nats")
        result.layers.update(steps.layer_metrics())
        return result

    def _check_across_runs(self, seed: int, final_loss: float) -> List[str]:
        """The final loss of a seed must be bit-identical in every run of the same code.

        The recorded loss is keyed by what produced it: the source of
        ``repro``, numpy, the BLAS library and its pinned thread count.  A
        change to any of them starts a new record instead of failing.
        """
        path = self.out_dir / "state" / f"train-1k-seed{seed}-{_build_key()}.json"
        if path.exists():
            recorded = json.loads(path.read_text(encoding="utf-8"))["final_loss"]
            if recorded != final_loss:
                return [f"final loss {final_loss!r} differs from {recorded!r} "
                        f"recorded by an earlier run of seed {seed} with the same code"]
            return []
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"final_loss": final_loss}), encoding="utf-8")
        return []


@lru_cache(maxsize=1)
def _build_key() -> str:
    """A digest of the ``repro`` sources and the numeric stack they run on."""
    digest = hashlib.sha256()
    package = Path(repro.__file__).resolve().parent
    for source in sorted(package.rglob("*.py")):
        digest.update(source.relative_to(package).as_posix().encode())
        digest.update(source.read_bytes())
    context = harness.machine_context()
    stack = {key: context[key] for key in ("numpy", "blas", "blas_version", "blas_threads")}
    digest.update(json.dumps(stack, sort_keys=True).encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------- #
# fleet-2k
# ---------------------------------------------------------------------- #
class Fleet2k:
    """Closed-loop replay: one client loop ingests each tick's events, then ticks."""

    name = "fleet-2k"
    tail_percentile = 95.0
    min_steps = 200
    min_jobs = 1
    concurrency = 2048
    warmup_ticks = 5
    measured_ticks = 150
    ttl_ticks = 16
    checked_rides = 24

    def setup(self, seed: int):
        network = _city(seed).network
        model = CausalTAD(CausalTADConfig.small(network.num_segments), network=network,
                          rng=RandomState(seed + 1))
        idx, valid = _walk_tables(network)
        calibration = loadgen.walk_trajectories(
            loadgen.walk_segments(idx, valid, 32, np.random.default_rng([seed, 2])), "calib")
        threshold = calibrate_threshold(OnlineDetector(model), calibration, percentile=97.5)
        state = {"network": network, "model": model, "threshold": threshold, "seed": seed}
        state["engine"] = self._engine(state)
        return state

    def _engine(self, state) -> FleetEngine:
        return FleetEngine(
            state["model"],
            capacity=2 * self.concurrency,
            ttl_ticks=self.ttl_ticks,
            alert_policy=ThresholdAlertPolicy(state["threshold"]),
            retention=10**7,
        )

    def generate(self, state, seed: int):
        idx, valid = _walk_tables(state["network"])
        return {"idx": idx, "valid": valid, "seed": seed}

    def job(self, state, load_spec, recorder) -> JobResult:
        engine = state.pop("engine", None) or self._engine(state)
        gen_begin = time.perf_counter()
        load = loadgen.FleetLoad(load_spec["idx"], load_spec["valid"], load_spec["seed"],
                                 self.concurrency)
        loadgen_seconds = time.perf_counter() - gen_begin
        tick_seconds: List[float] = []
        segments = 0
        active = 0
        before: Dict[str, float] = {}
        for tick in range(self.warmup_ticks + self.measured_ticks):
            gen_begin = time.perf_counter()
            events = load.next_tick()
            loadgen_seconds += time.perf_counter() - gen_begin
            if tick == self.warmup_ticks and recorder is not None:
                before = dict(recorder.seconds)
            if recorder is None:
                begin = time.perf_counter()
                engine.ingest(events)
                report = engine.tick()
                elapsed = time.perf_counter() - begin
            else:
                begin = time.perf_counter()
                with recorder.span("fleet.ingest"):
                    engine.ingest(events)
                with recorder.span("fleet.tick"):
                    report = engine.tick()
                elapsed = time.perf_counter() - begin
            if tick >= self.warmup_ticks:
                tick_seconds.append(elapsed)
                segments += report.segments_processed
                active += engine.active_rides
        window = {k: v - before.get(k, 0.0) for k, v in recorder.seconds.items()} if recorder else {}
        gen_begin = time.perf_counter()
        closing = load.close()
        loadgen_seconds += time.perf_counter() - gen_begin
        engine.ingest(closing)
        engine.tick()

        wall = sum(tick_seconds)
        result = JobResult(wall_s=wall, items=float(segments), item_seconds=wall,
                           steps=tick_seconds)
        self._check(state, engine, load, result)
        telemetry = engine.telemetry
        result.layers.update({
            "fleet.ticks": float(len(tick_seconds)),
            "fleet.advance_rows": float(segments),
            "fleet.active_rides": active / len(tick_seconds),
            "fleet.rides_started": float(telemetry.rides_started),
            "fleet.rides_finished": float(telemetry.rides_finished),
            "fleet.rides_evicted": float(telemetry.rides_evicted),
            "fleet.alerts_raised": float(telemetry.alerts_raised),
            "fleet.events_dropped": float(telemetry.events_dropped),
            "loadgen.s": loadgen_seconds,
        })
        if recorder is not None:
            ms = {k: v * 1e3 for k, v in window.items()}
            kernel = ms.get("scoring_kernel.init", 0.0) + ms.get("scoring_kernel.advance", 0.0)
            result.layers.update({
                "fleet.ingest_ms": ms.get("fleet.ingest", 0.0),
                "scoring_kernel.init_ms": ms.get("scoring_kernel.init", 0.0),
                "scoring_kernel.advance_ms": ms.get("scoring_kernel.advance", 0.0),
                "fleet.bookkeeping_ms": ms.get("fleet.tick", 0.0) - kernel,
                "alerts.check_ms": ms.get("alerts.check", 0.0),
            })
        return result

    def _check(self, state, engine: FleetEngine, load: loadgen.FleetLoad, result: JobResult) -> None:
        failures = result.failures
        dropped = engine.telemetry.events_dropped
        if dropped:
            failures.append(f"{dropped} events dropped")
        missing = set(load.rides) - set(engine.finished)
        if missing or engine.active_rides:
            failures.append(f"{len(missing)} rides neither finished nor evicted, "
                            f"{engine.active_rides} still active")
        detector = state.get("detector")
        if detector is None:
            detector = state["detector"] = OnlineDetector(state["model"])
        ride_ids = sorted(load.rides)
        for ride_id in ride_ids[:: max(1, len(ride_ids) // self.checked_rides)]:
            sd_pair, segments = load.observed_route(ride_id)
            session = detector.start_session(sd_pair, segments[0])
            for segment in segments[1:]:
                session.update(segment)
            expected = session.current_score
            record = engine.finished.get(ride_id)
            if record is None or record.observed_length != len(segments) \
                    or not abs(record.final_score - expected) <= 1e-6:
                got = None if record is None else record.final_score
                failures.append(f"ride {ride_id}: fleet score {got} != online score {expected}")
                break


# ---------------------------------------------------------------------- #
# dataset-build
# ---------------------------------------------------------------------- #
class DatasetBuild:
    """City + benchmark splits, then map matching of the OOD set's GPS traces."""

    name = "dataset-build"
    tail_percentile = 95.0
    min_steps = 200
    # A build takes several seconds, so a run of --seconds holds one or two;
    # three builds give build.dataset_s a median over more than one sample.
    min_jobs = 3
    traces_per_route = 2

    def setup(self, seed: int):
        config = BenchmarkConfig(
            num_sd_pairs=40,
            trajectories_per_pair=16,
            num_ood_trajectories=300,
            simulator=SimulatorConfig(min_length=12, max_length=120),
        )
        return {"config": config, "seed": seed}

    def generate(self, state, seed: int):
        return None  # the GPS traces depend on the built dataset; made inside job, untimed

    def job(self, state, _load, recorder) -> JobResult:
        seed, config = state["seed"], state["config"]
        begin = time.perf_counter()
        city = _city(seed)
        data = build_benchmark_data(city=city, config=config, rng=RandomState(seed + 1))
        build_seconds = time.perf_counter() - begin

        gen_begin = time.perf_counter()
        network = city.network
        gps_rng = RandomState(seed + 2)
        # Two vehicles' noisy traces per OOD route, so a job matches for a few
        # seconds; the three jobs of a run pool 1800 matches.
        originals = [t for t in data.ood_test.trajectories for _ in range(self.traces_per_route)]
        traces = [simulate_gps(network, t, rng=gps_rng) for t in originals]
        loadgen_seconds = time.perf_counter() - gen_begin

        matcher = MapMatcher(network)
        match_seconds: List[float] = []
        matched = []
        for trace in traces:
            t0 = time.perf_counter()
            matched.append(matcher.match(trace))
            match_seconds.append(time.perf_counter() - t0)
        points = sum(len(trace.points) for trace in traces)
        exact = sum(m.trajectory.segments == o.segments for m, o in zip(matched, originals))

        result = JobResult(wall_s=build_seconds, items=float(points),
                           item_seconds=sum(match_seconds), steps=match_seconds)
        self._check(data, config, network, matched, result)
        result.layers.update({
            "map_match.ms_per_trajectory": 1e3 * sum(match_seconds) / len(match_seconds),
            "map_match.exact_route_ratio": exact / len(matched),
            "loadgen.s": loadgen_seconds,
        })
        return result

    def _check(self, data, config: BenchmarkConfig, network, matched, result: JobResult) -> None:
        failures = result.failures
        # Route sampling per SD pair is best-effort (build_benchmark_data keeps
        # what it found), so a pair holds at most trajectories_per_pair
        # trajectories, split half/half between train and id-test.
        train_counts = Counter(t.sd_pair.as_tuple() for t in data.train.trajectories)
        id_counts = Counter(t.sd_pair.as_tuple() for t in data.id_test.trajectories)
        pairs = set(train_counts) | set(id_counts)
        if len(pairs) > config.num_sd_pairs:
            failures.append(f"{len(pairs)} SD pairs in train/id-test, config asks "
                            f"{config.num_sd_pairs}")
        for pair in pairs:
            n_train, n_id = train_counts[pair], id_counts[pair]
            if n_train + n_id > config.trajectories_per_pair or not 0 <= n_id - n_train <= 1:
                failures.append(f"SD pair {pair}: {n_train} train / {n_id} id-test trajectories")
                break
        if len(data.ood_test) != config.num_ood_trajectories:
            failures.append(f"ood-test holds {len(data.ood_test)}, "
                            f"config asks {config.num_ood_trajectories}")
        # Each test combination is its normal split plus at most one injected
        # anomaly per normal trajectory (injection is best-effort: some routes
        # admit no detour or switch).
        for normal, combos in ((data.id_test, (data.id_detour, data.id_switch)),
                               (data.ood_test, (data.ood_detour, data.ood_switch))):
            for combo in combos:
                anomalies = combo.num_anomalies
                if len(combo) - anomalies != len(normal) or not 0 < anomalies <= len(normal):
                    failures.append(f"{combo.name} holds {len(combo)} trajectories "
                                    f"({anomalies} anomalies) for {len(normal)} normal")
        splits = (data.train, data.id_test, data.ood_test, data.id_detour, data.id_switch,
                  data.ood_detour, data.ood_switch)
        for split in splits:
            bad = sum(not network.is_valid_route(t.segments) for t in split.trajectories)
            if bad:
                failures.append(f"{bad} invalid routes in {split.name}")
        bad = sum(not network.is_valid_route(m.trajectory.segments) for m in matched)
        if bad:
            failures.append(f"{bad} map-matched routes are not connected")
