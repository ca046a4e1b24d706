"""Metric catalog of the benchmark: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the single source of the
workload names, the run length and every metric's name, unit and bound; this
module loads it and adds what the file cannot hold.

End-to-end metrics are *generic*: every workload reports every one of them,
each measuring that workload's own unit of work (see ``UNITS_OF_WORK``).
``NAMED_METRICS`` maps those generic metrics back to the workload-specific
names a reader looks for (``train.step_ms_p90``, ``fleet.segments_per_s``, …).

Per-layer metrics are named after the module whose public functions they time.
Every workload reports every per-layer metric; a layer a workload does not
exercise reads 0, which is the measured prediction "no change on this
workload".  ``LAYER_TARGETS`` records which end-to-end metric and workload each
layer metric should move.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Tuple

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_NAME = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The committed ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))


SPEC = load_spec()
WORKLOADS: List[str] = [entry["name"] for entry in SPEC["workloads"]]
RUN_SECONDS: int = SPEC["run_seconds"]
#: End-to-end metric -> unit.
END_TO_END: Dict[str, str] = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
#: Per-layer metric -> unit.
PER_LAYER: Dict[str, str] = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

#: What the generic end-to-end metrics measure on each workload.
UNITS_OF_WORK: Dict[str, Dict[str, str]] = {
    "pipeline-quick": {
        "job": "one cold `repro run --profile quick --jobs 1`",
        "item": "training trajectory (summed over every Trainer step of the run)",
        "step": "Trainer step of a CausalTAD model inside the pipeline",
        "tail_percentile": "95",
    },
    "train-1k": {
        "job": "Trainer.fit for one epoch from the same initial weights",
        "item": "training trajectory",
        "step": "Trainer step (batch of 32)",
        "tail_percentile": "90",
    },
    "fleet-2k": {
        "job": "the 150 measured ticks of a fresh engine's replay (ingest + tick each)",
        "item": "segment scored",
        "step": "tick (ingest + tick)",
        "tail_percentile": "95",
    },
    "dataset-build": {
        "job": "generate_arterial_city + build_benchmark_data",
        "item": "GPS point map-matched",
        "step": "MapMatcher.match of one trajectory",
        "tail_percentile": "95",
    },
}

#: Workload-specific names of the end-to-end metrics: name -> (workload, generic metric, unit).
NAMED_METRICS: List[Tuple[str, str, str, str]] = [
    ("setup_s", "*", "setup_s", "s"),
    ("peak_rss_mb", "*", "peak_rss_mb", "MiB"),
    ("pipeline.wall_s", "pipeline-quick", "wall_s", "s"),
    ("auc.id_detour", "pipeline-quick", "auc.id_detour", "AUC"),
    ("auc.id_switch", "pipeline-quick", "auc.id_switch", "AUC"),
    ("auc.ood_detour", "pipeline-quick", "auc.ood_detour", "AUC"),
    ("auc.ood_switch", "pipeline-quick", "auc.ood_switch", "AUC"),
    ("train.step_ms_p50", "train-1k", "step_ms_p50", "ms"),
    ("train.step_ms_p90", "train-1k", "step_ms_tail", "ms"),
    ("train.traj_per_s", "train-1k", "items_per_s", "traj/s"),
    ("fleet.segments_per_s", "fleet-2k", "items_per_s", "segments/s"),
    ("fleet.tick_ms_p50", "fleet-2k", "step_ms_p50", "ms"),
    ("fleet.tick_ms_p95", "fleet-2k", "step_ms_tail", "ms"),
    ("build.dataset_s", "dataset-build", "wall_s", "s"),
    ("build.match_points_per_s", "dataset-build", "items_per_s", "points/s"),
]

#: The stages of ``build_pipeline(get_profile("quick"))``, ``/`` written as ``.``.
PIPELINE_STAGES: List[str] = [
    "dataset",
    "train.iBOAT", "train.SAE", "train.VSAE", "train.GM-VSAE", "train.DeepTEA",
    "train.CausalTAD", "train.TG-VAE", "train.RP-VAE",
    "eval.table1", "eval.table2", "eval.table3", "eval.fig4", "eval.fig5", "eval.fig6",
    "eval.fig8", "eval.fig7a", "eval.fig7b",
    "render.report",
]

_TRAIN_LAYERS = (
    "trainer.batch_ms", "tg_vae.forward_ms", "rp_vae.forward_ms", "autograd.backward_ms",
    "optim.clip_ms", "optim.adam_ms", "fused.embedding_ms", "fused.gru_sequence_ms",
    "fused.linear_ms", "fused.successor_nll_ms", "train.steps", "train.positions_per_step",
    "train.batch_fill",
)
_FLEET_LAYERS = (
    "fleet.ingest_ms", "scoring_kernel.init_ms", "scoring_kernel.advance_ms",
    "fleet.bookkeeping_ms", "alerts.check_ms", "fleet.ticks", "fleet.advance_rows",
    "fleet.active_rides", "fleet.rides_started", "fleet.rides_finished", "fleet.rides_evicted",
    "fleet.alerts_raised", "fleet.events_dropped",
)
_BUILD_LAYERS = (
    "roadnet.generate_ms", "roadnet.compile_ms", "roadnet.route_calls", "roadnet.route_ms",
    "trajectory.simulate_s", "trajectory.simulate_accept_ratio", "trajectory.inject_s",
    "map_match.ms_per_trajectory", "map_match.exact_route_ratio",
)


def _layer_targets() -> Dict[str, str]:
    targets: Dict[str, str] = {}
    for name in PER_LAYER:
        if name.startswith(("dag.", "cache.")):
            targets[name] = "wall_s on pipeline-quick (pipeline.wall_s)"
        elif name.startswith("eval.auc."):
            targets[name] = "auc.* on pipeline-quick (detection quality; a perf change keeps it)"
        elif name in _TRAIN_LAYERS:
            targets[name] = (
                "step_ms_p50, step_ms_tail, items_per_s on train-1k; pipeline-quick "
                "wall_s only in proportion to the dag.stage_s.train.* share"
            )
        elif name in _FLEET_LAYERS:
            targets[name] = "items_per_s, step_ms_p50, step_ms_tail on fleet-2k"
        elif name in _BUILD_LAYERS:
            targets[name] = "wall_s and items_per_s on dataset-build"
        else:
            targets[name] = "none: describes the benchmark itself"
    return targets


#: Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_TARGETS: Dict[str, str] = _layer_targets()


def validate_spec(spec: dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when it is valid)."""
    problems: List[str] = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected_keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(expected_keys)}")
        return problems

    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(part, str) and len(part) <= 200 for part in command)):
        problems.append("command must be 1-32 strings of at most 200 characters")
    else:
        for part in command:
            if part.startswith("/") or ".." in part.split("/"):
                problems.append(f"command part {part!r} leaves the repository")

    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and PATH_NAME.match(path)) or path.startswith("/") \
                    or ".." in path.split("/"):
                problems.append(f"bad path {path!r}")

    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number in [1, 60]")

    names_seen = set()

    def check_name(name) -> None:
        if not (isinstance(name, str) and METRIC_NAME.match(name)):
            problems.append(f"bad name {name!r}")
        elif name in names_seen:
            problems.append(f"name {name!r} used twice")
        names_seen.add(name)

    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        problems.append("workloads must hold 2-8 entries")
    else:
        for entry in workloads:
            if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
                problems.append(f"workload {entry!r} must have exactly name and why")
                continue
            check_name(entry["name"])
            why = entry["why"]
            if not (isinstance(why, str) and why and len(why) <= 200 and "\n" not in why):
                problems.append(f"workload {entry['name']!r}: why must be one line of <= 200 chars")

    def check_metrics(key: str, low: int, high: int, keys: set) -> None:
        entries = spec[key]
        if not (isinstance(entries, list) and low <= len(entries) <= high):
            problems.append(f"{key} must hold {low}-{high} entries")
            return
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != keys:
                problems.append(f"{key} entry {entry!r} must have exactly {sorted(keys)}")
                continue
            check_name(entry["name"])
            if not (isinstance(entry["unit"], str) and UNIT_NAME.match(entry["unit"])):
                problems.append(f"bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"{entry['name']}: better must be lower or higher")
            if "bound" in keys:
                bound = entry["bound"]
                if not (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                        and 0 < bound <= 0.25):
                    problems.append(f"{entry['name']}: bound must be in (0, 0.25]")

    check_metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    check_metrics("per_layer", 1, 128, {"name", "unit", "better"})
    if isinstance(spec["end_to_end"], list):
        setup = [e for e in spec["end_to_end"] if isinstance(e, dict) and e.get("name") == "setup_s"]
        if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
            problems.append("end_to_end must hold setup_s in s, lower is better")
        elif any(isinstance(e, dict) and isinstance(e.get("bound"), (int, float))
                 and e["bound"] > setup[0]["bound"] for e in spec["end_to_end"]):
            problems.append("setup_s must carry the largest bound")
    return problems
