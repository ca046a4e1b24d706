#!/usr/bin/env python3
"""Benchmark of the CausalTAD reproduction: absolute end-to-end and per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload train-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, named metrics

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs untraced jobs, then jobs with the layer wrappers of ``perfbench/layers.py``
installed (each phase just long enough for the tail percentile), and reports
every per-layer metric plus the tracing overhead (traced minus untraced
end-to-end metrics); the spans go to
``.perfbench_out/traces/<workload>-seed<n>.json`` (Chrome trace format).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the machine context, is
also written to ``.perfbench_out/results/``.  The exit code is 0 when every
output check passed, 1 when one failed and 2 on a usage error (for example a
directory without ``src/repro``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import catalog
import harness

SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 170
OUT_DIR_NAME = ".perfbench_out"


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=_non_negative, default=1)
    parser.add_argument("--seconds", type=_non_negative, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh process and print it (internal)")
    return parser


def main(argv=None) -> int:
    harness.pin_blas_threads()  # before anything imports numpy
    args = build_parser().parse_args(argv)
    root = Path.cwd()
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / OUT_DIR_NAME
    if args.workload == "all":
        return run_all(args, out_dir)
    if args.setup_only:
        return setup_only(args, out_dir)
    return run_workload(args, out_dir)


def _make_workload(name: str, out_dir: Path):
    import workloads

    if name == "pipeline-quick":
        return workloads.PipelineQuick(out_dir)
    if name == "train-1k":
        return workloads.Train1k(out_dir)
    if name == "fleet-2k":
        return workloads.Fleet2k()
    return workloads.DatasetBuild()


def setup_only(args, out_dir: Path) -> int:
    """Time imports plus set-up in this fresh process (load generation excluded)."""
    begin = time.perf_counter()
    workload = _make_workload(args.workload, out_dir)  # imports numpy and repro
    workload.setup(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - begin}))
    return 0


def measure_setup(args) -> list:
    """``SETUP_SAMPLES`` set-up times, each in its own fresh process."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(jobs, tail_percentile: float, setup_seconds: float) -> dict:
    """The generic end-to-end metrics over a run's jobs.

    Job-level figures are medians over the jobs, so one job slowed by the host
    moves them less than a mean would; step latencies pool every job's steps.
    """
    steps = [seconds for job in jobs for seconds in job.steps]
    return {
        "setup_s": setup_seconds,
        "peak_rss_mb": harness.peak_rss_mib(),
        "wall_s": statistics.median(job.wall_s for job in jobs),
        "items_per_s": statistics.median(job.items / job.item_seconds for job in jobs),
        "step_ms_p50": harness.percentile(steps, 50.0) * 1e3,
        "step_ms_tail": harness.tail_latency(steps, tail_percentile) * 1e3,
    }


def _run_job(workload, state, load, recorder, failures: list):
    try:
        job = workload.job(state, load, recorder)
    except Exception:  # noqa: BLE001 - a crashing job is a failed check, reported below
        failures.append("job raised:\n" + traceback.format_exc())
        return None
    failures.extend(job.failures)
    return job


def run_jobs(workload, state, load, recorder, seconds: float, failures: list) -> list:
    """Repeat the workload's job until ``seconds`` would be exceeded.

    At least ``workload.min_steps`` steps and ``workload.min_jobs`` jobs are
    measured whatever ``seconds`` says, so the tail percentile always has ten
    samples beyond it and the job medians have enough jobs.  Garbage
    is collected before each job, outside the timed regions, so every job
    starts from the same heap state.
    """
    jobs = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        job = _run_job(workload, state, load, recorder, failures)
        if job is None:
            return jobs
        jobs.append(job)
        elapsed = time.perf_counter() - begin
        enough = (sum(len(j.steps) for j in jobs) >= workload.min_steps
                  and len(jobs) >= workload.min_jobs)
        if enough and elapsed * (len(jobs) + 1) / len(jobs) > seconds:
            return jobs


def _mean_layers(jobs) -> dict:
    keys = {key for job in jobs for key in job.layers}
    return {key: sum(job.layers.get(key, 0.0) for job in jobs) / len(jobs) for key in keys}


def run_workload(args, out_dir: Path) -> int:
    import layers

    context = harness.machine_context()
    workload = _make_workload(args.workload, out_dir)
    failures: list = []
    setup_samples = measure_setup(args)
    state = workload.setup(args.seed)
    gen_begin = time.perf_counter()
    load = workload.generate(state, args.seed)
    loadgen_seconds = time.perf_counter() - gen_begin

    traced = []
    recorder = None
    if args.trace:
        # Untraced then traced, each just long enough for the tail percentile.
        jobs = run_jobs(workload, state, load, None, 0.0, failures)
        recorder = layers.Recorder()
        layers.install_standard_layers(recorder)
        try:
            if not failures:
                traced = run_jobs(workload, state, load, recorder, 0.0, failures)
        finally:
            recorder.uninstall()
    else:
        jobs = run_jobs(workload, state, load, None, args.seconds, failures)

    setup_seconds = statistics.median(setup_samples)
    e2e = {}
    if jobs and not failures:
        e2e = end_to_end(jobs, workload.tail_percentile, setup_seconds)
    attempted = max(1, sum(len(job.steps) for job in jobs + traced))
    correct = not failures

    named = {}
    for name, owner, generic, unit in catalog.NAMED_METRICS:
        if owner not in ("*", args.workload):
            continue
        if generic in e2e:
            named[name] = (e2e[generic], unit)
        elif jobs and generic in jobs[0].named:
            named[name] = jobs[0].named[generic]

    metrics = {}
    per_layer = {}
    if correct and args.trace:
        # Layer totals are per job: the recorder's sums over the traced jobs
        # divided by their number.
        traced_e2e = end_to_end(traced, workload.tail_percentile, setup_seconds)
        per_layer = dict.fromkeys(catalog.PER_LAYER, 0.0)
        per_layer.update(layers.recorded_layer_metrics(recorder, len(traced)))
        per_layer.update(_mean_layers(traced))
        per_layer["loadgen.s"] = loadgen_seconds + per_layer["loadgen.s"]
        per_layer["trace.spans"] = len(recorder.tracer.spans) / len(traced)
        for key in ("wall_s", "items_per_s", "step_ms_p50", "step_ms_tail"):
            per_layer[f"trace.overhead_{key}"] = traced_e2e[key] - e2e[key]
        metrics = {name: harness.metric(value, catalog.PER_LAYER[name])
                   for name, value in per_layer.items()}
        trace_path = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
        recorder.write_trace(trace_path)
    elif correct:
        metrics = {name: harness.metric(value, catalog.END_TO_END[name])
                   for name, value in e2e.items()}

    loadgen_total = loadgen_seconds + sum(j.layers.get("loadgen.s", 0.0) for j in jobs)
    harness.write_json(
        out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "context": context,
            "correct": correct,
            "failures": failures,
            "setup_samples_s": setup_samples,
            "loadgen_s": loadgen_total,
            "jobs": [{"wall_s": j.wall_s, "items": j.items, "steps": len(j.steps)} for j in jobs],
            "units_of_work": catalog.UNITS_OF_WORK[args.workload],
            "end_to_end": e2e,
            "named": {k: list(v) for k, v in named.items()},
            "per_layer": per_layer,
        },
    )
    print(json.dumps({"context": context}))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} job(s), set-up samples "
          + ", ".join(f"{s:.3f}s" for s in setup_samples)
          + f", load generation {loadgen_total:.3f}s (untimed)")
    print("\n".join(harness.format_named(named)))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(harness.result_line(correct, attempted, attempted if failures else 0, metrics))
    return 0 if correct else 1


def run_all(args, out_dir: Path) -> int:
    """Every workload in its own process; prints the named metrics and tracing overhead."""
    status = 0
    rows = []
    overheads = []
    script = str(Path(__file__).resolve())
    for name in catalog.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S + 60, check=False)
            if done.returncode != 0:
                status = 1
                print(f"{name} (trace {trace}) failed:\n{done.stderr[-3000:]}", file=sys.stderr)
                continue
            result = json.loads(
                (out_dir / "results" / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            if trace == 0:
                rows += [(f"{name}", metric, value, unit)
                         for metric, (value, unit) in result["named"].items()]
                context = result["context"]
            else:
                overheads += [(name, key, value) for key, value in result["per_layer"].items()
                              if key.startswith("trace.overhead_")]
    if rows:
        print(json.dumps({"context": context}))
        for workload, metric, value, unit in rows:
            print(f"{workload:<15} {metric:<26} {value:>14.6g} {unit}")
    for workload, key, value in overheads:
        print(f"{workload:<15} {key:<26} {value:>14.6g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
