"""``BENCHMARK.json`` schema and the catalog built on it."""

import copy

import pytest

import catalog
import run
from conftest import REPO_ROOT


def test_committed_spec_is_valid():
    spec = catalog.load_spec(REPO_ROOT / "BENCHMARK.json")
    assert catalog.validate_spec(spec) == []
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workload_choices_match_the_catalog():
    parser = run.build_parser()
    choices = next(a.choices for a in parser._actions if a.dest == "workload")
    assert choices == catalog.WORKLOADS + ["all"]
    assert set(catalog.UNITS_OF_WORK) == set(catalog.WORKLOADS)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s: s.pop("paths"), "top-level keys"),
        (lambda s: s.update(extra=1), "top-level keys"),
        (lambda s: s["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda s: s["end_to_end"][1].update(bound=0.0), "bound"),
        (lambda s: s["end_to_end"].pop(0), "setup_s"),
        (lambda s: s["end_to_end"][0].update(bound=0.01), "largest bound"),
        (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "used twice"),
        (lambda s: s["per_layer"][0].update(name="bad name"), "bad name"),
        (lambda s: s["per_layer"][0].update(unit="milli seconds"), "bad unit"),
        (lambda s: s["per_layer"][0].update(better="up"), "better"),
        (lambda s: s["per_layer"][0].update(bound=0.1), "exactly"),
        (lambda s: s["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda s: s.update(workloads=s["workloads"][:1]), "2-8"),
        (lambda s: s.update(run_seconds=61), "run_seconds"),
        (lambda s: s.update(run_seconds=True), "run_seconds"),
        (lambda s: s.update(command=["python3", "/abs/run.py"]), "leaves"),
        (lambda s: s.update(command=["python3", "../x.py"]), "leaves"),
        (lambda s: s.update(paths=["../up"]), "bad path"),
    ],
)
def test_validate_spec_rejects(mutate, message):
    spec = copy.deepcopy(catalog.SPEC)
    mutate(spec)
    problems = catalog.validate_spec(spec)
    assert any(message in problem for problem in problems), problems


def test_pipeline_stages_match_the_quick_profile():
    from repro.experiments.pipeline import build_pipeline
    from repro.experiments.profiles import get_profile

    stages = [s.name.replace("/", ".") for s in build_pipeline(get_profile("quick")).stages]
    assert sorted(stages) == sorted(catalog.PIPELINE_STAGES)


def test_named_metrics_cover_the_fifteen_headline_numbers():
    names = [name for name, _, _, _ in catalog.NAMED_METRICS]
    assert len(names) == len(set(names)) == 15
    generic = set(catalog.END_TO_END)
    for name, workload, source, _ in catalog.NAMED_METRICS:
        assert workload == "*" or workload in catalog.UNITS_OF_WORK
        assert source in generic or source.startswith("auc."), name


def test_spec_names_a_stage_metric_for_every_pipeline_stage():
    stages = {name[len("dag.stage_s."):] for name in catalog.PER_LAYER
              if name.startswith("dag.stage_s.")}
    assert stages == set(catalog.PIPELINE_STAGES)


def test_every_layer_the_catalog_maps_is_in_the_spec():
    for group in (catalog._TRAIN_LAYERS, catalog._FLEET_LAYERS, catalog._BUILD_LAYERS):
        assert set(group) <= set(catalog.PER_LAYER)
    assert set(catalog.LAYER_TARGETS) == set(catalog.PER_LAYER)
