"""Layer wrappers and the DAG helpers of the traced run."""

import threading
import types

import pytest

import layers


def test_critical_path_of_a_diamond_takes_the_slow_branch():
    deps = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}
    durations = {"a": 1.0, "b": 2.0, "c": 5.0, "d": 1.0}
    assert layers.critical_path(durations, deps) == pytest.approx(7.0)


def test_critical_path_counts_missing_stages_as_zero_and_picks_the_longest_sink():
    deps = {"dataset": [], "train": ["dataset"], "eval": ["train"], "side": ["dataset"]}
    durations = {"dataset": 0.5, "train": 3.0, "side": 4.0}
    assert layers.critical_path(durations, deps) == pytest.approx(4.5)
    assert layers.critical_path({}, {}) == 0.0


def test_critical_path_rejects_cycles_and_unknown_dependencies():
    with pytest.raises(ValueError, match="cycle"):
        layers.critical_path({}, {"a": ["b"], "b": ["a"]})
    with pytest.raises(ValueError, match="unknown"):
        layers.critical_path({}, {"a": ["missing"]})


def test_busy_ratio():
    assert layers.busy_ratio([1.0, 2.0, 1.0], wall_seconds=4.0, jobs=2) == pytest.approx(0.5)
    assert layers.busy_ratio([1.0], wall_seconds=0.0, jobs=2) == 0.0


def _toy_module():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    return module


def test_recorder_counts_nested_calls_of_one_layer_once_and_restores_names():
    module = _toy_module()
    original_inner, original_outer = module.inner, module.outer
    recorder = layers.Recorder()
    recorder.wrap_many([(module, "outer"), (module, "inner")], "toy")
    assert module.outer(3) == 8
    assert recorder.count("toy") == 2
    spans = recorder.tracer.spans
    assert [span.name for span in spans] == ["toy"]  # only the outermost call is a span
    assert recorder.seconds["toy"] == pytest.approx(spans[0].duration, rel=0.5, abs=1e-4)
    recorder.uninstall()
    assert module.inner is original_inner and module.outer is original_outer


def test_recorder_wraps_methods_and_hooks_see_results():
    class Box:
        def get(self, value):
            return value

    seen = []
    original = Box.__dict__["get"]
    recorder = layers.Recorder()
    recorder.wrap(Box, "get", "box", span=False, on_call=lambda a, k, r, s: seen.append(r))
    assert Box().get(5) == 5
    assert seen == [5] and recorder.count("box") == 1 and not recorder.tracer.spans
    recorder.uninstall()
    assert Box.__dict__["get"] is original


def test_recorder_is_safe_across_threads():
    module = _toy_module()
    recorder = layers.Recorder()
    recorder.wrap(module, "inner", "inner")
    threads = [threading.Thread(target=lambda: [module.inner(i) for i in range(500)])
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    recorder.uninstall()
    assert recorder.count("inner") == 2000
    assert len(recorder.tracer.spans) == 2000


def test_recorder_restores_depth_after_an_exception():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    recorder = layers.Recorder()
    recorder.wrap(module, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        module.fail()
    with pytest.raises(ZeroDivisionError):
        module.fail()
    assert recorder.count("fail") == 2
    assert len(recorder.tracer.spans) == 2  # both calls were outermost
    recorder.uninstall()
