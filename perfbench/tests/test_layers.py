"""The traced run on small CLI calls: every binding is wrapped, every traced
function is reached, and tracing leaves the outputs byte-identical."""

import importlib
import sys

import pytest

import layers
import sweep
from tracer import Tracer

# one small call per CLI experiment; two grid values so the lambda pool runs
SMALL_CALLS = (
    ("setting1", "--n", "20", "--lambda", "0.1,1"),
    ("setting2", "--n", "20", "--lambda", "0.1,1"),
    ("setting3", "--n", "20", "--m", "5", "--lambda", "0.1,1"),
    ("koopman", "--n", "30", "--m", "5", "--lambda", "0.1,1"),
    ("control", "--n", "30", "--m", "5", "--lambda", "1"),
)


def _run_calls(out):
    from hybridkernel import cli

    for i, call in enumerate(SMALL_CALLS):
        sweep._clear_caches(layers.PACKAGE)
        assert cli.main(list(call) + ["--seed", "0", "--out", str(out / f"call{i}")]) == 0


def _originals():
    found = {}
    for module, attr, name in layers.TRACED:
        obj = importlib.import_module(f"{layers.PACKAGE}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        found[name] = obj
    return found


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    import hybridkernel  # noqa: F401  (imports every module, so all bindings exist)

    originals = _originals()
    plain = tmp_path_factory.mktemp("plain")
    _run_calls(plain)
    tracer, counters = Tracer(), layers.LayerCounters()
    layers.install(tracer, counters)
    try:
        stale = [(mod_name, key) for mod_name, mod in list(sys.modules.items())
                 if mod_name.startswith(layers.PACKAGE)
                 for key, value in vars(mod).items()
                 if any(value is fn for fn in originals.values())]
        traced = tmp_path_factory.mktemp("traced")
        _run_calls(traced)
    finally:
        tracer.unwrap()
    from hybridkernel import experiments
    return {"stale": stale, "plain": plain, "traced": traced, "tracer": tracer,
            "raw": layers.raw(tracer, counters, experiments.worker_count()),
            "originals": originals}


def test_no_namespace_keeps_an_unwrapped_binding(traced_run):
    assert traced_run["stale"] == []


def test_unwrap_restores_the_program(traced_run):
    assert _originals() == traced_run["originals"]


def test_every_traced_function_records_calls(traced_run):
    calls = {name: agg["calls"] for name, agg in traced_run["tracer"].by_name().items()}
    assert [name for _, _, name in layers.TRACED if calls[name] == 0] == []


def test_pool_spans_have_a_driver_parent(traced_run):
    t = traced_run["tracer"]
    names = {sid: name for sid, name, *_ in t.spans()}
    threads = {thread for _, _, _, _, _, _, thread, _ in t.spans()}
    assert len(threads) > 1  # the lambda pool ran
    fits = [(parent, thread) for _, name, _, _, _, parent, thread, _ in t.spans()
            if name == "hybrid_static.fit_mixture"]
    assert fits and all(names[parent] == "experiments.run_setting3" for parent, _ in fits)


def test_traced_and_untraced_outputs_are_byte_identical(traced_run):
    plain, traced = traced_run["plain"], traced_run["traced"]
    files = sorted(p.relative_to(plain) for p in plain.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    assert any(f.suffix == ".csv" for f in files)
    assert files == sorted(p.relative_to(traced) for p in traced.rglob("*")
                           if p.is_file() and p.name != "manifest.json")
    assert [f for f in files if (plain / f).read_bytes() != (traced / f).read_bytes()] == []


def test_every_per_layer_metric_is_reported(traced_run):
    metrics = layers.finalize(layers.merge([traced_run["raw"]] * 2),
                              {"cli.bytes_written": 1, "cli.files_written": 1,
                               "trace_overhead_frac": 0.0})
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["control.rk4_steps"]["value"] == 2 * 10 * 1000  # 5 states x 2 controllers
    assert metrics["control.simulate.unique_frac"]["value"] == 1.0
    assert 0 < metrics["experiments.parallel_util"]["value"] <= 1.0
