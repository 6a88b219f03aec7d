"""The benchmark's own tests: goldens on short inputs, and safe tracing."""

from __future__ import annotations

import copy
import functools
import json
import os

import pytest

from perfbench import run as bench
from perfbench.tracing import PASS_LAYERS, EntryPoint, Tracer, entry_points
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, FaultMatrix


def short(name: str, seed: int = DEFAULT_SEED):
    """A factory of the workload on short inputs."""
    return functools.partial(WORKLOADS[name], seed, True)


@pytest.fixture(scope="module")
def faults():
    """The short fault matrix and its untraced iterations."""
    make = short("fault_matrix")
    return make(), bench.run_phase(make, seconds=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_matches_golden(name, faults):
    if name == "fault_matrix":
        workload, iterations = faults
    else:
        workload = short(name)()
        iterations = bench.run_phase(short(name), seconds=0)
    assert len(iterations) == bench.MIN_ITERATIONS
    assert bench.check(workload, iterations, bench.load_golden()) == (0, [])
    assert all(it.meter.operations and it.setup_s > 0 for it in iterations)


def test_non_default_seed_is_deterministic_and_keeps_the_split():
    make = short("fault_matrix", seed=DEFAULT_SEED + 7)
    assert bench.reference_for(make(), bench.load_golden()) is None
    iterations = bench.run_phase(make, seconds=0)
    assert bench.check(make(), iterations, bench.load_golden()) == (0, [])


def test_golden_mismatch_counts_as_failed_operations(faults):
    workload, iterations = faults
    iterations = copy.deepcopy(iterations)
    iterations[0].outputs["verdicts"][0] = ["benign", "benign"]
    failed, problems = bench.check(workload, iterations, bench.load_golden())
    assert failed > 0 and problems


def test_every_wrapped_entry_point_exists():
    points = entry_points()
    assert len(points) > len(PASS_LAYERS)
    for point in points:
        assert callable(vars(point.resolve())[point.attr]), point.target


def test_a_renamed_entry_point_fails_loudly():
    with pytest.raises(LookupError, match="Node.run_until_gone"):
        EntryPoint("repro.avrora.node:Node.run_until_gone",
                   "avrora.exec").resolve()


def _current_attributes() -> list[object]:
    return [vars(point.resolve())[point.attr] for point in entry_points()]


def test_tracing_leaves_no_wrapper_behind():
    before = _current_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            wrapped = _current_attributes()
            assert all(getattr(fn, "__wrapped__", None) is orig
                       for fn, orig in zip(wrapped, before))
            raise RuntimeError("boom")
    assert all(now is orig for now, orig in zip(_current_attributes(), before))


def test_traced_run_matches_untraced_and_attributes_its_time(faults):
    workload, untraced = faults
    before = _current_attributes()
    traced = bench.run_phase(short("fault_matrix"), seconds=0,
                             tracer=Tracer())
    assert _current_attributes() == before
    assert bench.check(workload, traced, bench.load_golden(),
                       baseline=untraced[0].outputs) == (0, [])
    metrics = bench.per_layer(traced, untraced)
    assert set(metrics) == {name for name, _ in bench.PER_LAYER}
    assert metrics["trace.unattributed_frac"] < 0.1
    assert metrics["scenarios.faulted.runs"] == len(
        FaultMatrix.VARIANTS) * 5
    assert metrics["scenarios.golden.runs"] == len(FaultMatrix.VARIANTS)
    assert metrics["avrora.node.restore.calls"] > 0
    # Lowering happens on node threads inside grants; it must not be
    # double-counted as execution.
    layers = traced[0].layers
    assert sum(layer["s"] for layer in layers.values()) == pytest.approx(
        traced[0].wall_s, rel=0.01)


def test_benchmark_json_lists_every_metric():
    path = os.path.join(bench.ROOT_DIR, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(bench.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
