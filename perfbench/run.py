"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures_cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --write-golden    # re-freeze perfbench/golden.json

``--trace 0`` prints the end-to-end metrics of untraced iterations;
``--trace 1`` also runs traced iterations and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT_DIR, "src"), ROOT_DIR]

from perfbench.tracing import PASS_LAYERS, ROOT, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Meter,
    Workload,
    start_fresh_session,
)

GOLDEN_PATH = os.path.join(ROOT_DIR, "perfbench", "golden.json")

#: Iterations per phase at least, however short ``--seconds`` is.
MIN_ITERATIONS = 2

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("statements_per_s", "1/s"),
    ("node_seconds_per_s", "1/s"),
    ("sim_ms_p50", "ms"),
    ("sim_ms_p80", "ms"),
)


#: Layers reported as self time plus call count.
CALLED_LAYERS = ("cminor.clone", "avrora.node.boot", "avrora.node.snapshot",
                 "avrora.node.restore", "scenarios.arm", "scenarios.classify",
                 "api.workbench.build", "api.workbench.simulate")

#: Per-layer metrics that are ratios rather than seconds or counts.
RATIOS = ("avrora.exec.fused_fraction", "avrora.kernel.statements_per_grant",
          "trace.overhead", "trace.unattributed_frac")


# -- phases -----------------------------------------------------------------------


@dataclass
class Iteration:
    """One set-up followed by one measured operation."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    setup: Meter = field(default_factory=Meter)
    meter: Meter = field(default_factory=Meter)
    outputs: Optional[dict] = None
    layers: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return max(1, self.setup.operations + self.meter.operations)


def _traced_iterate(workload, meter: Meter, tracer: Tracer):
    """One iteration with the tracer's wrappers installed around it only."""
    with tracer.installed():
        tracer.reset()
        root = tracer.begin(ROOT)
        try:
            outputs = workload.iterate(meter, tracer)
        finally:
            wall_s = tracer.end(root)
    return outputs, wall_s


def run_phase(make_workload: Callable[[], Workload], seconds: float,
              tracer: Optional[Tracer] = None) -> list[Iteration]:
    """Set up and iterate until ``seconds`` have passed (MIN_ITERATIONS at
    least).

    Every iteration has a set-up of its own — a fresh interpreter importing
    the toolchain, then the workload's builds — so set-up samples spread
    over the run as the iterations do.  An iteration that raises ends the
    phase with ``outputs`` None.
    """
    iterations: list[Iteration] = []
    deadline = time.perf_counter() + seconds
    while len(iterations) < MIN_ITERATIONS \
            or time.perf_counter() < deadline:
        iteration = Iteration()
        iterations.append(iteration)
        try:
            gc.collect()
            started = time.perf_counter()
            start_fresh_session()
            workload = make_workload()
            workload.prepare(iteration.setup)
            iteration.setup_s = time.perf_counter() - started
            gc.collect()
            if tracer is None:
                started = time.perf_counter()
                iteration.outputs = workload.iterate(iteration.meter)
                iteration.wall_s = time.perf_counter() - started
            else:
                iteration.outputs, iteration.wall_s = _traced_iterate(
                    workload, iteration.meter, tracer)
                iteration.layers = tracer.layers
        except Exception:
            traceback.print_exc()
            break
    return iterations


# -- correctness ------------------------------------------------------------------


def count_differences(got, want) -> int:
    """Number of leaf values that differ between two JSON documents."""
    if isinstance(got, dict) and isinstance(want, dict):
        return sum(count_differences(got.get(key), want.get(key))
                   for key in set(got) | set(want))
    if isinstance(got, list) and isinstance(want, list) \
            and len(got) == len(want):
        return sum(count_differences(a, b) for a, b in zip(got, want))
    return 0 if got == want else 1


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(workload, golden: dict) -> Optional[dict]:
    """The frozen outputs this run must reproduce, if any.

    Figure rows do not depend on which applications are tabulated, so a
    short figures run checks its rows against the full reference.
    """
    entry = golden.get(workload.name, {})
    if workload.name == "figures_cold":
        return {key: {"title": table["title"],
                      "rows": {app: row for app, row in table["rows"].items()
                               if app in workload.apps}}
                for key, table in entry["full"].items()}
    if workload.seed != DEFAULT_SEED:
        return None
    return entry.get("short" if workload.short else "full")


def check(workload, iterations: list[Iteration], golden: dict,
          baseline: Optional[dict] = None) -> tuple[int, list[str]]:
    """Failed operations and the reasons, over a phase's iterations.

    Every iteration must equal the first (same seed, same outputs), the
    first must equal the frozen reference where one exists and satisfy the
    workload's invariants, and ``baseline`` (the untraced outputs, for a
    traced phase) must equal it too.  An iteration that raised fails all
    the operations it attempted.
    """
    failed = 0
    problems: list[str] = []
    first = iterations[0].outputs
    expected = reference_for(workload, golden)
    for index, iteration in enumerate(iterations):
        ops = iteration.operations
        if iteration.outputs is None:
            failed += ops
            problems.append(f"iteration {index} raised")
            continue
        wrong = 0
        if index and iteration.outputs != first:
            wrong += count_differences(iteration.outputs, first)
            problems.append(f"iteration {index} differs from iteration 0")
        if not index:
            if expected is not None and first != expected:
                wrong += count_differences(first, expected)
                problems.append("outputs differ from golden.json")
            if baseline is not None and first != baseline:
                wrong += count_differences(first, baseline)
                problems.append("traced outputs differ from untraced ones")
            invariants = workload.invariants(first)
            wrong += len(invariants)
            problems += invariants
        failed += min(ops, wrong)
    return failed, problems


# -- metrics ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iteration_metrics(iteration: Iteration) -> dict[str, float]:
    """One untraced iteration's end-to-end metrics, apart from memory.

    Percentiles are over the iteration's simulations (with one, its time).
    """
    meter = iteration.meter
    sim_s = sum(meter.sim_ms) / 1e3
    return {
        "wall_s": iteration.wall_s,
        "setup_s": iteration.setup_s,
        "statements_per_s": meter.statements / sim_s,
        "node_seconds_per_s": meter.node_seconds / sim_s,
        "sim_ms_p50": percentile(meter.sim_ms, 50),
        "sim_ms_p80": percentile(meter.sim_ms, 80),
    }


def end_to_end(iterations: list[Iteration]) -> dict[str, float]:
    """Each metric's median over the run's iterations, and peak memory.

    Medians over iterations, not statistics over pooled samples, so a
    burst of load on the host moves a metric only if it lasts for half of
    the run.
    """
    rows = [iteration_metrics(iteration) for iteration in iterations]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def layer_metrics(layers: dict, wall_s: float) -> dict[str, float]:
    """One traced iteration's per-layer metrics (absent layers read 0)."""

    def get(layer: str, key: str = "s") -> float:
        return layers.get(layer, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for layer in PASS_LAYERS.values():
        metrics[f"{layer}.s"] = get(layer)
        metrics[f"{layer}.calls"] = get(layer, "calls")
        metrics[f"{layer}.changed"] = get(layer, "changed")
    metrics["cxprop.rounds"] = get("cxprop", "rounds")
    for layer in CALLED_LAYERS:
        metrics[f"{layer}.s"] = get(layer)
        metrics[f"{layer}.calls"] = get(layer, "calls")
    grants = get("avrora.exec", "calls")
    executed = get("avrora.kernel", "statements_total")
    metrics.update({
        "toolchain.sweep.other.s": get("toolchain.sweep.other"),
        "avrora.lower.s": get("avrora.lower"),
        "avrora.lower.lowerings": get("avrora.lower", "lowerings"),
        "avrora.lower.plan_hits": get("avrora.lower", "plan_hits"),
        "avrora.exec.s": get("avrora.exec"),
        "avrora.exec.statements": get("avrora.exec", "statements"),
        "avrora.exec.fused_fraction":
            get("avrora.kernel", "fused_statements") / executed
            if executed else 0.0,
        "avrora.kernel.s": get("avrora.kernel"),
        "avrora.kernel.grants": grants,
        "avrora.kernel.statements_per_grant":
            get("avrora.exec", "statements") / grants if grants else 0.0,
        "scenarios.run.s": get("scenarios.run"),
        "scenarios.golden.s": get("scenarios.golden"),
        "scenarios.golden.runs": get("scenarios.golden", "runs"),
        "scenarios.golden.hits": get("scenarios.golden", "hits"),
        "scenarios.faulted.s": get("scenarios.faulted"),
        "scenarios.faulted.runs": get("scenarios.faulted", "calls"),
        "api.figures.s": get("api.figures"),
        "api.run_network.s": get("api.run_network"),
        "trace.unattributed_frac": get(ROOT) / wall_s,
    })
    return metrics


def _unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith(".s") else "count"


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = tuple((name, _unit(name))
                  for name in [*layer_metrics({}, 1.0), "trace.overhead"])


def per_layer(traced: list[Iteration],
              untraced: list[Iteration]) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric."""
    rows = [layer_metrics(it.layers, it.wall_s) for it in traced]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead"] = (
        statistics.median(it.wall_s for it in traced)
        / statistics.median(it.wall_s for it in untraced))
    return metrics


# -- reporting --------------------------------------------------------------------


def print_layers(iteration: Iteration) -> None:
    """A human-readable table of one traced iteration, by self time."""
    print(f"{'layer':<28} {'self s':>10} {'share':>7} {'calls':>9}  counters")
    for name, layer in sorted(iteration.layers.items(),
                              key=lambda item: -item[1]["s"]):
        extra = ", ".join(f"{key}={value}" for key, value in layer.items()
                          if key not in ("s", "calls"))
        print(f"{name:<28} {layer['s']:>10.4f} "
              f"{layer['s'] / iteration.wall_s:>7.1%} "
              f"{layer['calls']:>9}  {extra}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    golden = load_golden()
    make_workload = functools.partial(WORKLOADS[workload_name], seed)
    workload = make_workload()
    untraced = run_phase(make_workload, seconds / 2 if trace else seconds)
    print(f"{workload_name} seed {seed}: set-up "
          + " ".join(f"{it.setup_s:.3f}" for it in untraced)
          + " s; iterations "
          + " ".join(f"{it.wall_s:.3f}" for it in untraced) + " s")
    failed, problems = check(workload, untraced, golden)
    attempted = sum(it.operations for it in untraced)
    traced: list[Iteration] = []
    if trace and failed == 0:
        traced = run_phase(make_workload, seconds / 2, Tracer())
        traced_failed, traced_problems = check(
            workload, traced, golden, baseline=untraced[0].outputs)
        failed += traced_failed
        problems += traced_problems
        attempted += sum(it.operations for it in traced)
        print_layers(traced[0])
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics: dict[str, float] = {}
    units = {}
    if failed == 0:
        if trace:
            metrics, units = per_layer(traced, untraced), dict(PER_LAYER)
        else:
            metrics, units = end_to_end(untraced), dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def write_golden() -> None:
    """Freeze every workload's outputs at the default seed."""
    golden = {}
    for name, workload_cls in WORKLOADS.items():
        golden[name] = {}
        profiles = (("full", False),) if name == "figures_cold" \
            else (("full", False), ("short", True))
        for profile, short in profiles:
            workload = workload_cls(DEFAULT_SEED, short)
            workload.prepare(Meter())
            golden[name][profile] = workload.iterate(Meter())
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-freeze perfbench/golden.json and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
