"""Scenario-subsystem benchmark: fault-injection throughput and the
golden-run cache.

Runs one seeded fault plan (every fault kind) against the baseline and
fully safe builds of Surge through :class:`repro.scenarios.runner.\
ScenarioRunner`, measuring wall time per faulted simulation ("faults per
second"), the golden-run cache hit rate across a follow-up plan that
reuses the same variants, and the matrix's rerun determinism (the verdict
table must be bit-identical when the whole scenario repeats).

Two cells double as a correctness guard — the paper's headline split:
the pointer bit flip must be ``silent-corruption`` on the baseline build
and ``detected`` on the safe one.

Results are recorded in ``BENCH_scenarios.json`` at the repository root
(CI uploads it as an artifact); run this module directly for a standalone
measurement, or via pytest as part of the benchmark suite.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the simulated window (CI smoke
mode).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api.specs import ScenarioSpec
from repro.api.workbench import Workbench
from repro.scenarios.faults import (
    DEFAULT_FAULT_NAMES,
    FaultPlan,
    PayloadCorruptFault,
    default_fault,
)
from repro.scenarios.runner import ScenarioRunner

APP = "Surge_Mica2"
VARIANTS = ("baseline", "safe-optimized")
NODE_COUNT = 2

SIM_SECONDS = 4.0
SMOKE_SECONDS = 2.0

BIT_FLIP_LABEL = "bit-flip@RadioCRCPacketC__radio_rx_ptr"

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _spec(plan: FaultPlan, seconds: float) -> ScenarioSpec:
    return ScenarioSpec(app=APP, variants=VARIANTS, plan=plan,
                        node_count=NODE_COUNT, seconds=seconds)


def measure() -> dict:
    seconds = SMOKE_SECONDS if _smoke() else SIM_SECONDS
    return _measure(Workbench(), seconds)


def _measure(bench: Workbench, seconds: float) -> dict:
    plan = FaultPlan(faults=tuple(default_fault(name, NODE_COUNT)
                                  for name in DEFAULT_FAULT_NAMES))
    spec = _spec(plan, seconds)

    # Builds are part of the workbench's job, not the scenario layer's —
    # pay for them outside the timed window.
    for build_spec in spec.build_specs():
        bench.build_result(build_spec)

    runner = ScenarioRunner(bench)
    start = time.perf_counter()
    outcome = runner.run(spec)
    wall = time.perf_counter() - start
    fault_runs = len(VARIANTS) * len(plan.faults)
    total_runs = fault_runs + outcome["golden"]["runs"]

    verdict_of = dict(zip(plan.labels(),
                          (row[VARIANTS.index("baseline")]
                           for row in outcome["verdicts"])))
    safe_of = dict(zip(plan.labels(),
                       (row[VARIANTS.index("safe-optimized")]
                        for row in outcome["verdicts"])))
    assert verdict_of[BIT_FLIP_LABEL] == "silent-corruption", \
        f"baseline should absorb the pointer flip silently, " \
        f"got {verdict_of[BIT_FLIP_LABEL]}"
    assert safe_of[BIT_FLIP_LABEL] == "detected", \
        f"the safe build should detect the pointer flip, " \
        f"got {safe_of[BIT_FLIP_LABEL]}"

    # A different plan against the same variants: every golden run must
    # come out of the cache.
    follow_up = _spec(FaultPlan(faults=(PayloadCorruptFault(flips=2),),
                                seed=1), seconds)
    follow_outcome = runner.run(follow_up)
    assert follow_outcome["golden"]["runs"] == 0, \
        "the follow-up plan re-ran a golden simulation"
    hit_rate = runner.golden_hits / max(runner.golden_hits
                                        + runner.golden_runs, 1)

    # Rerun determinism: the matrix is a pure function of the spec.
    replay = ScenarioRunner(bench).run(spec)
    assert replay["verdicts"] == outcome["verdicts"], \
        "scenario rerun produced a different verdict matrix"
    assert replay["details"] == outcome["details"], \
        "scenario rerun produced different details"

    return {
        "app": APP,
        "variants": list(VARIANTS),
        "node_count": NODE_COUNT,
        "sim_seconds": seconds,
        "faults": plan.labels(),
        "verdicts": {"baseline": verdict_of, "safe-optimized": safe_of},
        "matrix_wall_s": round(wall, 4),
        "simulations": total_runs,
        "faulted_runs": fault_runs,
        "faults_per_sec": round(fault_runs / max(wall, 1e-9), 3),
        "sim_seconds_per_wall_second": round(
            total_runs * seconds / max(wall, 1e-9), 2),
        "golden_cache": {
            "runs": runner.golden_runs,
            "hits": runner.golden_hits,
            "hit_rate": round(hit_rate, 3),
        },
        "rerun_bit_identical": True,
    }


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def format_table(results: dict) -> str:
    lines = [
        f"scenario matrix ({results['app']}, {results['node_count']} "
        f"node(s), {results['sim_seconds']}s simulated, "
        f"{len(results['faults'])} fault(s) × "
        f"{len(results['variants'])} variant(s)):",
        f"  {results['faulted_runs']} faulted runs in "
        f"{results['matrix_wall_s']}s wall — "
        f"{results['faults_per_sec']} faults/s "
        f"({results['sim_seconds_per_wall_second']}x realtime across "
        f"{results['simulations']} simulations)",
        f"  golden cache: {results['golden_cache']['hits']} hit(s) / "
        f"{results['golden_cache']['runs']} run(s) "
        f"(hit rate {results['golden_cache']['hit_rate']})",
        f"{'fault':<40} {'baseline':<18} {'safe-optimized':<18}",
    ]
    for label in results["faults"]:
        lines.append(f"{label:<40} "
                     f"{results['verdicts']['baseline'][label]:<18} "
                     f"{results['verdicts']['safe-optimized'][label]:<18}")
    return "\n".join(lines)


def test_scenario_throughput() -> None:
    """The verdict split, golden-cache reuse and rerun determinism are
    asserted inside :func:`measure`, so the standalone CI invocation
    enforces them too."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    assert results["faults_per_sec"] > 0


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
