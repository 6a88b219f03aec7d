"""Robustness benchmark: checkpoint overhead and recovery latency.

Measures the cost of the fault-tolerance layer in ``repro.avrora.shard``
along its two axes:

* **Checkpoint overhead** — the same sharded grid network run across a
  sweep of checkpoint cadences, from cadence 0 (checkpointing and
  recovery disabled — the PR-6 fast path) through the default.  Overhead
  is wall time relative to the cadence-0 run; the default cadence is
  asserted under a configurable ceiling (10% by default), because
  checkpointing is always on in production runs.

* **Recovery latency** — a chaos run that kills every worker once
  mid-simulation, timed against the fault-free run at the same cadence.
  The recorded figures are the coordinator's own accounting
  (``recovery_wall_s``, respawns, replayed rounds) plus the end-to-end
  wall-time delta the kills cost.

Every run in the sweep — including the chaos run — is asserted bit-equal
to the cadence-0 baseline on per-node statement counts and delivery
totals: measuring the overhead of a fault-tolerance layer is only
meaningful while it preserves the results.

Results are recorded in ``BENCH_robustness.json`` at the repository root
(CI uploads it as an artifact); run this module directly for a
standalone measurement, or via pytest as part of the benchmark suite.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the simulated window and the
cadence sweep (CI smoke mode), and
``REPRO_BENCH_MAX_CHECKPOINT_OVERHEAD`` to tune the asserted
default-cadence overhead ceiling (default ``1.10``).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.api.workbench import Workbench
from repro.avrora.chaos import ChaosPolicy
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.avrora.shard import DEFAULT_CHECKPOINT_EVERY, run_sharded
from repro.toolchain.variants import BASELINE

APP = "Surge_Mica2"

SIM_SECONDS = 5.0
SMOKE_SECONDS = 1.0

NODE_COUNT = 8
GRID_WIDTH = 4
WORKERS = 2

#: Cadence sweep (window rounds between checkpoints).  0 disables the
#: layer entirely and is the overhead baseline; the default cadence must
#: appear so the asserted ceiling measures the shipped configuration.
CADENCES = (0, 5, 10, DEFAULT_CHECKPOINT_EVERY, 50)
SMOKE_CADENCES = (0, DEFAULT_CHECKPOINT_EVERY)

#: Asserted ceiling on default-cadence wall time / cadence-0 wall time.
#: Checkpoints are pickled off the simulation's critical path only in
#: the sense that workers overlap; the snapshot itself is synchronous,
#: so this bounds what every production run pays for recoverability.
MAX_CHECKPOINT_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_CHECKPOINT_OVERHEAD", "1.10"))

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_robustness.json"


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _build_network(program) -> Network:
    network = Network(channel=Channel(topology="grid",
                                      grid_width=GRID_WIDTH,
                                      loss=0.1, seed=3))
    for node_id in range(NODE_COUNT):
        node = Node(program, node_id=node_id)
        node.boot()
        network.add_node(node)
    return network


def _fingerprint(network: Network) -> dict:
    return {
        "statements": [node.interpreter.statements_executed
                       for node in network.nodes],
        "delivered": network.delivered_packets,
        "lost": network.lost_packets,
    }


def _timed_run(program, seconds: float, *, cadence: int,
               chaos: ChaosPolicy | None = None) -> tuple[Network, float]:
    network = _build_network(program)
    gc.collect()
    start = time.perf_counter()
    run_sharded(network, seconds, WORKERS, chaos=chaos,
                checkpoint_every=cadence)
    return network, time.perf_counter() - start


def measure() -> dict:
    seconds = SMOKE_SECONDS if _smoke() else SIM_SECONDS
    cadences = SMOKE_CADENCES if _smoke() else CADENCES
    program = Workbench().build_result(APP, BASELINE).program

    results: dict = {
        "app": APP,
        "sim_seconds": seconds,
        "nodes": NODE_COUNT,
        "workers": WORKERS,
        "default_cadence": DEFAULT_CHECKPOINT_EVERY,
        "max_checkpoint_overhead_asserted": MAX_CHECKPOINT_OVERHEAD,
        "cadence_sweep": [],
    }

    # Untimed warm-up: first fork + execution-thread spin-up costs land
    # here instead of inside the cadence-0 baseline window.
    run_sharded(_build_network(program), 0.2, WORKERS, checkpoint_every=0)

    baseline_fp = None
    baseline_wall = None
    default_overhead = None
    for cadence in cadences:
        network, wall = _timed_run(program, seconds, cadence=cadence)
        fingerprint = _fingerprint(network)
        if cadence == 0:
            baseline_fp = fingerprint
            baseline_wall = wall
        else:
            assert fingerprint == baseline_fp, \
                f"cadence {cadence} changed the simulation results"
        recovery = network.recovery_stats
        overhead = round(wall / max(baseline_wall, 1e-9), 3)
        if cadence == DEFAULT_CHECKPOINT_EVERY:
            default_overhead = overhead
        results["cadence_sweep"].append({
            "cadence": cadence,
            "wall_s": round(wall, 4),
            "overhead": overhead,
            "checkpoints": recovery.get("checkpoints", 0),
            "checkpoint_bytes": recovery.get("checkpoint_bytes", 0),
        })
    assert default_overhead is not None, \
        "the sweep must include the default cadence"
    assert default_overhead <= MAX_CHECKPOINT_OVERHEAD, \
        f"default-cadence checkpointing cost {default_overhead}x the " \
        f"cadence-0 run (ceiling {MAX_CHECKPOINT_OVERHEAD}x)"
    results["default_cadence_overhead"] = default_overhead

    # -- recovery latency: kill every worker once, mid-run ------------------
    # The fault-free default-cadence run calibrates how many window
    # rounds the shards grant, so the kills land mid-protocol.
    calibration, faultfree_wall = _timed_run(
        program, seconds, cadence=DEFAULT_CHECKPOINT_EVERY)
    rounds = min(stats["rounds"] for stats in calibration.shard_stats)
    chaos = ChaosPolicy(kills=tuple(
        (worker, rounds // 2 + worker) for worker in range(WORKERS)))
    network, chaos_wall = _timed_run(
        program, seconds, cadence=DEFAULT_CHECKPOINT_EVERY, chaos=chaos)
    assert _fingerprint(network) == baseline_fp, \
        "the chaos run diverged from the fault-free results"
    recovery = network.recovery_stats
    assert recovery["respawns"] >= WORKERS
    results["recovery"] = {
        "chaos": chaos.label(),
        "faultfree_wall_s": round(faultfree_wall, 4),
        "chaos_wall_s": round(chaos_wall, 4),
        "kill_cost_s": round(max(chaos_wall - faultfree_wall, 0.0), 4),
        "respawns": recovery["respawns"],
        "chaos_kills": recovery["chaos_kills"],
        "replayed_rounds": recovery["replayed_rounds"],
        "recovery_wall_s": round(recovery["recovery_wall_s"], 4),
        "recovery_wall_per_respawn_s": round(
            recovery["recovery_wall_s"] / max(recovery["respawns"], 1), 4),
    }
    return results


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def format_table(results: dict) -> str:
    lines = [
        f"checkpoint cadence sweep ({results['sim_seconds']}s simulated, "
        f"{results['nodes']} nodes, {results['workers']} workers):",
        f"{'cadence':>8} {'wall (s)':>9} {'overhead':>9} "
        f"{'ckpts':>6} {'bytes':>12}",
    ]
    for row in results["cadence_sweep"]:
        lines.append(f"{row['cadence']:>8} {row['wall_s']:>9} "
                     f"{row['overhead']:>8}x {row['checkpoints']:>6} "
                     f"{row['checkpoint_bytes']:>12,}")
    recovery = results["recovery"]
    lines.append(
        f"recovery ({recovery['chaos']}): "
        f"{recovery['respawns']} respawn(s), "
        f"{recovery['replayed_rounds']} round(s) replayed, "
        f"{recovery['recovery_wall_s']}s recovering "
        f"({recovery['recovery_wall_per_respawn_s']}s/respawn); "
        f"chaos run {recovery['chaos_wall_s']}s vs fault-free "
        f"{recovery['faultfree_wall_s']}s")
    return "\n".join(lines)


def test_robustness() -> None:
    """Default-cadence checkpointing stays under the overhead ceiling.

    The ceiling itself is asserted inside :func:`measure`, so the
    standalone CI invocation (``python benchmarks/bench_robustness.py``)
    enforces it too.
    """
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    for row in results["cadence_sweep"]:
        if row["cadence"] > 0:
            assert row["checkpoints"] > 0


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
