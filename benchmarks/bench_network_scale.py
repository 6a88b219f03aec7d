"""Network-scale benchmark for the lockstep discrete-event kernel.

Measures wall time, aggregate statement throughput and lockstep grants
(``Node.run_until`` calls) of multi-node Surge networks in a ``chain``
topology as the node count grows, plus the lockstep kernel's overhead over
the thread-free ``Node.run`` reference on a single node (where the two are
byte-identical by construction, so the comparison is pure kernel overhead:
one execution thread and one horizon grant).

Also measures the shared code cache (:class:`repro.avrora.engine.\
CodeCache`): compiled ops bind no node, so the first node of a program
pays the whole lowering and every further node on the same cache lowers
nothing.  The benchmark times the first node's lowering and asserts, via
the cache's ``lowerings`` counter, that an extra node and every node of
every network size lowered nothing more.

Results are recorded in ``BENCH_network.json`` at the repository root (CI
uploads it as an artifact); run this module directly for a standalone
measurement, or via pytest as part of the benchmark suite.

Set ``REPRO_BENCH_MAX_KERNEL_OVERHEAD`` to tune the asserted single-node
overhead ceiling.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.api.workbench import Workbench
from repro.avrora.engine import CodeCache
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.toolchain.variants import BASELINE

APP = "Surge_Mica2"

SIM_SECONDS = 10.0

NODE_COUNTS = (1, 2, 4, 8)

#: Asserted ceiling on lockstep wall time / thread-free ``Node.run`` wall
#: time for one node.  Generous so a loaded CI machine does not flake; an
#: idle machine shows the kernel within a few percent of the reference.
MAX_KERNEL_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_KERNEL_OVERHEAD", "1.6"))

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_network.json"


def _build_network(program, node_count: int,
                   code_cache: CodeCache) -> Network:
    network = Network(channel=Channel(topology="chain"))
    for node_id in range(node_count):
        node = Node(program, node_id=node_id, code_cache=code_cache)
        node.boot()
        network.add_node(node)
    return network


def _observe(network: Network) -> dict:
    return {
        "times": [node.time_cycles for node in network.nodes],
        "busy": [node.busy_cycles for node in network.nodes],
        "statements": [node.interpreter.statements_executed
                       for node in network.nodes],
        "tx": [len(node.radio.packets_sent) for node in network.nodes],
        "rx": [node.radio.packets_received for node in network.nodes],
        "delivered": network.delivered_packets,
    }


def _run_counting_grants(network: Network, seconds: float) -> int:
    """Run ``network`` and return how many horizons the kernel granted."""
    grants = 0
    run_until = Node.run_until

    def counting_run_until(node, horizon_cycles):
        nonlocal grants
        grants += 1
        return run_until(node, horizon_cycles)

    Node.run_until = counting_run_until
    try:
        network.run(seconds)
    finally:
        Node.run_until = run_until
    return grants


def measure() -> dict:
    program = Workbench().build_result(APP, BASELINE).program

    results: dict = {
        "app": APP,
        "sim_seconds": SIM_SECONDS,
        "topology": "chain",
        "max_kernel_overhead_asserted": MAX_KERNEL_OVERHEAD,
        "scaling": [],
    }

    # -- shared code cache: one lowering serves every node ------------------
    cache = CodeCache(program)
    first = Node(program, code_cache=cache)
    start = time.perf_counter()
    functions = first.interpreter.warm()
    first_lowering = time.perf_counter() - start
    functions_lowered = cache.lowerings
    assert functions_lowered == functions, \
        "every function should have been lowered exactly once"

    extra = Node(program, code_cache=cache)
    extra.interpreter.warm()
    extra_lowerings = cache.lowerings - functions_lowered
    assert extra_lowerings == 0, "an extra node lowered a function again"
    results["code_cache"] = {
        "functions": functions,
        "first_node_lowering_s": round(first_lowering, 4),
        "extra_node_lowerings": extra_lowerings,
    }

    # -- lockstep vs the thread-free Node.run on one node (identical) -------
    # Untimed warm-up: the process's first execution-thread spin-up costs
    # ~tens of ms and would otherwise land inside the lockstep window.
    _build_network(program, 1, cache).run(0.2)

    thread_free = _build_network(program, 1, cache)
    gc.collect()  # keep collection pauses out of the ~25ms windows
    start = time.perf_counter()
    thread_free.nodes[0].run(SIM_SECONDS)
    thread_free_wall = time.perf_counter() - start

    lockstep = _build_network(program, 1, cache)
    gc.collect()
    start = time.perf_counter()
    lockstep.run(SIM_SECONDS)
    lockstep_wall = time.perf_counter() - start

    assert _observe(thread_free) == _observe(lockstep), \
        "single-node lockstep diverged from the thread-free Node.run"
    overhead = round(lockstep_wall / max(thread_free_wall, 1e-9), 3)
    assert overhead <= MAX_KERNEL_OVERHEAD, \
        f"lockstep kernel overhead {overhead}x exceeded the " \
        f"{MAX_KERNEL_OVERHEAD}x ceiling on a single node"
    results["single_node"] = {
        "thread_free_wall_s": round(thread_free_wall, 4),
        "lockstep_wall_s": round(lockstep_wall, 4),
        "kernel_overhead": overhead,
    }

    # -- node-count scaling under the lockstep kernel -----------------------
    for count in NODE_COUNTS:
        network = _build_network(program, count, cache)
        gc.collect()
        start = time.perf_counter()
        grants = _run_counting_grants(network, SIM_SECONDS)
        wall = time.perf_counter() - start
        statements = sum(node.interpreter.statements_executed
                         for node in network.nodes)
        superblocks = network.superblock_stats()
        results["scaling"].append({
            "nodes": count,
            "wall_s": round(wall, 4),
            "statements": statements,
            "statements_per_sec": round(statements / max(wall, 1e-9)),
            "grants": grants,
            "delivered_packets": network.delivered_packets,
            "node_seconds_per_wall_second":
                round(count * SIM_SECONDS / max(wall, 1e-9), 1),
            "superblock_fused_fraction": superblocks["fused_fraction"],
        })
    # Every node of every network above ran the first node's lowerings.
    assert cache.lowerings == functions_lowered, \
        "scaling runs lowered a function again"

    results["code_cache"]["plan_hits"] = cache.plan_hits
    return results


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def format_table(results: dict) -> str:
    single = results["single_node"]
    cache = results["code_cache"]
    lines = [
        f"network scaling ({results['sim_seconds']}s simulated, "
        f"{results['topology']} topology):",
        f"  1-node kernel overhead: {single['kernel_overhead']}x "
        f"(Node.run {single['thread_free_wall_s']}s, "
        f"lockstep {single['lockstep_wall_s']}s)",
        f"  code cache: {cache['functions']} functions lowered once in "
        f"{cache['first_node_lowering_s']}s; an extra node lowered "
        f"{cache['extra_node_lowerings']}",
        f"{'nodes':>6} {'wall (s)':>9} {'stmts/s':>12} {'grants':>8} "
        f"{'delivered':>10}",
    ]
    for row in results["scaling"]:
        lines.append(f"{row['nodes']:>6} {row['wall_s']:>9} "
                     f"{row['statements_per_sec']:>12,} "
                     f"{row['grants']:>8,} "
                     f"{row['delivered_packets']:>10}")
    return "\n".join(lines)


def test_network_scale() -> None:
    """The lockstep kernel stays near the thread-free Node.run on one node.

    The overhead ceiling itself is asserted inside :func:`measure`, so the
    standalone CI invocation (``python benchmarks/bench_network_scale.py``)
    enforces it too.
    """
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    for row in results["scaling"]:
        assert row["statements"] > 0


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
