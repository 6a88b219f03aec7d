"""Interpreter statement-throughput microbenchmark.

Measures statements/second for the reference tree-walking interpreter
("before") and the compile-to-closures engine (:mod:`repro.avrora.engine`)
— with superblock fusion and trace-level call inlining (the default), and
with fusion disabled entirely (``REPRO_AVRORA_SUPERBLOCKS=0``, the
per-statement lowering) — on three workload shapes:

* ``tight_loop`` — a counting loop over a global accumulator,
* ``function_calls`` — a call-heavy loop exercising frames and returns,
* ``interrupt_heavy`` — a compute loop preempted by two hardware timers.

Every run asserts that all three configurations execute the *same*
statement stream, charge the *same* cycle totals, and — via an
order-sensitive mixing global updated by two competing interrupt handlers
— deliver interrupts in the *same* order: the speedup must come for free.
Results (including the engine's superblock hit-rate statistics) are
recorded in ``BENCH_interp.json`` at the repository root (CI uploads it as
an artifact); run this module directly for a standalone measurement, or
via pytest as part of the benchmark suite.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the simulated window (CI smoke
mode), ``REPRO_BENCH_MIN_SPEEDUP`` to tune the asserted fusion-off floor,
``REPRO_BENCH_MIN_SPEEDUP_FUSED`` to tune the asserted best-workload
floor with fusion on, and ``REPRO_BENCH_MIN_SPEEDUP_CALLS`` to tune the
per-workload floor on ``function_calls`` with traces on (the defaults are
conservative so a loaded CI machine does not flake; an idle machine shows
~5x unfused, well above 8x fused on the loop workloads, and ~8x on
``function_calls`` once traces inline the callee).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.cminor import typesys as ty
from repro.cminor.parser import parse_program
from repro.cminor.program import Program, link_units
from repro.cminor.typecheck import check_program
from repro.tinyos import hardware as hw

#: Simulated seconds per engine per workload (CPU-bound, so this bounds the
#: number of executed statements, not wall-clock time).
SIM_SECONDS = 2.0
SMOKE_SECONDS = 0.25

#: Asserted speedup floor with fusion *disabled* (the pre-superblock
#: engine).  Kept below the observed ~5x so a noisy CI machine does not
#: flake; the recorded JSON carries the real number.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

#: Asserted floor on the *best* workload's speedup with fusion enabled.
MIN_SPEEDUP_FUSED = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_FUSED", "6.0"))

#: Asserted per-workload floor on ``function_calls`` with traces enabled
#: (the call-boundary workload traces were built for; the recorded JSON
#: from an idle machine clears 7x).
MIN_SPEEDUP_CALLS = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_CALLS", "4.0"))

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

TIGHT_LOOP = """
uint32_t total = 0;
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    for (i = 0; i < 1000; i++) {
      total = total + i;
    }
  }
}
"""

FUNCTION_CALLS = """
uint32_t acc = 0;
uint16_t mix(uint16_t a, uint16_t b) {
  uint16_t r = a * 3 + b;
  if (r > 900) { r = r - 900; }
  return r;
}
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    acc = acc + mix(i, (uint16_t)(acc & 255));
    i = i + 1;
  }
}
"""

# Two competing timers whose handlers fold their identity into one
# order-sensitive mixing global: ``order`` only matches across engines if
# every interrupt was delivered in exactly the same FIFO order (the
# micro-assert guarding ``Node.pending_interrupts``'s deque semantics).
INTERRUPT_HEAVY = """
uint16_t ticks = 0;
uint16_t micks = 0;
uint32_t order = 1;
uint32_t work = 0;
__interrupt("TIMER1_COMPA") void fired(void) {
  ticks = ticks + 1;
  order = (order * 33 + 1) %% 65521;
}
__interrupt("TIMER3_COMPA") void micro_fired(void) {
  micks = micks + 1;
  order = (order * 33 + 2) %% 65521;
}
__spontaneous void main(void) {
  uint16_t i;
  __hw_write16(%d, 2);
  __hw_write8(%d, 1);
  __hw_write16(%d, 3);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    for (i = 0; i < 50; i++) {
      work = work + i;
    }
  }
}
""" % (hw.TIMER_RATE, hw.TIMER_CTRL, hw.MICROTIMER_RATE, hw.MICROTIMER_CTRL)

WORKLOADS: dict[str, tuple[str, dict[str, str]]] = {
    "tight_loop": (TIGHT_LOOP, {}),
    "function_calls": (FUNCTION_CALLS, {}),
    "interrupt_heavy": (INTERRUPT_HEAVY, {"TIMER1_COMPA": "fired",
                                          "TIMER3_COMPA": "micro_fired"}),
}


def _build(source: str, vectors: dict[str, str]) -> Program:
    unit = parse_program(source, "bench")
    program = link_units([unit], name="bench")
    check_program(program)
    program.interrupt_vectors.update(vectors)
    return program


def _make_node(program: Program, engine: str, superblocks: bool) -> Node:
    """A node with the fusion switch pinned (not inherited from the
    caller's environment), restored after engine construction reads it."""
    previous = os.environ.get("REPRO_AVRORA_SUPERBLOCKS")
    os.environ["REPRO_AVRORA_SUPERBLOCKS"] = "1" if superblocks else "0"
    try:
        return Node(program, engine=engine)
    finally:
        if previous is None:
            os.environ.pop("REPRO_AVRORA_SUPERBLOCKS", None)
        else:
            os.environ["REPRO_AVRORA_SUPERBLOCKS"] = previous


def _run(source: str, vectors: dict[str, str], engine: str, seconds: float,
         superblocks: bool = True) -> tuple[Node, float]:
    program = _build(source, vectors)
    node = _make_node(program, engine, superblocks)
    node.boot()
    start = time.perf_counter()
    node.run(seconds)
    elapsed = time.perf_counter() - start
    return node, elapsed


def _read_global(node: Node, name: str, ctype=ty.UINT32) -> int:
    obj = node.memory.global_object(name)
    assert obj is not None, f"global {name} missing"
    return node.memory.read(Pointer(obj, 0), ctype)


def _sim_seconds() -> float:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return SMOKE_SECONDS
    return SIM_SECONDS


def measure() -> dict:
    """Run every workload under all three configurations (tree-walker,
    compiled with superblocks, compiled without) and return the table."""
    seconds = _sim_seconds()
    results: dict = {
        "sim_seconds": seconds,
        "min_speedup_asserted": MIN_SPEEDUP,
        "min_speedup_fused_asserted": MIN_SPEEDUP_FUSED,
        "min_speedup_calls_asserted": MIN_SPEEDUP_CALLS,
        "workloads": {},
    }
    for name, (source, vectors) in WORKLOADS.items():
        tree_node, tree_time = _run(source, vectors, "tree", seconds)
        compiled_node, compiled_time = _run(source, vectors, "compiled",
                                            seconds)
        nosb_node, nosb_time = _run(source, vectors, "compiled", seconds,
                                    superblocks=False)

        # Every compiled configuration must match the tree-walker exactly:
        # same statements, same cycles, same interrupt count.
        for label, node in (("compiled", compiled_node),
                            ("compiled/nosb", nosb_node)):
            assert tree_node.busy_cycles == node.busy_cycles, \
                f"{name} ({label}): cycle totals diverge"
            assert tree_node.time_cycles == node.time_cycles, \
                f"{name} ({label}): simulated time diverges"
            assert tree_node.interpreter.statements_executed == \
                node.interpreter.statements_executed, \
                f"{name} ({label}): statement streams diverge"
            assert tree_node.interrupts_delivered == \
                node.interrupts_delivered, \
                f"{name} ({label}): interrupt delivery diverges"
            if name == "interrupt_heavy":
                # Micro-assert: the two timers' handlers mixed their
                # identities into ``order`` in exactly the same sequence —
                # FIFO delivery through the pending-interrupt deque is
                # order-identical across engines and fusion modes.
                assert _read_global(tree_node, "order") == \
                    _read_global(node, "order"), \
                    f"{name} ({label}): interrupt delivery order diverges"

        statements = tree_node.interpreter.statements_executed
        superblocks = compiled_node.interpreter.superblock_stats()
        results["workloads"][name] = {
            "statements": statements,
            "busy_cycles": tree_node.busy_cycles,
            "interrupts_delivered": tree_node.interrupts_delivered,
            "tree_seconds": round(tree_time, 4),
            "compiled_seconds": round(compiled_time, 4),
            "compiled_nosb_seconds": round(nosb_time, 4),
            "tree_stmts_per_sec": round(statements / tree_time),
            "compiled_stmts_per_sec": round(statements / compiled_time),
            "compiled_nosb_stmts_per_sec": round(statements / nosb_time),
            "speedup": round(tree_time / compiled_time, 2),
            "speedup_nosb": round(tree_time / nosb_time, 2),
            "superblocks": {
                "superblocks": superblocks["superblocks"],
                "loop_superblocks": superblocks["loop_superblocks"],
                "traces": superblocks["traces"],
                "inlined_call_sites": superblocks["inlined_call_sites"],
                "inlined_calls": superblocks["inlined_calls"],
                "entries_fast": superblocks["entries_fast"],
                "entries_slow": superblocks["entries_slow"],
                "bursts": superblocks["bursts"],
                "burst_iterations": superblocks["burst_iterations"],
                "fused_statements": superblocks["fused_statements"],
                "fused_fraction": superblocks["fused_fraction"],
            },
        }
    speedups = [w["speedup"] for w in results["workloads"].values()]
    speedups_nosb = [w["speedup_nosb"]
                     for w in results["workloads"].values()]
    results["min_speedup"] = min(speedups)
    results["max_speedup"] = max(speedups)
    results["min_speedup_nosb"] = min(speedups_nosb)
    results["max_speedup_nosb"] = max(speedups_nosb)
    return results


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_interp_throughput() -> None:
    """The compiled engine is cycle-identical and substantially faster,
    with and without superblock fusion."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    assert results["min_speedup_nosb"] >= MIN_SPEEDUP, \
        f"fusion-off engine speedup {results['min_speedup_nosb']}x fell " \
        f"below the {MIN_SPEEDUP}x floor: {results['workloads']}"
    assert results["min_speedup"] >= MIN_SPEEDUP, \
        f"compiled engine speedup {results['min_speedup']}x fell below " \
        f"the {MIN_SPEEDUP}x floor: {results['workloads']}"
    assert results["max_speedup"] >= MIN_SPEEDUP_FUSED, \
        f"best fused speedup {results['max_speedup']}x fell below the " \
        f"{MIN_SPEEDUP_FUSED}x floor: {results['workloads']}"
    calls = results["workloads"]["function_calls"]
    assert calls["speedup"] >= MIN_SPEEDUP_CALLS, \
        f"function_calls speedup {calls['speedup']}x fell below the " \
        f"per-workload {MIN_SPEEDUP_CALLS}x floor (traces formed: " \
        f"{calls['superblocks']['traces']}): {calls}"


def format_table(results: dict) -> str:
    lines = [
        f"interpreter throughput ({results['sim_seconds']}s simulated):",
        f"{'workload':<18} {'tree st/s':>12} {'no-fuse st/s':>13} "
        f"{'fused st/s':>12} {'speedup':>8} {'fused %':>8}",
    ]
    for name, row in results["workloads"].items():
        fused_pct = row["superblocks"]["fused_fraction"] * 100
        lines.append(
            f"{name:<18} {row['tree_stmts_per_sec']:>12,} "
            f"{row['compiled_nosb_stmts_per_sec']:>13,} "
            f"{row['compiled_stmts_per_sec']:>12,} {row['speedup']:>7}x "
            f"{fused_pct:>7.1f}%")
    return "\n".join(lines)


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
