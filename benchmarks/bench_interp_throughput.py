"""Interpreter statement-throughput microbenchmark.

Measures statements/second for the reference tree-walking interpreter
("before") and the compile-to-closures engine (:mod:`repro.avrora.engine`)
on three workload shapes:

* ``tight_loop`` — a counting loop over a global accumulator,
* ``function_calls`` — a call-heavy loop exercising frames and returns,
* ``interrupt_heavy`` — a compute loop preempted by two hardware timers.

Every run asserts that both engines execute the *same* statement stream,
charge the *same* cycle totals, and — via an order-sensitive mixing global
updated by two competing interrupt handlers — deliver interrupts in the
*same* order: the speedup must come for free.  Results are recorded in
``BENCH_interp.json`` at the repository root (CI uploads it as an
artifact); run this module directly for a standalone measurement, or via
pytest as part of the benchmark suite.  A run keeps the file's
``perfbench`` section, which holds end-to-end measurements of the engine.

Each engine runs each workload ``REPEATS`` times, alternating, and the
table reports the median run: one run of about a second swings by up to
2x on a shared host.  A workload's speedup is the ratio of its medians,
and the floor applies to it.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the simulated window and run each
engine once (CI smoke mode) and ``REPRO_BENCH_MIN_SPEEDUP`` to tune the
asserted floor on every workload's speedup (the default is conservative
so a loaded CI machine does not flake; an idle machine shows about 4.5x).
"""

from __future__ import annotations

import json
import os
import statistics
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

#: Timed runs per engine and workload, reported as their median; 1 in
#: smoke mode.
REPEATS = 5

#: Asserted floor on every workload's speedup.  Kept below the observed
#: ~4.5x so a noisy CI machine does not flake; the recorded JSON carries
#: the real number.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

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


def _run(source: str, vectors: dict[str, str], engine: str,
         seconds: float) -> tuple[Node, float]:
    program = _build(source, vectors)
    node = Node(program, engine=engine)
    node.boot()
    start = time.perf_counter()
    node.run(seconds)
    elapsed = time.perf_counter() - start
    return node, elapsed


def _read_global(node: Node, name: str, ctype=ty.UINT32) -> int:
    obj = node.memory.global_object(name)
    assert obj is not None, f"global {name} missing"
    return node.memory.read(Pointer(obj, 0), ctype)


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _check_identical(name: str, tree_node: Node, compiled_node: Node) -> None:
    """The compiled engine must match the tree-walker exactly: same
    statements, same cycles, same interrupt count."""
    assert tree_node.busy_cycles == compiled_node.busy_cycles, \
        f"{name}: cycle totals diverge"
    assert tree_node.time_cycles == compiled_node.time_cycles, \
        f"{name}: simulated time diverges"
    assert tree_node.interpreter.statements_executed == \
        compiled_node.interpreter.statements_executed, \
        f"{name}: statement streams diverge"
    assert tree_node.interrupts_delivered == \
        compiled_node.interrupts_delivered, \
        f"{name}: interrupt delivery diverges"
    if name == "interrupt_heavy":
        # Micro-assert: the two timers' handlers mixed their identities
        # into ``order`` in exactly the same sequence — FIFO delivery
        # through the pending-interrupt deque is order-identical across
        # engines.
        assert _read_global(tree_node, "order") == \
            _read_global(compiled_node, "order"), \
            f"{name}: interrupt delivery order diverges"


def measure() -> dict:
    """Run every workload under both engines and return the table."""
    seconds = SMOKE_SECONDS if _smoke() else SIM_SECONDS
    repeats = 1 if _smoke() else REPEATS
    results: dict = {
        "sim_seconds": seconds,
        "repeats": repeats,
        "min_speedup_asserted": MIN_SPEEDUP,
        "workloads": {},
    }
    for name, (source, vectors) in WORKLOADS.items():
        tree_times: list[float] = []
        compiled_times: list[float] = []
        for _ in range(repeats):
            tree_node, tree_time = _run(source, vectors, "tree", seconds)
            compiled_node, compiled_time = _run(source, vectors, "compiled",
                                                seconds)
            _check_identical(name, tree_node, compiled_node)
            tree_times.append(tree_time)
            compiled_times.append(compiled_time)

        tree_time = statistics.median(tree_times)
        compiled_time = statistics.median(compiled_times)
        statements = tree_node.interpreter.statements_executed
        results["workloads"][name] = {
            "statements": statements,
            "busy_cycles": tree_node.busy_cycles,
            "interrupts_delivered": tree_node.interrupts_delivered,
            "tree_seconds": round(tree_time, 4),
            "compiled_seconds": round(compiled_time, 4),
            "tree_seconds_all": [round(t, 4) for t in tree_times],
            "compiled_seconds_all": [round(t, 4) for t in compiled_times],
            "tree_stmts_per_sec": round(statements / tree_time),
            "compiled_stmts_per_sec": round(statements / compiled_time),
            "speedup": round(tree_time / compiled_time, 2),
        }
    speedups = [w["speedup"] for w in results["workloads"].values()]
    results["min_speedup"] = min(speedups)
    results["max_speedup"] = max(speedups)
    return results


def _record(results: dict) -> None:
    """Write ``results``, keeping the file's ``perfbench`` section."""
    if RESULT_PATH.exists():
        perfbench = json.loads(RESULT_PATH.read_text()).get("perfbench")
        if perfbench is not None:
            results = {**results, "perfbench": perfbench}
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_interp_throughput() -> None:
    """The compiled engine is cycle-identical and substantially faster."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    assert results["min_speedup"] >= MIN_SPEEDUP, \
        f"compiled engine speedup {results['min_speedup']}x fell below " \
        f"the {MIN_SPEEDUP}x floor: {results['workloads']}"


def format_table(results: dict) -> str:
    lines = [
        f"interpreter throughput ({results['sim_seconds']}s simulated, "
        f"median of {results['repeats']} runs):",
        f"{'workload':<18} {'tree st/s':>12} {'compiled st/s':>14} "
        f"{'speedup':>8}",
    ]
    for name, row in results["workloads"].items():
        lines.append(
            f"{name:<18} {row['tree_stmts_per_sec']:>12,} "
            f"{row['compiled_stmts_per_sec']:>14,} {row['speedup']:>7}x")
    return "\n".join(lines)


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
