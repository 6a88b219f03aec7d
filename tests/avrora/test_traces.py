"""Execution traces of a call-heavy loop: compiled engine vs tree-walker.

The compiled engine lowers a callee once, on its own, and every call runs
through its CALL op; no trace splices the callee's body into the caller.
A call-heavy loop therefore runs the same statements at the same cycles
under both engines, and a lockstep horizon sentinel that lands inside the
callee pauses both at the same poll point.
"""

from __future__ import annotations

from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.cminor import typesys as ty

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program

ENGINES = ("tree", "compiled")

#: A call-heavy compute loop whose callee is branchy and call-free, with
#: one trailing return.  No events, so only run_until's horizon sentinel
#: can pause it.
LEAF_CALLS = """
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


def _node(engine: str) -> Node:
    node = Node(make_program(LEAF_CALLS), engine=engine)
    node.boot()
    return node


def _observe(node: Node) -> dict:
    obj = node.memory.global_object("acc")
    return {
        "time": node.time_cycles,
        "busy": node.busy_cycles,
        "sleep": node.sleep_cycles,
        "statements": node.interpreter.statements_executed,
        "interrupts": node.interrupts_delivered,
        "violations": node.memory_violations,
        "acc": node.memory.read(Pointer(obj, 0), ty.UINT32),
    }


class TestTraceDifferential:
    def test_pure_compute_identical_to_tree_and_no_trace(self):
        """The callee has a lowering of its own, which every call runs,
        and the run matches the tree-walker's."""
        results = {}
        for engine in ENGINES:
            node = _node(engine)
            node.run(0.05)
            results[engine] = _observe(node)
            if engine == "compiled":
                lowered = node.interpreter.code_cache.functions
                assert {"main", "mix"} <= set(lowered)
        assert results["tree"]["statements"] > 0
        assert results["tree"] == results["compiled"]

    def test_horizon_sentinel_pauses_at_same_poll_point(self):
        """Horizons every 99991 cycles land inside the loop and its
        callee: both engines pause at the same cycles, and the sliced run
        ends where one uninterrupted run does."""
        paused_times = {}
        results = {}
        for engine in ENGINES:
            single = _node(engine)
            single.run(0.2)

            sliced = _node(engine)
            sliced.begin_run(0.2)
            times = []
            horizon = 0
            status = "paused"
            while status == "paused":
                horizon += 99991
                status = sliced.run_until(horizon)
                times.append(sliced.time_cycles)
            assert len(times) > 1
            assert _observe(sliced) == _observe(single)
            paused_times[engine] = times
            results[engine] = _observe(sliced)
        assert paused_times["tree"] == paused_times["compiled"]
        assert results["tree"] == results["compiled"]
