"""Interrupt delivery and pause points: compiled engine vs tree-walker.

Both engines poll the node after every statement.  An interrupt that lands
inside a hot loop or inside a called function is therefore delivered at the
same cycle under both, and a lockstep horizon sentinel pauses the node at
the same poll point.  Each test runs its program under both engines and
compares cycles, statement and interrupt counts, and the program's globals;
the sliced tests also compare a run cut into horizon slices with one
uninterrupted run.  test_traces.py slices a call-heavy loop the same way.
"""

from __future__ import annotations

import pytest

from repro.avrora.memory import Pointer
from repro.avrora.node import Node, SafetyFault
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program

ENGINES = ("tree", "compiled")

#: A straight-line run of simple statements inside a hot loop, preempted by
#: a fast timer, so interrupts constantly land between its statements.
HOT_LOOP_INTERRUPTS = """
uint16_t ticks = 0;
uint32_t a = 0;
uint32_t b = 0;
uint32_t c = 0;
__interrupt("TIMER1_COMPA") void fired(void) {
  ticks = ticks + 1;
  c = c + a + b;
}
__spontaneous void main(void) {
  uint16_t i;
  __hw_write16(%d, 2);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    for (i = 0; i < 40; i++) {
      a = a + 1;
      b = b + a;
      a = a ^ b;
      b = b + 3;
    }
  }
}
""" % (hw.TIMER_RATE, hw.TIMER_CTRL)

#: A pure compute loop (no sleep, no events): only run_until's horizon
#: sentinel can pause it.
COMPUTE_ONLY = """
uint32_t acc = 0;
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    for (i = 0; i < 100; i++) {
      acc = acc + i;
      acc = acc ^ 21845;
    }
  }
}
"""

#: A call-heavy compute loop preempted by a fast timer, so interrupts land
#: inside the branchy, call-free callee; the handler folds its delivery
#: order into ``order``, so any reordering is visible.
LEAF_CALLS_INTERRUPTS = """
uint16_t ticks = 0;
uint32_t order = 1;
uint32_t acc = 0;
__interrupt("TIMER1_COMPA") void fired(void) {
  ticks = ticks + 1;
  order = (order * 33 + acc) %% 65521;
}
__spontaneous void main(void) {
  uint16_t i;
  __hw_write16(%d, 2);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    acc = acc + mix(i, (uint16_t)(acc & 255));
    i = i + 1;
  }
}
uint16_t mix(uint16_t a, uint16_t b) {
  uint16_t r = a * 3 + b;
  if (r > 900) { r = r - 900; }
  return r;
}
""" % (hw.TIMER_RATE, hw.TIMER_CTRL)

#: A callee that dereferences a null pointer on its 3000th call, in the
#: two loop shapes the parser emits: a rotated loop,
#: ``while (1) { if (!(i < N)) break; tail }``, and a bare
#: ``while (1) { tail }``.
_FAULTING_PICK = """
uint32_t acc = 0;
uint16_t cell = 7;
uint16_t pick(uint16_t n) {
  uint16_t* p = &cell;
  if (n == 3000) { p = 0; }
  return *p + n;
}
"""
NULL_POINTER_FAULTS = {
    "rotated_loop_call": _FAULTING_PICK + """
__spontaneous void main(void) {
  uint16_t i;
  for (i = 0; i < 60000; i++) {
    acc = acc + pick(i);
  }
  __sleep();
}
""",
    "while1_loop_call": _FAULTING_PICK + """
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    acc = acc + pick(i);
    i = i + 1;
  }
}
""",
}

TIMER_VECTORS = {"TIMER1_COMPA": "fired"}


def _node(source: str, engine: str, vectors: dict | None = None) -> Node:
    program = make_program(source)
    if vectors:
        program.interrupt_vectors.update(vectors)
    node = Node(program, engine=engine)
    node.boot()
    return node


def _observe(node: Node) -> dict:
    return {
        "time": node.time_cycles,
        "busy": node.busy_cycles,
        "sleep": node.sleep_cycles,
        "statements": node.interpreter.statements_executed,
        "interrupts": node.interrupts_delivered,
        "violations": node.memory_violations,
    }


def _read_u32(node: Node, name: str) -> int:
    obj = node.memory.global_object(name)
    return node.memory.read(Pointer(obj, 0), ty.UINT32)


def _run_sliced(node: Node, seconds: float, step: int,
                max_slices: int | None = None) -> list[int]:
    """Run ``node`` in horizon slices of ``step`` cycles; the pause times."""
    node.begin_run(seconds)
    times = []
    horizon = 0
    status = "paused"
    while status == "paused" and (max_slices is None
                                  or len(times) < max_slices):
        horizon += step
        status = node.run_until(horizon)
        times.append(node.time_cycles)
    return times


class TestInterruptDelivery:
    def test_hot_loop_interrupt_delivers_at_identical_cycle(self):
        """A timer landing between a hot loop's statements: delivery time,
        handler effects and statement stream match."""
        results = {}
        for engine in ENGINES:
            node = _node(HOT_LOOP_INTERRUPTS, engine, TIMER_VECTORS)
            node.run(0.2)
            results[engine] = (_observe(node), _read_u32(node, "c"))
        assert results["tree"][0]["interrupts"] > 0
        assert results["tree"] == results["compiled"]

    def test_interrupt_inside_a_call_delivers_at_identical_cycle(self):
        results = {}
        for engine in ENGINES:
            node = _node(LEAF_CALLS_INTERRUPTS, engine, TIMER_VECTORS)
            node.run(0.05)
            observed = _observe(node)
            assert observed["interrupts"] > 0
            results[engine] = (observed, _read_u32(node, "order"),
                               _read_u32(node, "acc"))
        assert results["tree"] == results["compiled"]


class TestHorizonPauses:
    @pytest.mark.parametrize("horizon_step", [104729, 31337])
    def test_horizon_sentinel_mid_loop_pauses_at_same_poll_point(
            self, horizon_step):
        """run_until horizons that land inside a loop body pause both
        engines at the same poll point."""
        paused_times = {}
        for engine in ENGINES:
            node = _node(COMPUTE_ONLY, engine)
            paused_times[engine] = _run_sliced(node, 0.5, horizon_step,
                                               max_slices=25)
            node.abort_run()
        assert paused_times["tree"] == paused_times["compiled"]

    @pytest.mark.parametrize("source, seconds, step", [
        (COMPUTE_ONLY, 0.3, 77777),
    ], ids=["compute_loop"])
    def test_sliced_and_single_runs_identical(self, source, seconds, step):
        """Arbitrary horizon slicing changes nothing, under either
        engine, and both engines end in the same state."""
        results = {}
        for engine in ENGINES:
            single = _node(source, engine)
            single.run(seconds)
            sliced = _node(source, engine)
            _run_sliced(sliced, seconds, step)
            observed = (_observe(sliced), _read_u32(sliced, "acc"))
            assert observed == (_observe(single), _read_u32(single, "acc"))
            results[engine] = observed
        assert results["tree"] == results["compiled"]

    @pytest.mark.parametrize("name", list(NULL_POINTER_FAULTS))
    def test_null_pointer_fault_under_slicing_identical(self, name):
        """A fault inside a callee, under lockstep horizon slicing, leaves
        identical cycles, statement counts and globals."""
        results = {}
        for engine in ENGINES:
            node = _node(NULL_POINTER_FAULTS[name], engine)
            with pytest.raises(SafetyFault, match="null pointer") as fault:
                _run_sliced(node, 1.0, 99991)
            results[engine] = (_observe(node), _read_u32(node, "acc"),
                               str(fault.value))
        assert results["tree"] == results["compiled"]
