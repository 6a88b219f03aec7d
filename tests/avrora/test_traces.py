"""Trace-level call inlining.

Trace superblocks splice leaf-callee bodies under the caller's poll-window
guard; every observable — cycle totals, statement counts, interrupt
delivery order, pause points, mid-burst faults — must be bit-identical to
the tree-walker and to the compiled engine with fusion disabled.
"""

from __future__ import annotations

import pytest

from repro.avrora.engine import CompiledEngine
from repro.avrora.memory import Pointer
from repro.avrora.node import Node, SafetyFault
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


#: A call-heavy compute loop whose callee is a textbook trace leaf: a
#: branchy, call-free body with one trailing return.  No events, so only
#: run_until's horizon sentinel can interrupt it.
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

#: The same trace shape preempted by a fast timer: interrupts land *inside*
#: the trace's cycle window, forcing the guard's slow path, and the handler
#: folds its delivery order into ``order`` so any reordering is visible.
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

#: A self-recursive callee: its body contains a call, so it has no leaf
#: cost and must run through the ordinary CALL machinery.
RECURSIVE_CALLS = """
uint32_t acc = 0;
uint16_t down(uint16_t n) {
  uint16_t r = 0;
  if (n > 0) { r = down(n - 1) + 1; }
  return r;
}
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    acc = acc + down(3);
    i = i + 1;
  }
}
"""

#: A callee that takes a local's address: flattening its frame into the
#: caller's slots would break the pointer, so it must not be inlined.
ADDRESS_TAKEN_CALLS = """
uint32_t acc = 0;
uint16_t bump(uint16_t n) {
  uint16_t x = n;
  uint16_t* p = &x;
  *p = *p + 1;
  return x;
}
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    acc = acc + bump(i);
    i = i + 1;
  }
}
"""

#: The two burst shapes around an inlined leaf call, each faulting (a null
#: dereference inside the inlined callee) in the middle of a burst: a
#: rotated loop, ``while (1) { if (!(i < N)) break; tail }``, and a bare
#: ``while (1) { tail }`` (the ``function_calls`` benchmark's shape).
_FAULTING_PICK = """
uint32_t acc = 0;
uint16_t cell = 7;
uint16_t pick(uint16_t n) {
  uint16_t* p = &cell;
  if (n == 3000) { p = 0; }
  return *p + n;
}
"""
MID_BURST_FAULTS = {
    "rotated_leaf_call": _FAULTING_PICK + """
__spontaneous void main(void) {
  uint16_t i;
  for (i = 0; i < 60000; i++) {
    acc = acc + pick(i);
  }
  __sleep();
}
""",
    "while1_leaf_call": _FAULTING_PICK + """
__spontaneous void main(void) {
  uint16_t i;
  while (1) {
    acc = acc + pick(i);
    i = i + 1;
  }
}
""",
}

#: (engine, superblocks): the tree-walker, the fused engine, and the
#: per-statement lowering every fused region must reproduce.
CONFIGURATIONS = (("tree", True), ("compiled", True), ("compiled", False))


def _node(source: str, engine: str = "compiled", superblocks: bool = True,
          vectors: dict | None = None, *,
          monkeypatch: pytest.MonkeyPatch) -> Node:
    """Build and boot one node with the fusion switch pinned.

    Traces build on superblocks, so the switch is pinned explicitly and
    these tests stay meaningful under CI legs that set
    ``REPRO_AVRORA_SUPERBLOCKS=0`` globally.
    """
    program = make_program(source)
    if vectors:
        program.interrupt_vectors.update(vectors)
    monkeypatch.setenv("REPRO_AVRORA_SUPERBLOCKS", "1" if superblocks else "0")
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


class TestTraceFormation:
    def test_leaf_calls_form_traces_and_run_inline(self, monkeypatch):
        node = _node(LEAF_CALLS, monkeypatch=monkeypatch)
        node.run(0.02)
        engine = node.interpreter._impl
        assert isinstance(engine, CompiledEngine)
        stats = engine.superblock_stats()
        assert stats["traces"] >= 1
        assert stats["inlined_call_sites"] >= 1
        assert stats["inlined_calls"] > 0

    def test_trace_switch_disables_inlining(self, monkeypatch):
        """Traces have no switch of their own: the fusion switch, which
        selects the per-statement reference lowering, turns them off."""
        node = _node(LEAF_CALLS, superblocks=False, monkeypatch=monkeypatch)
        node.run(0.02)
        stats = node.interpreter.superblock_stats()
        assert not stats["enabled"]
        assert stats["traces"] == 0
        assert stats["inlined_calls"] == 0

    def test_recursive_callee_not_inlined(self, monkeypatch):
        node = _node(RECURSIVE_CALLS, monkeypatch=monkeypatch)
        node.run(0.02)
        stats = node.interpreter.superblock_stats()
        assert stats["traces"] == 0
        assert stats["inlined_call_sites"] == 0
        assert stats["inlined_calls"] == 0

    def test_address_taken_callee_not_inlined(self, monkeypatch):
        node = _node(ADDRESS_TAKEN_CALLS, monkeypatch=monkeypatch)
        node.run(0.02)
        stats = node.interpreter.superblock_stats()
        assert stats["traces"] == 0
        assert stats["inlined_calls"] == 0


class TestTraceDifferential:
    def test_pure_compute_identical_to_tree_and_no_trace(self, monkeypatch):
        """The trace-free reference is the per-statement lowering."""
        results = []
        for engine, superblocks in CONFIGURATIONS:
            node = _node(LEAF_CALLS, engine=engine, superblocks=superblocks,
                         monkeypatch=monkeypatch)
            node.run(0.05)
            results.append((_observe(node), _read_u32(node, "acc")))
        assert results[0] == results[1] == results[2]

    def test_mid_trace_interrupt_delivered_at_identical_cycle(
            self, monkeypatch):
        vectors = {"TIMER1_COMPA": "fired"}
        results = []
        for engine, superblocks in CONFIGURATIONS:
            node = _node(LEAF_CALLS_INTERRUPTS, engine=engine,
                         superblocks=superblocks, vectors=vectors,
                         monkeypatch=monkeypatch)
            node.run(0.05)
            observed = _observe(node)
            assert observed["interrupts"] > 0
            results.append((observed, _read_u32(node, "order"),
                            _read_u32(node, "acc")))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", list(MID_BURST_FAULTS))
    def test_mid_burst_fault_identical_across_configurations(
            self, name, monkeypatch):
        """A fault inside an inlined callee mid-burst, under lockstep
        horizon slicing, leaves identical cycles, statement counts and
        globals in every configuration."""
        results = []
        for engine, superblocks in CONFIGURATIONS:
            node = _node(MID_BURST_FAULTS[name], engine=engine,
                         superblocks=superblocks, monkeypatch=monkeypatch)
            node.begin_run(1.0)
            horizon = 0
            with pytest.raises(SafetyFault, match="null pointer") as fault:
                while node.run_until(horizon) == "paused":
                    horizon += 99991
            results.append((_observe(node), _read_u32(node, "acc"),
                            str(fault.value)))
            if superblocks and engine == "compiled":
                stats = node.interpreter.superblock_stats()
                assert stats["burst_iterations"] > 0
                assert stats["inlined_calls"] > 0
        assert results[0] == results[1] == results[2]

    def test_horizon_sentinel_pauses_at_same_poll_point(self, monkeypatch):
        reference = _node(LEAF_CALLS, monkeypatch=monkeypatch)
        reference.run(0.2)

        sliced = _node(LEAF_CALLS, monkeypatch=monkeypatch)
        sliced.begin_run(0.2)
        horizon = 0
        status = "paused"
        while status == "paused":
            horizon += 99991
            status = sliced.run_until(horizon)
        assert _observe(sliced) == _observe(reference)
        assert _read_u32(sliced, "acc") == _read_u32(reference, "acc")

