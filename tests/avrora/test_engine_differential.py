"""Differential test: compiled engine vs reference tree-walker.

The compile-to-closures engine (:mod:`repro.avrora.engine`) must be an
*observationally identical* replacement for the tree-walking interpreter:
same cycle totals, same interrupt delivery, same memory-safety verdicts,
same ``__error_report`` output, same radio traffic.  This module enforces
that on every application in the paper's figure suite plus a set of
hand-written semantic edge cases.  Loops written in C's other forms, which
the parser normalizes to ``while (1)``, are also checked against results
worked out by hand.
"""

from __future__ import annotations

import pytest

from repro.api.workbench import Workbench
from repro.avrora.memory import Pointer
from repro.avrora.network import Network
from repro.avrora.node import Node
from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE, SAFE_FLID

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program

#: Simulated seconds per engine per application (short but long enough for
#: timers, traffic injection, and interrupt delivery to all fire).
SIM_SECONDS = 0.5


def _observe(node: Node, network: Network) -> dict:
    """Everything an engine run exposes that must match across engines."""
    return {
        "busy_cycles": node.busy_cycles,
        "sleep_cycles": node.sleep_cycles,
        "time_cycles": node.time_cycles,
        "statements": node.interpreter.statements_executed,
        "interrupts": node.interrupts_delivered,
        "memory_violations": node.memory_violations,
        "halted": node.halted,
        "halt_code": node.halt_code,
        "failures": [(f.message, f.flid, f.time_cycles)
                     for f in node.failures],
        "led_changes": node.leds.state.changes,
        "radio_sent": list(node.radio.packets_sent),
        "radio_received": node.radio.packets_received,
        "radio_dropped": node.radio.packets_dropped,
        "delivered_packets": network.delivered_packets,
    }


def _simulate(program, app_name: str, engine: str,
              thread_free: bool = False) -> dict:
    network = Network(traffic=duty_cycle_context(app_name))
    node = Node(program, engine=engine)
    node.boot()
    network.add_node(node)
    if thread_free:
        node.run(SIM_SECONDS)
    else:
        network.run(SIM_SECONDS)
    return _observe(node, network)


@pytest.mark.parametrize("app_name", FIGURE_APPS)
def test_figure_apps_identical_under_both_engines(app_name):
    """Unsafe baseline builds: cycle counts and traffic match exactly.

    Also the single-node acceptance bar for the lockstep kernel: the
    default ``Network.run`` (lockstep, resumable execution thread) must be
    byte-identical to the thread-free ``Node.run`` reference for every
    figure application — same busy/sleep cycles, failure records, LED
    history and radio traffic.
    """
    build = Workbench().build_result(app_name, BASELINE)
    tree = _simulate(build.program, app_name, "tree")
    compiled = _simulate(build.program, app_name, "compiled")
    assert tree == compiled
    reference = _simulate(build.program, app_name, "compiled",
                          thread_free=True)
    assert compiled == reference


@pytest.mark.parametrize("app_name", ["Oscilloscope_Mica2", "Surge_Mica2"])
def test_safe_builds_identical_under_both_engines(app_name):
    """Safe (FLID) builds: concrete safety checks behave identically."""
    build = Workbench().build_result(app_name, SAFE_FLID)
    tree = _simulate(build.program, app_name, "tree")
    compiled = _simulate(build.program, app_name, "compiled")
    assert tree == compiled
    reference = _simulate(build.program, app_name, "compiled",
                          thread_free=True)
    assert compiled == reference


#: Hand-written programs targeting the engine's trickiest lowering paths:
#: loop control flow, atomic unwinding, recursion, aggregate locals, string
#: data, out-of-bounds absorption, and the CCured failure/halt path, plus
#: nested loops, out-of-bounds accesses inside a loop body, and a callee
#: made of declarations.
EDGE_PROGRAMS = {
    "loops_and_breaks": """
uint16_t out = 0;
__spontaneous void main(void) {
  uint8_t i;
  uint8_t j = 0;
  for (i = 0; i < 20; i++) {
    if (i == 5) { continue; }
    if (i == 15) { break; }
    out = out + i;
  }
  do {
    j = j + 1;
    if (j > 3) { break; }
  } while (1);
  while (j < 200) {
    j = j + 7;
    if (j > 100) { continue; }
    out = out + 1;
  }
  __sleep();
}
""",
    "atomic_unwind": """
uint16_t shared = 0;
uint16_t runs = 0;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 10; i++) {
    atomic {
      shared = shared + 1;
      if (i == 4) { continue; }
      if (i == 8) { break; }
      shared = shared + 1;
    }
    runs = runs + 1;
  }
  __sleep();
}
""",
    "recursion_and_frames": """
uint16_t result;
uint16_t fib(uint8_t n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
__spontaneous void main(void) {
  result = fib(12);
  __sleep();
}
""",
    "aggregates_and_strings": """
struct rec { uint16_t key; uint8_t data[4]; };
struct rec table[3];
uint16_t sum = 0;
uint8_t first;
__spontaneous void main(void) {
  uint8_t i;
  char* s = "engine";
  struct rec* p;
  for (i = 0; i < 3; i++) {
    table[i].key = (uint16_t)(i * 10);
    table[i].data[1] = i;
  }
  p = &table[1];
  p->key = p->key + 1;
  for (i = 0; i < 3; i++) {
    sum = sum + table[i].key + table[i].data[1];
  }
  first = (uint8_t)s[0];
  __sleep();
}
""",
    "oob_absorbed": """
uint8_t buffer[4];
uint8_t index = 9;
uint8_t sink;
__spontaneous void main(void) {
  buffer[index] = 42;
  sink = buffer[index];
  __sleep();
}
""",
    "check_failure_halts": """
uint8_t buffer[4];
__spontaneous void main(void) {
  if (!__bounds_ok(&buffer[0] + 6, 1)) {
    __error_report_id(77);
    __halt(1);
  }
  __sleep();
}
""",
    "nested_rotated_loops": """
uint32_t out = 0;
__spontaneous void main(void) {
  uint16_t i;
  uint16_t j;
  for (i = 0; i < 60; i++) {
    for (j = 0; j < 30; j++) {
      out = out + j;
    }
    out = out ^ i;
  }
  __sleep();
}
""",
    "oob_inside_loop": """
uint8_t buffer[4];
uint8_t index = 7;
uint16_t sum = 0;
uint8_t sink = 0;
__spontaneous void main(void) {
  uint16_t i;
  for (i = 0; i < 50; i++) {
    buffer[index] = (uint8_t)i;
    sink = buffer[index];
    sum = sum + sink;
  }
  __sleep();
}
""",
    "vardecls_in_callee": """
uint32_t total = 0;
uint16_t helper(uint16_t n) {
  uint16_t base = n * 3;
  uint16_t twist = base ^ 5;
  uint16_t mix = twist + base;
  return mix;
}
__spontaneous void main(void) {
  uint16_t i;
  for (i = 0; i < 40; i++) {
    total = total + helper(i);
  }
  __sleep();
}
""",
}


@pytest.mark.parametrize("name", list(EDGE_PROGRAMS))
def test_edge_programs_identical_under_both_engines(name):
    source = EDGE_PROGRAMS[name]
    results = {}
    for engine in ("tree", "compiled"):
        program = make_program(source)
        network = Network()
        node = Node(program, engine=engine)
        node.boot()
        network.add_node(node)
        network.run(0.05)
        results[engine] = _observe(node, network)
    assert results["tree"] == results["compiled"]


#: Source loops in C's other forms — ``for``, ``do``/``while`` and a
#: conditional ``while``, which the parser rewrites to ``while (1)`` — with
#: the scalar globals C leaves behind, worked out by hand from C semantics.
UNSIMPLIFIED_LOOPS = {
    # i = 0..39; the ten i = 1 (mod 4) take the continue, so
    # i == 33 never breaks: skipped = 10, out = 780 - (1 + 5 + ... + 37).
    "for_with_continue": ("""
uint16_t out = 0;
uint8_t skipped = 0;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 40; i++) {
    if ((i & 3) == 1) { skipped = skipped + 1; continue; }
    if (i == 33) { break; }
    out = out + i;
  }
  __sleep();
}
""", {"out": 590, "skipped": 10}),
    # n = 1..25, folding out = out * 3 + n (mod 2^16) for every n but 4.
    "do_while": ("""
uint16_t out = 0;
uint8_t n = 0;
__spontaneous void main(void) {
  do {
    n = n + 1;
    if (n == 4) { continue; }
    out = out * 3 + n;
  } while (n < 25);
  __sleep();
}
""", {"out": 46069, "n": 25}),
    # A continue jumps to the test: i < 3 fails at i == 3, so the body
    # never reaches x = x + 1.
    "do_while_continue_runs_the_test": ("""
uint8_t i = 0;
uint8_t x = 0;
__spontaneous void main(void) {
  do {
    i = i + 1;
    if (i < 5) { continue; }
    x = x + 1;
  } while (i < 3);
  __sleep();
}
""", {"i": 3, "x": 0}),
    # n = 1: the for skips j == 1 (inner 3), out = 1.  n = 2: the for
    # skips j == 2 (inner 6), then the continue runs the test, which ends
    # the loop.
    "for_in_do_while_with_continues": ("""
uint8_t n = 0;
uint8_t inner = 0;
uint8_t out = 0;
__spontaneous void main(void) {
  uint8_t j;
  do {
    n = n + 1;
    for (j = 0; j < 4; j++) {
      if (j == n) { continue; }
      inner = inner + 1;
    }
    if (n == 2) { continue; }
    out = out + n;
  } while (n < 2);
  __sleep();
}
""", {"n": 2, "inner": 6, "out": 1}),
    # k = 3, 6, ..., 18 add up to 63; k = 21 breaks.
    "for_ever_with_break": ("""
uint16_t k = 0;
uint16_t out = 0;
__spontaneous void main(void) {
  for (;;) {
    k = k + 3;
    if (k > 20) { break; }
    out = out + k;
  }
  __sleep();
}
""", {"k": 21, "out": 63}),
    # count = 1..5 add up to 15; count = 6 breaks out of the atomic
    # section, which must leave interrupts enabled again.
    "while_left_from_atomic": ("""
uint8_t count = 0;
uint16_t total = 0;
__spontaneous void main(void) {
  while (count < 10) {
    count = count + 1;
    atomic {
      if (count == 6) { break; }
      total = total + count;
    }
  }
  __sleep();
}
""", {"count": 6, "total": 15}),
    # The body's x is a new variable; the update and the test read the
    # global, so three iterations run.
    "for_body_local_shadows_the_counter": ("""
uint8_t x = 0;
uint8_t n = 0;
__spontaneous void main(void) {
  for (x = 0; x < 3; x = x + 1) {
    uint8_t x = 7;
    n = n + 1;
  }
  __sleep();
}
""", {"x": 3, "n": 3}),
    # Each for declares its own i: 2 + 3 iterations.
    "two_for_declarations_in_one_block": ("""
uint8_t n = 0;
__spontaneous void main(void) {
  for (uint8_t i = 0; i < 2; i++) { n = n + 1; }
  for (uint8_t i = 0; i < 3; i++) { n = n + 1; }
  __sleep();
}
""", {"n": 5}),
    # The test reads the outer i (0), not the body's (9): one iteration.
    "do_while_test_outside_the_body_scope": ("""
uint8_t n = 0;
__spontaneous void main(void) {
  uint8_t i = 0;
  do {
    uint8_t i = 9;
    n = n + 1;
  } while (i > 0);
  __sleep();
}
""", {"n": 1}),
    # j = 7, 14, ..., 301: out = 7 ^ 14 ^ ... ^ 301.
    "nonconstant_while": ("""
uint16_t out = 0;
uint16_t j = 0;
__spontaneous void main(void) {
  while (j < 300) {
    j = j + 7;
    out = out ^ j;
  }
  __sleep();
}
""", {"out": 276, "j": 301}),
}


def _globals(node: Node) -> dict:
    return {name: node.memory.read(Pointer(node.memory.global_object(name),
                                           0), var.ctype)
            for name, var in node.program.globals.items()
            if var.ctype.is_scalar()}


@pytest.mark.parametrize("name", list(UNSIMPLIFIED_LOOPS))
def test_unsimplified_loops_identical_under_both_engines(name):
    """Loops written as ``for``, ``do``/``while`` or conditional ``while``
    end with the globals C gives them under both engines, with equal
    statement and cycle counts."""
    source, expected = UNSIMPLIFIED_LOOPS[name]
    results = {}
    for engine in ("tree", "compiled"):
        program = make_program(source)
        node = Node(program, engine=engine)
        node.boot()
        node.run(0.05)
        assert _globals(node) == expected, engine
        assert node.atomic_depth == 0
        results[engine] = (
            node.interpreter.statements_executed, node.busy_cycles,
            node.time_cycles)
    assert len(set(results.values())) == 1, results


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_address_initializers_bind_the_live_object(engine):
    """Boot allocates every global before it applies any initializer, so
    ``tp[0]`` points at the ``p`` the program uses: writing through it
    moves ``p``."""
    program = make_program("""
uint8_t a = 3;
uint8_t b = 5;
uint8_t *p = &b;
uint8_t **tp[1] = { &p };
uint8_t out = 0;
__spontaneous void main(void) {
  *tp[0] = &a;
  out = *p;
  __sleep();
}
""")
    node = Node(program, engine=engine)
    node.boot()
    node.run(0.01)
    assert _globals(node)["out"] == 3


def test_arity_mismatch_raises_for_both_engines():
    """A call with the wrong argument count fails loudly, not silently."""
    source = """
uint16_t add(uint16_t a, uint16_t b) { return a + b; }
__spontaneous void main(void) { __sleep(); }
"""
    for engine in ("tree", "compiled"):
        program = make_program(source)
        node = Node(program, engine=engine)
        node.boot()
        with pytest.raises(TypeError, match="argument"):
            node.interpreter.call("add", [1])
        assert node.interpreter.call("add", [1, 2]) == 3


def test_lossy_lockstep_chain_identical_across_all_configurations():
    """Seeded 3-node lossy chain: tree vs compiled.

    Cross-node packet timing, per-node cycle totals and channel loss
    decisions must be byte-identical under both engines, under the full
    lockstep kernel with a lossy seeded channel.
    """
    from repro.avrora.network import Channel

    app_name = "Surge_Mica2"
    build = Workbench().build_result(app_name, BASELINE)

    def run_chain(engine: str) -> list[dict]:
        network = Network(traffic=duty_cycle_context(app_name),
                          channel=Channel(topology="chain", loss=0.2,
                                          seed=7))
        for index in range(3):
            node = Node(build.program, node_id=index, engine=engine)
            node.boot()
            network.add_node(node)
        network.run(SIM_SECONDS)
        return [_observe(node, network) for node in network.nodes]

    assert run_chain("tree") == run_chain("compiled")
