"""The compiled engine's shared code cache.

One :class:`~repro.avrora.engine.CodeCache` lowers every function once for
all the nodes that share it, on any thread, and drops its lowerings when a
pass changes the program.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.workbench import run_network
from repro.avrora import interp
from repro.avrora.engine import CodeCache, _FunctionCompiler
from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


#: A pure compute loop (no sleep, no events).
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


#: Several functions for the code-cache tests: ``step`` is called inside an
#: expression, ``mix`` through CALL ops, ``fired`` as an interrupt handler.
CALLS_AND_INTERRUPTS = """
uint16_t ticks = 0;
uint32_t acc = 0;
uint16_t step(uint16_t x) { return x + 3; }
void mix(uint16_t x) {
  acc = acc + step(x);
  acc = acc ^ x;
}
__interrupt("TIMER1_COMPA") void fired(void) {
  ticks = ticks + 1;
  mix(ticks);
}
__spontaneous void main(void) {
  uint16_t i;
  __hw_write16(%d, 2);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    for (i = 0; i < 40; i++) {
      mix(i);
    }
  }
}
""" % (hw.TIMER_RATE, hw.TIMER_CTRL)


def _calls_program():
    program = make_program(CALLS_AND_INTERRUPTS)
    program.interrupt_vectors.update({"TIMER1_COMPA": "fired"})
    return program


def _network_observation(network) -> list:
    return [(_observe(node), _read_u32(node, "acc"))
            for node in network.nodes]


@pytest.fixture
def count_lowerings(monkeypatch):
    """Every function the back end lowers, by (program, name), in order."""
    lowered = []
    compile_ = _FunctionCompiler.compile

    def counting(compiler):
        lowered.append((id(compiler.program), compiler.func.name))
        return compile_(compiler)

    monkeypatch.setattr(_FunctionCompiler, "compile", counting)
    # run_network builds nodes on the default engine; these tests are
    # about the compiled engine's cache under every CI leg.
    monkeypatch.setattr(interp, "DEFAULT_ENGINE", "compiled")
    return lowered


class TestCodeCache:
    def test_every_node_of_a_network_lowers_each_function_once(
            self, count_lowerings):
        network = run_network(_calls_program(), seconds=0.05, node_count=8)
        cache = network.nodes[0].interpreter.code_cache
        assert all(node.interpreter.code_cache is cache
                   for node in network.nodes)
        names = [name for _, name in count_lowerings]
        assert sorted(names) == sorted(set(names)), "a function re-lowered"
        assert {"main", "mix", "fired"} <= set(names)
        assert cache.lowerings == len(names) == len(cache.functions)
        stats = network.superblock_stats()
        assert stats["statements_total"] == sum(
            node.interpreter.statements_executed for node in network.nodes)

    def test_functions_lower_once_across_nodes(self):
        program = make_program(COMPUTE_ONLY)
        cache = CodeCache(program)
        assert cache.lowerings == 0

        first = Node(program, engine="compiled", code_cache=cache)
        lowered = first.interpreter.warm()
        assert lowered == len(program.functions)
        assert cache.lowerings == lowered
        assert cache.plan_hits == 0

        second = Node(program, engine="compiled", code_cache=cache)
        assert second.interpreter.warm() == lowered
        assert cache.lowerings == lowered, "second node re-lowered"
        assert cache.plan_hits == lowered
        assert len(cache.functions) == lowered

    def test_shared_lowering_changes_nothing(self):
        program = _calls_program()
        cache = CodeCache(program)
        observations = []
        for _ in range(2):  # the second node runs purely from the cache
            node = Node(program, engine="compiled", code_cache=cache)
            node.boot()
            lowered = cache.lowerings
            node.run(0.05)
            observations.append((_observe(node), _read_u32(node, "acc")))
        assert cache.lowerings == lowered, "the second node lowered"
        fresh = Node(program, engine="compiled")
        fresh.run(0.05)
        assert observations[0] == observations[1] \
            == (_observe(fresh), _read_u32(fresh, "acc"))

    def test_lowering_works_before_boot(self):
        program = _calls_program()
        early = Node(program, engine="compiled")
        assert early.interpreter.warm() == len(program.functions)
        early.boot()
        early.run(0.05)
        lazy = Node(program, engine="compiled")
        lazy.boot()
        lazy.run(0.05)
        assert (_observe(early), _read_u32(early, "acc")) \
            == (_observe(lazy), _read_u32(lazy, "acc"))

    def test_two_networks_on_two_threads_share_one_cache(
            self, count_lowerings):
        """Concurrent networks on one cache each equal their solo run.

        The two runs differ in length and node count, so any node state
        captured in a shared op would show up in one of them.
        """
        program = _calls_program()
        runs = {"a": dict(seconds=0.15, node_count=2),
                "b": dict(seconds=0.2, node_count=3)}
        solo = {label: _network_observation(run_network(program, **kwargs))
                for label, kwargs in runs.items()}
        del count_lowerings[:]

        shared = CodeCache(program)
        together: dict = {}
        errors: list = []

        def simulate(label: str) -> None:
            try:
                together[label] = _network_observation(
                    run_network(program, code_cache=shared, **runs[label]))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=simulate, args=(label,))
                   for label in runs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert together == solo
        names = [name for _, name in count_lowerings]
        assert sorted(names) == sorted(set(names)), "a function re-lowered"
        assert shared.lowerings == len(names)

    def test_full_invalidation_drops_every_lowering(self):
        program = make_program(COMPUTE_ONLY)
        cache = CodeCache(program)
        lowered = Node(program, engine="compiled",
                       code_cache=cache).interpreter.warm()
        assert len(cache.functions) == lowered

        program.invalidate_analysis()
        assert cache.functions == {}
        Node(program, engine="compiled",
             code_cache=cache).interpreter.warm()
        assert cache.lowerings == 2 * lowered

    def test_per_function_invalidation_drops_every_lowering(self):
        """One function's change drops them all: a caller's ops keep the
        callee lowering they resolved."""
        program = _calls_program()
        cache = CodeCache(program)
        Node(program, engine="compiled", code_cache=cache).interpreter.warm()
        assert "main" in cache.functions
        program.invalidate_analysis("step")
        assert cache.functions == {}

    def test_a_changed_function_is_lowered_again(self):
        """A pass that changes a callee after lowering: the caller's ops
        do not keep running its old lowering."""
        program = make_program("""
uint16_t out = 0;
uint16_t k(void) { return 7; }
__spontaneous void main(void) {
  out = k() + 1;
  out = out + k();
  __sleep();
}
""")
        cache = CodeCache(program)

        def run() -> int:
            node = Node(program, engine="compiled", code_cache=cache)
            node.run(0.01)
            obj = node.memory.global_object("out")
            return node.memory.read(Pointer(obj, 0), ty.UINT16)

        assert run() == 15
        literal = program.lookup_function("k").body.stmts[0].value
        literal.value = 9
        program.invalidate_analysis("k")
        assert run() == 19
        fresh = Node(program, engine="tree")
        fresh.run(0.01)
        obj = fresh.memory.global_object("out")
        assert fresh.memory.read(Pointer(obj, 0), ty.UINT16) == 19
