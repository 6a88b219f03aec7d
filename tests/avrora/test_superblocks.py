"""Superblock fusion and the shared code cache.

The poll-window guard must make fusion observationally invisible: an
interrupt scheduled to land mid-block forces the slow path and is delivered
at the identical cycle as the tree-walker; a lockstep horizon sentinel
inside a block pauses at the same poll point; one
:class:`~repro.avrora.engine.CodeCache` lowers every function once for all
the nodes that share it, on any thread, and drops its lowerings when a pass
changes the program.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.workbench import run_network
from repro.avrora import interp
from repro.avrora.engine import CodeCache, CompiledEngine, _FunctionCompiler
from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


#: A straight-line run of simple statements inside a hot loop, preempted by
#: a fast timer: interrupts constantly land *inside* the fused block's
#: cycle window, so the guard must route those entries to the slow path.
MID_BLOCK_INTERRUPTS = """
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
#: sentinel can pause it, and it must do so at a poll point mid-block.
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


def _node(source: str, engine: str = "compiled", superblocks: bool = True,
          vectors: dict | None = None,
          monkeypatch: pytest.MonkeyPatch | None = None) -> Node:
    """Build and boot one node, pinning the fusion switch when asked.

    Passing ``monkeypatch`` forces ``REPRO_AVRORA_SUPERBLOCKS`` to the
    requested state for the rest of the test, so these tests stay
    meaningful under CI legs that set the variable globally.
    """
    program = make_program(source)
    if vectors:
        program.interrupt_vectors.update(vectors)
    if monkeypatch is not None:
        monkeypatch.setenv("REPRO_AVRORA_SUPERBLOCKS",
                           "1" if superblocks else "0")
    else:
        assert superblocks, "disabling fusion requires monkeypatch"
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


class TestSuperblockFormation:
    def test_straight_line_runs_fuse_and_stats_move(self, monkeypatch):
        node = _node(COMPUTE_ONLY, monkeypatch=monkeypatch)
        node.run(0.02)
        engine = node.interpreter._impl
        assert isinstance(engine, CompiledEngine)
        stats = engine.superblock_stats()
        assert stats["enabled"]
        assert stats["superblocks"] + stats["loop_superblocks"] >= 1
        assert stats["fused_statements"] > 0
        assert stats["fused_statements"] <= stats["statements_total"]
        assert 0.0 < stats["fused_fraction"] <= 1.0

    def test_env_switch_disables_fusion(self, monkeypatch):
        node = _node(COMPUTE_ONLY, superblocks=False,
                     monkeypatch=monkeypatch)
        node.run(0.02)
        stats = node.interpreter.superblock_stats()
        assert not stats["enabled"]
        assert stats["fused_statements"] == 0
        assert stats["superblocks"] == 0

    def test_tree_walker_reports_zero_stats(self):
        node = _node(COMPUTE_ONLY, engine="tree")
        node.run(0.01)
        stats = node.interpreter.superblock_stats()
        assert not stats["enabled"]
        assert stats["fused_statements"] == 0
        assert stats["statements_total"] > 0


class TestPollWindowBoundaries:
    VECTORS = {"TIMER1_COMPA": "fired"}

    def test_mid_block_interrupt_delivers_at_identical_cycle(
            self, monkeypatch):
        """A timer landing inside a fused block's window forces the slow
        path; delivery time, handler effects and statement stream match
        the tree-walker and the fusion-off engine exactly."""
        results = {}
        for label, engine, superblocks in (
                ("tree", "tree", True),
                ("fused", "compiled", True),
                ("nosb", "compiled", False)):
            node = _node(MID_BLOCK_INTERRUPTS, engine=engine,
                         superblocks=superblocks, vectors=self.VECTORS,
                         monkeypatch=monkeypatch)
            node.run(0.2)
            results[label] = _observe(node)
            results[label]["c"] = _read_u32(node, "c")
            if label == "fused":
                stats = node.interpreter.superblock_stats()
                # The guard really exercised both paths.
                assert stats["entries_fast"] > 0
                assert stats["entries_slow"] > 0
        assert results["tree"]["interrupts"] > 0
        assert results["tree"] == results["fused"] == results["nosb"]

    @pytest.mark.parametrize("horizon_step", [104729, 31337])
    def test_horizon_sentinel_mid_block_pauses_at_same_poll_point(
            self, horizon_step, monkeypatch):
        """run_until horizons that land inside fused blocks must pause at
        exactly the poll point the tree-walker pauses at — the sentinel
        event makes the window guard take the slow path."""
        paused_times = {}
        for engine in ("tree", "compiled"):
            node = _node(COMPUTE_ONLY, engine=engine,
                         monkeypatch=monkeypatch)
            node.begin_run(0.5)
            times = []
            horizon = 0
            status = "paused"
            while status == "paused" and len(times) < 25:
                horizon += horizon_step
                status = node.run_until(horizon)
                times.append(node.time_cycles)
            node.abort_run()
            paused_times[engine] = times
        assert paused_times["tree"] == paused_times["compiled"]

    def test_sliced_and_single_runs_identical_with_fusion(
            self, monkeypatch):
        """The BLINKY-style invariant, but for a compute-bound program:
        arbitrary horizon slicing must not change fused execution."""
        reference = _node(COMPUTE_ONLY, monkeypatch=monkeypatch)
        reference.run(0.3)

        sliced = _node(COMPUTE_ONLY, monkeypatch=monkeypatch)
        sliced.begin_run(0.3)
        horizon = 0
        status = "paused"
        while status == "paused":
            horizon += 77777
            status = sliced.run_until(horizon)
        assert _observe(sliced) == _observe(reference)
        assert _read_u32(sliced, "acc") == _read_u32(reference, "acc")


#: Several functions for the code-cache tests: ``step`` is a trace leaf
#: spliced inline, ``mix`` a non-leaf reached through CALL ops, ``fired``
#: an interrupt handler.
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
            self, count_lowerings, monkeypatch):
        # Fusion on, so the formation counts below have something to count.
        monkeypatch.setenv("REPRO_AVRORA_SUPERBLOCKS", "1")
        network = run_network(_calls_program(), seconds=0.05, node_count=8)
        cache = network.nodes[0].interpreter.code_cache
        assert all(node.interpreter.code_cache is cache
                   for node in network.nodes)
        names = [name for _, name in count_lowerings]
        assert sorted(names) == sorted(set(names)), "a function re-lowered"
        assert {"main", "mix", "fired"} <= set(names)
        assert cache.lowerings == len(names) == len(cache.functions)
        # Formation counts come once per cache, not once per node.
        stats = network.superblock_stats()
        assert stats["superblocks"] == cache.superblocks
        assert stats["traces"] == cache.traces >= 1
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
        assert cache.functions == {} and cache.plans == {}
        Node(program, engine="compiled",
             code_cache=cache).interpreter.warm()
        assert cache.lowerings == 2 * lowered

    def test_per_function_invalidation_drops_every_lowering(self):
        """One function's change drops them all: callers splice leaves."""
        program = _calls_program()
        cache = CodeCache(program)
        Node(program, engine="compiled", code_cache=cache).interpreter.warm()
        assert "main" in cache.functions
        program.invalidate_analysis("step")
        assert cache.functions == {} and cache.plans == {}

    def test_a_changed_function_is_lowered_again(self):
        """A pass that changes a leaf after lowering: its inlined copy in
        the caller is not served again either."""
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


class TestAblationParity:
    """Byte-identical execution with fusion on vs off on engine-stressing
    shapes (the figure applications are covered by the differential
    suite)."""

    PROGRAMS = {
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
        "oob_inside_block": """
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
        "vardecl_in_block": """
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

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_fusion_on_off_identical(self, name, monkeypatch):
        results = {}
        for label, superblocks in (("fused", True), ("nosb", False)):
            node = _node(self.PROGRAMS[name], superblocks=superblocks,
                         monkeypatch=monkeypatch)
            node.run(0.05)
            results[label] = _observe(node)
        assert results["fused"] == results["nosb"]
