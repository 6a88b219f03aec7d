"""Superblock fusion and the shared code cache.

The poll-window guard must make fusion observationally invisible: an
interrupt scheduled to land mid-block forces the slow path and is delivered
at the identical cycle as the tree-walker; a lockstep horizon sentinel
inside a block pauses at the same poll point; the shared
:class:`~repro.avrora.engine.CodeCache` lowers every function once per
program and is dropped by analysis-cache invalidation.
"""

from __future__ import annotations

import pytest

from repro.avrora.engine import CompiledEngine
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


class TestCodeCache:
    def test_functions_lower_once_across_nodes(self):
        program = make_program(COMPUTE_ONLY)
        cache = program.analysis().code_cache()
        assert cache.lowerings == 0

        first = Node(program, engine="compiled")
        first.boot()
        lowered = first.interpreter.warm()
        assert lowered >= 1
        assert cache.lowerings == lowered
        assert cache.plan_hits == 0

        second = Node(program, engine="compiled")
        second.boot()
        assert second.interpreter.warm() == lowered
        assert cache.lowerings == lowered, "second node re-lowered"
        assert cache.plan_hits == lowered
        assert len(cache.plans) == lowered

    def test_shared_plans_change_nothing(self):
        program = make_program(MID_BLOCK_INTERRUPTS)
        program.interrupt_vectors.update({"TIMER1_COMPA": "fired"})
        observations = []
        for _ in range(2):  # the second node compiles purely from plans
            node = Node(program, engine="compiled")
            node.boot()
            node.run(0.05)
            observations.append((_observe(node), _read_u32(node, "c")))
        assert observations[0] == observations[1]

    def test_full_invalidation_drops_plans(self):
        program = make_program(COMPUTE_ONLY)
        node = Node(program, engine="compiled")
        node.boot()
        lowered = node.interpreter.warm()
        cache = program.analysis().code_cache()
        assert len(cache.plans) == lowered

        program.invalidate_analysis()
        assert len(cache.plans) == 0
        fresh = Node(program, engine="compiled")
        fresh.boot()
        fresh.interpreter.warm()
        assert cache.lowerings == 2 * lowered

    def test_per_function_invalidation_drops_one_plan(self):
        program = make_program(COMPUTE_ONLY)
        node = Node(program, engine="compiled")
        node.boot()
        node.interpreter.warm()
        cache = program.analysis().code_cache()
        assert "main" in cache.plans
        program.invalidate_analysis("main")
        assert "main" not in cache.plans


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
