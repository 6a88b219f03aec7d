"""Tests for the nesC flattener (the whole-program generator)."""

import pytest

from repro.ccured.config import CCuredConfig, MessageStrategy, RuntimeMode
from repro.ccured.runtime import build_runtime
from repro.cminor import ast_nodes as ast
from repro.cminor.visitor import walk_function_expressions, walk_statements
from repro.nesc.application import Application
from repro.nesc.component import Component
from repro.nesc.flatten import NescCompiler, WiringError, flatten_application
from repro.tinyos import messages as msgs
from repro.tinyos import suite

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, interfaces, tiny_application


class TestSymbolRenaming:
    def test_component_symbols_get_prefixes(self, tiny_app_program):
        assert "ClientM__client_count" in tiny_app_program.globals
        assert "FakeTimerC__Timer_start" in tiny_app_program.functions

    def test_common_globals_are_not_prefixed(self, tiny_app_program):
        assert "TOS_LOCAL_ADDRESS" in tiny_app_program.globals

    def test_commands_resolve_through_wiring(self, tiny_app_program):
        # ClientM calls Timer_start which must resolve to the provider.
        assert count_calls(tiny_app_program, "FakeTimerC__Timer_start") >= 1

    def test_events_resolve_to_the_wired_user(self, tiny_app_program):
        # FakeTimerC signals Timer_fired which must land in ClientM.
        assert count_calls(tiny_app_program, "ClientM__Timer_fired") >= 1

    def test_unresolvable_call_raises_wiring_error(self):
        ifaces = interfaces()
        broken = Component(name="BrokenM",
                           provides={"Control": ifaces["StdControl"]},
                           source="""
uint8_t Control_init(void) { mystery(); return 1; }
uint8_t Control_start(void) { return 1; }
uint8_t Control_stop(void) { return 1; }
""")
        app = Application(name="Broken", common_source=msgs.COMMON_SOURCE)
        app.add_component(broken)
        app.boot.append(("BrokenM", "Control"))
        with pytest.raises(WiringError):
            flatten_application(app)


class TestGeneratedScheduler:
    def test_tasks_get_identifiers(self, tiny_app_program):
        assert tiny_app_program.tasks == ["ClientM__record_task"]

    def test_post_statements_are_lowered(self, tiny_app_program):
        for func in tiny_app_program.iter_functions():
            from repro.cminor.visitor import walk_statements

            assert not any(isinstance(s, ast.Post)
                           for s in walk_statements(func.body))
        assert count_calls(tiny_app_program, "__tos_post") >= 1

    def test_scheduler_functions_exist(self, tiny_app_program):
        for name in ("__tos_post", "__tos_dispatch", "__tos_run_next_or_sleep"):
            assert tiny_app_program.lookup_function(name) is not None

    def test_dispatch_calls_every_task(self, tiny_app_program):
        assert count_calls(tiny_app_program, "ClientM__record_task") >= 1

    def test_main_boots_components_and_loops(self, tiny_app_program):
        main = tiny_app_program.lookup_function("main")
        assert main is not None and main.is_spontaneous
        assert count_calls(tiny_app_program, "ClientM__Control_init") >= 1
        assert count_calls(tiny_app_program, "ClientM__Control_start") >= 1
        assert count_calls(tiny_app_program, "__enable_interrupts") >= 1


class TestInterruptsAndConcurrency:
    def test_interrupt_vectors_are_registered(self, tiny_app_program):
        assert tiny_app_program.interrupt_vectors == {
            "TIMER1_COMPA": "FakeTimerC__tick"}
        handler = tiny_app_program.lookup_function("FakeTimerC__tick")
        assert handler.is_interrupt_handler

    def test_racy_variables_are_reported(self, tiny_app_program):
        # client_count is written in the timer event (interrupt context) and
        # read in the task; the buffer accesses are protected by atomic.
        assert "ClientM__client_count" in tiny_app_program.racy_variables

    def test_wiring_the_same_vector_twice_fails(self):
        app = tiny_application()
        ifaces = interfaces()
        other = Component(name="OtherIsr", provides={}, uses={},
                          source="void isr(void) { }",
                          interrupts={"TIMER1_COMPA": "isr"})
        app.add_component(other)
        with pytest.raises(WiringError):
            flatten_application(app)


class TestFanoutAndDefaults:
    def test_unwired_event_gets_default_stub(self):
        app = tiny_application()
        # Remove the wire so the provider's signal has no receiver.
        flattened = None
        ifaces = interfaces()
        lonely = Component(
            name="LonelyC",
            provides={"Ping": ifaces["Timer"]},
            source="""
uint8_t Ping_start(uint32_t interval) { return 1; }
uint8_t Ping_stop(void) { return 1; }
void kick(void) { Ping_fired(); }
""")
        app.add_component(lonely)
        flattened = flatten_application(app)
        assert flattened.lookup_function("LonelyC__Ping_fired__default") is not None

    def test_event_fanout_generates_dispatcher(self):
        ifaces = interfaces()
        app = tiny_application()
        second = Component(
            name="SecondClientM",
            uses={"Timer": ifaces["Timer"]},
            source="""
uint16_t second_count = 0;
uint8_t Timer_fired(void) {
  second_count = second_count + 1;
  return 1;
}
""")
        app.add_component(second)
        app.wire("SecondClientM", "Timer", "FakeTimerC", "Timer")
        program = flatten_application(app)
        fanout = program.lookup_function("FakeTimerC__Timer_fired__fanout")
        assert fanout is not None
        assert count_calls(program, "ClientM__Timer_fired") >= 1
        assert count_calls(program, "SecondClientM__Timer_fired") >= 1

    def test_flattened_program_is_type_checked_and_simplified(self, tiny_app_program):
        for func in tiny_app_program.iter_functions():
            assert _outside_the_normal_form(func) == []
            for expr in walk_function_expressions(func.body):
                assert expr.ctype is not None, (func.name, expr)


def _outside_the_normal_form(func: ast.FunctionDef) -> list[str]:
    """Statements of ``func`` the parser's normal form rules out: loops
    other than ``while (1)`` and empty block statements."""
    found = []
    for stmt in walk_statements(func.body):
        if isinstance(stmt, ast.While) and not (
                isinstance(stmt.cond, ast.IntLiteral) and stmt.cond.value != 0):
            found.append(f"{func.name}: conditional while at {stmt.loc}")
        elif isinstance(stmt, ast.Block) and not stmt.stmts:
            found.append(f"{func.name}: empty block at {stmt.loc}")
    return found


def test_toolchain_sees_one_loop_form():
    """Every application's flattened program and every CCured runtime
    library (trimmed and naive, under each message strategy) reach the
    passes in the one loop form."""
    found = []
    for name in suite.FIGURE_APPS:
        for func in suite.build_program(name).iter_functions():
            found += _outside_the_normal_form(func)
    for mode in RuntimeMode:
        for strategy in MessageStrategy:
            library = build_runtime(CCuredConfig(message_strategy=strategy,
                                                 runtime_mode=mode))
            for func in library.functions:
                found += _outside_the_normal_form(func)
    assert found == []
