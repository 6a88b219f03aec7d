"""Shared helpers for the test suite.

Most tests need a small CMinor program built from source text; these helpers
wrap the parse/link/typecheck boilerplate (the parser already emits the
normal form every pass expects) and provide tiny applications for the nesC
and toolchain layers.
"""

from __future__ import annotations

from repro.cminor import ast_nodes as ast
from repro.cminor.parser import parse_program
from repro.cminor.program import Program, link_units
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import walk_statements
from repro.nesc.application import Application
from repro.nesc.component import Component
from repro.nesc.interface import standard_interfaces
from repro.tinyos import messages as msgs


def make_program(source: str, name: str = "test",
                 platform: str = "mica2") -> Program:
    """Parse, link and type-check one source unit."""
    unit = parse_program(source, name)
    program = link_units([unit], name=name, platform=platform)
    check_program(program)
    return program


def statements_of(program: Program, function: str) -> list[ast.Stmt]:
    """All statements (recursively) of one function."""
    func = program.lookup_function(function)
    assert func is not None, f"no function named {function}"
    return list(walk_statements(func.body))


def count_calls(program: Program, callee: str) -> int:
    """Number of call sites of ``callee`` across the whole program."""
    from repro.cminor.visitor import walk_function_expressions

    count = 0
    for func in program.iter_functions():
        for expr in walk_function_expressions(func.body):
            if isinstance(expr, ast.Call) and expr.callee == callee:
                count += 1
    return count


def interfaces():
    """The standard interface set used by the TinyOS library."""
    return standard_interfaces(msgs.tos_msg_type())


def tiny_application(name: str = "TinyApp") -> Application:
    """A minimal two-component application: a timer client blinking an LED."""
    ifaces = interfaces()
    provider = Component(
        name="FakeTimerC",
        provides={"Control": ifaces["StdControl"], "Timer": ifaces["Timer"]},
        source="""
uint8_t running = 0;
uint16_t fires = 0;

uint8_t Control_init(void) {
  running = 0;
  fires = 0;
  return 1;
}

uint8_t Control_start(void) {
  return 1;
}

uint8_t Control_stop(void) {
  running = 0;
  return 1;
}

uint8_t Timer_start(uint32_t interval) {
  running = 1;
  return 1;
}

uint8_t Timer_stop(void) {
  running = 0;
  return 1;
}

void tick(void) {
  if (running) {
    fires = fires + 1;
    Timer_fired();
  }
}
""",
        interrupts={"TIMER1_COMPA": "tick"},
    )
    client = Component(
        name="ClientM",
        provides={"Control": ifaces["StdControl"]},
        uses={"Timer": ifaces["Timer"]},
        source="""
uint16_t client_count = 0;
uint8_t client_buffer[8];

uint8_t Control_init(void) {
  client_count = 0;
  return 1;
}

uint8_t Control_start(void) {
  Timer_start(1000);
  return 1;
}

uint8_t Control_stop(void) {
  Timer_stop();
  return 1;
}

void record_task(void) {
  uint8_t slot;
  atomic {
    slot = (uint8_t)(client_count & 7);
    client_buffer[slot] = (uint8_t)(client_count & 255);
  }
}

uint8_t Timer_fired(void) {
  atomic {
    client_count = client_count + 1;
  }
  post record_task();
  return 1;
}
""",
        tasks=["record_task"],
    )
    app = Application(name=name, platform="mica2",
                      common_source=msgs.COMMON_SOURCE)
    app.add_component(provider)
    app.add_component(client)
    app.wire("ClientM", "Timer", "FakeTimerC", "Timer")
    app.boot.append(("FakeTimerC", "Control"))
    app.boot.append(("ClientM", "Control"))
    return app
