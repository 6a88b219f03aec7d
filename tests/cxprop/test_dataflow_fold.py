"""Tests for the flow-sensitive analysis and the fold pass."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor.visitor import walk_statements
from repro.cxprop.dataflow import FunctionAnalysis
from repro.cxprop.driver import CxpropConfig, optimize_program
from repro.cxprop.fold import fold_program
from repro.cxprop.interproc import (
    POINTER_STORE,
    compute_whole_program_facts,
)

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program, statements_of


def analyze(source, function="main"):
    program = make_program(source)
    facts = compute_whole_program_facts(program)
    func = program.lookup_function(function)
    analysis = FunctionAnalysis(program, func, facts)
    return program, func, analysis.run(), analysis


def state_at(program, func, result, predicate):
    for stmt in walk_statements(func.body):
        if predicate(stmt):
            return result.state_before(stmt)
    raise AssertionError("no statement matched the predicate")


class TestFlowSensitivity:
    def test_straight_line_constants(self):
        source = """
uint8_t g;
__spontaneous void main(void) {
  uint8_t x = 3;
  uint8_t y = x + 4;
  g = y;
}
"""
        program, func, result, analysis = analyze(source)
        state = state_at(program, func, result,
                         lambda s: isinstance(s, ast.Assign)
                         and isinstance(s.lvalue, ast.Identifier)
                         and s.lvalue.name == "g")
        assert state["y"].as_constant() == 7

    def test_branch_join_widens_to_both_values(self):
        source = """
uint8_t g;
__spontaneous void main(void) {
  uint8_t x;
  uint8_t flag = __hw_read8(59);
  if (flag) { x = 1; } else { x = 10; }
  g = x;
}
"""
        program, func, result, analysis = analyze(source)
        state = state_at(program, func, result,
                         lambda s: isinstance(s, ast.Assign)
                         and isinstance(s.lvalue, ast.Identifier)
                         and s.lvalue.name == "g")
        assert (state["x"].lo, state["x"].hi) == (1, 10)

    def test_loop_counter_is_bounded_by_its_guard(self):
        source = """
uint8_t sink;
uint8_t data[10];
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 10; i++) {
    sink = data[i];
  }
}
"""
        program, func, result, analysis = analyze(source)
        state = state_at(program, func, result,
                         lambda s: isinstance(s, ast.Assign)
                         and isinstance(s.lvalue, ast.Identifier)
                         and s.lvalue.name == "sink")
        assert state["i"].lo >= 0 and state["i"].hi <= 9

    def test_interrupt_shared_variables_are_not_trusted_outside_atomic(self):
        source = """
uint8_t shared = 0;
uint8_t sink;
__interrupt("ADC") void isr(void) { shared = 200; }
__spontaneous void main(void) {
  shared = 1;
  sink = shared;
  atomic {
    shared = 2;
    sink = shared;
  }
}
"""
        program = make_program(source)
        program.interrupt_vectors["ADC"] = "isr"
        facts = compute_whole_program_facts(program)
        func = program.lookup_function("main")
        result = FunctionAnalysis(program, func, facts).run()
        outside, inside = [result.state_before(s) for s in walk_statements(func.body)
                           if isinstance(s, ast.Assign)
                           and isinstance(s.lvalue, ast.Identifier)
                           and s.lvalue.name == "sink"]
        # Outside the atomic section the value may be anything the ISR wrote.
        assert outside["shared"].as_constant() is None
        # Inside the atomic section the flow-sensitive value is trusted.
        assert inside["shared"].as_constant() == 2

    @pytest.mark.parametrize("store", ["shared = 200;", "*cursor = 200;",
                                       "cursor[0] = 200;"],
                             ids=["direct", "deref", "index"])
    def test_interrupt_stores_keep_a_branch(self, store):
        """The ISR may change ``shared`` between the store and the test,
        directly or through a pointer: Section 2.1's pointer rule makes every
        address-taken global shared once interrupt code stores through a
        pointer, which nesC's race analysis alone does not see."""
        program = make_program(f"""
uint8_t shared;
uint8_t *cursor;
volatile uint8_t sink;
__interrupt("ADC") void isr(void) {{ {store} }}
__spontaneous void main(void) {{
  cursor = &shared;
  shared = 1;
  if (shared == 1) {{ sink = 3; }} else {{ sink = 4; }}
}}
""")
        program.interrupt_vectors["ADC"] = "isr"
        shared = compute_whole_program_facts(program).shared_variables
        # A pointer reaches only globals whose address is taken.
        assert "shared" in shared and "sink" not in shared
        optimize_program(program, CxpropConfig())
        assert any(isinstance(s, ast.If)
                   for s in statements_of(program, "main"))


class TestFolding:
    def test_always_true_branch_is_folded(self):
        source = """
uint8_t g;
void effect(void) { g = g + 1; }
__spontaneous void main(void) {
  uint8_t x = 5;
  if (x > 1) { effect(); } else { g = 0; }
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        report = fold_program(program, facts)
        assert report.branches_folded >= 1
        main_stmts = statements_of(program, "main")
        assert not any(isinstance(s, ast.If) for s in main_stmts)
        assert count_calls(program, "effect") == 1

    def test_constant_global_reads_become_literals(self):
        source = """
uint8_t group = 125;
uint8_t sink;
__spontaneous void main(void) {
  sink = group;
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        report = fold_program(program, facts)
        assert report.constants_substituted >= 1
        assign = [s for s in statements_of(program, "main")
                  if isinstance(s, ast.Assign)][0]
        assert isinstance(assign.rvalue, ast.IntLiteral)
        assert assign.rvalue.value == 125

    def test_mutated_global_reads_are_not_substituted(self):
        source = """
uint8_t counter = 0;
uint8_t sink;
__spontaneous void main(void) {
  counter = counter + 1;
  sink = counter;
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        fold_program(program, facts)
        assign = [s for s in statements_of(program, "main")
                  if isinstance(s, ast.Assign)
                  and isinstance(s.lvalue, ast.Identifier)
                  and s.lvalue.name == "sink"][0]
        assert isinstance(assign.rvalue, ast.Identifier)

    @pytest.mark.parametrize("store", ["*cursor = 200;", "cursor[0] = 200;"],
                             ids=["deref", "index"])
    def test_pointer_stores_in_a_callee_keep_a_branch(self, store):
        """A callee that stores through a pointer, indexed or not, may
        change any address-taken global, so the call forgets ``shared``.
        Without an interrupt handler nothing is interrupt-shared."""
        program = make_program(f"""
uint8_t shared;
uint8_t *cursor;
volatile uint8_t sink;
void write(void) {{ {store} }}
__spontaneous void main(void) {{
  cursor = &shared;
  shared = 1;
  write();
  if (shared == 1) {{ sink = 3; }} else {{ sink = 4; }}
}}
""")
        facts = compute_whole_program_facts(program)
        assert POINTER_STORE in facts.mod_sets["write"]
        assert not facts.shared_variables
        optimize_program(program, CxpropConfig())
        assert any(isinstance(s, ast.If)
                   for s in statements_of(program, "main"))

    def test_address_of_operands_are_never_replaced(self):
        source = """
uint8_t slot = 3;
uint8_t* where;
__spontaneous void main(void) {
  where = &slot;
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        fold_program(program, facts)
        assign = [s for s in statements_of(program, "main")
                  if isinstance(s, ast.Assign)][0]
        assert isinstance(assign.rvalue, ast.AddressOf)
        assert isinstance(assign.rvalue.lvalue, ast.Identifier)

    def test_bounds_check_conditions_fold_inside_known_loops(self):
        source = """
uint8_t data[8];
uint16_t total;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 8; i++) {
    if (!__bounds_ok(&data[i], 1)) {
      __halt(1);
    }
    total = total + data[i];
  }
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        report = fold_program(program, facts)
        assert report.branches_folded >= 1
        assert count_calls(program, "__halt") == 0

    def test_unprovable_bounds_check_is_kept(self):
        source = """
uint8_t data[8];
uint8_t fetch(uint8_t index) {
  if (!__bounds_ok(&data[index], 1)) {
    __halt(1);
  }
  return data[index];
}
__spontaneous void main(void) { fetch(200); }
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        fold_program(program, facts)
        assert count_calls(program, "__halt") == 1

    def test_loop_guards_are_never_folded_away(self):
        source = """
uint16_t total;
uint8_t data[4];
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 4; i++) {
    total = total + data[i];
  }
}
"""
        program = make_program(source)
        facts = compute_whole_program_facts(program)
        fold_program(program, facts)
        loops = [s for s in statements_of(program, "main")
                 if isinstance(s, ast.While)]
        assert loops
        guard_breaks = [s for s in walk_statements(loops[0].body)
                        if isinstance(s, ast.Break)]
        assert guard_breaks, "the loop's exit path must survive folding"
