"""Tests for the atomic optimization and the driver."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor.visitor import walk_statements
from repro.cxprop.atomic_opt import compute_always_atomic_functions, \
    optimize_atomic_sections
from repro.cxprop.driver import CxpropConfig, optimize_program
from repro.cxprop.interproc import compute_whole_program_facts

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program, statements_of


class TestAtomicOptimization:
    SOURCE = """
uint8_t state;

void helper_in_atomic(void) {
  atomic { state = state + 1; }
}

void helper_outside(void) {
  atomic { state = state + 2; }
}

__interrupt("ADC") void isr(void) {
  atomic { state = 0; }
  helper_in_atomic();
}

__spontaneous void main(void) {
  atomic {
    helper_in_atomic();
    atomic { state = 5; }
  }
  helper_outside();
}
"""

    def _program(self):
        program = make_program(self.SOURCE)
        program.interrupt_vectors["ADC"] = "isr"
        return program

    def test_functions_called_only_from_atomic_context_are_detected(self):
        program = self._program()
        always = compute_always_atomic_functions(program)
        assert "helper_in_atomic" in always
        assert "helper_outside" not in always
        assert "main" not in always

    def test_nested_atomic_sections_are_flattened(self):
        program = self._program()
        report = optimize_atomic_sections(program)
        assert report.nested_removed >= 2  # inside main and inside the ISR
        isr_atomics = [s for s in statements_of(program, "isr")
                       if isinstance(s, ast.Atomic)]
        assert not isr_atomics

    def test_outer_sections_can_skip_the_irq_save(self):
        program = self._program()
        report = optimize_atomic_sections(program)
        assert report.irq_saves_avoided >= 1
        outside = [s for s in statements_of(program, "helper_outside")
                   if isinstance(s, ast.Atomic)]
        assert outside and not outside[0].save_irq

    def test_atomic_sections_in_atomic_only_helpers_are_removed(self):
        program = self._program()
        optimize_atomic_sections(program)
        helper = [s for s in statements_of(program, "helper_in_atomic")
                  if isinstance(s, ast.Atomic)]
        assert not helper


class TestDriver:
    SOURCE = """
uint8_t table[8];
uint8_t limit = 8;
uint16_t total;
uint16_t write_only;

uint16_t accumulate(void) {
  uint8_t i;
  uint16_t sum = 0;
  for (i = 0; i < 8; i++) {
    sum = sum + table[i];
  }
  return sum;
}

__spontaneous void main(void) {
  total = accumulate();
  write_only = total;
  if (limit > 100) {
    total = 0;
  }
}
"""

    def test_driver_reaches_a_fixpoint_and_reports(self):
        program = make_program(self.SOURCE)
        report = optimize_program(program, CxpropConfig())
        summary = report.summary()
        assert summary["rounds"] >= 1
        assert summary["branches_folded"] >= 1      # limit > 100 is false
        assert summary["dead_stores_removed"] >= 1  # write_only
        assert "write_only" not in program.globals

    def test_passes_can_be_disabled(self):
        program = make_program(self.SOURCE)
        report = optimize_program(program, CxpropConfig(
            enable_fold=False, enable_dce=False, enable_copyprop=False,
            enable_atomic_opt=False, max_rounds=1))
        assert report.summary()["branches_folded"] == 0
        assert "write_only" in program.globals

    def test_constant_domain_is_weaker_than_intervals(self):
        strong = make_program(self.SOURCE)
        weak = make_program(self.SOURCE)
        optimize_program(strong, CxpropConfig(domain="interval"))
        optimize_program(weak, CxpropConfig(domain="constant"))
        from repro.cminor.visitor import count_statements

        strong_size = sum(count_statements(f.body)
                          for f in strong.iter_functions())
        weak_size = sum(count_statements(f.body) for f in weak.iter_functions())
        assert strong_size <= weak_size

    def test_optimized_program_still_typechecks(self):
        program = make_program(self.SOURCE)
        optimize_program(program, CxpropConfig())
        from repro.cminor.typecheck import check_program

        check_program(program)
