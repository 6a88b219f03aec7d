"""Tests for the nesC race analysis and the hardware-register refactoring."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.nesc.concurrency import analyze_concurrency, nesc_race_analysis
from repro.nesc.hwrefactor import count_register_casts, refactor_hardware_accesses

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program


def concurrency_program(extra=""):
    return make_program("""
uint8_t shared_counter = 0;
uint8_t protected_counter = 0;
norace uint8_t annotated = 0;
uint8_t task_only = 0;

__interrupt("ADC") void adc_isr(void) {
  shared_counter = shared_counter + 1;
  annotated = annotated + 1;
  atomic { protected_counter = protected_counter + 1; }
}

__spontaneous void main(void) {
  uint8_t copy;
  copy = shared_counter;
  atomic { copy = protected_counter; }
  annotated = 0;
  task_only = task_only + 1;
}
""" + extra)


class TestRaceAnalysis:
    def setup_method(self):
        self.program = concurrency_program()
        self.program.interrupt_vectors["ADC"] = "adc_isr"

    def test_async_and_sync_function_sets(self):
        report = analyze_concurrency(self.program)
        assert "adc_isr" in report.async_functions
        assert "main" in report.sync_functions

    def test_unprotected_shared_variable_is_racy(self):
        report = analyze_concurrency(self.program)
        assert "shared_counter" in report.racy_variables

    def test_fully_protected_variable_is_not_racy(self):
        report = analyze_concurrency(self.program)
        assert "protected_counter" not in report.racy_variables

    def test_task_only_variable_is_not_racy(self):
        report = analyze_concurrency(self.program)
        assert "task_only" not in report.racy_variables

    def test_norace_annotation_suppresses_report(self):
        report = analyze_concurrency(self.program, suppress_norace=False)
        assert "annotated" not in report.racy_variables
        assert "annotated" in report.norace_skipped

    def test_suppressing_norace_restores_the_report(self):
        report = analyze_concurrency(self.program, suppress_norace=True)
        assert "annotated" in report.racy_variables

    def test_results_recorded_on_program(self):
        nesc_race_analysis(self.program, suppress_norace=True)
        assert "shared_counter" in self.program.racy_variables
        assert "annotated" in self.program.norace_suppressed

    def test_a_store_through_arrow_reads_the_pointer(self):
        """``p->f = 1`` reads ``p`` as ``*q = 2`` reads ``q``: both pointers
        are reassigned in a handler, so both are racy."""
        program = make_program("""
struct pair { uint8_t f; uint8_t g; };
struct pair a;
struct pair b;
uint8_t c;
uint8_t d;
struct pair* p = &a;
uint8_t* q = &c;

__interrupt("ADC") void adc_isr(void) {
  p = &b;
  q = &d;
}

__spontaneous void main(void) {
  p->f = 1;
  *q = 2;
}
""")
        program.interrupt_vectors["ADC"] = "adc_isr"
        report = analyze_concurrency(program)
        assert {"p", "q"} <= report.racy_variables


class TestHardwareRefactoring:
    SOURCE = """
uint8_t mirror;
__spontaneous void main(void) {
  uint16_t wide;
  *(uint8_t*)59 = 7;
  mirror = *(uint8_t*)59;
  *(uint16_t*)64 = 1024;
  wide = *(uint16_t*)64;
  *(uint8_t*)59 |= 2;
}
"""

    def test_reads_and_writes_are_rewritten(self):
        program = make_program(self.SOURCE)
        report = refactor_hardware_accesses(program)
        assert report.writes_rewritten == 3
        assert report.reads_rewritten == 3  # two loads plus the |= read
        assert count_register_casts(program) == 0

    def test_helper_calls_are_generated(self):
        program = make_program(self.SOURCE)
        refactor_hardware_accesses(program)
        assert count_calls(program, "__hw_write8") == 2
        assert count_calls(program, "__hw_write16") == 1
        assert count_calls(program, "__hw_read8") == 2
        assert count_calls(program, "__hw_read16") == 1

    def test_non_constant_addresses_are_left_alone(self):
        program = make_program("""
uint16_t port = 59;
__spontaneous void main(void) {
  *(uint8_t*)port = 1;
}
""")
        report = refactor_hardware_accesses(program)
        assert report.total == 0

    def test_program_still_typechecks_after_rewrite(self):
        program = make_program(self.SOURCE)
        refactor_hardware_accesses(program)
        from repro.cminor.typecheck import check_program

        check_program(program)

    def test_report_names_touched_functions(self):
        program = make_program(self.SOURCE)
        report = refactor_hardware_accesses(program)
        assert report.functions_touched == {"main"}
