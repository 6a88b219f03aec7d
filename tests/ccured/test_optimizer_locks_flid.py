"""Tests for CCured's check optimizer, lock insertion, and FLID handling."""

import pytest

from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.flid import FlidTable, decompress_failure
from repro.ccured.instrument import cure, surviving_check_ids
from repro.ccured.optimizer import optimize_checks, pointer_is_statically_safe
from repro.cminor import ast_nodes as ast
from repro.cminor.parser import parse_expression

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program


class TestCheckOptimizer:
    def test_repeated_checks_on_same_pointer_are_deduplicated(self):
        program = make_program("""
struct rec { uint16_t a; uint16_t b; uint16_t c; };
void fill(struct rec* r) {
  r->a = 1;
  r->b = 2;
  r->c = 3;
}
__spontaneous void main(void) {
  struct rec x;
  fill(&x);
}
""")
        result = cure(program, CCuredConfig(run_optimizer=False))
        checks_before = count_calls(program, "__ccured_check_ptr") + \
            count_calls(program, "__ccured_check_null")
        removed = optimize_checks(program)
        checks_after = count_calls(program, "__ccured_check_ptr") + \
            count_calls(program, "__ccured_check_null")
        assert removed >= 2
        assert checks_after == checks_before - removed
        assert checks_after >= 1

    def test_checks_are_not_deduplicated_across_reassignment(self):
        program = make_program("""
uint16_t one;
uint16_t two;
uint16_t* p;
__spontaneous void main(void) {
  p = &one;
  *p = 1;
  p = &two;
  *p = 2;
}
""")
        cure(program, CCuredConfig(run_optimizer=False))
        before = len(surviving_check_ids(program))
        optimize_checks(program)
        # Both dereferences guard different pointer values even though the
        # expression text is identical; they are statically safe here anyway,
        # so at most the provably safe ones disappear.
        assert len(surviving_check_ids(program)) <= before

    def test_checks_on_pointers_differing_in_a_sizeof_type_both_survive(self):
        program = make_program("""
uint8_t buffer[8];
void store(uint8_t* p) {
  *(p + sizeof(int8_t)) = 1;
  *(p + sizeof(int32_t)) = 2;
}
__spontaneous void main(void) { store(buffer); }
""")
        cure(program, CCuredConfig(run_optimizer=False))
        assert count_calls(program, "__ccured_check_ptr") == 2
        assert optimize_checks(program) == 0
        assert count_calls(program, "__ccured_check_ptr") == 2

    def test_statically_safe_pointer_classification(self):
        program = make_program("uint8_t arr[4];\n__spontaneous void main(void) { }")
        assert pointer_is_statically_safe(parse_expression("&arr[1]"), program)
        assert pointer_is_statically_safe(parse_expression('"text"'), program)
        assert not pointer_is_statically_safe(parse_expression("&arr[i]"), program)

    def test_run_optimizer_flag_in_cure(self):
        program = make_program("""
struct rec { uint16_t a; uint16_t b; };
void fill(struct rec* r) { r->a = 1; r->b = 2; }
__spontaneous void main(void) { struct rec x; fill(&x); }
""")
        result = cure(program, CCuredConfig(run_optimizer=True))
        assert result.optimizer_removed >= 1


class TestLockInsertion:
    SOURCE = """
uint8_t shared_index = 0;
uint8_t quiet_index = 0;
uint8_t samples[8];

__interrupt("ADC") void adc_isr(void) {
  shared_index = (uint8_t)((shared_index + 1) & 7);
}

__spontaneous void main(void) {
  samples[shared_index] = 1;
  samples[quiet_index] = 2;
}
"""

    def _build(self, insert_locks=True):
        program = make_program(self.SOURCE)
        program.interrupt_vectors["ADC"] = "adc_isr"
        program.racy_variables = {"shared_index"}
        result = cure(program, CCuredConfig(run_optimizer=False,
                                            insert_locks=insert_locks))
        return result, program

    def test_checks_on_racy_variables_get_atomic_sections(self):
        result, program = self._build()
        assert result.locked_checks >= 1
        main = program.lookup_function("main")
        from repro.cminor.visitor import walk_statements

        injected = [s for s in walk_statements(main.body)
                    if isinstance(s, ast.Atomic) and s.synthetic]
        assert injected, "a synthetic atomic section should protect the racy access"

    def test_non_racy_accesses_are_not_locked(self):
        result, _ = self._build()
        racy_sites = [s for s in result.inventory.sites if s.racy]
        quiet_sites = [s for s in result.inventory.sites
                       if "quiet_index" in s.description]
        assert racy_sites
        assert all(not s.racy for s in quiet_sites)

    def test_lock_insertion_can_be_disabled(self):
        result, program = self._build(insert_locks=False)
        assert result.locked_checks == 0
        main = program.lookup_function("main")
        from repro.cminor.visitor import walk_statements

        assert not any(isinstance(s, ast.Atomic) and s.synthetic
                       for s in walk_statements(main.body))


class TestFlidTable:
    def _table(self):
        program = make_program("""
uint8_t data[4];
uint8_t fetch(uint8_t i) { return data[i]; }
__spontaneous void main(void) { fetch(1); }
""")
        result = cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                            run_optimizer=False))
        return result.flid_table

    def test_every_check_has_an_entry(self):
        table = self._table()
        assert len(table) >= 1
        entry = next(iter(table.entries.values()))
        assert entry.function == "fetch"
        assert "index" in entry.kind or "bounds" in entry.kind

    def test_decompression_reconstructs_a_diagnostic(self):
        table = self._table()
        flid = next(iter(table.entries))
        message = decompress_failure(table, flid)
        assert "fetch" in message and str(flid) in message

    def test_unknown_flid_is_reported_gracefully(self):
        table = self._table()
        assert "unknown failure location" in decompress_failure(table, 9999)

    def test_json_round_trip(self):
        table = self._table()
        restored = FlidTable.from_json(table.to_json())
        assert len(restored) == len(table)
        flid = next(iter(table.entries))
        assert restored.lookup(flid).function == table.lookup(flid).function
