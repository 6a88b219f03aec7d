"""Tests for CCured's check insertion, runtime linking, and configuration."""

import pytest

from repro.ccured.checks import CheckKind
from repro.ccured.config import CCuredConfig, MessageStrategy, RuntimeMode
from repro.ccured.instrument import (
    METADATA_PREFIX,
    cure,
    extract_check_id,
    surviving_check_ids,
)
from repro.ccured.runtime import RUNTIME_UNIT
from repro.cminor import ast_nodes as ast

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program

SOURCE = """
struct record { uint16_t key; uint8_t body[6]; };

uint8_t table[8];
struct record current;
uint8_t* cursor;
uint16_t total;

uint8_t read_slot(uint8_t index) {
  return table[index];
}

void through_pointer(struct record* r) {
  r->key = 1;
  r->body[0] = 2;
}

__spontaneous void main(void) {
  uint8_t i;
  cursor = table;
  for (i = 0; i < 8; i++) {
    total = total + cursor[i];
  }
  total = total + read_slot(3);
  through_pointer(&current);
  table[2] = 9;
}
"""


def build_cured(strategy=MessageStrategy.FLID, **kwargs):
    program = make_program(SOURCE)
    config = CCuredConfig(message_strategy=strategy, run_optimizer=False, **kwargs)
    return cure(program, config), program


class TestCheckInsertion:
    def test_checks_are_inserted_for_unprovable_accesses(self):
        result, _ = build_cured()
        assert result.checks_inserted >= 4

    def test_variable_index_gets_a_check(self):
        result, _ = build_cured()
        kinds = {site.kind for site in result.inventory.sites
                 if site.function == "read_slot"}
        assert CheckKind.INDEX in kinds

    def test_pointer_member_write_gets_a_check(self):
        result, _ = build_cured()
        functions = {site.function for site in result.inventory.sites}
        assert "through_pointer" in functions

    def test_constant_in_range_index_is_not_checked(self):
        result, _ = build_cured()
        descriptions = [site.description for site in result.inventory.sites
                        if site.function == "main"]
        assert not any("table[2]" in d for d in descriptions)

    def test_check_ids_are_unique(self):
        result, _ = build_cured()
        ids = [site.check_id for site in result.inventory.sites]
        assert len(ids) == len(set(ids))

    def test_every_inserted_check_survives_before_optimization(self):
        result, program = build_cured()
        assert surviving_check_ids(program) == result.inventory.ids()

    def test_runtime_functions_are_not_instrumented(self):
        result, _ = build_cured()
        assert all(not site.function.startswith("__ccured")
                   for site in result.inventory.sites)

    def test_check_calls_reference_runtime_helpers(self):
        _, program = build_cured()
        helper_calls = (count_calls(program, "__ccured_check_ptr")
                        + count_calls(program, "__ccured_check_null")
                        + count_calls(program, "__ccured_check_wild"))
        assert helper_calls >= 4


class TestMessageStrategies:
    def test_flid_messages_are_integer_literals(self):
        result, program = build_cured(MessageStrategy.FLID)
        assert len(result.flid_table) == result.checks_inserted
        assert result.runtime.strategy is MessageStrategy.FLID

    def test_verbose_messages_embed_location_and_id(self):
        result, program = build_cured(MessageStrategy.VERBOSE)
        func = program.lookup_function("read_slot")
        from repro.cminor.visitor import walk_function_expressions

        strings = [e for e in walk_function_expressions(func.body)
                   if isinstance(e, ast.StringLiteral)]
        assert strings and any("read_slot" in s.value for s in strings)
        assert all(not s.in_rom for s in strings)

    def test_verbose_rom_marks_strings_for_flash(self):
        _, program = build_cured(MessageStrategy.VERBOSE_ROM)
        from repro.cminor.visitor import walk_function_expressions

        strings = [e for f in program.iter_functions()
                   for e in walk_function_expressions(f.body)
                   if isinstance(e, ast.StringLiteral) and "check failed" in e.value]
        assert strings and all(s.in_rom for s in strings)

    def test_terse_messages_are_short(self):
        result, program = build_cured(MessageStrategy.TERSE)
        from repro.cminor.visitor import walk_function_expressions

        strings = [e.value for f in program.iter_functions()
                   if not f.is_runtime
                   for e in walk_function_expressions(f.body)
                   if isinstance(e, ast.StringLiteral)]
        assert strings and all(len(s) <= 6 for s in strings)

    def test_extract_check_id_round_trips_each_strategy(self):
        for strategy in MessageStrategy:
            result, program = build_cured(strategy)
            assert surviving_check_ids(program) == result.inventory.ids()


class TestRuntimeAndMetadata:
    def test_trimmed_runtime_is_linked(self):
        _, program = build_cured()
        assert program.lookup_function("__ccured_fail") is not None
        assert program.lookup_function("__ccured_check_ptr") is not None
        runtime_functions = [f for f in program.iter_functions()
                             if f.origin == RUNTIME_UNIT]
        assert len(runtime_functions) <= 6

    def test_full_runtime_brings_in_the_desktop_baggage(self):
        result, program = build_cured(runtime_mode=RuntimeMode.FULL)
        names = {f.name for f in program.iter_functions()
                 if f.origin == RUNTIME_UNIT}
        assert {"__ccured_gc_malloc", "__ccured_memcpy", "__ccured_strlen",
                "__ccured_signal_handler"} <= names
        assert "__ccured_gc_heap" in program.globals

    def test_cures_with_one_config_share_no_runtime_node(self):
        """The runtime is parsed once per configuration, and each cure
        links copies of its own."""
        from repro.cminor.visitor import walk_function_expressions, \
            walk_statements

        def runtime_nodes(program):
            nodes = set()
            for func in program.iter_functions():
                if func.origin == RUNTIME_UNIT:
                    nodes.add(id(func))
                    nodes.update(map(id, walk_statements(func.body)))
                    nodes.update(map(id, walk_function_expressions(func.body)))
            for var in program.iter_globals():
                if var.origin == RUNTIME_UNIT:
                    nodes.add(id(var))
            return nodes

        (first, one), (second, other) = build_cured(), build_cured()
        assert first.runtime.functions and first.runtime.globals
        shared = runtime_nodes(one) & runtime_nodes(other)
        assert runtime_nodes(one) and not shared

    def test_fat_pointer_metadata_for_seq_globals(self):
        _, program = build_cured()
        assert f"{METADATA_PREFIX}cursor" in program.globals

    def test_safe_global_pointers_get_no_metadata(self):
        program = make_program("""
uint16_t value;
uint16_t* direct;
__spontaneous void main(void) {
  direct = &value;
  *direct = 3;
}
""")
        cure(program, CCuredConfig(run_optimizer=False))
        assert f"{METADATA_PREFIX}direct" not in program.globals

    def test_report_contains_the_headline_numbers(self):
        result, _ = build_cured()
        report = result.report()
        assert report["checks_inserted"] == result.checks_inserted
        assert report["seq_pointers"] >= 1
        assert report["optimizer_removed"] == 0
