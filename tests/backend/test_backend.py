"""Tests for the backend: cost models, gcc-strength optimization, images."""

import pytest

from repro.backend.gcc_opt import gcc_optimize
from repro.backend.image import build_image
from repro.backend.target import cost_model_for
from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.instrument import cure
from repro.cminor import ast_nodes as ast
from repro.cminor.parser import parse_expression

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import count_calls, make_program


class TestCostModels:
    def test_models_exist_for_both_platforms(self):
        mica2 = cost_model_for("mica2")
        telosb = cost_model_for("telosb")
        assert mica2.platform.name == "mica2"
        assert telosb.platform.name == "telosb"

    def test_wider_operations_cost_more_on_the_avr(self):
        costs = cost_model_for("mica2")
        narrow = parse_expression("1")
        narrow.ctype = __import__("repro.cminor.typesys", fromlist=["UINT8"]).UINT8
        wide = parse_expression("1")
        wide.ctype = __import__("repro.cminor.typesys", fromlist=["UINT32"]).UINT32
        assert costs.expr_bytes(wide) > costs.expr_bytes(narrow)

    def test_sixteen_bit_ops_are_cheaper_on_the_msp430(self):
        from repro.cminor import typesys as ty

        expr = ast.BinaryOp("+", ast.IntLiteral(1), ast.IntLiteral(2))
        expr.ctype = ty.UINT16
        avr = cost_model_for("mica2")
        msp = cost_model_for("telosb")
        assert msp.expr_cycles(expr) <= avr.expr_cycles(expr)

    def test_atomic_without_irq_save_is_cheaper(self):
        costs = cost_model_for("mica2")
        saving = ast.Atomic(ast.Block([]), save_irq=True)
        plain = ast.Atomic(ast.Block([]), save_irq=False)
        assert costs.stmt_bytes(plain) < costs.stmt_bytes(saving)
        assert costs.stmt_cycles(plain) < costs.stmt_cycles(saving)

    def test_division_is_expensive(self):
        from repro.cminor import typesys as ty

        costs = cost_model_for("mica2")
        div = ast.BinaryOp("/", ast.IntLiteral(10), ast.IntLiteral(3))
        div.ctype = ty.UINT16
        add = ast.BinaryOp("+", ast.IntLiteral(10), ast.IntLiteral(3))
        add.ctype = ty.UINT16
        assert costs.expr_cycles(div) > costs.expr_cycles(add)


class TestGccOptimize:
    def test_literal_arithmetic_is_folded(self):
        program = make_program("""
uint8_t sink;
__spontaneous void main(void) { sink = 2 + 3 * 4; }
""")
        report = gcc_optimize(program)
        assert report.constants_folded >= 2
        assign = [s for s in program.lookup_function("main").body.stmts
                  if isinstance(s, ast.Assign)][0]
        assert isinstance(assign.rvalue, ast.IntLiteral)
        assert assign.rvalue.value == 14

    def test_uncalled_static_functions_are_dropped(self):
        program = make_program("""
void never_called(void) { }
__spontaneous void main(void) { }
""")
        report = gcc_optimize(program)
        assert report.functions_removed == 1
        assert program.lookup_function("never_called") is None

    def test_easy_checks_are_removed_but_hard_ones_stay(self):
        # The two consecutive stores through the same unmodified pointer give
        # the backend an "easy" duplicate check to delete; the data-dependent
        # index in fetch() is beyond it.
        program = make_program("""
struct rec { uint16_t value; uint16_t other; };
struct rec item;
uint8_t table[4];
uint8_t fetch(uint8_t i) { return table[i]; }
void fill(struct rec* p) {
  p->value = 3;
  p->other = 4;
}
__spontaneous void main(void) {
  fill(&item);
  fetch(200);
}
""")
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                   run_optimizer=False))
        before = (count_calls(program, "__ccured_check_ptr")
                  + count_calls(program, "__ccured_check_null")
                  + count_calls(program, "__ccured_check_wild"))
        report = gcc_optimize(program)
        after = (count_calls(program, "__ccured_check_ptr")
                 + count_calls(program, "__ccured_check_null")
                 + count_calls(program, "__ccured_check_wild"))
        assert report.checks_removed >= 1
        assert after >= 1, "the data-dependent index check must survive gcc"
        assert after == before - report.checks_removed

    def test_a_check_after_a_nested_block_that_moves_the_pointer_stays(self):
        program = make_program("""
struct rec { uint16_t value; uint16_t other; };
struct rec first;
struct rec second;
void fill(struct rec* p, struct rec* q) {
  p->value = 3;
  { p = q; }
  p->value = 4;
}
__spontaneous void main(void) { fill(&first, &second); }
""")
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                   run_optimizer=False))
        assert count_calls(program, "__ccured_check_null") == 2
        report = gcc_optimize(program)
        assert report.duplicate_checks_removed == 0
        assert count_calls(program, "__ccured_check_null") == 2

    def test_literal_branches_are_folded(self):
        program = make_program("""
uint8_t sink;
__spontaneous void main(void) {
  if (1) { sink = 1; } else { sink = 2; }
  if (0) { sink = 3; }
}
""")
        report = gcc_optimize(program)
        assert report.branches_folded == 2
        assert not any(isinstance(s, ast.If)
                       for s in program.lookup_function("main").body.stmts)


class TestMemoryImage:
    SOURCE = """
uint8_t small;
uint16_t initialized = 7;
uint8_t buffer[32];
uint8_t greet(void) {
  char* message = "hello";
  return (uint8_t)message[0];
}
__spontaneous void main(void) { small = greet(); }
"""

    def test_sections_are_accounted(self):
        program = make_program(self.SOURCE)
        image = build_image(program)
        assert image.bss_bytes >= 33          # small + buffer
        assert image.data_bytes >= 2          # initialized
        assert image.text_bytes > 0
        assert image.ram_bytes == image.data_bytes + image.bss_bytes + \
            image.string_ram_bytes

    def test_strings_occupy_ram_on_the_mica2(self):
        program = make_program(self.SOURCE)
        image = build_image(program)
        assert image.string_ram_bytes == len("hello") + 1
        assert image.string_rom_bytes == 0

    def test_strings_stay_in_flash_on_the_telosb(self):
        program = make_program(self.SOURCE, platform="telosb")
        image = build_image(program, cost_model_for("telosb"))
        assert image.string_ram_bytes == 0
        assert image.string_rom_bytes == len("hello") + 1

    def test_rom_strings_are_counted_as_code(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("greet")
        from repro.cminor.visitor import walk_function_expressions

        for expr in walk_function_expressions(func.body):
            if isinstance(expr, ast.StringLiteral):
                expr.in_rom = True
        image = build_image(program)
        assert image.string_ram_bytes == 0
        assert image.code_bytes > image.text_bytes

    def test_duplicate_strings_are_pooled(self):
        program = make_program("""
uint8_t sink;
uint8_t f(void) { char* a = "same"; return (uint8_t)a[0]; }
uint8_t g(void) { char* b = "same"; return (uint8_t)b[0]; }
__spontaneous void main(void) { sink = f() + g(); }
""")
        image = build_image(program)
        assert image.string_ram_bytes == len("same") + 1

    def test_per_symbol_sizes_and_footprint(self):
        program = make_program(self.SOURCE)
        image = build_image(program)
        assert "main" in image.function_sizes and "greet" in image.function_sizes
        rom, ram = image.footprint_of({"greet"}, {"buffer"})
        assert rom == image.function_sizes["greet"]
        assert ram == 32

    def test_more_statements_mean_more_code(self):
        small = make_program("uint8_t x;\n__spontaneous void main(void) { x = 1; }")
        large = make_program("""
uint8_t x;
__spontaneous void main(void) {
  x = 1; x = 2; x = 3; x = 4; x = 5; x = 6; x = 7; x = 8;
}
""")
        assert build_image(large).text_bytes > build_image(small).text_bytes

    def test_surviving_checks_recorded_in_image(self):
        program = make_program("""
uint8_t table[4];
uint8_t fetch(uint8_t i) { return table[i]; }
__spontaneous void main(void) { fetch(9); }
""")
        result = cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                            run_optimizer=False))
        image = build_image(program)
        assert image.surviving_checks == result.inventory.ids()
