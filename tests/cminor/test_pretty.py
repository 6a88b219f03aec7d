"""Tests for the pretty-printer, including a parse/print round-trip property."""

import pytest
from hypothesis import given, strategies as st

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.parser import parse_expression, parse_statement
from repro.cminor.pretty import PrettyPrinter, to_source

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


class TestExpressions:
    @pytest.mark.parametrize("source", [
        "a + b * c",
        "(a + b) * c",
        "a & b | c",
        "x << 2 | y >> 3",
        "!flag && count > 0",
        "buffer[i + 1]",
        "msg->data[0]",
        "packet.header.length",
        "*p + 1",
        "&table[3]",
        "f(a, b + 1)",
        "(uint16_t)value",
        "a ? b : c",
    ])
    def test_roundtrip_preserves_structure(self, source):
        first = parse_expression(source)
        printed = to_source(first)
        second = parse_expression(printed)
        assert first == second, f"{source!r} -> {printed!r}"

    def test_string_escaping(self):
        literal = ast.StringLiteral('he said "hi"\n')
        printed = to_source(literal)
        assert printed == '"he said \\"hi\\"\\n"'

    def test_type_formatting(self):
        printer = PrettyPrinter()
        assert printer.format_type(ty.PointerType(ty.UINT8), "p") == "uint8_t* p"
        assert printer.format_type(ty.ArrayType(ty.UINT16, 4), "t") == "uint16_t t[4]"


class TestStatements:
    def test_if_else_layout(self):
        stmt = parse_statement("if (a) { x = 1; } else { x = 2; }")
        text = to_source(stmt)
        assert "if (a) {" in text and "} else {" in text

    def test_atomic_marks_injected_sections(self):
        atomic = ast.Atomic(ast.Block([]), synthetic=True)
        assert "injected" in to_source(atomic)

    def test_post_statement(self):
        assert to_source(parse_statement("post report();")) == "post report();"

    def test_vardecl_with_qualifiers(self):
        stmt = parse_statement("const uint8_t limit = 3;")
        assert to_source(stmt) == "const uint8_t limit = 3;"


class TestProgramPrinting:
    def test_whole_program_roundtrips(self):
        source = """
struct item { uint8_t kind; uint16_t value; };
struct item inventory[4];
uint16_t total = 0;

uint16_t tally(void) {
  uint8_t i;
  uint16_t sum = 0;
  for (i = 0; i < 4; i++) {
    sum = sum + inventory[i].value;
  }
  return sum;
}

__spontaneous void main(void) {
  total = tally();
}
"""
        program = make_program(source)
        printed = to_source(program)
        reparsed = make_program(printed)
        assert set(reparsed.functions) == set(program.functions)
        assert set(reparsed.globals) == set(program.globals)

    def test_function_attributes_survive_printing(self):
        program = make_program(
            '__interrupt("ADC") void handler(void) { }\n'
            '__spontaneous void main(void) { }')
        printed = to_source(program)
        assert '__interrupt("ADC")' in printed
        assert "__spontaneous" in printed


@st.composite
def literal_expressions(draw):
    """Small random integer expressions over literals."""
    depth = draw(st.integers(0, 3))

    def build(level):
        if level == 0:
            return ast.IntLiteral(draw(st.integers(0, 1000)))
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return ast.BinaryOp(op, build(level - 1),
                            ast.IntLiteral(draw(st.integers(0, 1000))))

    return build(depth)


class TestRoundTripProperty:
    @given(literal_expressions())
    def test_literal_expression_roundtrip(self, expr):
        printed = to_source(expr)
        reparsed = parse_expression(printed)
        assert expr == reparsed
