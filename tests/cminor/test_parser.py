"""Tests for the CMinor parser."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import ParseError
from repro.cminor.parser import parse_expression, parse_program, parse_statement
from repro.cminor.pretty import to_source


class TestExpressions:
    def test_precedence_multiplication_before_addition(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(a + b) * c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "*"
        assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "+"

    def test_comparison_and_logical(self):
        expr = parse_expression("a < b && c != 0")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "&&"

    def test_unary_operators(self):
        assert isinstance(parse_expression("!x"), ast.UnaryOp)
        assert isinstance(parse_expression("*p"), ast.Deref)
        assert isinstance(parse_expression("&x"), ast.AddressOf)
        assert isinstance(parse_expression("~mask"), ast.UnaryOp)

    def test_cast_expression(self):
        expr = parse_expression("(uint8_t)(x + 1)")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type == ty.UINT8

    def test_cast_of_pointer_type(self):
        expr = parse_expression("(uint16_t*)0x40")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type == ty.PointerType(ty.UINT16)

    def test_index_and_member(self):
        expr = parse_expression("table[i].field")
        assert isinstance(expr, ast.Member)
        assert isinstance(expr.base, ast.Index)

    def test_arrow_access(self):
        expr = parse_expression("msg->length")
        assert isinstance(expr, ast.Member) and expr.arrow

    def test_call_with_arguments(self):
        expr = parse_expression("f(1, x, g(y))")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3
        assert isinstance(expr.args[2], ast.Call)

    def test_ternary(self):
        expr = parse_expression("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_sizeof_type(self):
        expr = parse_expression("sizeof(uint32_t)")
        assert isinstance(expr, ast.SizeOf)
        assert expr.of_type == ty.UINT32

    def test_true_false_null_literals(self):
        assert parse_expression("true").value == 1
        assert parse_expression("false").value == 0
        assert parse_expression("NULL").value == 0

    def test_string_literal(self):
        expr = parse_expression('"abc"')
        assert isinstance(expr, ast.StringLiteral)
        assert expr.value == "abc"


def _is_while_one(stmt) -> bool:
    """``stmt`` is the parser's one loop form, ``while (1) { ... }``."""
    return (isinstance(stmt, ast.While) and isinstance(stmt.cond, ast.IntLiteral)
            and stmt.cond.value == 1)


def _is_exit_test(stmt, op: str) -> bool:
    """``stmt`` is ``if (!(a op b)) break;``."""
    return (isinstance(stmt, ast.If) and stmt.else_body is None
            and isinstance(stmt.cond, ast.UnaryOp) and stmt.cond.op == "!"
            and stmt.cond.operand.op == op
            and [type(s) for s in stmt.then_body.stmts] == [ast.Break])


class TestStatements:
    def test_compound_assignment_is_desugared(self):
        stmt = parse_statement("x += 2;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.rvalue, ast.BinaryOp) and stmt.rvalue.op == "+"

    def test_increment_is_desugared(self):
        stmt = parse_statement("x++;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.rvalue, ast.BinaryOp)
        assert stmt.rvalue.right.value == 1

    def test_if_else(self):
        stmt = parse_statement("if (a) { x = 1; } else { x = 2; }")
        assert isinstance(stmt, ast.If)
        assert stmt.else_body is not None

    def test_if_without_braces_gets_block(self):
        stmt = parse_statement("if (a) x = 1;")
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.then_body, ast.Block)

    def test_while_loop(self):
        stmt = parse_statement("while (i < 10) { i++; }")
        assert _is_while_one(stmt)
        guard, step = stmt.body.stmts
        assert _is_exit_test(guard, "<")
        assert isinstance(step, ast.Assign)

    def test_do_while_loop(self):
        stmt = parse_statement("do { i++; } while (i < 10);")
        assert _is_while_one(stmt)
        step, guard = stmt.body.stmts
        assert isinstance(step, ast.Assign)
        assert _is_exit_test(guard, "<")

    def test_for_loop(self):
        stmt = parse_statement("for (i = 0; i < 4; i++) { total += i; }")
        # The init moves in front of the loop; the update ends its body.
        assert isinstance(stmt, ast.Block)
        init, loop = stmt.stmts
        assert isinstance(init, ast.Assign) and init.lvalue.name == "i"
        assert _is_while_one(loop)
        guard, body, update = loop.body.stmts
        assert _is_exit_test(guard, "<")
        assert body.lvalue.name == "total" and update.lvalue.name == "i"

    def test_for_loop_with_declaration(self):
        stmt = parse_statement("for (uint8_t i = 0; i < 4; i++) { }")
        init, loop = stmt.stmts
        assert isinstance(init, ast.VarDecl)
        assert _is_while_one(loop) and len(loop.body.stmts) == 2

    def test_for_loop_without_init_or_condition(self):
        stmt = parse_statement("for (;;) { x = 1; }")
        assert _is_while_one(stmt)
        assert [type(s) for s in stmt.body.stmts] == [ast.Assign]

    def test_empty_statements_are_dropped(self):
        assert parse_statement(";") == ast.Block([])
        stmt = parse_statement("if (a) ; else { ; { } }")
        assert stmt.then_body.stmts == [] and stmt.else_body.stmts == []

    def test_new_nodes_carry_the_source_locations(self):
        stmt = parse_statement("for (i = 0;\n i < 4; i++) { }")
        _, loop = stmt.stmts
        guard = loop.body.stmts[0]
        assert loop.loc.line == loop.cond.loc.line == 1
        assert guard.loc.line == guard.then_body.stmts[0].loc.line == 2

    def test_atomic_statement(self):
        stmt = parse_statement("atomic { x = 1; }")
        assert isinstance(stmt, ast.Atomic)

    def test_post_statement(self):
        stmt = parse_statement("post sendTask();")
        assert isinstance(stmt, ast.Post)
        assert stmt.task == "sendTask"

    def test_return_break_continue(self):
        assert isinstance(parse_statement("return 3;"), ast.Return)
        assert isinstance(parse_statement("break;"), ast.Break)
        assert isinstance(parse_statement("continue;"), ast.Continue)

    def test_local_declaration_with_initializer(self):
        stmt = parse_statement("uint16_t total = a + b;")
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.ctype == ty.UINT16


class TestNames:
    def test_shadowing_locals_get_fresh_names(self):
        """A local that would shadow a global or a local gets ``name__N``
        and every use in its scope follows it; an initializer still reads
        the enclosing scope."""
        unit = parse_program("""
uint8_t x;
void f(uint8_t a) {
  uint8_t y = x;
  { uint8_t x = a; uint8_t y = x + y; a = y; }
  x = y;
}
""")
        assert to_source(unit.functions[0]) == """void f(uint8_t a) {
  uint8_t y = x;
  {
    uint8_t x__1 = a;
    uint8_t y__1 = x__1 + y;
    a = y__1;
  }
  x = y;
}"""

    def test_loop_parts_keep_the_names_of_their_scope(self):
        """A ``for``'s update and a ``do``/``while``'s test are spliced into
        the body but still read the variables they were written with."""
        loop = parse_statement(
            "for (uint8_t i = 0; i < 3; i++) { uint8_t i = 7; }")
        decl, inner = loop.stmts[0], loop.stmts[1].body.stmts
        assert decl.name == "i" and inner[1].name == "i__1"
        assert inner[-1].lvalue.name == "i"
        block = parse_statement(
            "{ uint8_t k = 0; do { uint8_t k = 1; } while (k > 0); }")
        body = block.stmts[1].body.stmts
        assert body[0].name == "k__1"
        assert body[-1].cond.operand.left.name == "k"

    def test_called_names_are_not_resolved_to_locals(self):
        unit = parse_program("""
uint8_t g(void) { return 1; }
void f(void) { uint8_t g = 2; { uint8_t g = g(); } }
""")
        inner = unit.functions[1].body.stmts[1].stmts[0]
        assert inner.name == "g__1" and inner.init.callee == "g"


class TestTopLevel:
    def test_struct_definition(self):
        unit = parse_program("""
struct point { int16_t x; int16_t y; };
struct point origin;
""")
        struct = unit.structs.get("point")
        assert struct is not None and len(struct.fields) == 2
        assert unit.globals[0].ctype == struct

    def test_global_array_with_initializer(self):
        unit = parse_program("uint8_t table[4] = {1, 2, 3, 4};")
        var = unit.globals[0]
        assert isinstance(var.ctype, ty.ArrayType) and var.ctype.length == 4
        assert isinstance(var.init, ast.InitList)

    def test_global_qualifiers(self):
        unit = parse_program("const uint8_t limit = 7; norace uint8_t flags;")
        assert unit.globals[0].is_const
        assert unit.globals[1].is_norace

    def test_function_definition_and_params(self):
        unit = parse_program("uint8_t add(uint8_t a, uint8_t b) { return a + b; }")
        func = unit.functions[0]
        assert func.name == "add" and len(func.params) == 2

    def test_void_parameter_list(self):
        unit = parse_program("void init(void) { }")
        assert unit.functions[0].params == []

    def test_array_parameter_decays_to_pointer(self):
        unit = parse_program("void fill(uint8_t buffer[8]) { buffer[0] = 1; }")
        param = unit.functions[0].params[0]
        assert isinstance(param.ctype, ty.PointerType)

    def test_function_attributes(self):
        unit = parse_program("""
__interrupt("ADC") void adc_handler(void) { }
__spontaneous void boot(void) { }
__inline uint8_t tiny(void) { return 1; }
""")
        assert unit.functions[0].attributes["interrupt"] == "ADC"
        assert unit.functions[1].is_spontaneous
        assert unit.functions[2].always_inline

    def test_prototypes_are_skipped(self):
        unit = parse_program("uint8_t helper(uint8_t x);\nuint8_t helper(uint8_t x) { return x; }")
        assert len(unit.functions) == 1

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("uint8_t broken( { }", unit_name="bad.c")
        assert "bad.c" in str(excinfo.value)

    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("uint8_t x = 1")

    def test_attribute_on_global_is_rejected(self):
        with pytest.raises(ParseError):
            parse_program("__spontaneous uint8_t x;")
