"""Tests for the CMinor type checker."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import TypeCheckError
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import walk_function_expressions, walk_statements

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


GOOD_PROGRAM = """
struct pair { uint16_t first; uint16_t second; };
uint8_t table[8];
struct pair current;
uint16_t total = 0;

uint16_t sum(uint8_t* values, uint8_t count) {
  uint8_t i;
  uint16_t result = 0;
  for (i = 0; i < count; i++) {
    result = result + values[i];
  }
  return result;
}

__spontaneous void main(void) {
  struct pair* p = &current;
  total = sum(table, 8);
  p->first = total;
  current.second = p->first + 1;
  if (total > 100 && p != NULL) {
    total = 0;
  }
}
"""


class TestAcceptedPrograms:
    def test_good_program_checks(self):
        program = make_program(GOOD_PROGRAM)
        assert program.lookup_function("sum") is not None

    def test_expressions_are_annotated_with_types(self):
        program = make_program(GOOD_PROGRAM)
        func = program.lookup_function("sum")
        for expr in walk_function_expressions(func.body):
            assert expr.ctype is not None, f"unannotated {type(expr).__name__}"

    def test_pointer_member_access_type(self):
        program = make_program(GOOD_PROGRAM)
        main = program.lookup_function("main")
        members = [e for e in walk_function_expressions(main.body)
                   if isinstance(e, ast.Member)]
        assert members
        assert all(m.ctype == ty.UINT16 for m in members)

    def test_call_type_is_return_type(self):
        program = make_program(GOOD_PROGRAM)
        main = program.lookup_function("main")
        calls = [e for e in walk_function_expressions(main.body)
                 if isinstance(e, ast.Call) and e.callee == "sum"]
        assert calls and calls[0].ctype == ty.UINT16

    def test_builtin_calls_are_checked(self):
        make_program("""
__spontaneous void main(void) {
  uint8_t v = __hw_read8(59);
  __hw_write8(59, v);
  __sleep();
}
""")

    def test_string_initializer_for_char_array(self):
        make_program('uint8_t name[8] = "abcdefg";\n__spontaneous void main(void) { }')

    def test_comparison_of_pointer_and_null(self):
        make_program("""
uint8_t data[4];
__spontaneous void main(void) {
  uint8_t* p = data;
  if (p == NULL) {
    p = data;
  }
}
""")

    def test_global_initializers_fold_to_wrapped_literals(self):
        program = make_program("""
int16_t g = -5;
uint8_t table[3] = {1 + 1, (uint8_t) 300, sizeof(uint16_t)};
__spontaneous void main(void) { }
""")
        assert program.globals["g"].init == ast.IntLiteral(-5)
        assert program.globals["table"].init.items == [
            ast.IntLiteral(2), ast.IntLiteral(44), ast.IntLiteral(2)]

    def test_local_initializer_may_reference_parameters(self):
        make_program("""
uint8_t twice(uint8_t x) {
  uint8_t doubled = x + x;
  return doubled;
}
__spontaneous void main(void) { twice(3); }
""")


class TestRejectedPrograms:
    def rejects(self, source):
        with pytest.raises(TypeCheckError):
            make_program(source)

    def test_undeclared_identifier(self):
        self.rejects("__spontaneous void main(void) { missing = 1; }")

    def test_unknown_function(self):
        self.rejects("__spontaneous void main(void) { nothing(); }")

    def test_wrong_argument_count(self):
        self.rejects("""
uint8_t f(uint8_t a) { return a; }
__spontaneous void main(void) { f(1, 2); }
""")

    def test_assigning_struct_to_int(self):
        self.rejects("""
struct pair { uint16_t a; uint16_t b; };
struct pair p;
__spontaneous void main(void) { uint8_t x = p; }
""")

    def test_dereferencing_non_pointer(self):
        self.rejects("__spontaneous void main(void) { uint8_t x = 1; uint8_t y = *x; }")

    def test_member_of_non_struct(self):
        self.rejects("__spontaneous void main(void) { uint8_t x = 1; x.field = 2; }")

    def test_unknown_struct_field(self):
        self.rejects("""
struct pair { uint16_t a; uint16_t b; };
struct pair p;
__spontaneous void main(void) { p.c = 1; }
""")

    def test_return_value_from_void_function(self):
        self.rejects("void f(void) { return 1; }\n__spontaneous void main(void) { f(); }")

    def test_missing_return_value(self):
        self.rejects("uint8_t f(void) { return; }\n__spontaneous void main(void) { f(); }")

    def test_assignment_to_non_lvalue(self):
        self.rejects("__spontaneous void main(void) { uint8_t x; x + 1 = 2; }")

    def test_assigning_to_array(self):
        self.rejects("""
uint8_t a[4];
uint8_t b[4];
__spontaneous void main(void) { a = b; }
""")

    def test_duplicate_local_in_same_scope(self):
        self.rejects("__spontaneous void main(void) { uint8_t x; uint8_t x; }")

    def test_local_declared_twice_in_one_function(self):
        """A pass that declares one name in two blocks breaks the flat
        local table every later pass reads."""
        program = make_program("""
__spontaneous void main(void) {
  { uint8_t a = 1; }
  { uint8_t b = 2; }
}
""")
        decls = [s for s in walk_statements(program.functions["main"].body)
                 if isinstance(s, ast.VarDecl)]
        decls[1].name = "a"
        # ... and reports the change, as every pass does.
        program.invalidate_analysis("main")
        with pytest.raises(TypeCheckError, match="'a' is declared twice"):
            check_program(program)

    def test_global_used_under_a_local_name(self):
        """The parser cannot rename a local after a global it has not seen
        yet; the checker rejects the function that uses both."""
        with pytest.raises(TypeCheckError, match="shares its name"):
            make_program("""
__spontaneous void main(void) {
  { uint8_t x = 2; }
  x = 1;
}
uint8_t x;
""")

    def test_break_or_continue_outside_a_loop(self):
        for keyword in ("break", "continue"):
            with pytest.raises(TypeCheckError, match="not within a loop"):
                make_program(f"""
uint8_t n;
void helper(void) {{ n = n + 1; {keyword}; }}
__spontaneous void main(void) {{ while (1) {{ helper(); }} }}
""")

    def test_duplicate_struct_definition_conflicts(self):
        self.rejects("""
struct p { uint8_t a; };
struct p { uint16_t a; };
__spontaneous void main(void) { }
""")

    def test_post_of_unknown_task(self):
        self.rejects("__spontaneous void main(void) { post nothing(); }")

    def test_void_variable(self):
        self.rejects("__spontaneous void main(void) { void x; }")

    def test_non_scalar_condition(self):
        self.rejects("""
struct pair { uint16_t a; uint16_t b; };
struct pair p;
__spontaneous void main(void) { if (p) { } }
""")

    def test_too_many_array_initializers(self):
        self.rejects("uint8_t t[2] = {1, 2, 3};\n__spontaneous void main(void) { }")

    def test_global_initialized_from_a_global(self):
        self.rejects("uint8_t a = 1;\nuint8_t b = a;\n"
                     "__spontaneous void main(void) { }")

    def test_global_initialized_from_a_call(self):
        self.rejects("uint8_t f(void) { return 1; }\nuint8_t b = f();\n"
                     "__spontaneous void main(void) { }")
