"""Tests for the CIL-style simplification the parser performs.

The parser emits every loop as ``while (1)`` with explicit ``if (!c)
break;`` exits and drops ``;`` statements and empty nested blocks, so these
tests check its output directly.
"""

from repro.cminor import ast_nodes as ast
from repro.cminor.visitor import walk_statements

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program, statements_of


def loop_statements(program, function="main"):
    return [s for s in statements_of(program, function)
            if isinstance(s, ast.While)]


class TestLoopNormalization:
    def test_for_becomes_while_one(self):
        program = make_program("""
uint8_t total;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 4; i++) { total = total + i; }
}
""")
        loops = loop_statements(program)
        assert len(loops) == 1
        assert isinstance(loops[0], ast.While)
        assert isinstance(loops[0].cond, ast.IntLiteral) and loops[0].cond.value == 1

    def test_while_condition_becomes_guarded_break(self):
        program = make_program("""
uint8_t n = 10;
__spontaneous void main(void) {
  while (n > 0) { n = n - 1; }
}
""")
        (loop,) = loop_statements(program)
        guard = loop.body.stmts[0]
        assert isinstance(guard, ast.If)
        assert isinstance(guard.then_body.stmts[0], ast.Break)

    def test_do_while_guard_is_at_the_end(self):
        program = make_program("""
uint8_t n = 10;
__spontaneous void main(void) {
  do { n = n - 1; } while (n > 0);
}
""")
        (loop,) = loop_statements(program)
        assert isinstance(loop.body.stmts[-1], ast.If)

    def test_infinite_while_is_left_alone(self):
        program = make_program("""
__spontaneous void main(void) {
  while (1) { __sleep(); }
}
""")
        (loop,) = loop_statements(program)
        assert not any(isinstance(s, ast.If) for s in loop.body.stmts)

    def test_for_continue_still_runs_update(self):
        program = make_program("""
uint8_t total = 0;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 8; i++) {
    if (i == 3) { continue; }
    total = total + 1;
  }
}
""")
        (loop,) = loop_statements(program)
        # The continue must be preceded by a copy of the update statement.
        continues = [s for s in walk_statements(loop.body)
                     if isinstance(s, ast.Continue)]
        assert len(continues) == 1
        then_body = [s for s in walk_statements(loop.body) if isinstance(s, ast.If)
                     and any(isinstance(x, ast.Continue) for x in s.then_body.stmts)]
        assert then_body
        updates_before_continue = [s for s in then_body[0].then_body.stmts
                                   if isinstance(s, ast.Assign)]
        assert updates_before_continue, "update must be duplicated before continue"

    def test_simplify_preserves_statement_semantics_counts(self):
        source = """
uint8_t data[4];
uint8_t total;
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 4; i++) { total = total + data[i]; }
}
"""
        program = make_program(source)
        assigns = [s for s in statements_of(program, "main")
                   if isinstance(s, ast.Assign)]
        # i = 0, total = total + data[i], i = i + 1
        assert len(assigns) == 3


class TestCleanup:
    def test_nops_and_empty_blocks_removed(self):
        program = make_program("""
__spontaneous void main(void) {
  ;
  { }
  { ; }
}
""")
        assert statements_of(program, "main") == []

    def test_nested_blocks_are_preserved_if_nonempty(self):
        program = make_program("""
uint8_t x;
__spontaneous void main(void) {
  { x = 1; }
}
""")
        assigns = [s for s in statements_of(program, "main")
                   if isinstance(s, ast.Assign)]
        assert len(assigns) == 1
