"""Tests for the AST traversal and rewriting helpers."""

from repro.cminor import ast_nodes as ast
from repro.cminor.parser import parse_expression, parse_statement
from repro.cminor.visitor import (
    clone_block,
    clone_expression,
    clone_statement,
    collect_called_functions,
    collect_identifiers,
    count_statements,
    expressions_equal,
    map_expression,
    statement_expressions,
    transform_block,
    walk_expression,
    walk_statements,
)

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


class TestExpressionTraversal:
    def test_walk_expression_visits_all_nodes(self):
        expr = parse_expression("f(a[i], b + c->d)")
        kinds = [type(node).__name__ for node in walk_expression(expr)]
        assert "Call" in kinds and "Index" in kinds and "Member" in kinds

    def test_map_expression_rewrites_bottom_up(self):
        expr = parse_expression("a + b")

        def rename(node):
            if isinstance(node, ast.Identifier):
                node.name = node.name.upper()
            return node

        result = map_expression(expr, rename)
        assert {n.name for n in walk_expression(result)
                if isinstance(n, ast.Identifier)} == {"A", "B"}

    def test_map_expression_can_replace_nodes(self):
        expr = parse_expression("a + 1")

        def fold(node):
            if isinstance(node, ast.Identifier):
                return ast.IntLiteral(41)
            return node

        result = map_expression(expr, fold)
        literals = [n.value for n in walk_expression(result)
                    if isinstance(n, ast.IntLiteral)]
        assert sorted(literals) == [1, 41]

    def test_expressions_equal_ignores_locations(self):
        left = parse_expression("a[i] + f(1)")
        right = parse_expression("a[ i ] + f( 1 )")
        assert expressions_equal(left, right)
        assert not expressions_equal(left, parse_expression("a[j] + f(1)"))

    def test_clone_expression_is_independent(self):
        original = parse_expression("x + y")
        clone = clone_expression(original)
        clone.left.name = "z"
        assert original.left.name == "x"


class TestStatementTraversal:
    SOURCE = """
uint8_t table[4];
uint8_t total;
void helper(void) { total = 0; }
__spontaneous void main(void) {
  uint8_t i;
  for (i = 0; i < 4; i++) {
    if (table[i] > 2) {
      helper();
    } else {
      total = total + table[i];
    }
  }
  post work();
}
void work(void) { }
"""

    def test_walk_statements_reaches_nested_statements(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        kinds = {type(s).__name__ for s in walk_statements(func.body)}
        assert {"While", "If", "Assign", "ExprStmt", "Post"} <= kinds

    def test_collect_called_functions_includes_posts(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        assert collect_called_functions(func.body) == {"helper", "work"}

    def test_collect_identifiers(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        names = collect_identifiers(func.body)
        assert {"i", "table", "total"} <= names

    def test_count_statements_excludes_blocks(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("helper")
        assert count_statements(func.body) == 1

    def test_statement_expressions_of_if(self):
        stmt = parse_statement("if (a > b) { x = 1; }")
        exprs = statement_expressions(stmt)
        assert len(exprs) == 1 and isinstance(exprs[0], ast.BinaryOp)

    def test_transform_block_can_delete_and_expand(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        before = count_statements(func.body)

        def drop_posts(stmt):
            if isinstance(stmt, ast.Post):
                return None
            if isinstance(stmt, ast.ExprStmt):
                return [stmt, clone_statement(stmt)]
            return stmt

        transform_block(func.body, drop_posts)
        after_stmts = list(walk_statements(func.body))
        assert not any(isinstance(s, ast.Post) for s in after_stmts)
        assert count_statements(func.body) == before  # one removed, one doubled

    def test_clone_statement_assigns_fresh_node_ids(self):
        stmt = parse_statement("if (a) { b = 1; }")
        clone = clone_statement(stmt)
        original_ids = {s.node_id for s in walk_statements(ast.Block([stmt]))}
        clone_ids = {s.node_id for s in walk_statements(ast.Block([clone]))}
        assert original_ids.isdisjoint(clone_ids)

    def test_clone_block_preserves_structure(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        clone = clone_block(func.body)
        assert count_statements(clone) == count_statements(func.body)
