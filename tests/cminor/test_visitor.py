"""Tests for the AST traversal and rewriting helpers."""

import dataclasses
import typing
from typing import Optional

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.clone import clone_block, clone_expr, clone_node, clone_stmt
from repro.cminor.errors import SourceLocation
from repro.cminor.parser import parse_expression, parse_statement
from repro.cminor.visitor import (
    SHAPES,
    child_blocks,
    child_expressions,
    collect_called_functions,
    collect_identifiers,
    count_statements,
    lvalue_root,
    map_expression,
    node_shape,
    replace_statement_expressions,
    statement_expressions,
    transform_block,
    walk_expression,
    walk_statements,
    walk_statements_single,
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
        assert left == right
        assert left != parse_expression("a[j] + f(1)")

    @pytest.mark.parametrize("source, root", [
        ("x", "x"),
        ("x[i]", "x"),
        ("x.f", "x"),
        ("x[i].f[j].g", "x"),
        ("p->f", None),
        ("x[i].p->f", None),
        ("*p", None),
        ("(*p).f", None),
        ("(*p)[i]", None),
    ])
    def test_lvalue_root_stops_at_pointers(self, source, root):
        assert lvalue_root(parse_expression(source)) == root

    def test_clone_expression_is_independent(self):
        original = parse_expression("x + y")
        clone = clone_expr(original)
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
                return [stmt, clone_stmt(stmt)]
            return stmt

        transform_block(func.body, drop_posts)
        after_stmts = list(walk_statements(func.body))
        assert not any(isinstance(s, ast.Post) for s in after_stmts)
        assert count_statements(func.body) == before  # one removed, one doubled

    def test_clone_statement_assigns_fresh_node_ids(self):
        stmt = parse_statement("if (a) { b = 1; }")
        clone = clone_stmt(stmt)
        original_ids = {s.node_id for s in walk_statements(ast.Block([stmt]))}
        clone_ids = {s.node_id for s in walk_statements(ast.Block([clone]))}
        assert original_ids.isdisjoint(clone_ids)

    def test_clone_block_preserves_structure(self):
        program = make_program(self.SOURCE)
        func = program.lookup_function("main")
        clone = clone_block(func.body)
        assert count_statements(clone) == count_statements(func.body)


def _kinds(base: type) -> list[type]:
    found = []
    for sub in base.__subclasses__():
        found.append(sub)
        found.extend(_kinds(sub))
    return found


#: Every concrete expression and statement kind, found by introspection.
KINDS = sorted(_kinds(ast.Expr) + _kinds(ast.Stmt), key=lambda k: k.__name__)

_LOC = SourceLocation("kinds", 1, 1)


def _leaf(name: str) -> ast.Expr:
    leaf = ast.Identifier(name)
    leaf.ctype = ty.INT16
    leaf.loc = _LOC
    return leaf


def _sample(hint, name: str):
    """A value for a constructor field, a distinct subtree for a child."""
    if hint in (ast.Expr, Optional[ast.Expr]):
        return _leaf(name)
    if hint == list[ast.Expr]:
        return [_leaf(name + "0"), _leaf(name + "1")]
    if hint in (ast.Block, Optional[ast.Block]):
        return ast.Block([ast.ExprStmt(_leaf(name)), ast.Break()])
    if hint == list[ast.Stmt]:
        return [ast.ExprStmt(_leaf(name)), ast.If(_leaf(name + "c"))]
    return {str: name, int: 7, bool: True, ty.CType: ty.INT16,
            Optional[str]: name,
            frozenset[str]: frozenset({"volatile"})}[hint]


def _populated(kind: type) -> ast.Node:
    hints = typing.get_type_hints(kind)
    node = kind(**{f.name: _sample(hints[f.name], f.name)
                   for f in dataclasses.fields(kind) if f.init})
    if isinstance(node, ast.Expr):
        node.ctype = ty.UINT8
    node.loc = _LOC
    return node


def _parts(node: ast.Node) -> list:
    """``node`` and every node and list reachable through its fields."""
    found = [node]
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, list):
            found.append(value)
            for item in value:
                found.extend(_parts(item))
        elif isinstance(value, ast.Node):
            found.extend(_parts(value))
    return found


def _direct(node: ast.Node, kind: type) -> list:
    """The children of type ``kind`` held directly by ``node``'s fields."""
    children = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, kind):
                children.append(item)
    return children


def _blocks(stmt: ast.Stmt) -> list[ast.Block]:
    """The blocks whose statements are nested directly in ``stmt``."""
    return [stmt] if isinstance(stmt, ast.Block) else _direct(stmt, ast.Block)


def _statements(stmt: ast.Stmt) -> list[ast.Stmt]:
    """``stmt`` and every statement nested in it, pre-order."""
    found = [stmt]
    for block in _blocks(stmt):
        for inner in block.stmts:
            found.extend(_statements(inner))
    return found


def _ids(items) -> list[int]:
    return [id(item) for item in items]


class TestEveryNodeKind:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_clone_walkers_and_equality_cover_every_field(self, kind):
        assert kind in SHAPES
        node = _populated(kind)
        parts = _parts(node)

        clone = clone_node(node)
        cloned_parts = _parts(clone)
        assert clone == node
        assert set(_ids(parts)).isdisjoint(_ids(cloned_parts))
        for original, copy_ in zip(parts, cloned_parts):
            if isinstance(original, ast.Node):
                assert copy_.loc is original.loc
            if isinstance(original, ast.Expr):
                assert copy_.ctype is original.ctype
        assert {p.node_id for p in parts if isinstance(p, ast.Stmt)}.isdisjoint(
            p.node_id for p in cloned_parts if isinstance(p, ast.Stmt))

        children = _direct(node, ast.Expr)
        assert _ids(child_expressions(node)) == _ids(children)
        expressions = [p for p in parts if isinstance(p, ast.Expr)]
        seen: list[ast.Expr] = []

        def record(expr: ast.Expr) -> ast.Expr:
            seen.append(expr)
            return expr

        if isinstance(node, ast.Expr):
            assert _ids(walk_expression(node)) == _ids(expressions)
            assert map_expression(node, record) is node
            assert sorted(_ids(seen)) == sorted(_ids(expressions))
        else:
            assert _ids(child_blocks(node)) == _ids(_blocks(node))
            assert _ids(walk_statements_single(node)) == \
                _ids(_statements(node))
            replace_statement_expressions(node, record)
            assert _ids(seen) == _ids(children)

    def test_a_field_the_visitor_cannot_walk_is_an_error(self):
        @dataclasses.dataclass
        class Tupled(ast.Expr):
            items: tuple[ast.Expr, ...] = ()

        with pytest.raises(TypeError, match="Tupled.items"):
            node_shape(Tupled)
