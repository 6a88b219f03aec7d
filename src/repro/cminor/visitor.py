"""Traversal and rewriting helpers shared by every pass in the toolchain.

Passes in CCured and cXprop are all structured the same way: walk statements,
inspect or rewrite the expressions they contain, and occasionally replace a
statement with zero or more new statements.  The helpers here keep that logic
in one place so that individual passes stay small and declarative.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from repro.cminor import ast_nodes as ast

StmtRewrite = Union[ast.Stmt, list[ast.Stmt], None]


# ---------------------------------------------------------------------------
# Expression traversal
# ---------------------------------------------------------------------------


def child_expressions(expr: ast.Expr) -> list[ast.Expr]:
    """Immediate sub-expressions of ``expr`` (non-recursive)."""
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.Deref):
        return [expr.pointer]
    if isinstance(expr, ast.AddressOf):
        return [expr.lvalue]
    if isinstance(expr, ast.Index):
        return [expr.base, expr.index]
    if isinstance(expr, ast.Member):
        return [expr.base]
    if isinstance(expr, ast.Call):
        return list(expr.args)
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.then, expr.otherwise]
    if isinstance(expr, ast.InitList):
        return list(expr.items)
    return []


def walk_expression(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for child in child_expressions(expr):
        yield from walk_expression(child)


def map_expression(expr: ast.Expr, fn: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    """Rewrite an expression bottom-up.

    ``fn`` is applied to every node after its children have been rewritten;
    it must return the (possibly replaced) node.
    """
    if isinstance(expr, ast.BinaryOp):
        expr.left = map_expression(expr.left, fn)
        expr.right = map_expression(expr.right, fn)
    elif isinstance(expr, ast.UnaryOp):
        expr.operand = map_expression(expr.operand, fn)
    elif isinstance(expr, ast.Deref):
        expr.pointer = map_expression(expr.pointer, fn)
    elif isinstance(expr, ast.AddressOf):
        expr.lvalue = map_expression(expr.lvalue, fn)
    elif isinstance(expr, ast.Index):
        expr.base = map_expression(expr.base, fn)
        expr.index = map_expression(expr.index, fn)
    elif isinstance(expr, ast.Member):
        expr.base = map_expression(expr.base, fn)
    elif isinstance(expr, ast.Call):
        expr.args = [map_expression(a, fn) for a in expr.args]
    elif isinstance(expr, ast.Cast):
        expr.operand = map_expression(expr.operand, fn)
    elif isinstance(expr, ast.Ternary):
        expr.cond = map_expression(expr.cond, fn)
        expr.then = map_expression(expr.then, fn)
        expr.otherwise = map_expression(expr.otherwise, fn)
    elif isinstance(expr, ast.InitList):
        expr.items = [map_expression(i, fn) for i in expr.items]
    return fn(expr)


def clone_expression(expr: ast.Expr) -> ast.Expr:
    """Deep-copy an expression subtree (types/locations shared by reference)."""
    from repro.cminor.clone import clone_expr

    return clone_expr(expr)


def clone_statement(stmt: ast.Stmt) -> ast.Stmt:
    """Deep-copy a statement subtree (fresh node identities)."""
    from repro.cminor.clone import clone_stmt

    return clone_stmt(stmt)


def clone_block(block: ast.Block) -> ast.Block:
    """Deep-copy a block."""
    from repro.cminor.clone import clone_block as _clone_block

    return _clone_block(block)


# ---------------------------------------------------------------------------
# Statement traversal
# ---------------------------------------------------------------------------


def child_blocks(stmt: ast.Stmt) -> list[ast.Block]:
    """The blocks nested directly inside a statement."""
    if isinstance(stmt, ast.Block):
        return [stmt]
    if isinstance(stmt, ast.If):
        blocks = [stmt.then_body]
        if stmt.else_body is not None:
            blocks.append(stmt.else_body)
        return blocks
    if isinstance(stmt, (ast.While, ast.Atomic)):
        return [stmt.body]
    return []


def statement_expressions(stmt: ast.Stmt) -> list[ast.Expr]:
    """The top-level expressions contained directly in a statement.

    Does not descend into nested statements; combine with
    :func:`walk_statements` to see every expression in a function.
    """
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, ast.Assign):
        return [stmt.lvalue, stmt.rvalue]
    if isinstance(stmt, ast.ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.cond]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return []


def replace_statement_expressions(stmt: ast.Stmt,
                                  fn: Callable[[ast.Expr], ast.Expr]) -> None:
    """Apply ``fn`` (bottom-up) to each top-level expression of ``stmt``."""
    if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
        stmt.init = map_expression(stmt.init, fn)
    elif isinstance(stmt, ast.Assign):
        stmt.lvalue = map_expression(stmt.lvalue, fn)
        stmt.rvalue = map_expression(stmt.rvalue, fn)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = map_expression(stmt.expr, fn)
    elif isinstance(stmt, (ast.If, ast.While)):
        stmt.cond = map_expression(stmt.cond, fn)
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        stmt.value = map_expression(stmt.value, fn)


def walk_statements(block: ast.Block) -> Iterator[ast.Stmt]:
    """Yield every statement nested anywhere inside ``block``, pre-order."""
    for stmt in block.stmts:
        yield from walk_statements_single(stmt)


def walk_statements_single(stmt: ast.Stmt) -> Iterator[ast.Stmt]:
    """Yield ``stmt`` and every statement nested inside it."""
    yield stmt
    for block in child_blocks(stmt):
        if block is stmt:
            for inner in block.stmts:  # type: ignore[attr-defined]
                yield from walk_statements_single(inner)
        else:
            yield from walk_statements(block)


def walk_function_expressions(block: ast.Block) -> Iterator[ast.Expr]:
    """Yield every expression (recursively) appearing anywhere in ``block``."""
    for stmt in walk_statements(block):
        for expr in statement_expressions(stmt):
            yield from walk_expression(expr)


def transform_block(block: ast.Block,
                    fn: Callable[[ast.Stmt], StmtRewrite]) -> None:
    """Rewrite the statements of a block (recursively), in place.

    ``fn`` receives each statement *after* its nested blocks have been
    transformed and returns either the statement (possibly modified), a list
    of replacement statements, or ``None`` to delete it.
    """
    new_stmts: list[ast.Stmt] = []
    for stmt in block.stmts:
        for child in child_blocks(stmt):
            transform_block(child, fn)
        result = fn(stmt)
        if result is None:
            continue
        if isinstance(result, list):
            new_stmts.extend(result)
        else:
            new_stmts.append(result)
    block.stmts = new_stmts


def count_statements(block: ast.Block) -> int:
    """Number of statements in a block, recursively (excluding blocks)."""
    return sum(1 for s in walk_statements(block) if not isinstance(s, ast.Block))


def expressions_equal(left: ast.Expr, right: ast.Expr) -> bool:
    """Structural equality of two expressions, ignoring locations and types."""
    if type(left) is not type(right):
        return False
    if isinstance(left, ast.IntLiteral):
        return left.value == right.value  # type: ignore[attr-defined]
    if isinstance(left, ast.StringLiteral):
        return left.value == right.value  # type: ignore[attr-defined]
    if isinstance(left, ast.Identifier):
        return left.name == right.name  # type: ignore[attr-defined]
    if isinstance(left, ast.BinaryOp):
        return (left.op == right.op  # type: ignore[attr-defined]
                and expressions_equal(left.left, right.left)  # type: ignore[attr-defined]
                and expressions_equal(left.right, right.right))  # type: ignore[attr-defined]
    if isinstance(left, ast.UnaryOp):
        return (left.op == right.op  # type: ignore[attr-defined]
                and expressions_equal(left.operand, right.operand))  # type: ignore[attr-defined]
    if isinstance(left, ast.Member):
        return (left.fieldname == right.fieldname  # type: ignore[attr-defined]
                and left.arrow == right.arrow  # type: ignore[attr-defined]
                and expressions_equal(left.base, right.base))  # type: ignore[attr-defined]
    if isinstance(left, ast.Cast):
        return (left.target_type == right.target_type  # type: ignore[attr-defined]
                and expressions_equal(left.operand, right.operand))  # type: ignore[attr-defined]
    if isinstance(left, ast.Call):
        if left.callee != right.callee:  # type: ignore[attr-defined]
            return False
        if len(left.args) != len(right.args):  # type: ignore[attr-defined]
            return False
        return all(expressions_equal(a, b)
                   for a, b in zip(left.args, right.args))  # type: ignore[attr-defined]
    left_children = child_expressions(left)
    right_children = child_expressions(right)
    if len(left_children) != len(right_children):
        return False
    return all(expressions_equal(a, b) for a, b in zip(left_children, right_children))


def collect_called_functions(block: ast.Block) -> set[str]:
    """Names of all functions called (or tasks posted) anywhere in ``block``."""
    called: set[str] = set()
    for stmt in walk_statements(block):
        if isinstance(stmt, ast.Post):
            called.add(stmt.task)
        for expr in statement_expressions(stmt):
            for node in walk_expression(expr):
                if isinstance(node, ast.Call):
                    called.add(node.callee)
    return called


def collect_identifiers(block: ast.Block) -> set[str]:
    """Names of all identifiers referenced anywhere in ``block``."""
    names: set[str] = set()
    for expr in walk_function_expressions(block):
        if isinstance(expr, ast.Identifier):
            names.add(expr.name)
    return names
