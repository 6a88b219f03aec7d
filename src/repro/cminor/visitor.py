"""Traversal and rewriting helpers shared by every pass in the toolchain.

Passes in CCured and cXprop are all structured the same way: walk statements,
inspect or rewrite the expressions they contain, and occasionally replace a
statement with zero or more new statements.  The helpers here keep that logic
in one place so that individual passes stay small and declarative.

The tree's shape is read once, at import, from the node dataclasses of
:mod:`repro.cminor.ast_nodes`, as CIL derives its one visitor from its one
type definition.  A field annotated ``Expr``, ``Optional[Expr]`` or
``list[Expr]`` holds expression children, one annotated ``Block`` or
``Optional[Block]`` holds a nested block, and a ``Block`` holds its
statements in a ``list[Stmt]``.  Children keep their declaration order.  Any
other annotation that names a node type is an error at import, so a new node
kind needs nothing beyond its dataclass.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Callable, Iterator, Optional, Union

from repro.cminor import ast_nodes as ast

StmtRewrite = Union[ast.Stmt, list[ast.Stmt], None]


# ---------------------------------------------------------------------------
# The shape of the tree
# ---------------------------------------------------------------------------

#: How a field holds children: one expression (or ``None``), a list of
#: expressions, one block (or ``None``), or a block's statements.
EXPR, EXPRS, BLOCK, STMTS = "expr", "exprs", "block", "stmts"

_FORMS = {
    ast.Expr: EXPR,
    Optional[ast.Expr]: EXPR,
    list[ast.Expr]: EXPRS,
    ast.Block: BLOCK,
    Optional[ast.Block]: BLOCK,
    list[ast.Stmt]: STMTS,
}


def _names_node(hint) -> bool:
    if isinstance(hint, type) and issubclass(hint, ast.Node):
        return True
    return any(_names_node(arg) for arg in typing.get_args(hint))


def node_shape(cls: type) -> tuple[tuple[str, Optional[str]], ...]:
    """Every dataclass field of ``cls`` with its child form (``None``: data).

    Raises:
        TypeError: a field's annotation names a node type in none of the
            child forms (``tuple[Expr, ...]``, say), so no walker could
            reach what it holds.
    """
    hints = typing.get_type_hints(cls)
    shape = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        form = _FORMS.get(hint)
        if form is None and _names_node(hint):
            raise TypeError(f"{cls.__name__}.{f.name}: {hint} is not a child "
                            "form the visitor can walk")
        shape.append((f.name, form))
    return tuple(shape)


#: Per expression and statement kind, every field and its child form, in
#: declaration order.
SHAPES: dict[type, tuple[tuple[str, Optional[str]], ...]] = {
    cls: node_shape(cls) for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, (ast.Expr, ast.Stmt))
    and cls not in (ast.Expr, ast.Stmt)}

#: Per kind, its expression children: (field, holds a list).
_EXPR_FIELDS = {cls: tuple((name, form == EXPRS) for name, form in shape
                           if form in (EXPR, EXPRS))
                for cls, shape in SHAPES.items()}
_EXPR_FIELDS_REVERSED = {cls: fields[::-1]
                         for cls, fields in _EXPR_FIELDS.items()}

#: Per kind, the fields holding a nested block.
_BLOCK_FIELDS = {cls: tuple(name for name, form in shape if form == BLOCK)
                 for cls, shape in SHAPES.items()}


# ---------------------------------------------------------------------------
# Expression traversal
# ---------------------------------------------------------------------------


def child_expressions(node: ast.Node) -> list[ast.Expr]:
    """The expressions held directly by an expression or a statement.

    For an expression these are its operands; for a statement, its
    top-level expressions, without descending into nested statements.
    """
    children = []
    for name, many in _EXPR_FIELDS[type(node)]:
        value = getattr(node, name)
        if many:
            children.extend(value)
        elif value is not None:
            children.append(value)
    return children


#: The top-level expressions of a statement; combine with
#: :func:`walk_statements` to see every expression in a function.
statement_expressions = child_expressions


def walk_expression(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        yield node
        for name, many in _EXPR_FIELDS_REVERSED[type(node)]:
            value = getattr(node, name)
            if many:
                extend(reversed(value))
            elif value is not None:
                push(value)


def map_expression(expr: ast.Expr, fn: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    """Rewrite an expression bottom-up.

    ``fn`` is applied to every node after its children have been rewritten;
    it must return the (possibly replaced) node.
    """
    replace_statement_expressions(expr, fn)
    return fn(expr)


def replace_statement_expressions(node: ast.Node,
                                  fn: Callable[[ast.Expr], ast.Expr]) -> None:
    """Apply ``fn`` (bottom-up) to each expression ``node`` holds directly.

    For a statement these are its top-level expressions; nested statements
    are left alone.
    """
    for name, many in _EXPR_FIELDS[type(node)]:
        value = getattr(node, name)
        if many:
            setattr(node, name, [map_expression(item, fn) for item in value])
        elif value is not None:
            setattr(node, name, map_expression(value, fn))


def replace_read_expressions(stmt: ast.Stmt,
                             fn: Callable[[ast.Expr], ast.Expr]) -> None:
    """Apply ``fn`` (bottom-up) to what ``stmt`` reads before it runs.

    These are its top-level expressions, with two exceptions.  Of a store
    target only the array indices and a ``*``'s pointer are rewritten,
    never the variable or the ``->`` base the store goes to.  A loop's
    condition is left out: it is read again after the body has run.
    """
    kind = type(stmt)
    if kind is ast.While:
        return
    if kind is not ast.Assign:
        replace_statement_expressions(stmt, fn)
        return
    stmt.rvalue = map_expression(stmt.rvalue, fn)
    target = stmt.lvalue
    while True:
        kind = type(target)
        if kind is ast.Index:
            target.index = map_expression(target.index, fn)
            target = target.base
        elif kind is ast.Member:
            target = target.base
        else:
            if kind is ast.Deref:
                target.pointer = map_expression(target.pointer, fn)
            return


def lvalue_root(expr: ast.Expr) -> Optional[str]:
    """The variable a store to (or ``&`` of) ``expr`` reaches, if it is named.

    ``x`` for ``x``, ``x[i]``, ``x.f`` and any chain of these; ``None`` once
    the chain goes through a pointer (``->`` or ``*``) or starts elsewhere.
    """
    while True:
        kind = type(expr)
        if kind is ast.Identifier:
            return expr.name
        if kind is ast.Index or (kind is ast.Member and not expr.arrow):
            expr = expr.base
        else:
            return None


# ---------------------------------------------------------------------------
# Statement traversal
# ---------------------------------------------------------------------------


def child_blocks(stmt: ast.Stmt) -> list[ast.Block]:
    """The blocks whose statements are nested directly inside ``stmt``.

    A :class:`~ast_nodes.Block` holds its statements itself, so it is its
    own only child block.
    """
    if type(stmt) is ast.Block:
        return [stmt]
    blocks = []
    for name in _BLOCK_FIELDS[type(stmt)]:
        block = getattr(stmt, name)
        if block is not None:
            blocks.append(block)
    return blocks


def _walk(stack: list[ast.Stmt]) -> Iterator[ast.Stmt]:
    """Pre-order statements from ``stack``, whose next statement is last."""
    pop, extend = stack.pop, stack.extend
    while stack:
        stmt = pop()
        yield stmt
        for block in reversed(child_blocks(stmt)):
            extend(reversed(block.stmts))


def walk_statements(block: ast.Block) -> Iterator[ast.Stmt]:
    """Yield every statement nested anywhere inside ``block``, pre-order."""
    return _walk(block.stmts[::-1])


def walk_statements_single(stmt: ast.Stmt) -> Iterator[ast.Stmt]:
    """Yield ``stmt`` and every statement nested inside it."""
    return _walk([stmt])


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
