"""Fast structural cloning of CMinor programs.

``Program.clone()`` is on the hot path of the batched sweep runner: one
front-end program per application is cloned once per build variant, so the
clone has to be much cheaper than re-running the nesC front end.  A generic
``copy.deepcopy`` spends most of its time memoizing and re-creating objects
that are immutable by construction — ``CType`` instances, ``SourceLocation``
records, qualifier frozensets — so this module clones the AST structurally
instead, sharing everything immutable:

* types (``repro.cminor.typesys`` dataclasses are frozen) and source
  locations are shared by reference;
* expression and statement nodes are rebuilt per kind, giving every cloned
  statement a fresh ``node_id`` (the clone gets its own, empty
  analysis cache, so shared node ids would not be wrong — fresh ids simply
  keep the invariant that no two live statements alias an id);
* containers (struct table, globals/functions dicts, task lists, vector and
  racy-variable sets) are shallow-copied per program.

The cloned program is semantically identical to the original: building both
through the same pass list must produce byte-identical images
(``tests/cminor/test_clone.py`` enforces this).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, Optional

from repro.cminor import ast_nodes as ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.cminor.program import Program


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def clone_expr(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
    """Structurally clone an expression subtree (types/locations shared)."""
    if expr is None:
        return None
    cloner = _EXPR_CLONERS.get(type(expr))
    if cloner is None:
        # Unknown expression kind (e.g. added by a future pass): fall back
        # to deepcopy rather than producing a silently shallow clone.
        return copy.deepcopy(expr)
    cloned = cloner(expr)
    cloned.ctype = expr.ctype
    cloned.loc = expr.loc
    return cloned


def _clone_exprs(exprs: list[ast.Expr]) -> list[ast.Expr]:
    return [clone_expr(e) for e in exprs]


_EXPR_CLONERS: dict[type, Callable[[ast.Expr], ast.Expr]] = {
    ast.IntLiteral: lambda e: ast.IntLiteral(e.value),
    ast.StringLiteral: lambda e: ast.StringLiteral(e.value, e.in_rom, e.label),
    ast.Identifier: lambda e: ast.Identifier(e.name),
    ast.BinaryOp: lambda e: ast.BinaryOp(e.op, clone_expr(e.left),
                                         clone_expr(e.right)),
    ast.UnaryOp: lambda e: ast.UnaryOp(e.op, clone_expr(e.operand)),
    ast.Deref: lambda e: ast.Deref(clone_expr(e.pointer)),
    ast.AddressOf: lambda e: ast.AddressOf(clone_expr(e.lvalue)),
    ast.Index: lambda e: ast.Index(clone_expr(e.base), clone_expr(e.index)),
    ast.Member: lambda e: ast.Member(clone_expr(e.base), e.fieldname, e.arrow),
    ast.Call: lambda e: ast.Call(e.callee, _clone_exprs(e.args)),
    ast.Cast: lambda e: ast.Cast(e.target_type, clone_expr(e.operand)),
    ast.SizeOf: lambda e: ast.SizeOf(e.of_type),
    ast.Ternary: lambda e: ast.Ternary(clone_expr(e.cond), clone_expr(e.then),
                                       clone_expr(e.otherwise)),
    ast.InitList: lambda e: ast.InitList(_clone_exprs(e.items)),
}


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def clone_stmt(stmt: Optional[ast.Stmt]) -> Optional[ast.Stmt]:
    """Structurally clone a statement subtree with fresh node ids."""
    if stmt is None:
        return None
    cloner = _STMT_CLONERS.get(type(stmt))
    if cloner is None:
        # Unknown statement kind: deepcopy, then restore the fresh-node-id
        # guarantee (deepcopy duplicates node_id, which would alias the
        # original in node_id-keyed caches and dataflow state).
        from repro.cminor.visitor import walk_statements_single

        cloned = copy.deepcopy(stmt)
        for inner in walk_statements_single(cloned):
            inner.node_id = ast._next_node_id()
        return cloned
    cloned = cloner(stmt)
    cloned.loc = stmt.loc
    return cloned


def clone_block(block: ast.Block) -> ast.Block:
    cloned = ast.Block([clone_stmt(s) for s in block.stmts])
    cloned.loc = block.loc
    return cloned


def _clone_atomic(stmt: ast.Atomic) -> ast.Atomic:
    return ast.Atomic(clone_block(stmt.body), stmt.save_irq, stmt.synthetic)


_STMT_CLONERS: dict[type, Callable[[ast.Stmt], ast.Stmt]] = {
    ast.VarDecl: lambda s: ast.VarDecl(s.name, s.ctype, clone_expr(s.init),
                                       s.qualifiers),
    ast.Assign: lambda s: ast.Assign(clone_expr(s.lvalue), clone_expr(s.rvalue)),
    ast.ExprStmt: lambda s: ast.ExprStmt(clone_expr(s.expr)),
    ast.Block: clone_block,
    ast.If: lambda s: ast.If(clone_expr(s.cond), clone_block(s.then_body),
                             clone_block(s.else_body)
                             if s.else_body is not None else None),
    ast.While: lambda s: ast.While(clone_expr(s.cond), clone_block(s.body)),
    ast.Return: lambda s: ast.Return(clone_expr(s.value)),
    ast.Break: lambda s: ast.Break(),
    ast.Continue: lambda s: ast.Continue(),
    ast.Atomic: _clone_atomic,
    ast.Post: lambda s: ast.Post(s.task),
}


# ---------------------------------------------------------------------------
# Declarations and whole programs
# ---------------------------------------------------------------------------


def clone_global(var: ast.GlobalVar) -> ast.GlobalVar:
    return ast.GlobalVar(var.name, var.ctype, clone_expr(var.init),
                         var.qualifiers, var.origin, var.loc)


def clone_function(func: ast.FunctionDef) -> ast.FunctionDef:
    return ast.FunctionDef(
        name=func.name,
        return_type=func.return_type,
        params=[ast.Param(p.name, p.ctype) for p in func.params],
        body=clone_block(func.body),
        attributes=dict(func.attributes),
        origin=func.origin,
        loc=func.loc,
    )


def clone_program(program: "Program") -> "Program":
    """Deep-copy a whole program, sharing its immutable leaves.

    The clone owns its own struct table, symbol dicts, metadata containers
    and (lazily created) analysis cache; mutating the clone can never be
    observed through the original, and vice versa.
    """
    from repro.cminor.program import Program, StructTable

    structs = StructTable()
    structs._structs = dict(program.structs._structs)

    cloned = Program(
        name=program.name,
        platform=program.platform,
        structs=structs,
        globals={name: clone_global(var)
                 for name, var in program.globals.items()},
        functions={name: clone_function(func)
                   for name, func in program.functions.items()},
        builtins={name: copy.copy(b) for name, b in program.builtins.items()},
        entry=program.entry,
        tasks=list(program.tasks),
        interrupt_vectors=dict(program.interrupt_vectors),
        racy_variables=set(program.racy_variables),
        norace_suppressed=set(program.norace_suppressed),
    )
    return cloned
