"""CCured's own redundant-check optimizer.

CCured tries not to rely on downstream compilers: after instrumentation it
runs a local optimizer over its own checks.  The reproduction implements the
two families of simplifications the original performs (and that Figure 2
credits it with):

* **statically safe checks** — a check whose pointer argument is the address
  of a named object (``&x``, ``&arr[3]`` with a constant in-range index, the
  decay of a named array, or a string literal) can never fail and is
  deleted;
* **redundant checks** — within one basic block, a second check of the same
  kind on a syntactically identical pointer is deleted if none of the
  variables appearing in the pointer have been assigned in between.

The optimizer is intentionally *intra-procedural and local*: that is what
leaves plenty of work for cXprop and the inliner, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import (
    child_blocks,
    statement_expressions,
    walk_expression,
)
from repro.ccured.checks import CHECK_HELPER_NAMES

_CHECK_HELPERS = set(CHECK_HELPER_NAMES.values())


def is_check_statement(stmt: ast.Stmt) -> bool:
    """Whether ``stmt`` is an injected CCured check."""
    return (isinstance(stmt, ast.ExprStmt)
            and isinstance(stmt.expr, ast.Call)
            and stmt.expr.callee in _CHECK_HELPERS)


def check_pointer_argument(stmt: ast.Stmt) -> Optional[ast.Expr]:
    """The checked pointer expression of a check statement."""
    if not is_check_statement(stmt):
        return None
    call = stmt.expr  # type: ignore[union-attr]
    return call.args[0] if call.args else None


def pointer_is_statically_safe(pointer: ast.Expr, program: Program,
                               locals_: Optional[dict[str, ty.CType]] = None) -> bool:
    """Whether a checked pointer can be proven valid purely syntactically."""
    if isinstance(pointer, ast.StringLiteral):
        return True
    if isinstance(pointer, ast.Cast):
        source = pointer.operand.ctype
        if source is not None and source.is_integer():
            return False
        return pointer_is_statically_safe(pointer.operand, program, locals_)
    if isinstance(pointer, ast.AddressOf):
        return _lvalue_is_static_object(pointer.lvalue, program, locals_)
    if isinstance(pointer, ast.Identifier):
        ctype = None
        if locals_ and pointer.name in locals_:
            ctype = locals_[pointer.name]
        else:
            var = program.lookup_global(pointer.name)
            ctype = var.ctype if var is not None else None
        return isinstance(ctype, ty.ArrayType)
    return False


def _declared_type(expr: ast.Expr, program: Program,
                   locals_: Optional[dict[str, ty.CType]]) -> Optional[ty.CType]:
    """Best-effort type of an lvalue, falling back to declarations."""
    if expr.ctype is not None:
        return expr.ctype
    if isinstance(expr, ast.Identifier):
        if locals_ and expr.name in locals_:
            return locals_[expr.name]
        var = program.lookup_global(expr.name)
        if var is not None:
            return var.ctype
    return None


def _lvalue_is_static_object(lvalue: ast.Expr, program: Program,
                             locals_: Optional[dict[str, ty.CType]]) -> bool:
    """Whether ``&lvalue`` certainly points into a named object, in bounds."""
    if isinstance(lvalue, ast.Identifier):
        return True
    if isinstance(lvalue, ast.Member) and not lvalue.arrow:
        return _lvalue_is_static_object(lvalue.base, program, locals_)
    if isinstance(lvalue, ast.Index):
        if not isinstance(lvalue.index, ast.IntLiteral):
            return False
        base_type = _declared_type(lvalue.base, program, locals_)
        if isinstance(base_type, ty.ArrayType) and \
                0 <= lvalue.index.value < base_type.length:
            return _lvalue_is_static_object(lvalue.base, program, locals_)
        return False
    return False


def _assigned_variables(stmt: ast.Stmt) -> set[str]:
    """Variables whose value may change when ``stmt`` executes.

    The special marker ``"*"`` means "memory may have changed through a
    pointer or a call": checks whose pointer expression involves a global
    variable are then invalidated, while checks on parameters and locals
    (which cannot be reassigned behind the optimizer's back in this code
    base) survive — the same heuristic CCured's own optimizer uses.
    """
    assigned: set[str] = set()
    if isinstance(stmt, ast.Assign):
        root = stmt.lvalue
        through_memory = False
        while isinstance(root, (ast.Index, ast.Member, ast.Deref)):
            if isinstance(root, ast.Deref) or \
                    (isinstance(root, ast.Member) and root.arrow):
                through_memory = True
                break
            root = root.base
        if through_memory:
            assigned.add("*")
        elif isinstance(root, ast.Identifier):
            if isinstance(stmt.lvalue, ast.Identifier):
                assigned.add(root.name)
            # Stores into fields/elements of a named aggregate do not change
            # any pointer value the established checks guard.
    if isinstance(stmt, ast.VarDecl):
        assigned.add(stmt.name)
    for expr in statement_expressions(stmt):
        for node in walk_expression(expr):
            if isinstance(node, ast.Call) and node.callee not in _CHECK_HELPERS:
                # Calls may modify globals (and, through pointers, locals).
                assigned.add("*")
    return assigned


def _pointer_variables(pointer: ast.Expr) -> set[str]:
    return {node.name for node in walk_expression(pointer)
            if isinstance(node, ast.Identifier)}


class CheckOptimizer:
    """Removes statically safe and locally redundant checks from one program."""

    def __init__(self, program: Program):
        self.program = program
        self.removed = 0

    def run(self) -> int:
        local_types = self.program.analysis().local_types
        for func in self.program.iter_functions():
            if func.is_runtime:
                continue
            before = self.removed
            self._optimize_block(func.body, local_types(func))
            if self.removed != before:
                self.program.invalidate_analysis(func.name)
        return self.removed

    def _optimize_block(self, block: ast.Block,
                        locals_: dict[str, ty.CType]) -> None:
        # (check helper, pointer) pairs already established in this
        # straight-line region; pointers match by structural ``==``.
        established: list[tuple[str, ast.Expr]] = []
        new_stmts: list[ast.Stmt] = []
        for stmt in block.stmts:
            if is_check_statement(stmt):
                call = stmt.expr  # type: ignore[union-attr]
                pointer = call.args[0] if call.args else None
                if pointer is not None and pointer_is_statically_safe(
                        pointer, self.program, locals_):
                    self.removed += 1
                    continue
                if pointer is not None and (call.callee, pointer) in established:
                    self.removed += 1
                    continue
                if pointer is not None:
                    established.append((call.callee, pointer))
                new_stmts.append(stmt)
                continue
            # Non-check statement: recurse into nested blocks and invalidate
            # established checks whose pointers may have changed.
            for inner in child_blocks(stmt):
                self._optimize_block(inner, locals_)
            assigned = _assigned_variables(stmt)
            if assigned:
                established = [
                    (helper, pointer) for helper, pointer in established
                    if not (_pointer_variables(pointer) & assigned)
                    and not ("*" in assigned and
                             self._mentions_global(pointer, locals_))
                ]
            new_stmts.append(stmt)
        block.stmts = new_stmts

    def _mentions_global(self, pointer: ast.Expr,
                         locals_: dict[str, ty.CType]) -> bool:
        """Whether the checked pointer expression reads any global variable."""
        for name in _pointer_variables(pointer):
            if name not in locals_ and name in self.program.globals:
                return True
        return False


def optimize_checks(program: Program) -> int:
    """Run CCured's redundant-check optimizer; returns the number removed."""
    return CheckOptimizer(program).run()
