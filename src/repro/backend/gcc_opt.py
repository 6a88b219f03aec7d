"""GCC-strength optimizations.

The paper's Figure 2 shows that plain GCC already removes a surprising
number of CCured's checks — "primarily the easy checks such as redundant
null-pointer checks" — while its dead-code elimination is noticeably weaker
than cXprop's.  This module models exactly that amount of power:

* local constant folding of one operator or integer cast over literals,
  through :func:`repro.cminor.cint.evaluate`, so a folded value is wrapped
  to its expression's type exactly as the simulator computes it,
* removal of *easy* safety checks: a check whose pointer argument is
  syntactically the address of a named object, the decay of a named array,
  or a string literal; plus exact duplicates in straight-line code,
* removal of uncalled internal functions (everything in the flattened
  program is file-static, so the compiler can drop unreferenced ones),
* removal of branches whose condition is a literal constant.

It runs as the last stage of every build variant, safe or unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminor import ast_nodes as ast
from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cminor.callgraph import build_call_graph
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import (
    child_blocks,
    replace_statement_expressions,
    statement_expressions,
    transform_block,
    walk_expression,
)
from repro.ccured.optimizer import (
    _assigned_variables,
    _pointer_variables,
    check_pointer_argument,
    is_check_statement,
    pointer_is_statically_safe,
)


@dataclass
class GccOptReport:
    """Statistics from the backend optimization pass."""

    constants_folded: int = 0
    easy_checks_removed: int = 0
    duplicate_checks_removed: int = 0
    branches_folded: int = 0
    functions_removed: int = 0

    @property
    def checks_removed(self) -> int:
        return self.easy_checks_removed + self.duplicate_checks_removed


def _foldable(expr: ast.Expr) -> bool:
    """Whether ``expr`` is one operator or cast applied to literals."""
    if isinstance(expr, ast.BinaryOp):
        return expr.op not in ("&&", "||") and \
            isinstance(expr.left, ast.IntLiteral) and \
            isinstance(expr.right, ast.IntLiteral)
    if isinstance(expr, ast.UnaryOp):
        return expr.op in ("-", "!") and isinstance(expr.operand, ast.IntLiteral)
    return isinstance(expr, ast.Cast) and expr.target_type.is_integer() and \
        isinstance(expr.operand, ast.IntLiteral)


def _fold_expression(expr: ast.Expr, report: GccOptReport) -> ast.Expr:
    if not _foldable(expr):
        return expr
    report.constants_folded += 1
    literal = ast.IntLiteral(cint.evaluate(expr))
    literal.loc = expr.loc
    literal.ctype = expr.ctype
    return literal


def _fold_constants(program: Program, report: GccOptReport) -> None:
    def rewrite(stmt: ast.Stmt):
        replace_statement_expressions(
            stmt, lambda e: _fold_expression(e, report))
        return stmt

    for func in program.iter_functions():
        before = report.constants_folded
        transform_block(func.body, rewrite)
        if report.constants_folded != before:
            program.invalidate_analysis(func.name)


def _remove_easy_checks(program: Program, report: GccOptReport) -> None:
    local_types = program.analysis().local_types
    for func in program.iter_functions():
        before = report.checks_removed
        _remove_block_checks(func.body, program, local_types(func), report)
        if report.checks_removed != before:
            program.invalidate_analysis(func.name)


def _remove_block_checks(block: ast.Block, program: Program,
                         locals_: dict[str, ty.CType],
                         report: GccOptReport) -> None:
    # The compiler's value numbering catches a re-check of a pointer it can
    # see has not changed within the basic block; anything involving calls,
    # stores through memory, or assignments to the pointer's variables
    # resets that knowledge.
    previous_check: ast.Stmt | None = None
    new_stmts: list[ast.Stmt] = []
    for stmt in block.stmts:
        nested = child_blocks(stmt)
        for inner in nested:
            _remove_block_checks(inner, program, locals_, report)
        if is_check_statement(stmt):
            pointer = check_pointer_argument(stmt)
            if pointer is not None and pointer_is_statically_safe(
                    pointer, program, locals_):
                report.easy_checks_removed += 1
                continue
            if previous_check is not None and \
                    _same_check(previous_check, stmt):
                report.duplicate_checks_removed += 1
                continue
            previous_check = stmt
        else:
            if previous_check is not None:
                assigned = _assigned_variables(stmt)
                guarded = check_pointer_argument(previous_check)
                mentioned = _pointer_variables(guarded) if guarded is not None \
                    else set()
                mentions_global = any(name not in locals_
                                      and name in program.globals
                                      for name in mentioned)
                has_call = _statement_calls(stmt)
                if (mentioned & assigned) or nested or \
                        ("*" in assigned and (mentions_global or has_call)):
                    previous_check = None
        new_stmts.append(stmt)
    block.stmts = new_stmts


def _statement_calls(stmt: ast.Stmt) -> bool:
    for expr in statement_expressions(stmt):
        for node in walk_expression(expr):
            if isinstance(node, ast.Call):
                return True
    return False


def _same_check(left: ast.Stmt, right: ast.Stmt) -> bool:
    call_left = left.expr  # type: ignore[union-attr]
    call_right = right.expr  # type: ignore[union-attr]
    # Compare all but the unique identifier argument.
    return (call_left.callee == call_right.callee
            and len(call_left.args) == len(call_right.args)
            and call_left.args[:-1] == call_right.args[:-1])


def _fold_literal_branches(program: Program, report: GccOptReport) -> None:
    def rewrite(stmt: ast.Stmt):
        if isinstance(stmt, ast.If) and isinstance(stmt.cond, ast.IntLiteral):
            report.branches_folded += 1
            if stmt.cond.value:
                return list(stmt.then_body.stmts)
            return list(stmt.else_body.stmts) if stmt.else_body is not None else []
        return stmt

    for func in program.iter_functions():
        before = report.branches_folded
        transform_block(func.body, rewrite)
        if report.branches_folded != before:
            program.invalidate_analysis(func.name)


def _remove_uncalled_functions(program: Program, report: GccOptReport) -> None:
    graph = build_call_graph(program)
    reachable = graph.reachable_from(program.root_functions())
    for func in list(program.iter_functions()):
        if func.name in reachable or func.is_spontaneous:
            continue
        program.remove_function(func.name)
        report.functions_removed += 1


def gcc_optimize(program: Program) -> GccOptReport:
    """Apply the backend's (deliberately weak) optimizations in place."""
    report = GccOptReport()
    _fold_constants(program, report)
    _fold_literal_branches(program, report)
    _remove_easy_checks(program, report)
    _remove_uncalled_functions(program, report)
    check_program(program)
    return report
