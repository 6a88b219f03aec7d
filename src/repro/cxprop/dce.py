"""Aggressive dead code and dead data elimination.

Section 2.1: "Unlike CCured's optimizer, which only attempts to remove its
own checks, cXprop will remove any part of a program that it can show is
dead or useless."  This pass removes, iterating to a fixpoint:

* functions unreachable from the program roots (``main``, tasks, interrupt
  handlers, anything ``spontaneous``),
* globals that are never referenced from reachable code,
* globals that are only ever *written* (dead data — the main source of the
  RAM reductions in Figure 3(b)), together with the stores to them,
* locals that are never read, together with their assignments,
* empty blocks, empty atomic sections and no-op statements.

Fat-pointer metadata globals (``__cc_meta_<p>``) are kept exactly as long as
the pointer ``p`` they describe stays in the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminor import ast_nodes as ast
from repro.cminor.callgraph import build_call_graph
from repro.cminor.program import Program
from repro.cminor.typecheck import local_types
from repro.cminor.visitor import (
    lvalue_root,
    statement_expressions,
    transform_block,
    walk_expression,
    walk_statements,
)
from repro.ccured.instrument import METADATA_PREFIX


@dataclass
class DceReport:
    """Statistics from one dead-code-elimination run."""

    functions_removed: int = 0
    globals_removed: int = 0
    dead_stores_removed: int = 0
    locals_removed: int = 0
    statements_removed: int = 0
    rounds: int = 0

    @property
    def total(self) -> int:
        return (self.functions_removed + self.globals_removed +
                self.dead_stores_removed + self.locals_removed +
                self.statements_removed)


def _collect_global_usage(program: Program) -> tuple[set[str], set[str]]:
    """(globals read or address-taken, globals written) in the whole program."""
    read: set[str] = set()
    written: set[str] = set()
    global_names = set(program.globals)

    for func in program.iter_functions():
        locals_ = set(local_types(func))
        for stmt in walk_statements(func.body):
            if isinstance(stmt, ast.Assign):
                write_target = lvalue_root(stmt.lvalue)
                if write_target in global_names and write_target not in locals_:
                    written.add(write_target)
            # Reads: every identifier appearing in the statement except a
            # plain-variable store target (``g = ...`` does not read ``g``,
            # but ``g[i] = ...`` keeps the array alive).  A read of the
            # store target inside its own right-hand side (``g = g + 1``,
            # the ubiquitous statistics counter) does not count either:
            # if nothing else ever observes ``g`` it is still dead data.
            exprs = list(statement_expressions(stmt))
            self_target = None
            if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Identifier):
                exprs = [stmt.rvalue]
                self_target = stmt.lvalue.name
            for expr in exprs:
                for node in walk_expression(expr):
                    if isinstance(node, ast.Identifier):
                        if node.name == self_target:
                            continue
                        if node.name in global_names and node.name not in locals_:
                            read.add(node.name)

    # Globals referenced from other globals' initializers stay alive.
    for var in program.iter_globals():
        if var.init is None:
            continue
        for node in walk_expression(var.init):
            if isinstance(node, ast.Identifier) and node.name in global_names:
                read.add(node.name)
    return read, written


def _remove_unreachable_functions(program: Program, report: DceReport) -> bool:
    graph = build_call_graph(program)
    reachable = graph.reachable_from(program.root_functions())
    removed = False
    for func in list(program.iter_functions()):
        if func.name in reachable or func.is_spontaneous:
            continue
        program.remove_function(func.name)
        report.functions_removed += 1
        removed = True
    return removed


def _statement_has_side_effects(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Call) for node in walk_expression(expr))


def _remove_dead_stores(program: Program, report: DceReport) -> bool:
    """Remove stores to write-only globals and never-read locals."""
    read, written = _collect_global_usage(program)
    global_names = set(program.globals)
    changed = False

    dead_globals = set()
    for name in written - read:
        var = program.lookup_global(name)
        if var is None or var.is_volatile:
            continue
        if not var.ctype.is_scalar():
            continue
        dead_globals.add(name)

    for func in program.iter_functions():
        locals_ = local_types(func)
        read_locals: set[str] = set()
        for stmt in walk_statements(func.body):
            exprs = list(statement_expressions(stmt))
            if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Identifier):
                exprs = [stmt.rvalue]
            for expr in exprs:
                for node in walk_expression(expr):
                    if isinstance(node, ast.Identifier) and node.name in locals_:
                        read_locals.add(node.name)

        def rewrite(stmt: ast.Stmt):
            nonlocal changed
            if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Identifier):
                name = stmt.lvalue.name
                is_dead_global = name in dead_globals and name not in locals_
                is_dead_local = (name in locals_ and name not in read_locals)
                if is_dead_global or is_dead_local:
                    changed = True
                    report.dead_stores_removed += 1
                    if _statement_has_side_effects(stmt.rvalue):
                        keep = ast.ExprStmt(stmt.rvalue)
                        keep.loc = stmt.loc
                        return keep
                    return None
            if isinstance(stmt, ast.VarDecl) and stmt.name not in read_locals:
                if stmt.init is not None and _statement_has_side_effects(stmt.init):
                    changed = True
                    report.locals_removed += 1
                    keep = ast.ExprStmt(stmt.init)
                    keep.loc = stmt.loc
                    return keep
                changed = True
                report.locals_removed += 1
                return None
            return stmt

        transform_block(func.body, rewrite)
    del global_names
    return changed


def _remove_unused_globals(program: Program, report: DceReport) -> bool:
    read, written = _collect_global_usage(program)
    referenced = read | written
    removed = False
    for var in list(program.iter_globals()):
        name = var.name
        if name.startswith(METADATA_PREFIX):
            base = name[len(METADATA_PREFIX):]
            if base in program.globals:
                continue
            program.remove_global(name)
            report.globals_removed += 1
            removed = True
            continue
        if name in referenced:
            continue
        if var.is_volatile:
            continue
        program.remove_global(name)
        report.globals_removed += 1
        removed = True
    return removed


def _remove_empty_statements(program: Program, report: DceReport) -> bool:
    changed = False

    def rewrite(stmt: ast.Stmt):
        nonlocal changed
        if isinstance(stmt, ast.Block) and not stmt.stmts:
            changed = True
            report.statements_removed += 1
            return None
        if isinstance(stmt, ast.Atomic) and not stmt.body.stmts:
            changed = True
            report.statements_removed += 1
            return None
        if isinstance(stmt, ast.If) and not stmt.then_body.stmts and \
                (stmt.else_body is None or not stmt.else_body.stmts):
            if not _statement_has_side_effects(stmt.cond):
                changed = True
                report.statements_removed += 1
                return None
        if isinstance(stmt, ast.ExprStmt) and not _statement_has_side_effects(stmt.expr):
            changed = True
            report.statements_removed += 1
            return None
        return stmt

    for func in program.iter_functions():
        transform_block(func.body, rewrite)
    return changed


def eliminate_dead_code(program: Program, max_rounds: int = 6) -> DceReport:
    """Run dead code/data elimination to a fixpoint (bounded by ``max_rounds``)."""
    report = DceReport()
    for _round in range(max_rounds):
        changed = False
        changed |= _remove_unreachable_functions(program, report)
        changed |= _remove_empty_statements(program, report)
        changed |= _remove_dead_stores(program, report)
        changed |= _remove_unused_globals(program, report)
        report.rounds += 1
        if not changed:
            break
    if report.total:
        program.invalidate_analysis()
    return report
