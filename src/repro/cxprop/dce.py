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


def variable_usage(func: ast.FunctionDef
                   ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(other names read, other names written, locals read) by ``func``.

    A function's memoized fact; :func:`_collect_global_usage` keeps the
    other names that are globals.  Reads are every identifier in a
    statement except a plain-variable store target (``g = ...`` does not
    read ``g``, but ``g[i] = ...`` keeps the array alive).  For a non-local
    store target, a read inside its own right-hand side (``g = g + 1``, the
    ubiquitous statistics counter) does not count either: if nothing else
    ever observes ``g`` it is still dead data.
    """
    locals_ = local_types(func)
    read: set[str] = set()
    written: set[str] = set()
    read_locals: set[str] = set()
    for stmt in walk_statements(func.body):
        exprs = statement_expressions(stmt)
        self_target = None
        if isinstance(stmt, ast.Assign):
            write_target = lvalue_root(stmt.lvalue)
            if write_target is not None and write_target not in locals_:
                written.add(write_target)
            if isinstance(stmt.lvalue, ast.Identifier):
                exprs = [stmt.rvalue]
                self_target = stmt.lvalue.name
        for expr in exprs:
            for node in walk_expression(expr):
                if not isinstance(node, ast.Identifier):
                    continue
                if node.name in locals_:
                    read_locals.add(node.name)
                elif node.name != self_target:
                    read.add(node.name)
    return frozenset(read), frozenset(written), frozenset(read_locals)


def _collect_global_usage(program: Program) -> tuple[set[str], set[str]]:
    """(globals read or address-taken, globals written) in the whole program."""
    read: set[str] = set()
    written: set[str] = set()
    global_names = program.globals.keys()
    fact = program.analysis().fact
    for func in program.iter_functions():
        reads, writes, _ = fact(variable_usage, func)
        read |= reads & global_names
        written |= writes & global_names

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
    analysis = program.analysis()
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
        locals_ = analysis.local_types(func)
        read_locals = analysis.fact(variable_usage, func)[2]

        def rewrite(stmt: ast.Stmt):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Identifier):
                name = stmt.lvalue.name
                is_dead_global = name in dead_globals and name not in locals_
                is_dead_local = (name in locals_ and name not in read_locals)
                if is_dead_global or is_dead_local:
                    report.dead_stores_removed += 1
                    if _statement_has_side_effects(stmt.rvalue):
                        keep = ast.ExprStmt(stmt.rvalue)
                        keep.loc = stmt.loc
                        return keep
                    return None
            if isinstance(stmt, ast.VarDecl) and stmt.name not in read_locals:
                report.locals_removed += 1
                if stmt.init is not None and _statement_has_side_effects(stmt.init):
                    keep = ast.ExprStmt(stmt.init)
                    keep.loc = stmt.loc
                    return keep
                return None
            return stmt

        before = report.dead_stores_removed + report.locals_removed
        transform_block(func.body, rewrite)
        if report.dead_stores_removed + report.locals_removed != before:
            changed = True
            program.invalidate_analysis(func.name)
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
    def rewrite(stmt: ast.Stmt):
        if isinstance(stmt, ast.Block) and not stmt.stmts:
            report.statements_removed += 1
            return None
        if isinstance(stmt, ast.Atomic) and not stmt.body.stmts:
            report.statements_removed += 1
            return None
        if isinstance(stmt, ast.If) and not stmt.then_body.stmts and \
                (stmt.else_body is None or not stmt.else_body.stmts):
            if not _statement_has_side_effects(stmt.cond):
                report.statements_removed += 1
                return None
        if isinstance(stmt, ast.ExprStmt) and not _statement_has_side_effects(stmt.expr):
            report.statements_removed += 1
            return None
        return stmt

    changed = False
    for func in program.iter_functions():
        before = report.statements_removed
        transform_block(func.body, rewrite)
        if report.statements_removed != before:
            changed = True
            program.invalidate_analysis(func.name)
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
    return report
