"""The nesC-style concurrency (race) analysis.

TinyOS has a two-level concurrency model: non-preemptive *tasks* (and the
main scheduler loop) run in the synchronous context, while *interrupt
handlers* run in the asynchronous context and may preempt tasks.  A global
variable that is touched from the asynchronous context and is not protected
by ``atomic`` sections at every access is a potential data race.

The nesC compiler performs exactly this analysis and, in the paper's
toolchain, emits the list of racy variables that the modified CCured uses to
decide which safety checks must be wrapped in locks (Section 2.2).  Like the
real nesC analysis, this implementation does **not** follow pointers;
cXprop adds Section 2.1's pointer rule on top of it when it computes the
interrupt-shared variables (:mod:`repro.cxprop.interproc`).

Each function's accesses are a fact of the program's analysis memo
(:func:`function_accesses`), so cXprop, which re-runs the analysis every
round, re-walks only the functions that changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cminor import ast_nodes as ast
from repro.cminor.callgraph import build_call_graph
from repro.cminor.program import Program
from repro.cminor.typecheck import local_types
from repro.cminor.visitor import (
    child_blocks,
    lvalue_root,
    statement_expressions,
    walk_expression,
)


class VariableAccess(NamedTuple):
    """One syntactic access to a global variable."""

    variable: str
    function: str
    is_write: bool
    in_atomic: bool


@dataclass
class ConcurrencyReport:
    """Result of the concurrency analysis.

    Attributes:
        async_functions: Functions reachable from interrupt handlers.
        sync_functions: Functions reachable from ``main`` and tasks.
        accesses: Every global-variable access found.
        racy_variables: Variables reported as potential races.
        norace_skipped: Variables that would be racy but carry ``norace``.
    """

    async_functions: set[str] = field(default_factory=set)
    sync_functions: set[str] = field(default_factory=set)
    accesses: list[VariableAccess] = field(default_factory=list)
    racy_variables: set[str] = field(default_factory=set)
    norace_skipped: set[str] = field(default_factory=set)


def function_accesses(func: ast.FunctionDef) -> tuple[VariableAccess, ...]:
    """Direct (non-pointer) accesses inside ``func`` to names that are not
    its locals, in source order.

    A function's memoized fact; :func:`analyze_concurrency` keeps the
    accesses to globals.
    """
    locals_ = local_types(func)
    accesses: list[VariableAccess] = []
    # Each statement before the blocks nested in it, in source order: a
    # stack of (statement iterator, inside an atomic section) per block.
    stack = [(iter(func.body.stmts), False)]
    while stack:
        stmts, in_atomic = stack[-1]
        stmt = next(stmts, None)
        if stmt is None:
            stack.pop()
            continue
        if isinstance(stmt, ast.Assign):
            base = lvalue_root(stmt.lvalue)
            if base is not None and base not in locals_:
                accesses.append(
                    VariableAccess(base, func.name, True, in_atomic))
            reads = [stmt.rvalue, *_location_reads(stmt.lvalue)]
        else:
            reads = statement_expressions(stmt)
        for expr in reads:
            for node in walk_expression(expr):
                if isinstance(node, ast.Identifier) and node.name not in locals_:
                    accesses.append(
                        VariableAccess(node.name, func.name, False, in_atomic))
        nested = in_atomic or isinstance(stmt, ast.Atomic)
        stack.extend((iter(inner.stmts), nested)
                     for inner in reversed(child_blocks(stmt)))
    return tuple(accesses)


def _location_reads(lvalue: ast.Expr) -> list[ast.Expr]:
    """What computing a store target's location reads: array indices, and
    the pointer of a deref or of a ``->`` member, through struct and array
    bases."""
    reads = []
    while isinstance(lvalue, (ast.Index, ast.Member)):
        if isinstance(lvalue, ast.Index):
            reads.append(lvalue.index)
        elif lvalue.arrow:
            reads.append(lvalue.base)
            return reads
        lvalue = lvalue.base
    if isinstance(lvalue, ast.Deref):
        reads.append(lvalue.pointer)
    return reads


def analyze_concurrency(program: Program,
                        suppress_norace: bool = False) -> ConcurrencyReport:
    """Run the nesC-style race analysis over ``program``."""
    report = ConcurrencyReport()
    graph = build_call_graph(program)

    interrupt_roots = program.interrupt_handlers()
    sync_roots = [program.entry] + [t for t in program.tasks
                                    if t in program.functions]
    report.async_functions = graph.reachable_from(interrupt_roots)
    report.sync_functions = graph.reachable_from(
        [r for r in sync_roots if r in program.functions])

    fact = program.analysis().fact
    by_variable: dict[str, list[VariableAccess]] = {}
    for func in program.iter_functions():
        for access in fact(function_accesses, func):
            if access.variable in program.globals:
                report.accesses.append(access)
                by_variable.setdefault(access.variable, []).append(access)

    for variable, accesses in by_variable.items():
        var = program.lookup_global(variable)
        if var is None:
            continue
        if var.is_const or var.is_volatile:
            # Constants cannot race; volatile hardware registers are handled
            # by the hardware access refactoring, not by locking.
            continue
        touched_async = any(a.function in report.async_functions for a in accesses)
        if not touched_async:
            continue
        only_async = all(a.function in report.async_functions
                         and a.function not in report.sync_functions
                         for a in accesses)
        if only_async:
            # Interrupt handlers do not preempt each other on these MCUs.
            continue
        unprotected = any(not a.in_atomic for a in accesses)
        if not unprotected:
            continue
        if var.is_norace and not suppress_norace:
            report.norace_skipped.add(variable)
            continue
        report.racy_variables.add(variable)

    return report


def nesc_race_analysis(program: Program, suppress_norace: bool = False
                       ) -> ConcurrencyReport:
    """Run the analysis and record the racy-variable list on the program."""
    report = analyze_concurrency(program, suppress_norace=suppress_norace)
    program.racy_variables = set(report.racy_variables)
    if suppress_norace:
        program.norace_suppressed = {
            v.name for v in program.iter_globals() if v.is_norace}
    return report
