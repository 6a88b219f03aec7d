"""cXprop's conservative, pointer-aware race-condition detector.

Section 2.1 of the paper: instead of reusing nesC's concurrency analysis
(which does not follow pointers), the toolchain uses its own detector that
is conservative in the presence of pointers and slightly more precise about
atomic contexts.  Its results feed two consumers:

* the dataflow engine, which must not trust flow-sensitive facts about a
  variable that an interrupt handler may change behind its back, and
* the atomic-section optimizer, which needs to know which functions always
  execute with interrupts disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminor import ast_nodes as ast
from repro.cminor.callgraph import build_call_graph
from repro.cminor.program import Program
from repro.cminor.visitor import (
    lvalue_root,
    statement_expressions,
    walk_expression,
    walk_statements,
)
from repro.nesc.concurrency import analyze_concurrency


@dataclass
class RaceReport:
    """Results of the pointer-aware race analysis.

    Attributes:
        async_functions: Functions reachable from interrupt handlers.
        shared_variables: Globals an interrupt context may read or write —
            directly, or indirectly through pointers.
        racy_variables: Shared variables with at least one unprotected access.
        pointer_shared: The subset of ``shared_variables`` that is shared
            only because its address escapes into code reachable from an
            interrupt handler (the pointer-following improvement over nesC).
    """

    async_functions: set[str] = field(default_factory=set)
    shared_variables: set[str] = field(default_factory=set)
    racy_variables: set[str] = field(default_factory=set)
    pointer_shared: set[str] = field(default_factory=set)


def _async_pointer_stores(program: Program, async_functions: set[str]) -> bool:
    """Whether any interrupt-reachable function stores through a pointer."""
    for func in program.iter_functions():
        if func.name not in async_functions:
            continue
        for stmt in walk_statements(func.body):
            if isinstance(stmt, ast.Assign):
                lvalue = stmt.lvalue
                while isinstance(lvalue, (ast.Index,)):
                    base_type = lvalue.base.ctype
                    if base_type is not None and base_type.is_pointer():
                        return True
                    lvalue = lvalue.base
                if isinstance(lvalue, ast.Deref):
                    return True
                if isinstance(lvalue, ast.Member) and lvalue.arrow:
                    return True
    return False


def _address_taken_globals(program: Program) -> set[str]:
    taken: set[str] = set()
    for func in program.iter_functions():
        for stmt in walk_statements(func.body):
            for expr in statement_expressions(stmt):
                for node in walk_expression(expr):
                    if isinstance(node, ast.AddressOf):
                        root = lvalue_root(node.lvalue)
                        if root in program.globals:
                            taken.add(root)
                    elif isinstance(node, ast.Identifier):
                        if node.name in program.globals:
                            var = program.lookup_global(node.name)
                            if var is not None and var.ctype.is_array():
                                taken.add(node.name)
    return taken


def pointer_aware_race_analysis(program: Program) -> RaceReport:
    """Run the conservative, pointer-following race analysis."""
    report = RaceReport()
    graph = build_call_graph(program)
    concurrency = analyze_concurrency(program, suppress_norace=True)
    report.async_functions = set(concurrency.async_functions)

    # Directly shared: variables with at least one access from async context.
    directly_shared: set[str] = set()
    for access in concurrency.accesses:
        if access.function in report.async_functions:
            directly_shared.add(access.variable)

    # Pointer-shared: if interrupt-reachable code stores through any pointer,
    # every address-taken global may be modified from interrupt context.
    pointer_shared: set[str] = set()
    if _async_pointer_stores(program, report.async_functions):
        pointer_shared = _address_taken_globals(program)

    report.pointer_shared = pointer_shared - directly_shared
    report.shared_variables = directly_shared | pointer_shared

    # Racy: shared and touched outside an atomic section somewhere.
    unprotected: set[str] = set()
    for access in concurrency.accesses:
        if not access.in_atomic:
            unprotected.add(access.variable)
    report.racy_variables = report.shared_variables & unprotected
    del graph
    return report
