"""Atomic-section optimization.

Section 2.1 credits the improved concurrency analysis with two effects on
generated code: *nested* atomic sections can be eliminated outright, and
atomic sections that can never execute with interrupts already disabled do
not need to save and restore the interrupt-enable bit.

This pass implements both:

* an atomic statement syntactically nested inside another atomic statement
  is replaced by its body;
* atomic statements inside interrupt handlers — or inside functions that are
  only ever called from atomic context (computed interprocedurally over the
  call graph) — are likewise flattened, since interrupts are already off;
* the remaining atomic statements in functions that can never be reached
  from an atomic context are marked ``save_irq = False`` so the backend can
  emit the cheaper ``cli``/``sei`` pair instead of saving the status
  register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminor import ast_nodes as ast
from repro.cminor.program import Program
from repro.cminor.visitor import (
    child_blocks,
    statement_expressions,
    walk_expression,
    walk_statements,
)


@dataclass
class AtomicOptReport:
    """Statistics from one atomic-optimization run."""

    nested_removed: int = 0
    irq_saves_avoided: int = 0
    always_atomic_functions: set[str] = field(default_factory=set)


def call_sites(func: ast.FunctionDef) -> tuple[tuple[str, bool], ...]:
    """(callee, inside an atomic section) of each call in ``func``, in order.

    A function's memoized fact: an interrupt handler's body counts as
    atomic throughout.
    """
    sites: list[tuple[str, bool]] = []
    # Each statement before the blocks nested in it, in source order: a
    # stack of (statement iterator, inside an atomic section) per block.
    stack = [(iter(func.body.stmts), func.is_interrupt_handler)]
    while stack:
        stmts, in_atomic = stack[-1]
        stmt = next(stmts, None)
        if stmt is None:
            stack.pop()
            continue
        for expr in statement_expressions(stmt):
            for node in walk_expression(expr):
                if isinstance(node, ast.Call):
                    sites.append((node.callee, in_atomic))
        nested = in_atomic or isinstance(stmt, ast.Atomic)
        stack.extend((iter(inner.stmts), nested)
                     for inner in reversed(child_blocks(stmt)))
    return tuple(sites)


def _call_sites_by_context(program: Program) -> dict[str, list[tuple[str, bool]]]:
    """Map each callee to the (caller, inside_atomic) pairs of its call sites."""
    sites: dict[str, list[tuple[str, bool]]] = {}
    fact = program.analysis().fact
    for func in program.iter_functions():
        for callee, in_atomic in fact(call_sites, func):
            if callee in program.functions:
                sites.setdefault(callee, []).append((func.name, in_atomic))
    return sites


def compute_always_atomic_functions(program: Program) -> set[str]:
    """Functions that can only execute with interrupts disabled.

    A function qualifies if it is an interrupt handler, or if every one of
    its call sites is inside an atomic section or inside another function
    that already qualifies.  Root functions (``main``, tasks) never qualify.
    """
    sites = _call_sites_by_context(program)
    roots = set(program.root_functions())
    handlers = {f.name for f in program.iter_functions() if f.is_interrupt_handler}

    always_atomic = set(handlers)
    changed = True
    while changed:
        changed = False
        for func in program.iter_functions():
            name = func.name
            if name in always_atomic or name in roots:
                continue
            call_sites = sites.get(name)
            if not call_sites:
                continue
            if all(in_atomic or caller in always_atomic
                   for caller, in_atomic in call_sites):
                always_atomic.add(name)
                changed = True
    return always_atomic


def _never_called_from_atomic(program: Program, always_atomic: set[str]) -> set[str]:
    """Functions none of whose call sites are in atomic context."""
    sites = _call_sites_by_context(program)
    result: set[str] = set()
    for func in program.iter_functions():
        if func.is_interrupt_handler or func.name in always_atomic:
            continue
        call_sites = sites.get(func.name, [])
        if all(not in_atomic and caller not in always_atomic
               for caller, in_atomic in call_sites):
            result.add(func.name)
    return result


def optimize_atomic_sections(program: Program) -> AtomicOptReport:
    """Flatten nested atomic sections and avoid needless IRQ-state saves."""
    report = AtomicOptReport()
    always_atomic = compute_always_atomic_functions(program)
    report.always_atomic_functions = always_atomic
    safe_to_skip_save = _never_called_from_atomic(program, always_atomic)

    for func in program.iter_functions():
        before = report.nested_removed + report.irq_saves_avoided
        interrupts_off = func.is_interrupt_handler or func.name in always_atomic
        _flatten_block(func.body, interrupts_off, report)
        if func.name in safe_to_skip_save:
            for stmt in walk_statements(func.body):
                if isinstance(stmt, ast.Atomic) and stmt.save_irq:
                    stmt.save_irq = False
                    report.irq_saves_avoided += 1
        if report.nested_removed + report.irq_saves_avoided != before:
            program.invalidate_analysis(func.name)
    return report


def _flatten_block(block: ast.Block, interrupts_off: bool,
                   report: AtomicOptReport) -> None:
    new_stmts: list[ast.Stmt] = []
    for stmt in block.stmts:
        atomic = isinstance(stmt, ast.Atomic)
        for inner in child_blocks(stmt):
            _flatten_block(inner, interrupts_off or atomic, report)
        if atomic and interrupts_off:
            report.nested_removed += 1
            new_stmts.extend(stmt.body.stmts)
        else:
            new_stmts.append(stmt)
    block.stmts = new_stmts
