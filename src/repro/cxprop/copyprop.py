"""Copy propagation.

A small, local pass (Section 2.1: "we implemented a copy propagation pass
that eliminates useless variables and increases cXprop's dataflow analysis
precision slightly").  Within each straight-line region it replaces reads of
a local that was just assigned another local, a parameter, or a literal with
the source of the copy; dead-code elimination then removes the now-unused
temporary.  The pass matters most after inlining, which introduces one
temporary per inlined parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cminor import ast_nodes as ast
from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import (
    child_blocks,
    replace_read_expressions,
    statement_expressions,
    walk_expression,
    walk_statements_single,
)


@dataclass
class CopyPropReport:
    """Statistics from one copy-propagation run."""

    copies_propagated: int = 0
    functions_touched: int = 0


_Copy = Union[ast.Identifier, ast.IntLiteral]


class _BlockPropagator:
    """Propagates copies within one function."""

    def __init__(self, program: Program, func: ast.FunctionDef,
                 address_taken: set[str]):
        self.program = program
        self.func = func
        self.locals_ = program.analysis().local_types(func)
        self.address_taken = address_taken
        self.propagated = 0

    def run(self) -> int:
        self._process_block(self.func.body, {})
        return self.propagated

    # -- block processing -----------------------------------------------------

    def _process_block(self, block: ast.Block, copies: dict[str, _Copy]) -> None:
        for stmt in block.stmts:
            self._substitute(stmt, copies)
            self._update(stmt, copies)
            self._recurse(stmt, copies)

    def _recurse(self, stmt: ast.Stmt, copies: dict[str, _Copy]) -> None:
        # Nested control flow gets a copy of the map; changes inside do not
        # leak back out (conservative but simple).
        inner_copies = dict(copies)
        if isinstance(stmt, ast.While):
            # A loop body may run many times: a copy established before the
            # loop is only valid inside it if the body never reassigns either
            # side, so prune against the body's assignments *before*
            # descending (propagating i=0 into "i = i + 1" would be unsound).
            assigned_inside = self._assigned_in(stmt)
            for name in list(inner_copies):
                source = inner_copies[name]
                if name in assigned_inside or \
                        (isinstance(source, ast.Identifier)
                         and source.name in assigned_inside):
                    inner_copies.pop(name, None)

        blocks = child_blocks(stmt)
        for block in blocks:
            self._process_block(block, dict(inner_copies))
        if blocks:
            # After a branch or loop, assignments inside may have changed
            # anything they mention; drop affected copies.
            assigned = self._assigned_in(stmt)
            for name in list(copies):
                source = copies[name]
                if name in assigned:
                    copies.pop(name, None)
                elif isinstance(source, ast.Identifier) and source.name in assigned:
                    copies.pop(name, None)

    def _assigned_in(self, stmt: ast.Stmt) -> set[str]:
        assigned: set[str] = set()
        for inner in walk_statements_single(stmt):
            if isinstance(inner, ast.Assign) and isinstance(inner.lvalue, ast.Identifier):
                assigned.add(inner.lvalue.name)
            elif isinstance(inner, ast.VarDecl):
                assigned.add(inner.name)
            elif isinstance(inner, ast.Assign):
                assigned.add("*")
        if "*" in assigned:
            assigned |= set(self.locals_) | set(self.program.globals)
        return assigned

    # -- per statement -----------------------------------------------------------

    def _substitute(self, stmt: ast.Stmt, copies: dict[str, _Copy]) -> None:
        if not copies:
            return

        def replace(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.Identifier) and expr.name in copies:
                source = copies[expr.name]
                clone = ast.Identifier(source.name) if isinstance(source, ast.Identifier) \
                    else ast.IntLiteral(source.value)
                clone.loc = expr.loc
                clone.ctype = expr.ctype
                self.propagated += 1
                return clone
            return expr

        replace_read_expressions(stmt, replace)

    def _update(self, stmt: ast.Stmt, copies: dict[str, _Copy]) -> None:
        target: Optional[str] = None
        source: Optional[ast.Expr] = None
        if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Identifier):
            target, source = stmt.lvalue.name, stmt.rvalue
        elif isinstance(stmt, ast.VarDecl):
            target, source = stmt.name, stmt.init
        if target is None:
            if self._has_call(stmt):
                self._invalidate_globals(copies)
            return
        # The assigned variable no longer equals anything it did before, and
        # any copy that referred to it is stale.
        copies.pop(target, None)
        for name in list(copies):
            known = copies[name]
            if isinstance(known, ast.Identifier) and known.name == target:
                copies.pop(name, None)
        if self._has_call(stmt):
            self._invalidate_globals(copies)
            return
        if target not in self.locals_ or target in self.address_taken:
            return
        declared = self.locals_[target]
        if isinstance(source, ast.IntLiteral):
            # The store wraps the literal to the local's type; so must a use.
            if declared.is_integer():
                source = ast.IntLiteral(cint.wrap_to(declared, source.value))
            copies[target] = source
        elif isinstance(source, ast.Identifier):
            name = source.name
            if ((name in self.locals_ and name not in self.address_taken) or
                    name in {p.name for p in self.func.params}) and \
                    _holds_every_value(declared, self.locals_[name]):
                copies[target] = source

    def _invalidate_globals(self, copies: dict[str, _Copy]) -> None:
        for name in list(copies):
            known = copies[name]
            if isinstance(known, ast.Identifier) and known.name in self.program.globals:
                copies.pop(name, None)

    def _has_call(self, stmt: ast.Stmt) -> bool:
        for expr in statement_expressions(stmt):
            if any(isinstance(node, ast.Call) for node in walk_expression(expr)):
                return True
        return False


def _holds_every_value(dest: ty.CType, src: ty.CType) -> bool:
    """Whether storing any ``src`` value in a ``dest`` local leaves it as is."""
    if not (dest.is_integer() and src.is_integer()):
        return True
    dest_lo, dest_hi = ty.integer_limits(dest)
    src_lo, src_hi = ty.integer_limits(src)
    return dest_lo <= src_lo and src_hi <= dest_hi


def propagate_copies(program: Program,
                     address_taken_locals: Optional[dict[str, set[str]]] = None
                     ) -> CopyPropReport:
    """Run copy propagation over every function of ``program``."""
    report = CopyPropReport()
    address_taken_locals = address_taken_locals or {}
    for func in program.iter_functions():
        taken = address_taken_locals.get(func.name, set())
        propagator = _BlockPropagator(program, func, taken)
        count = propagator.run()
        if count:
            report.copies_propagated += count
            report.functions_touched += 1
            program.invalidate_analysis(func.name)
    if report.copies_propagated:
        check_program(program)
    return report
