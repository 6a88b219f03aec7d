"""Constant propagation and branch folding.

This pass is where the abstract interpretation pays off:

* integer reads whose abstract value is a single constant are replaced by
  literals ("propagating constant data into code", which later lets dead-
  data elimination drop the variables themselves);
* ``if`` statements whose condition is abstractly decided are replaced by
  the taken branch — including, crucially, the inlined bodies of CCured
  checks (``if (p == 0) __ccured_fail(...)``), whose failure branches become
  unreachable once the pointer analysis knows ``p``;
* conditions that become empty no-ops are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import (
    replace_read_expressions,
    statement_expressions,
    transform_block,
    walk_expression,
)
from repro.cxprop.dataflow import AnalysisResult, FunctionAnalysis, _FlowContext
from repro.cxprop.domains.base import AbstractDomain
from repro.cxprop.interproc import WholeProgramFacts
from repro.cxprop.values import truth_of


@dataclass
class FoldReport:
    """Statistics from one folding pass."""

    branches_folded: int = 0
    constants_substituted: int = 0
    conditions_removed: int = 0
    functions_touched: set[str] = field(default_factory=set)

    @property
    def total(self) -> int:
        return self.branches_folded + self.constants_substituted + \
            self.conditions_removed

    def merge(self, other: "FoldReport") -> None:
        self.branches_folded += other.branches_folded
        self.constants_substituted += other.constants_substituted
        self.conditions_removed += other.conditions_removed
        self.functions_touched |= other.functions_touched


#: Builtins that are pure (no side effects), so conditions calling them may
#: be folded away when their value is known.
_PURE_BUILTINS = {"__bounds_ok", "__align_ok"}


def _expression_has_calls(expr: ast.Expr) -> bool:
    """Whether folding the expression away could discard a side effect."""
    return any(isinstance(node, ast.Call) and node.callee not in _PURE_BUILTINS
               for node in walk_expression(expr))


def _protected_identifier_ids(stmt: ast.Stmt) -> set[int]:
    """Identifier nodes that must never be replaced by constants.

    These are the named lvalue roots under address-of operators: rewriting
    ``&x`` into ``&5`` would be meaningless.  Index expressions under the
    address-of are still fair game.
    """
    protected: set[int] = set()
    for expr in statement_expressions(stmt):
        for node in walk_expression(expr):
            if isinstance(node, ast.AddressOf):
                lvalue = node.lvalue
                while isinstance(lvalue, (ast.Index, ast.Member)):
                    lvalue = lvalue.base
                # Deref roots are evaluated as ordinary pointer expressions.
                if isinstance(lvalue, ast.Identifier):
                    protected.add(id(lvalue))
    return protected


class _Folder:
    """Folds one function using its analysis results."""

    def __init__(self, program: Program, func: ast.FunctionDef,
                 facts: WholeProgramFacts, domain: Optional[AbstractDomain]):
        self.program = program
        self.func = func
        self.facts = facts
        self.analysis = FunctionAnalysis(program, func, facts, domain)
        self.result: AnalysisResult = self.analysis.run()
        self.report = FoldReport()

    def run(self) -> FoldReport:
        transform_block(self.func.body, self._rewrite)
        if self.report.total:
            self.report.functions_touched.add(self.func.name)
        return self.report

    # -- statement rewriting -----------------------------------------------------

    def _rewrite(self, stmt: ast.Stmt):
        state = self.result.state_before(stmt)
        if state is None:
            return stmt
        in_atomic = self.result.in_atomic(stmt)
        if isinstance(stmt, ast.If):
            folded = self._fold_if(stmt, state, in_atomic)
            if folded is not stmt:
                return folded
        self._substitute_constants(stmt, state, in_atomic)
        return stmt

    def _fold_if(self, stmt: ast.If, state, in_atomic: bool):
        if _expression_has_calls(stmt.cond):
            return stmt
        ctx = _FlowContext(self.analysis, state, in_atomic)
        value = self.analysis.evaluator.eval(stmt.cond, ctx)
        truth = truth_of(value)
        if truth is True:
            self.report.branches_folded += 1
            return list(stmt.then_body.stmts)
        if truth is False:
            self.report.branches_folded += 1
            if stmt.else_body is not None:
                return list(stmt.else_body.stmts)
            return []
        if not stmt.then_body.stmts and \
                (stmt.else_body is None or not stmt.else_body.stmts):
            # Both branches empty: keep only the condition's side effects
            # (there are none — calls were excluded above).
            self.report.conditions_removed += 1
            return []
        return stmt

    # -- constant substitution -----------------------------------------------------

    def _substitute_constants(self, stmt: ast.Stmt, state, in_atomic: bool) -> None:
        protected = _protected_identifier_ids(stmt)

        def replace(expr: ast.Expr) -> ast.Expr:
            if not isinstance(expr, ast.Identifier):
                return expr
            if id(expr) in protected:
                return expr
            ctype = expr.ctype
            if ctype is None or not ctype.is_integer():
                return expr
            if not self._substitutable(expr.name):
                return expr
            value = self.analysis.lookup(state, expr.name, in_atomic)
            constant = value.as_constant()
            if constant is None:
                return expr
            literal = ast.IntLiteral(constant)
            literal.loc = expr.loc
            literal.ctype = ctype
            self.report.constants_substituted += 1
            return literal

        replace_read_expressions(stmt, replace)

    def _substitutable(self, name: str) -> bool:
        """Whether a constant read of ``name`` may become a literal.

        A shared global read outside an atomic section qualifies too: the
        lookup then degrades to its program-wide invariant, which is a
        constant only if the global genuinely is one.
        """
        if name in self.analysis.locals_:
            return name not in self.analysis.address_taken
        var = self.program.lookup_global(name)
        if var is None or var.is_volatile:
            return False
        return name not in self.facts.address_taken_globals


def fold_program(program: Program, facts: WholeProgramFacts,
                 domain: Optional[AbstractDomain] = None) -> FoldReport:
    """Run constant propagation and branch folding over every function."""
    report = FoldReport()
    for func in program.iter_functions():
        folder = _Folder(program, func, facts, domain)
        report.merge(folder.run())
        if folder.report.total:
            program.invalidate_analysis(func.name)
    if report.total:
        check_program(program)
    return report
