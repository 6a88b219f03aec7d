"""The source-to-source function inliner.

Section 2.1: the toolchain includes its own CIL-level inliner because (a)
inlining gives the context sensitivity that cXprop's whole-program analysis
lacks — inlining a CCured check into its caller is what makes the check's
arguments analyzable — and (b) inlining before the back end produces ~5%
smaller executables than letting the back end inline the same functions.

The inliner is deliberately conservative about control flow: CMinor has no
``goto``, so a callee with early returns is wrapped in a one-trip loop and
its returns become ``break`` statements; callees that contain both loops and
early returns are left alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cminor.callgraph import build_call_graph
from repro.cminor.clone import clone_block, clone_expr
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import (
    count_statements,
    map_expression,
    replace_statement_expressions,
    transform_block,
    walk_expression,
    walk_statements,
)

#: Callees larger than this many statements are not inlined unless they have
#: a single call site or are marked ``__inline``.
DEFAULT_SIZE_LIMIT = 20

#: Callers are not grown beyond this many statements.
DEFAULT_CALLER_LIMIT = 400

#: Functions that must never be inlined (the cold failure path must stay a
#: call so failure identifiers remain recognizable and code stays small).
NEVER_INLINE = {"__ccured_fail"}

_MARKER_RE = re.compile(r"__(?:inl|call)(\d+)")


def _temp_markers(program: Program):
    """A fresh temp-name counter, deterministic per program content.

    Temp names (``__callN`` hoists, ``__inlN_x`` inlined locals) must be a
    pure function of the program being transformed — not of how many other
    programs this process transformed before it — or two builds of one
    spec in one process diverge.  The counter restarts above any marker
    already present, so re-running a transform on an already-transformed
    program never reuses a name.
    """
    highest = 0
    local_types = program.analysis().local_types
    for func in program.iter_functions():
        for name in local_types(func):
            match = _MARKER_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
    return itertools.count(highest + 1)


@dataclass
class InlineConfig:
    """Inliner tuning knobs."""

    size_limit: int = DEFAULT_SIZE_LIMIT
    caller_limit: int = DEFAULT_CALLER_LIMIT
    inline_single_call_site: bool = True


@dataclass
class InlineReport:
    """Statistics for one inlining run."""

    calls_inlined: int = 0
    calls_hoisted: int = 0
    functions_removed: int = 0
    callers_touched: set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Call normalization: hoist nested calls into temporaries
# ---------------------------------------------------------------------------


def _contains_call(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Call) for node in walk_expression(expr))


def _is_simple_call_position(stmt: ast.Stmt) -> bool:
    """Whether the statement already has calls only in inlinable positions."""
    if isinstance(stmt, ast.ExprStmt):
        expr = stmt.expr
        if isinstance(expr, ast.Call):
            return not any(_contains_call(arg) for arg in expr.args)
    if isinstance(stmt, (ast.Assign, ast.VarDecl)):
        rvalue = stmt.rvalue if isinstance(stmt, ast.Assign) else stmt.init
        if isinstance(rvalue, ast.Call):
            return not any(_contains_call(arg) for arg in rvalue.args)
    return False


def normalize_calls(program: Program) -> int:
    """Hoist nested calls into temporaries so every call is a whole statement.

    Returns the number of calls hoisted.
    """
    hoisted = 0
    counter = _temp_markers(program)
    for func in program.iter_functions():
        hoisted_here = _normalize_function(program, func, counter)
        if hoisted_here:
            hoisted += hoisted_here
            program.invalidate_analysis(func.name)
    if hoisted:
        check_program(program)
    return hoisted


def _normalize_function(program: Program, func: ast.FunctionDef,
                        counter) -> int:
    hoisted = 0

    def rewrite(stmt: ast.Stmt):
        nonlocal hoisted
        if _is_simple_call_position(stmt):
            return stmt
        prefix: list[ast.Stmt] = []

        def hoist(expr: ast.Expr) -> ast.Expr:
            nonlocal hoisted
            if not isinstance(expr, ast.Call):
                return expr
            callee = program.lookup_function(expr.callee)
            if callee is None or callee.return_type.is_void():
                return expr
            temp_name = f"__call{next(counter)}"
            decl = ast.VarDecl(temp_name, callee.return_type, expr)
            decl.loc = expr.loc
            prefix.append(decl)
            hoisted += 1
            replacement = ast.Identifier(temp_name)
            replacement.loc = expr.loc
            replacement.ctype = callee.return_type
            return replacement

        if isinstance(stmt, ast.Assign):
            if not isinstance(stmt.rvalue, ast.Call):
                stmt.rvalue = map_expression(stmt.rvalue, hoist)
            else:
                stmt.rvalue.args = [map_expression(a, hoist) for a in stmt.rvalue.args]
        elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
            if not isinstance(stmt.init, ast.Call):
                stmt.init = map_expression(stmt.init, hoist)
            else:
                stmt.init.args = [map_expression(a, hoist) for a in stmt.init.args]
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.Call):
                stmt.expr.args = [map_expression(a, hoist) for a in stmt.expr.args]
            else:
                stmt.expr = map_expression(stmt.expr, hoist)
        elif isinstance(stmt, ast.If):
            stmt.cond = map_expression(stmt.cond, hoist)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            stmt.value = map_expression(stmt.value, hoist)
        if not prefix:
            return stmt
        return prefix + [stmt]

    transform_block(func.body, rewrite)
    return hoisted


# ---------------------------------------------------------------------------
# Inlining proper
# ---------------------------------------------------------------------------


def _has_loops(func: ast.FunctionDef) -> bool:
    return any(isinstance(s, ast.While) for s in walk_statements(func.body))


def _returned(value: ast.Expr, return_type: ty.CType,
              target_type: Optional[ty.CType]) -> ast.Expr:
    """``value`` as the callee returns it: converted to its return type.

    A store to a target of the return type converts it the same way, and
    so does nothing when :func:`~repro.cminor.cint.fits` says so; only the
    other cases get a cast.
    """
    if not return_type.is_integer() or target_type == return_type \
            or cint.fits(value, return_type):
        return value
    cast = ast.Cast(return_type, value)
    cast.loc = value.loc
    cast.ctype = return_type
    return cast


def _return_statements(func: ast.FunctionDef) -> list[ast.Return]:
    return [s for s in walk_statements(func.body) if isinstance(s, ast.Return)]


def _single_trailing_return(func: ast.FunctionDef) -> bool:
    returns = _return_statements(func)
    if not returns:
        return True
    if len(returns) != 1:
        return False
    return bool(func.body.stmts) and func.body.stmts[-1] is returns[0]


def _inlinable_shape(func: ast.FunctionDef) -> bool:
    """Whether the callee's control flow can be spliced without a goto."""
    if _single_trailing_return(func):
        return True
    return not _has_loops(func)


class Inliner:
    """Inlines eligible calls across the whole program."""

    def __init__(self, program: Program, config: Optional[InlineConfig] = None):
        self.program = program
        self.config = config or InlineConfig()
        self.report = InlineReport()
        self.graph = build_call_graph(program)
        self.recursive = self.graph.recursive_functions()
        self.roots = set(program.root_functions())
        self.call_site_counts = self._count_call_sites()

    def _count_call_sites(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for callees in self.graph.callees.values():
            for callee in callees:
                counts[callee] = counts.get(callee, 0) + 1
        return counts

    def _should_inline(self, callee: ast.FunctionDef) -> bool:
        if callee.name in NEVER_INLINE or callee.name in self.recursive:
            return False
        if callee.name in self.roots or callee.is_interrupt_handler:
            return False
        if not _inlinable_shape(callee):
            return False
        if callee.always_inline:
            return True
        size = count_statements(callee.body)
        if size <= self.config.size_limit:
            return True
        if self.config.inline_single_call_site and \
                self.call_site_counts.get(callee.name, 0) == 1:
            return True
        return False

    def run(self) -> InlineReport:
        self.report.calls_hoisted = normalize_calls(self.program)
        # Seeded after normalization so the floor covers its __call temps.
        self._temp_counter = _temp_markers(self.program)
        order = self.graph.bottom_up_order()
        # Process callers bottom-up so that inlined code is itself fully
        # inlined already (one pass gives transitive inlining).
        for name in order:
            func = self.program.lookup_function(name)
            if func is None:
                continue
            self._inline_into(func)
            if name in self.report.callers_touched:
                self.program.invalidate_analysis(name)
        self._drop_fully_inlined()
        check_program(self.program)
        return self.report

    # -- per-caller ------------------------------------------------------------

    def _inline_into(self, caller: ast.FunctionDef) -> None:
        budget = self.config.caller_limit - count_statements(caller.body)

        def rewrite(stmt: ast.Stmt):
            nonlocal budget
            call, target = self._statement_call(stmt)
            if call is None:
                return stmt
            callee = self.program.lookup_function(call.callee)
            if callee is None or callee is caller or not self._should_inline(callee):
                return stmt
            callee_size = count_statements(callee.body)
            if callee_size > budget:
                return stmt
            budget -= callee_size
            self.report.calls_inlined += 1
            self.report.callers_touched.add(caller.name)
            return self._expand(caller, stmt, call, target, callee)

        transform_block(caller.body, rewrite)

    @staticmethod
    def _statement_call(stmt: ast.Stmt) -> tuple[Optional[ast.Call], Optional[ast.Expr]]:
        """Return (call, result lvalue) if the statement is a plain call."""
        if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
            return stmt.expr, None
        if isinstance(stmt, ast.Assign) and isinstance(stmt.rvalue, ast.Call):
            return stmt.rvalue, stmt.lvalue
        if isinstance(stmt, ast.VarDecl) and isinstance(stmt.init, ast.Call):
            return stmt.init, ast.Identifier(stmt.name)
        return None, None

    def _expand(self, caller: ast.FunctionDef, stmt: ast.Stmt, call: ast.Call,
                target: Optional[ast.Expr],
                callee: ast.FunctionDef) -> list[ast.Stmt]:
        marker = next(self._temp_counter)
        rename = {}
        for param in callee.params:
            rename[param.name] = f"__inl{marker}_{param.name}"
        for name in self.program.analysis().local_types(callee):
            if name not in rename:
                rename[name] = f"__inl{marker}_{name}"

        result: list[ast.Stmt] = []
        # If the original statement declared the result variable, keep the
        # declaration (without initializer) so later uses still see it.
        if isinstance(stmt, ast.VarDecl):
            decl = ast.VarDecl(stmt.name, stmt.ctype, None, stmt.qualifiers)
            decl.loc = stmt.loc
            result.append(decl)

        # Bind arguments to fresh parameter copies.
        for param, arg in zip(callee.params, call.args):
            decl = ast.VarDecl(rename[param.name], param.ctype, arg)
            decl.loc = stmt.loc
            result.append(decl)

        body = clone_block(callee.body)
        self._rename_block(body, rename)

        returns = [s for s in walk_statements(body) if isinstance(s, ast.Return)]
        needs_loop = not (len(returns) == 0 or
                          (len(returns) == 1 and body.stmts and
                           body.stmts[-1] is returns[-1]))

        if isinstance(stmt, ast.VarDecl):
            target_type = stmt.ctype
        else:
            target_type = target.ctype if target is not None else None

        def convert_return(ret: ast.Return) -> list[ast.Stmt]:
            converted: list[ast.Stmt] = []
            if target is not None and ret.value is not None:
                assign = ast.Assign(
                    clone_expr(target),
                    _returned(ret.value, callee.return_type, target_type))
                assign.loc = ret.loc
                converted.append(assign)
            elif ret.value is not None and _contains_call(ret.value):
                keep = ast.ExprStmt(ret.value)
                keep.loc = ret.loc
                converted.append(keep)
            if needs_loop:
                brk = ast.Break()
                brk.loc = ret.loc
                converted.append(brk)
            return converted

        def rewrite_returns(inner: ast.Stmt):
            if isinstance(inner, ast.Return):
                return convert_return(inner)
            return inner

        transform_block(body, rewrite_returns)

        if needs_loop:
            one = ast.IntLiteral(1)
            loop_body = ast.Block(list(body.stmts) + [ast.Break()])
            loop = ast.While(one, loop_body)
            loop.loc = stmt.loc
            result.append(loop)
        else:
            result.extend(body.stmts)
        return result

    def _rename_block(self, block: ast.Block, rename: dict[str, str]) -> None:
        def fix_expr(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.Identifier) and expr.name in rename:
                expr.name = rename[expr.name]
            return expr

        for inner in walk_statements(block):
            if isinstance(inner, ast.VarDecl) and inner.name in rename:
                inner.name = rename[inner.name]
            replace_statement_expressions(inner, fix_expr)

    def _drop_fully_inlined(self) -> None:
        """Remove callees that no longer have any callers and are not roots."""
        graph = build_call_graph(self.program)
        called: set[str] = set()
        for callees in graph.callees.values():
            called |= callees
        for func in list(self.program.iter_functions()):
            if func.name in self.roots or func.is_interrupt_handler:
                continue
            if func.name not in called:
                self.program.remove_function(func.name)
                self.report.functions_removed += 1


def inline_program(program: Program,
                   config: Optional[InlineConfig] = None) -> InlineReport:
    """Run the inliner over the whole program."""
    return Inliner(program, config).run()
