"""Program-level cache of derived per-function analyses.

Several layers recompute the same cheap-but-not-free derived facts over and
over: the simulator derives ``local_types`` and the statement→expression
mapping per interpreter instance, and every cXprop round recomputes them per
:class:`~repro.cxprop.dataflow.FunctionAnalysis`.  This module hoists those
results to the :class:`~repro.cminor.program.Program` so one computation
serves every consumer (``avrora`` and ``cxprop`` alike).

The cache is *invalidation-based*: transformation passes that mutate
function bodies call ``program.invalidate_analysis()`` (or the per-function
variant) when they are done.  Consumers must treat returned containers as
immutable — they are shared.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.typecheck import local_types
from repro.cminor.visitor import (
    lvalue_root,
    statement_expressions,
    walk_expression,
    walk_statements,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cminor.program import Program


class ProgramAnalysisCache:
    """Memoized per-function analyses, keyed to one program.

    All returned mappings/sets/lists are shared between callers and must not
    be mutated.  After an AST transformation, call :meth:`invalidate`.
    """

    def __init__(self, program: "Program"):
        self._program = program
        self._local_types: dict[str, dict[str, ty.CType]] = {}
        self._address_taken: dict[str, frozenset[str]] = {}
        self._stmt_exprs: dict[int, tuple[ast.Expr, ...]] = {}
        #: node_id → owning function name, so per-function invalidation can
        #: drop the statement-expression entries it owns.
        self._stmt_owner: dict[int, str] = {}
        #: The simulator's live code caches of this program, held weakly:
        #: a :class:`~repro.avrora.engine.CodeCache` lives as long as its
        #: scope (a network, a scenario variant), not as long as the
        #: program.
        self._code_caches: weakref.WeakSet = weakref.WeakSet()

    def attach_code_cache(self, code_cache) -> None:
        """Have :meth:`invalidate` drop ``code_cache``'s lowerings too.

        The same invalidation calls that transformation passes already
        make then keep a live cache from serving ops of a changed program.
        """
        self._code_caches.add(code_cache)

    def __getstate__(self) -> dict:
        # A pickled program (a prefix snapshot) leaves its code caches,
        # which belong to this process's simulations, behind.
        state = dict(self.__dict__)
        del state["_code_caches"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._code_caches = weakref.WeakSet()

    # -- queries ----------------------------------------------------------------

    def local_types(self, func: ast.FunctionDef) -> dict[str, ty.CType]:
        """Parameter and local variable types of ``func`` (shared, read-only)."""
        cached = self._local_types.get(func.name)
        if cached is None:
            cached = local_types(func)
            self._local_types[func.name] = cached
        return cached

    def statement_expressions(self, stmt: ast.Stmt,
                              func_name: str = "") -> tuple[ast.Expr, ...]:
        """The top-level expressions of ``stmt`` (shared, read-only)."""
        cached = self._stmt_exprs.get(stmt.node_id)
        if cached is None:
            cached = tuple(statement_expressions(stmt))
            self._stmt_exprs[stmt.node_id] = cached
            if func_name:
                self._stmt_owner[stmt.node_id] = func_name
        return cached

    def address_taken_locals(self, func: ast.FunctionDef) -> frozenset[str]:
        """Locals of ``func`` that must live in memory objects.

        This is the simulator's notion: locals whose address is taken
        through a chain of ``&``/index/member accesses, plus every aggregate
        local (arrays and structs always live in memory).
        """
        cached = self._address_taken.get(func.name)
        if cached is not None:
            return cached
        locals_ = self.local_types(func)
        taken: set[str] = set()
        for stmt in walk_statements(func.body):
            for expr in self.statement_expressions(stmt, func.name):
                for node in walk_expression(expr):
                    if isinstance(node, ast.AddressOf):
                        root = lvalue_root(node.lvalue)
                        if root in locals_:
                            taken.add(root)
        for name, ctype in locals_.items():
            if isinstance(ctype, (ty.ArrayType, ty.StructType)):
                taken.add(name)
        frozen = frozenset(taken)
        self._address_taken[func.name] = frozen
        return frozen

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, func_name: Optional[str] = None) -> None:
        """Drop cached results after an AST mutation.

        With ``func_name`` only that function's entries are dropped; without
        it the whole cache is cleared.  Statement-expression entries whose
        owner is unknown are always dropped (they may belong to any
        function).
        """
        for code_cache in list(self._code_caches):
            code_cache.invalidate()
        if func_name is None:
            self._local_types.clear()
            self._address_taken.clear()
            self._stmt_exprs.clear()
            self._stmt_owner.clear()
            return
        self._local_types.pop(func_name, None)
        self._address_taken.pop(func_name, None)
        orphaned = [node_id for node_id in self._stmt_exprs
                    if self._stmt_owner.get(node_id) in (func_name, None)]
        for node_id in orphaned:
            self._stmt_exprs.pop(node_id, None)
            self._stmt_owner.pop(node_id, None)
