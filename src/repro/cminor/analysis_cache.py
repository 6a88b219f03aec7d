"""Per-function memo of derived facts, keyed to one program.

Every stage of the toolchain reads the same facts about each function:
its local types, its callees, the globals it reads and writes, the
accesses the race analysis sees.  Each such fact is a pure function of one
:class:`~repro.cminor.ast_nodes.FunctionDef`, so the memo keeps it for
exactly as long as that function is unchanged:

* a fact is computed on first request (:meth:`ProgramAnalysisCache.fact`)
  and kept under the function's name;
* every pass that changes a function's body reports that function's name
  through ``program.invalidate_analysis(name)``, which drops its facts and
  its type-check record; ``Program.add_function``, ``remove_function``,
  ``add_global`` and ``remove_global`` report their own name;
* whole-program results (the call graph, dead-code usage sets, mod sets,
  the race analysis's accesses) are assembled from the facts, filtering
  names against the program's current functions and globals, so a
  declaration added or removed elsewhere changes no fact.

Facts hold names and types, never AST nodes, so ``Program.clone()`` copies
them and a build resumed from a prefix snapshot starts warm.  The
statement-expression entries are keyed by node id, which a clone does not
share, so a clone starts without them.  A pickled program leaves the memo
behind, as it leaves the simulator's code caches.  Consumers must treat
returned containers as immutable: they are shared.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, TypeVar

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.typecheck import local_types
from repro.cminor.visitor import (
    lvalue_root,
    statement_expressions,
    walk_function_expressions,
)

Fact = TypeVar("Fact")


def memory_locals(func: ast.FunctionDef) -> frozenset[str]:
    """Locals of ``func`` that must live in memory objects.

    This is the simulator's notion: locals whose address is taken through
    a chain of ``&``/index/member accesses, plus every aggregate local
    (arrays and structs always live in memory).
    """
    locals_ = local_types(func)
    taken: set[str] = set()
    for node in walk_function_expressions(func.body):
        if isinstance(node, ast.AddressOf):
            root = lvalue_root(node.lvalue)
            if root in locals_:
                taken.add(root)
    for name, ctype in locals_.items():
        if isinstance(ctype, (ty.ArrayType, ty.StructType)):
            taken.add(name)
    return frozenset(taken)


class ProgramAnalysisCache:
    """Memoized per-function facts of one program.

    All returned mappings/sets/lists are shared between callers and must not
    be mutated.  After changing a function, report it to :meth:`invalidate`.

    Attributes:
        checked: Function name -> ``{(kind, name): declaration}`` for the
            declarations its last type check read, with what each was then
            (see :meth:`repro.cminor.typecheck.TypeChecker.check`).
        checked_structs: The struct table those checks ran against.
    """

    def __init__(self) -> None:
        # No reference back to the program: a program and its memo form no
        # cycle, so a released snapshot is freed as soon as it is dropped.
        #: Fact function -> {function name: fact}.
        self._facts: dict[Callable, dict[str, object]] = {}
        self.checked: dict[str, dict[tuple[str, str], object]] = {}
        self.checked_structs: Optional[dict[str, ty.StructType]] = None
        #: Owning function name ("" if unknown) -> {node_id: expressions}.
        self._stmt_exprs: dict[str, dict[int, tuple[ast.Expr, ...]]] = {}
        #: The simulator's live code caches of this program, held weakly:
        #: a :class:`~repro.avrora.engine.CodeCache` lives as long as its
        #: scope (a network, a scenario variant), not as long as the
        #: program.
        self._code_caches: weakref.WeakSet = weakref.WeakSet()

    def copy(self) -> "ProgramAnalysisCache":
        """A memo for a clone of this one's program, holding the same
        name-keyed facts and check records."""
        copy = ProgramAnalysisCache()
        copy._facts = {compute: dict(table)
                       for compute, table in self._facts.items()}
        copy.checked = dict(self.checked)
        copy.checked_structs = self.checked_structs
        return copy

    def attach_code_cache(self, code_cache) -> None:
        """Have :meth:`invalidate` drop ``code_cache``'s lowerings too.

        The same invalidation calls that transformation passes already
        make then keep a live cache from serving ops of a changed program.
        """
        self._code_caches.add(code_cache)

    def __reduce__(self):
        # A pickled program (a prefix snapshot) leaves the memo and the
        # code caches, which belong to this process's simulations, behind.
        return ProgramAnalysisCache, ()

    # -- queries ----------------------------------------------------------------

    def fact(self, compute: Callable[[ast.FunctionDef], Fact],
             func: ast.FunctionDef) -> Fact:
        """``compute(func)``, kept until ``func`` is invalidated.

        ``compute`` must be a pure function of the function definition that
        returns names and types (never ``None`` or AST nodes), and ``func``
        must be the program's function of that name.
        """
        table = self._facts.get(compute)
        if table is None:
            table = self._facts[compute] = {}
        value = table.get(func.name)
        if value is None:
            value = table[func.name] = compute(func)
        return value  # type: ignore[return-value]

    def local_types(self, func: ast.FunctionDef) -> dict[str, ty.CType]:
        """Parameter and local variable types of ``func`` (shared, read-only)."""
        return self.fact(local_types, func)

    def address_taken_locals(self, func: ast.FunctionDef) -> frozenset[str]:
        """The simulator's memory-resident locals of ``func``
        (:func:`memory_locals`)."""
        return self.fact(memory_locals, func)

    def statement_expressions(self, stmt: ast.Stmt,
                              func_name: str = "") -> tuple[ast.Expr, ...]:
        """The top-level expressions of ``stmt`` (shared, read-only)."""
        table = self._stmt_exprs.get(func_name)
        if table is None:
            table = self._stmt_exprs[func_name] = {}
        cached = table.get(stmt.node_id)
        if cached is None:
            cached = table[stmt.node_id] = tuple(statement_expressions(stmt))
        return cached

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, func_name: Optional[str] = None) -> None:
        """Drop what was derived from ``func_name`` after it changed.

        Without a name everything is dropped.  Statement-expression entries
        whose owner is unknown are always dropped (they may belong to any
        function), and so are the lowerings of every attached code cache.
        """
        if func_name is None:
            self._facts.clear()
            self.checked.clear()
            self._stmt_exprs.clear()
        else:
            for table in self._facts.values():
                table.pop(func_name, None)
            self.checked.pop(func_name, None)
            self._stmt_exprs.pop(func_name, None)
            self._stmt_exprs.pop("", None)
        for code_cache in list(self._code_caches):
            code_cache.invalidate()
