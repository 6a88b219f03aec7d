"""Whole-program facts used by the flow-sensitive analysis.

cXprop is a whole-program analyzer but (without the inliner) a context-
insensitive one.  The facts it maintains across function boundaries are:

* **global invariants** — for every global variable, the join of its static
  initializer and every value ever stored to it; sound because the analysis
  also havocs globals at calls and treats address-taken globals as unknown;
* **mod-sets** — the set of globals each function may (transitively) write,
  used to havoc state at call sites;
* **address-taken sets** — globals and locals whose address escapes, which
  may change behind the analysis's back through pointer stores;
* **interrupt-shared variables** — globals touched from interrupt context:
  those nesC's race analysis sees accessed there, plus, as Section 2.1's
  pointer rule has it, every address-taken global once interrupt-reachable
  code stores through a pointer.  The flow-sensitive engine only trusts
  refined values for these inside atomic sections (the
  concurrency-soundness improvement of Section 2.1).

The per-function parts of the first three (each function's direct writes
and address-taken names) are facts of the program's analysis memo, so a
round re-walks only the functions that changed since the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.callgraph import CallGraph, build_call_graph
from repro.cminor.program import Program
from repro.cminor.typecheck import local_types
from repro.cminor.visitor import (
    lvalue_root,
    walk_function_expressions,
    walk_statements,
)
from repro.cxprop.evaluate import Evaluator
from repro.cxprop.values import MemoryTarget, Value
from repro.nesc.concurrency import analyze_concurrency

#: Marker inside a mod-set meaning "may write through a pointer".
POINTER_STORE = "*"

#: Iterations of the global-invariant fixpoint before widening.
_INVARIANT_ROUNDS = 6


@dataclass
class WholeProgramFacts:
    """Interprocedural facts shared by every per-function analysis."""

    program: Program
    call_graph: CallGraph
    global_invariants: dict[str, Value] = field(default_factory=dict)
    mod_sets: dict[str, set[str]] = field(default_factory=dict)
    address_taken_globals: set[str] = field(default_factory=set)
    address_taken_locals: dict[str, frozenset[str]] = field(default_factory=dict)
    shared_variables: set[str] = field(default_factory=set)

    def invariant(self, name: str) -> Value:
        value = self.global_invariants.get(name)
        if value is not None:
            return value
        var = self.program.lookup_global(name)
        return Value.of_type(var.ctype if var is not None else None)

    def modified_globals(self, callee: str) -> set[str]:
        mods = self.mod_sets.get(callee, set())
        if POINTER_STORE in mods:
            return (mods - {POINTER_STORE}) | self.address_taken_globals
        return mods


def address_taken(func: ast.FunctionDef
                  ) -> tuple[frozenset[str], frozenset[str]]:
    """(locals, other names) of ``func`` whose address escapes.

    A function's memoized fact: a name is taken by ``&name`` (through any
    chain of index and member accesses), and a local array also by being
    mentioned at all, since it decays to a pointer.
    """
    locals_ = local_types(func)
    locals_taken: set[str] = set()
    others: set[str] = set()
    for node in walk_function_expressions(func.body):
        if isinstance(node, ast.AddressOf):
            root = lvalue_root(node.lvalue)
            if root is None:
                continue
            if root in locals_:
                locals_taken.add(root)
            else:
                others.add(root)
        elif isinstance(node, ast.Identifier):
            if node.name in locals_ and isinstance(node.ctype, ty.ArrayType):
                locals_taken.add(node.name)
    return frozenset(locals_taken), frozenset(others)


def direct_writes(func: ast.FunctionDef) -> frozenset[str]:
    """Names ``func`` stores to that are not its locals, plus
    :data:`POINTER_STORE` if it stores through a pointer: ``*p``, ``p->f``
    or ``p[i]`` (a function's memoized fact)."""
    locals_ = local_types(func)
    writes: set[str] = set()
    for stmt in walk_statements(func.body):
        if isinstance(stmt, ast.Assign):
            root = lvalue_root(stmt.lvalue)
            if root is None or _indexes_a_pointer(stmt.lvalue):
                writes.add(POINTER_STORE)
            elif root not in locals_:
                writes.add(root)
    return frozenset(writes)


def _indexes_a_pointer(lvalue: ast.Expr) -> bool:
    """Whether ``lvalue`` indexes a pointer (``p[i]``, ``s.p[i].f``): a store
    there writes what ``p`` points to, not ``p``, which
    :func:`lvalue_root` names."""
    while isinstance(lvalue, (ast.Index, ast.Member)):
        if isinstance(lvalue, ast.Index) and \
                isinstance(lvalue.base.ctype, ty.PointerType):
            return True
        lvalue = lvalue.base
    return False


def _collect_address_taken(program: Program
                           ) -> tuple[set[str], dict[str, frozenset[str]]]:
    """Globals and per-function locals whose address escapes."""
    globals_taken: set[str] = set()
    locals_taken: dict[str, frozenset[str]] = {}
    for var in program.iter_globals():
        if isinstance(var.ctype, ty.ArrayType):
            # Array globals decay to pointers whenever they are mentioned;
            # treat them as address-taken so stores through pointers are
            # handled conservatively.
            globals_taken.add(var.name)
    fact = program.analysis().fact
    for func in program.iter_functions():
        taken, others = fact(address_taken, func)
        globals_taken |= others & program.globals.keys()
        locals_taken[func.name] = taken
    return globals_taken, locals_taken


def _collect_mod_sets(program: Program, graph: CallGraph) -> dict[str, set[str]]:
    """Globals each function may write, transitively."""
    fact = program.analysis().fact
    result = {func.name: {name for name in fact(direct_writes, func)
                          if name == POINTER_STORE or name in program.globals}
              for func in program.iter_functions()}

    # Transitive closure over the (acyclic-ish) call graph.
    changed = True
    while changed:
        changed = False
        for name in result:
            for callee in graph.calls(name):
                callee_mods = result.get(callee)
                if not callee_mods:
                    continue
                before = len(result[name])
                result[name] |= callee_mods
                if len(result[name]) != before:
                    changed = True
    return result


class _InvariantContext:
    """Evaluation context used while computing global invariants."""

    def __init__(self, facts: WholeProgramFacts, func: ast.FunctionDef,
                 locals_: dict[str, ty.CType]):
        self.facts = facts
        self.func = func
        self.locals_ = locals_

    def lookup(self, name: str) -> Value:
        if name in self.locals_:
            return Value.of_type(self.locals_[name])
        return self.facts.invariant(name)

    def call_result(self, call: ast.Call) -> Value:
        func = self.facts.program.lookup_function(call.callee)
        if func is None:
            return Value.top()
        return Value.of_type(func.return_type)

    def local_target(self, name: str) -> Optional[MemoryTarget]:
        if name in self.locals_:
            size = self.locals_[name].sizeof(2)
            return MemoryTarget("local", f"{self.func.name}:{name}", size)
        return None


def _initial_invariant(var: ast.GlobalVar, evaluator: Evaluator,
                       facts: WholeProgramFacts) -> Value:
    """Invariant seed: the static initializer (globals are zero-initialized)."""
    if isinstance(var.ctype, (ty.ArrayType, ty.StructType)):
        # Aggregate contents are not tracked.
        return Value.top()
    if var.init is None:
        if var.ctype.is_pointer():
            return Value.null_pointer()
        return Value.of_int(0)
    if isinstance(var.init, ast.IntLiteral):
        # The type checker has wrapped the literal to the global's type.
        return Value.of_int(var.init.value)
    if isinstance(var.init, ast.StringLiteral) and var.ctype.is_pointer():
        from repro.cxprop.evaluate import string_target

        return Value.pointer_to(string_target(var.init))
    if isinstance(var.init, ast.AddressOf):
        ctx = _InvariantContext(facts, ast.FunctionDef("<init>", ty.VOID), {})
        return evaluator.eval_address(var.init.lvalue, ctx)
    return Value.of_type(var.ctype)


def _compute_global_invariants(facts: WholeProgramFacts,
                               evaluator: Evaluator) -> None:
    program = facts.program
    trackable = {
        var.name: var for var in program.iter_globals()
        if var.ctype.is_scalar()
    }
    for name, var in trackable.items():
        if name in facts.address_taken_globals or var.is_volatile:
            facts.global_invariants[name] = Value.of_type(var.ctype)
        else:
            facts.global_invariants[name] = _initial_invariant(var, evaluator, facts)

    assignments: list[tuple[ast.FunctionDef, ast.Assign]] = []
    for func in program.iter_functions():
        for stmt in walk_statements(func.body):
            if isinstance(stmt, ast.Assign):
                root = lvalue_root(stmt.lvalue)
                if root in trackable and isinstance(stmt.lvalue, ast.Identifier):
                    assignments.append((func, stmt))

    analysis = program.analysis()
    local_maps = {func.name: analysis.local_types(func)
                  for func in program.iter_functions()}

    for round_number in range(_INVARIANT_ROUNDS):
        changed = False
        for func, stmt in assignments:
            name = stmt.lvalue.name  # type: ignore[union-attr]
            locals_ = local_maps[func.name]
            if name in locals_:
                continue
            if name in facts.address_taken_globals:
                continue
            ctx = _InvariantContext(facts, func, locals_)
            new_value = evaluator.eval(stmt.rvalue, ctx)
            var = trackable[name]
            if var.ctype.is_integer():
                new_value = new_value.clamp_to_type(var.ctype)
            current = facts.global_invariants[name]
            joined = current.join(new_value)
            if round_number >= _INVARIANT_ROUNDS - 2 and joined != current:
                joined = joined.widen_to_type(var.ctype)
            if joined != current:
                facts.global_invariants[name] = joined
                changed = True
        if not changed:
            break


def compute_whole_program_facts(program: Program,
                                pointer_size: int = 2) -> WholeProgramFacts:
    """Compute all interprocedural facts for ``program``."""
    graph = build_call_graph(program)
    facts = WholeProgramFacts(program=program, call_graph=graph)

    globals_taken, locals_taken = _collect_address_taken(program)
    facts.address_taken_globals = globals_taken
    facts.address_taken_locals = locals_taken
    facts.mod_sets = _collect_mod_sets(program, graph)

    concurrency = analyze_concurrency(program, suppress_norace=True)
    shared: set[str] = set()
    for access in concurrency.accesses:
        if access.function in concurrency.async_functions:
            shared.add(access.variable)
    # nesC's analysis does not follow pointers: a store through one from
    # interrupt context may reach any address-taken global.
    if any(POINTER_STORE in facts.mod_sets.get(name, ())
           for name in concurrency.async_functions):
        shared |= globals_taken
    facts.shared_variables = shared

    evaluator = Evaluator(program, pointer_size)
    _compute_global_invariants(facts, evaluator)
    return facts
