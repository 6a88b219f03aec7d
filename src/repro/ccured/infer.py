"""Pointer-kind inference.

A light-weight reproduction of CCured's whole-program pointer-kind
inference.  The algorithm has the same structure as the original:

1. every pointer-typed storage location (global, local, parameter, struct
   field, function return) becomes a *slot*;
2. a single pass over the program generates **base constraints** — uses that
   force a slot upward in the SAFE < SEQ < WILD lattice (pointer arithmetic
   and indexing force SEQ, surviving integer-to-pointer casts force WILD,
   byte-view casts force SEQ) — and **flow edges** between slots that
   exchange values (assignments, argument passing, returns);
3. kinds are propagated along the flow edges to a fixpoint.

The result drives check insertion (which checks each access needs) and the
fat-pointer representation (how much static data each pointer costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import (
    child_expressions,
    statement_expressions,
    walk_statements,
)
from repro.ccured.kinds import (
    KindMap,
    PointerKind,
    Slot,
    field_slot,
    global_slot,
    local_slot,
    param_slot,
    return_slot,
)


@dataclass
class KindInference:
    """Constraint generation and fixpoint solving for pointer kinds."""

    program: Program
    kinds: KindMap = field(default_factory=KindMap)
    edges: dict[Slot, set[Slot]] = field(default_factory=dict)

    # -- public API -------------------------------------------------------------

    def run(self) -> KindMap:
        """Infer kinds for every pointer slot in the program."""
        self._register_slots()
        for func in self.program.iter_functions():
            self._scan_function(func)
        self._propagate()
        return self.kinds

    # -- slot registration ------------------------------------------------------

    def _register_slots(self) -> None:
        for var in self.program.iter_globals():
            if self._is_pointerish(var.ctype):
                self.kinds.raise_to(global_slot(var.name), PointerKind.SAFE)
        for name, struct in self.program.structs.all().items():
            for struct_field in struct.fields:
                if self._is_pointerish(struct_field.ctype):
                    self.kinds.raise_to(field_slot(name, struct_field.name),
                                        PointerKind.SAFE)
        local_types = self.program.analysis().local_types
        for func in self.program.iter_functions():
            if self._is_pointerish(func.return_type):
                self.kinds.raise_to(return_slot(func.name), PointerKind.SAFE)
            for param in func.params:
                if self._is_pointerish(param.ctype):
                    self.kinds.raise_to(param_slot(func.name, param.name),
                                        PointerKind.SAFE)
            for name, ctype in local_types(func).items():
                if self._is_pointerish(ctype):
                    self.kinds.raise_to(local_slot(func.name, name),
                                        PointerKind.SAFE)

    @staticmethod
    def _is_pointerish(ctype: Optional[ty.CType]) -> bool:
        return ctype is not None and ctype.is_pointer()

    # -- constraint generation ----------------------------------------------------

    def _scan_function(self, func: ast.FunctionDef) -> None:
        slots = partial(expr_slots, program=self.program, func=func,
                        locals_=self.program.analysis().local_types(func))
        for stmt in walk_statements(func.body):
            for expr in statement_expressions(stmt):
                self._constrain_expr(expr, slots)
            if isinstance(stmt, ast.Assign):
                self._flow(slots(stmt.lvalue), slots(stmt.rvalue),
                           stmt.rvalue)
            elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                if self._is_pointerish(stmt.ctype):
                    self._flow([local_slot(func.name, stmt.name)],
                               slots(stmt.init), stmt.init)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self._is_pointerish(func.return_type):
                    self._flow([return_slot(func.name)],
                               slots(stmt.value), stmt.value)

    def _constrain_expr(self, root: ast.Expr, slots_of) -> None:
        """Generate base constraints for one expression tree, pre-order."""
        stack = [root]
        while stack:
            expr = stack.pop()
            if isinstance(expr, ast.Index):
                base_type = expr.base.ctype
                if base_type is not None and base_type.is_pointer():
                    for slot in slots_of(expr.base):
                        self.kinds.raise_to(slot, PointerKind.SEQ)
                children = [expr.base, expr.index]
            elif isinstance(expr, ast.BinaryOp):
                if expr.op in ("+", "-"):
                    for operand in (expr.left, expr.right):
                        ctype = operand.ctype
                        if ctype is not None and ctype.decay().is_pointer():
                            for slot in slots_of(operand):
                                self.kinds.raise_to(slot, PointerKind.SEQ)
                children = [expr.left, expr.right]
            elif isinstance(expr, ast.Cast):
                self._cast_constraints(expr, slots_of)
                children = [expr.operand]
            elif isinstance(expr, ast.Call):
                self._call_flow(expr, slots_of)
                children = expr.args
            else:
                children = child_expressions(expr)
            stack.extend(reversed(children))

    def _cast_constraints(self, expr: ast.Cast, slots_of) -> None:
        """Casts: integer-to-pointer is WILD; pointer reinterpretation is SEQ."""
        target = expr.target_type
        source = expr.operand.ctype
        if not isinstance(target, ty.PointerType) or source is None:
            return
        slots = slots_of(expr.operand)
        if source.is_integer():
            # An integer-to-pointer cast that survived the hardware register
            # refactoring: CCured has no choice but WILD.  The kind lands on
            # whatever slot the value is stored into, via the flow edges; it
            # also lands on the operand's slots if the integer came from a
            # pointer round-trip.
            for slot in slots:
                self.kinds.raise_to(slot, PointerKind.WILD)
            return
        source = source.decay()
        if isinstance(source, ty.PointerType) and source.target != target.target:
            # Reinterpreting casts (struct <-> byte views) need bounds
            # metadata on whichever pointer they flow into.
            for slot in slots:
                self.kinds.raise_to(slot, PointerKind.SEQ)

    def _call_flow(self, expr: ast.Call, slots_of) -> None:
        func = self.program.lookup_function(expr.callee)
        if func is None:
            return
        for param, arg in zip(func.params, expr.args):
            if self._is_pointerish(param.ctype):
                self._flow([param_slot(func.name, param.name)],
                           slots_of(arg), arg)

    def _flow(self, dest_slots: list[Slot], src_slots: list[Slot],
              rvalue: ast.Expr) -> None:
        """Record bidirectional flow edges between destination and source slots."""
        cast_kind = self._rvalue_cast_kind(rvalue)
        for dest in dest_slots:
            if cast_kind is not None:
                self.kinds.raise_to(dest, cast_kind)
            for src in src_slots:
                self.edges.setdefault(dest, set()).add(src)
                self.edges.setdefault(src, set()).add(dest)

    def _rvalue_cast_kind(self, rvalue: ast.Expr) -> Optional[PointerKind]:
        """Kind forced on the destination by a cast at the top of the rvalue."""
        if isinstance(rvalue, ast.Cast):
            target = rvalue.target_type
            source = rvalue.operand.ctype
            if isinstance(target, ty.PointerType) and source is not None:
                if source.is_integer():
                    return PointerKind.WILD
                source = source.decay()
                if isinstance(source, ty.PointerType) and \
                        source.target != target.target:
                    return PointerKind.SEQ
        return None

    # -- fixpoint -----------------------------------------------------------------

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for slot, neighbours in self.edges.items():
                kind = self.kinds.get(slot)
                for other in neighbours:
                    if self.kinds.raise_to(other, kind):
                        changed = True
                    other_kind = self.kinds.get(other)
                    if self.kinds.raise_to(slot, other_kind):
                        changed = True


def expr_slots(expr: ast.Expr, program: Program, func: ast.FunctionDef,
               locals_: dict[str, ty.CType]) -> list[Slot]:
    """Slots whose value may flow out of a pointer-valued expression.

    ``locals_`` is the local types of ``func``, the function the expression
    is in.
    """
    if isinstance(expr, ast.Identifier):
        name = expr.name
        if name in locals_:
            if any(p.name == name for p in func.params):
                return [param_slot(func.name, name)]
            return [local_slot(func.name, name)]
        if name in program.globals:
            return [global_slot(name)]
        return []
    if isinstance(expr, ast.Member):
        base_type = expr.base.ctype
        if expr.arrow and isinstance(base_type, ty.PointerType):
            base_type = base_type.target
        if isinstance(base_type, ty.StructType):
            return [field_slot(base_type.name, expr.fieldname)]
        return []
    if isinstance(expr, ast.Call):
        if expr.callee in program.functions:
            return [return_slot(expr.callee)]
        return []
    if isinstance(expr, ast.Cast):
        return expr_slots(expr.operand, program, func, locals_)
    if isinstance(expr, ast.BinaryOp):
        return (expr_slots(expr.left, program, func, locals_)
                + expr_slots(expr.right, program, func, locals_))
    if isinstance(expr, ast.Ternary):
        return (expr_slots(expr.then, program, func, locals_)
                + expr_slots(expr.otherwise, program, func, locals_))
    return []


def infer_pointer_kinds(program: Program) -> KindMap:
    """Convenience wrapper: run kind inference over ``program``."""
    return KindInference(program).run()
