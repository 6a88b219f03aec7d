"""Abstract evaluation of CMinor expressions.

The evaluator turns an expression into a :class:`~repro.cxprop.values.Value`
given a *context* that knows how to look up variables and summarize calls.
It is shared by the flow-sensitive engine (:mod:`repro.cxprop.dataflow`) and
the flow-insensitive global-invariant computation
(:mod:`repro.cxprop.interproc`).

Besides ordinary arithmetic, the evaluator knows the abstract semantics of
the toolchain builtins that matter for optimization:

* ``__bounds_ok(p, n)`` — provably true when every object ``p`` may point
  into is known and the access ``[offset, offset+n)`` fits inside it; this
  is what lets the generic branch-folding pass delete inlined CCured bounds
  checks.
* ``__align_ok`` — always true on the byte-aligned AVR and MSP430 targets.
* ``__hw_read8`` / ``__hw_read16`` — unknown values of the right width.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cxprop import values as av
from repro.cxprop.values import MemoryTarget, Value


class EvalContext(Protocol):
    """What the evaluator needs from its caller."""

    def lookup(self, name: str) -> Value:
        """Abstract value of a variable (local or global)."""
        ...

    def call_result(self, call: ast.Call) -> Value:
        """Abstract return value of a call to a program function."""
        ...

    def local_target(self, name: str) -> Optional[MemoryTarget]:
        """Memory target for a local variable, or None if not a local."""
        ...


def global_target(program: Program, name: str,
                  pointer_size: int = 2) -> Optional[MemoryTarget]:
    """Memory target describing a global variable."""
    var = program.lookup_global(name)
    if var is None:
        return None
    return MemoryTarget("global", name, var.ctype.sizeof(pointer_size))


def string_target(literal: ast.StringLiteral) -> MemoryTarget:
    """Memory target describing a string literal (NUL terminator included)."""
    return MemoryTarget("string", f"str:{literal.value[:16]}", len(literal.value) + 1)


class Evaluator:
    """Evaluates expressions to abstract values within a context."""

    def __init__(self, program: Program, pointer_size: int = 2):
        self.program = program
        self.pointer_size = pointer_size

    # -- public API --------------------------------------------------------------

    def eval(self, expr: ast.Expr, ctx: EvalContext) -> Value:
        value = self._eval(expr, ctx)
        return value.clamp_to_type(expr.ctype) if value.is_int else value

    # -- dispatch ----------------------------------------------------------------

    def _eval(self, expr: ast.Expr, ctx: EvalContext) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return Value.of_int(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return Value.pointer_to(string_target(expr))
        if isinstance(expr, ast.Identifier):
            ctype = expr.ctype
            if isinstance(ctype, ty.ArrayType):
                # Array names decay to a pointer to the underlying object.
                target = self._object_target(expr.name, ctx)
                if target is not None:
                    return Value.pointer_to(target)
                return Value.any_pointer()
            return ctx.lookup(expr.name)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, ctx)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, ctx)
        if isinstance(expr, ast.Deref):
            self.eval(expr.pointer, ctx)
            return Value.of_type(expr.ctype)
        if isinstance(expr, ast.AddressOf):
            return self.eval_address(expr.lvalue, ctx)
        if isinstance(expr, ast.Index):
            if isinstance(expr.ctype, ty.ArrayType):
                # An array-typed element (e.g. a row of a 2-D buffer) decays
                # to a pointer to its storage.
                return self.eval_address(expr, ctx)
            return Value.of_type(expr.ctype)
        if isinstance(expr, ast.Member):
            if isinstance(expr.ctype, ty.ArrayType):
                # Array-valued fields (msg->data) decay to a pointer into the
                # enclosing object, which the bounds reasoning can track.
                return self.eval_address(expr, ctx)
            return Value.of_type(expr.ctype)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx)
        if isinstance(expr, ast.Cast):
            return self._eval_cast(expr, ctx)
        if isinstance(expr, ast.SizeOf):
            return Value.of_int(expr.of_type.sizeof(self.pointer_size))
        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond, ctx)
            truth = av.truth_of(cond)
            if truth is True:
                return self.eval(expr.then, ctx)
            if truth is False:
                return self.eval(expr.otherwise, ctx)
            return self.eval(expr.then, ctx).join(self.eval(expr.otherwise, ctx))
        return Value.top()

    # -- operators ----------------------------------------------------------------

    def _eval_binary(self, expr: ast.BinaryOp, ctx: EvalContext) -> Value:
        op = expr.op
        left = self.eval(expr.left, ctx)
        if op in ("&&", "||"):
            right = self.eval(expr.right, ctx)
            left_truth = av.truth_of(left)
            right_truth = av.truth_of(right)
            if op == "&&":
                if left_truth is False or right_truth is False:
                    return av.FALSE_VALUE
                if left_truth is True and right_truth is True:
                    return av.TRUE_VALUE
                return av.BOOL_VALUE
            if left_truth is True or right_truth is True:
                return av.TRUE_VALUE
            if left_truth is False and right_truth is False:
                return av.FALSE_VALUE
            return av.BOOL_VALUE
        right = self.eval(expr.right, ctx)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return av.compare_values(op, left, right)
        if op in ("+", "-"):
            pointer_result = self._pointer_arithmetic(expr, left, right)
            if pointer_result is not None:
                return pointer_result
        if op == "+":
            return av.add_values(left, right)
        if op == "-":
            return av.sub_values(left, right)
        if op == "*":
            return av.mul_values(left, right)
        if op == "/":
            return av.div_values(left, right)
        if op == "%":
            return av.mod_values(left, right)
        if op == "<<":
            return av.shift_left_values(left, right)
        if op == ">>":
            return av.shift_right_values(left, right)
        if op == "&":
            return av.bitand_values(left, right)
        if op == "|":
            return av.bitor_values(left, right)
        if op == "^":
            return av.bitxor_values(left, right)
        return Value.top()

    def _pointer_arithmetic(self, expr: ast.BinaryOp, left: Value,
                            right: Value) -> Optional[Value]:
        """Handle ``pointer +/- integer`` with element-size scaling."""
        left_type = expr.left.ctype.decay() if expr.left.ctype else None
        right_type = expr.right.ctype.decay() if expr.right.ctype else None
        if isinstance(left_type, ty.PointerType) and left.is_pointer and right.is_int:
            elem = left_type.target.sizeof(self.pointer_size) or 1
            delta_lo = right.lo * elem
            delta_hi = right.hi * elem
            if expr.op == "-":
                delta_lo, delta_hi = -delta_hi, -delta_lo
            return Value.pointer_to_many(left.targets,
                                         left.offset_lo + delta_lo,
                                         left.offset_hi + delta_hi,
                                         left.may_be_null)
        if isinstance(right_type, ty.PointerType) and right.is_pointer and \
                left.is_int and expr.op == "+":
            elem = right_type.target.sizeof(self.pointer_size) or 1
            return Value.pointer_to_many(right.targets,
                                         right.offset_lo + left.lo * elem,
                                         right.offset_hi + left.hi * elem,
                                         right.may_be_null)
        return None

    def _eval_unary(self, expr: ast.UnaryOp, ctx: EvalContext) -> Value:
        operand = self.eval(expr.operand, ctx)
        if expr.op == "!":
            return av.logical_not(operand)
        if expr.op == "-":
            if operand.is_int:
                return Value.of_range(-operand.hi, -operand.lo)
            return Value.top()
        if expr.op == "~":
            constant = operand.as_constant()
            if constant is not None:
                return Value.of_int(~constant)
            return Value.top()
        return Value.top()

    def _eval_cast(self, expr: ast.Cast, ctx: EvalContext) -> Value:
        operand = self.eval(expr.operand, ctx)
        target = expr.target_type
        if target.is_integer():
            if operand.is_int:
                return operand.clamp_to_type(target)
            return Value.of_type(target)
        if target.is_pointer():
            if operand.is_pointer:
                return operand
            if operand.is_int and operand.as_constant() == 0:
                return Value.null_pointer()
            return Value.any_pointer()
        return Value.top()

    # -- calls -------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, ctx: EvalContext) -> Value:
        name = expr.callee
        if name == "__bounds_ok":
            return self._eval_bounds_ok(expr, ctx)
        if name == "__align_ok":
            # Byte-aligned targets: alignment checks are vacuous (this is
            # precisely the x86 dependence Section 2.3 removes).
            for arg in expr.args:
                self.eval(arg, ctx)
            return av.TRUE_VALUE
        builtin = self.program.lookup_builtin(name)
        if builtin is not None:
            for arg in expr.args:
                self.eval(arg, ctx)
            return Value.of_type(builtin.return_type)
        return ctx.call_result(expr)

    def _eval_bounds_ok(self, expr: ast.Call, ctx: EvalContext) -> Value:
        if len(expr.args) < 2:
            return av.BOOL_VALUE
        pointer = self.eval(expr.args[0], ctx)
        size = self.eval(expr.args[1], ctx)
        if not pointer.is_pointer or not size.is_int:
            return av.BOOL_VALUE
        if pointer.may_be_null or not pointer.targets or \
                pointer.has_unknown_target():
            return av.BOOL_VALUE
        smallest = min(target.size for target in pointer.targets)
        if pointer.offset_lo >= 0 and pointer.offset_hi + size.hi <= smallest:
            return av.TRUE_VALUE
        if pointer.offset_lo >= smallest or pointer.offset_hi + size.lo < 0:
            return av.FALSE_VALUE
        return av.BOOL_VALUE

    # -- addresses ---------------------------------------------------------------

    def eval_address(self, lvalue: ast.Expr, ctx: EvalContext) -> Value:
        """Abstract value of ``&lvalue``."""
        if isinstance(lvalue, ast.Identifier):
            target = self._object_target(lvalue.name, ctx)
            if target is None:
                return Value.any_pointer()
            return Value.pointer_to(target)
        if isinstance(lvalue, ast.Index):
            base_type = lvalue.base.ctype
            if isinstance(base_type, ty.ArrayType):
                base = self.eval_address(lvalue.base, ctx)
                elem = base_type.element.sizeof(self.pointer_size) or 1
            else:
                base = self.eval(lvalue.base, ctx)
                elem = 1
                if isinstance(base_type, ty.PointerType):
                    elem = base_type.target.sizeof(self.pointer_size) or 1
            index = self.eval(lvalue.index, ctx)
            if not base.is_pointer or not index.is_int:
                return Value.any_pointer()
            return Value.pointer_to_many(base.targets,
                                         base.offset_lo + index.lo * elem,
                                         base.offset_hi + index.hi * elem,
                                         base.may_be_null)
        if isinstance(lvalue, ast.Member):
            if lvalue.arrow:
                base = self.eval(lvalue.base, ctx)
                struct_type = lvalue.base.ctype
                if isinstance(struct_type, ty.PointerType):
                    struct_type = struct_type.target
            else:
                base = self.eval_address(lvalue.base, ctx)
                struct_type = lvalue.base.ctype
            if not base.is_pointer or not isinstance(struct_type, ty.StructType):
                return Value.any_pointer()
            resolved = self.program.structs.get(struct_type.name) or struct_type
            try:
                offset = resolved.field_offset(lvalue.fieldname, self.pointer_size)
            except KeyError:
                return Value.any_pointer()
            return Value.pointer_to_many(base.targets,
                                         base.offset_lo + offset,
                                         base.offset_hi + offset,
                                         base.may_be_null)
        if isinstance(lvalue, ast.Deref):
            return self.eval(lvalue.pointer, ctx)
        return Value.any_pointer()

    # -- helpers -----------------------------------------------------------------

    def _object_target(self, name: str, ctx: EvalContext) -> Optional[MemoryTarget]:
        local = ctx.local_target(name)
        if local is not None:
            return local
        return global_target(self.program, name, self.pointer_size)
