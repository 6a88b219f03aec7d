"""The target's C integer semantics, written once.

Every layer that computes with C integers calls this module: both simulator
engines, the backend's GCC model, cXprop's abstract values and copy
propagation, and the type checker, which folds each global's initializer
with :func:`evaluate`.  So a constant folded at build time is the value the
simulated program would have computed.

The decisions it holds, for both targets (AVR and MSP430, 16-bit ``int``):

* every operator, cast and store wraps its value to its type: two's
  complement for the fixed-width types and ``char`` (signed, 8 bits), 0 or 1
  for ``bool``, 16 bits for a pointer;
* an operator applies to its operands' values as they are and wraps only its
  result to the node's type;
* ``/`` truncates toward zero and ``%`` takes the dividend's sign;
* ``x / 0 == x % 0 == 0``: the targets raise no divide trap, so the result
  is defined rather than left to Python;
* a shift count is masked with ``& 31``.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty


def _layout(ctype: ty.CType) -> Optional[tuple[int, bool]]:
    """Width and signedness ``ctype`` wraps to; None for ``bool`` (0 or 1)."""
    if isinstance(ctype, ty.IntType):
        return ctype.bits, ctype.signed
    if isinstance(ctype, ty.BoolType):
        return None
    if isinstance(ctype, ty.CharType):
        return 8, True
    if isinstance(ctype, ty.PointerType):
        return 16, False
    raise TypeError(f"cannot wrap value of type {ctype}")


def _to_bool(value: int) -> int:
    return 1 if value else 0


def wrap_to(ctype: ty.CType, value: int) -> int:
    """Wrap an integer value to the representable range of ``ctype``."""
    layout = _layout(ctype)
    if layout is None:
        return _to_bool(value)
    bits, signed = layout
    value &= (1 << bits) - 1
    if signed and value >> (bits - 1):
        value -= 1 << bits
    return value


def make_wrap(ctype: ty.CType) -> Callable[[int], int]:
    """:func:`wrap_to` for one type, as a closure with its masks baked in."""
    layout = _layout(ctype)
    if layout is None:
        return _to_bool
    bits, signed = layout
    mask = (1 << bits) - 1
    if not signed:
        return lambda v, _m=mask: v & _m

    def wrap_signed(v: int, _m: int = mask, _x: int = mask >> 1,
                    _s: int = mask + 1) -> int:
        v &= _m
        return v - _s if v > _x else v

    return wrap_signed


def value_range(ctype: ty.CType) -> tuple[int, int]:
    """The least and greatest value of ``ctype``: what its wrap keeps."""
    layout = _layout(ctype)
    if layout is None:
        return 0, 1
    bits, signed = layout
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


#: Expression kinds whose every value lies in their type's range: operators
#: and casts wrap their result, and a variable holds what a store wrapped
#: to its type.  A call, a ternary or a builtin may not, and a ``bool`` in
#: memory may hold any byte.
_WRAPPED_KINDS = (ast.Identifier, ast.BinaryOp, ast.UnaryOp, ast.Cast)


def fits(expr: ast.Expr, ctype: ty.CType) -> bool:
    """Whether converting ``expr``'s value to integer type ``ctype`` is a no-op.

    True for a literal in ``ctype``'s range, and for an expression of a
    wrapped kind whose integer type's range lies inside ``ctype``'s.
    """
    lo, hi = value_range(ctype)
    if isinstance(expr, ast.IntLiteral):
        return lo <= expr.value <= hi
    source = expr.ctype
    if not isinstance(expr, _WRAPPED_KINDS) or \
            not isinstance(source, (ty.IntType, ty.CharType)):
        return False
    source_lo, source_hi = value_range(source)
    return lo <= source_lo and source_hi <= hi


def div(left: int, right: int) -> int:
    """C's ``/``: the quotient truncated toward zero (0 for a zero divisor)."""
    if right == 0:
        return 0
    quotient = left // right
    if quotient < 0 and quotient * right != left:
        quotient += 1
    return quotient


def mod(left: int, right: int) -> int:
    """C's ``%``: the remainder has the dividend's sign (0 for a zero divisor)."""
    if right == 0:
        return 0
    remainder = left % right
    if remainder and (remainder < 0) != (left < 0):
        remainder -= right
    return remainder


#: C's binary integer operators, before the wrap to the result's type.
BINARY_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": div,
    "%": mod,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: a >> (b & 31),
}

#: C's unary integer operators, before the wrap to the result's type.
UNARY_OPS: dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "~": operator.invert,
}

#: The integer comparisons, each giving 0 or 1.
COMPARISONS: dict[str, Callable[[int, int], int]] = {
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def _wrap_node(expr: ast.Expr, value: int) -> int:
    ctype = expr.ctype
    return wrap_to(ctype, value) if ctype is not None and ctype.is_integer() \
        else value


def evaluate(expr: ast.Expr, pointer_size: int = 2) -> Optional[int]:
    """The value of a constant integer expression, or None if it is not one.

    Each operator and cast wraps its result to its type exactly as the
    engines do, so ``expr`` must have been type-checked.
    """
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.SizeOf):
        return expr.of_type.sizeof(pointer_size)
    if isinstance(expr, ast.Cast):
        value = evaluate(expr.operand, pointer_size)
        if value is None or not expr.target_type.is_integer():
            return value
        return wrap_to(expr.target_type, value)
    if isinstance(expr, ast.UnaryOp):
        value = evaluate(expr.operand, pointer_size)
        if value is None:
            return None
        if expr.op == "!":
            return 0 if value else 1
        return _wrap_node(expr, UNARY_OPS[expr.op](value))
    if isinstance(expr, ast.BinaryOp):
        left = evaluate(expr.left, pointer_size)
        right = evaluate(expr.right, pointer_size)
        if left is None or right is None:
            return None
        if expr.op == "&&":
            return 1 if left and right else 0
        if expr.op == "||":
            return 1 if left or right else 0
        compare = COMPARISONS.get(expr.op)
        if compare is not None:
            return compare(left, right)
        return _wrap_node(expr, BINARY_OPS[expr.op](left, right))
    if isinstance(expr, ast.Ternary):
        cond = evaluate(expr.cond, pointer_size)
        if cond is None:
            return None
        return evaluate(expr.then if cond else expr.otherwise, pointer_size)
    return None
