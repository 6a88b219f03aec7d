"""Abstract values for the cXprop analyses.

A value describes what the analyzer knows about one variable at one program
point.  It is a small sum type:

* ``BOTTOM`` — unreachable / no information yet,
* ``INT`` — an integer in a closed range ``[lo, hi]``,
* ``PTR`` — a pointer into a set of known memory objects with a byte-offset
  range, possibly null,
* ``TOP`` — anything at all.

The integer component is deliberately range-shaped so that both the
constant-propagation and the interval abstract domains (the "pluggable
domains" of cXprop) can share it: the domain object decides how ranges are
joined and widened, the :class:`Value` operations do the arithmetic.
That arithmetic is C's as :mod:`repro.cminor.cint` defines it for the
engines: division truncates, a remainder takes the dividend's sign, and a
constant converted to a type wraps exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cminor import cint
from repro.cminor import typesys as ty

#: Sentinel range meaning "any 32-bit-or-smaller integer".
FULL_RANGE = (-(1 << 31), (1 << 32) - 1)


@dataclass(frozen=True)
class MemoryTarget:
    """One memory object a pointer may refer to.

    Attributes:
        region: ``"global"``, ``"local"``, ``"string"``, or ``"unknown"``.
        name: Object identifier (global name, ``function:local``, or a
            string-literal label).
        size: Object size in bytes; 0 when unknown.
    """

    region: str
    name: str
    size: int = 0

    def __str__(self) -> str:
        return f"{self.region}:{self.name}({self.size}B)"


UNKNOWN_TARGET = MemoryTarget("unknown", "?", 0)


@dataclass(frozen=True)
class Value:
    """One abstract value.  Immutable; operations return new values.

    Values are *interned* behind the hash-consed factory :func:`_make`:
    constructing the same abstract value twice yields the same object, so
    the widening loop's joins and state comparisons can short-circuit on
    identity instead of comparing fields (see ``join_states``).
    """

    kind: str  # "bottom", "int", "ptr", "top"
    lo: int = 0
    hi: int = 0
    targets: frozenset[MemoryTarget] = frozenset()
    offset_lo: int = 0
    offset_hi: int = 0
    may_be_null: bool = False

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def bottom() -> "Value":
        return _BOTTOM

    @staticmethod
    def top() -> "Value":
        return _TOP

    @staticmethod
    def of_int(value: int) -> "Value":
        return _make("int", value, value)

    @staticmethod
    def of_range(lo: int, hi: int) -> "Value":
        if lo > hi:
            lo, hi = hi, lo
        return _make("int", lo, hi)

    @staticmethod
    def of_type(ctype: Optional[ty.CType]) -> "Value":
        """The most general value a variable of ``ctype`` can hold."""
        if ctype is None:
            return _TOP
        cached = _OF_TYPE.get(ctype)
        if cached is not None:
            return cached
        if ctype.is_integer():
            value = Value.of_range(*ty.integer_limits(ctype))
        elif ctype.is_pointer():
            value = Value.any_pointer()
        else:
            value = _TOP
        _OF_TYPE[ctype] = value
        return value

    @staticmethod
    def null_pointer() -> "Value":
        return _NULL_POINTER

    @staticmethod
    def pointer_to(target: MemoryTarget, offset_lo: int = 0,
                   offset_hi: int = 0) -> "Value":
        return _make("ptr", 0, 0, frozenset([target]), offset_lo, offset_hi,
                     False)

    @staticmethod
    def pointer_to_many(targets: Iterable[MemoryTarget], offset_lo: int,
                        offset_hi: int, may_be_null: bool) -> "Value":
        return _make("ptr", 0, 0, frozenset(targets), offset_lo, offset_hi,
                     may_be_null)

    @staticmethod
    def any_pointer() -> "Value":
        return _ANY_POINTER

    # -- queries ----------------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.kind == "bottom"

    @property
    def is_top(self) -> bool:
        return self.kind == "top"

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_pointer(self) -> bool:
        return self.kind == "ptr"

    def as_constant(self) -> Optional[int]:
        """The single integer this value denotes, if it is a constant."""
        if self.is_int and self.lo == self.hi:
            return self.lo
        return None

    def is_definitely_nonzero(self) -> bool:
        if self.is_int:
            return self.lo > 0 or self.hi < 0
        if self.is_pointer:
            return not self.may_be_null and bool(self.targets)
        return False

    def is_definitely_zero(self) -> bool:
        if self.is_int:
            return self.lo == 0 and self.hi == 0
        if self.is_pointer:
            return self.may_be_null and not self.targets
        return False

    def has_unknown_target(self) -> bool:
        return any(t.region == "unknown" or t.size == 0 for t in self.targets)

    def range_width(self) -> int:
        if not self.is_int:
            return 1 << 32
        return self.hi - self.lo

    # -- lattice ------------------------------------------------------------------

    def join(self, other: "Value") -> "Value":
        """Least upper bound."""
        if self is other:
            # Interning makes equal values identical, so this fast path
            # covers every already-converged variable in the fixpoint loop.
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.is_top or other.is_top:
            return Value.top()
        if self.is_int and other.is_int:
            return Value.of_range(min(self.lo, other.lo), max(self.hi, other.hi))
        if self.is_pointer and other.is_pointer:
            return Value.pointer_to_many(
                self.targets | other.targets,
                min(self.offset_lo, other.offset_lo),
                max(self.offset_hi, other.offset_hi),
                self.may_be_null or other.may_be_null,
            )
        # Mixed integer / pointer information (pointer-integer casts): give up.
        return Value.top()

    def widen_to_type(self, ctype: Optional[ty.CType]) -> "Value":
        """Widen an integer value to its type range (used to force loop exit)."""
        if self.is_int and ctype is not None and ctype.is_integer():
            return Value.of_type(ctype)
        if self.is_int:
            return Value.of_range(*FULL_RANGE)
        if self.is_pointer:
            return Value.any_pointer()
        return Value.top()

    def clamp_to_type(self, ctype: Optional[ty.CType]) -> "Value":
        """Convert an integer value to ``ctype``, as a store or cast does.

        A constant wraps exactly (:func:`repro.cminor.cint.wrap_to`).  A
        range that may overflow the type becomes the whole type range.
        """
        if ctype is None or not self.is_int or not ctype.is_integer():
            return self
        if self.lo == self.hi:
            wrapped = cint.wrap_to(ctype, self.lo)
            return self if wrapped == self.lo else Value.of_int(wrapped)
        whole = Value.of_type(ctype)
        if whole.lo <= self.lo and self.hi <= whole.hi:
            return self
        return whole

    def __str__(self) -> str:
        if self.is_bottom:
            return "_|_"
        if self.is_top:
            return "T"
        if self.is_int:
            if self.lo == self.hi:
                return str(self.lo)
            return f"[{self.lo},{self.hi}]"
        targets = ",".join(sorted(str(t) for t in self.targets)) or "none"
        null = "|null" if self.may_be_null else ""
        return f"ptr<{targets}>@[{self.offset_lo},{self.offset_hi}]{null}"


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

#: Intern table for every constructed value.  Bounded so a pathological
#: analysis cannot grow it without limit; once full, values are returned
#: uninterned (correct, just without the identity fast paths).
_INTERN: dict[tuple, Value] = {}
_INTERN_LIMIT = 1 << 17

#: ``Value.of_type`` results per declared type (hot in variable lookups).
_OF_TYPE: dict[ty.CType, Value] = {}


def _make(kind: str, lo: int = 0, hi: int = 0,
          targets: frozenset[MemoryTarget] = frozenset(),
          offset_lo: int = 0, offset_hi: int = 0,
          may_be_null: bool = False) -> Value:
    """The hash-consed :class:`Value` factory."""
    key = (kind, lo, hi, targets, offset_lo, offset_hi, may_be_null)
    value = _INTERN.get(key)
    if value is None:
        value = Value(kind, lo, hi, targets, offset_lo, offset_hi,
                      may_be_null)
        if len(_INTERN) < _INTERN_LIMIT:
            _INTERN[key] = value
    return value


_BOTTOM = _make("bottom")
_TOP = _make("top")
_NULL_POINTER = _make("ptr", may_be_null=True)
_ANY_POINTER = _make("ptr", targets=frozenset([UNKNOWN_TARGET]),
                     offset_lo=FULL_RANGE[0], offset_hi=FULL_RANGE[1],
                     may_be_null=True)


# ---------------------------------------------------------------------------
# Arithmetic and comparison transfer functions
# ---------------------------------------------------------------------------


def add_values(left: Value, right: Value) -> Value:
    if left.is_int and right.is_int:
        return Value.of_range(left.lo + right.lo, left.hi + right.hi)
    return Value.top()


def sub_values(left: Value, right: Value) -> Value:
    if left.is_int and right.is_int:
        return Value.of_range(left.lo - right.hi, left.hi - right.lo)
    return Value.top()


def mul_values(left: Value, right: Value) -> Value:
    if left.is_int and right.is_int:
        products = [left.lo * right.lo, left.lo * right.hi,
                    left.hi * right.lo, left.hi * right.hi]
        return Value.of_range(min(products), max(products))
    return Value.top()


def div_values(left: Value, right: Value) -> Value:
    """C's ``/`` by a nonzero constant, monotone in the dividend."""
    divisor = right.as_constant()
    if left.is_int and divisor:
        return Value.of_range(cint.div(left.lo, divisor),
                              cint.div(left.hi, divisor))
    return Value.top()


def mod_values(left: Value, right: Value) -> Value:
    """C's ``%`` by a nonzero constant: the dividend's sign, a smaller size."""
    divisor = right.as_constant()
    if not (left.is_int and divisor):
        return Value.top()
    bound = abs(divisor) - 1
    if -bound <= left.lo and left.hi <= bound:
        return left
    return Value.of_range(max(left.lo, -bound) if left.lo < 0 else 0,
                          min(left.hi, bound) if left.hi > 0 else 0)


def shift_left_values(left: Value, right: Value) -> Value:
    if left.is_int and right.is_int and right.lo == right.hi and 0 <= right.lo <= 31:
        return Value.of_range(left.lo << right.lo, left.hi << right.lo)
    return Value.top()


def shift_right_values(left: Value, right: Value) -> Value:
    if left.is_int and right.is_int and right.lo == right.hi and 0 <= right.lo <= 31 \
            and left.lo >= 0:
        return Value.of_range(left.lo >> right.lo, left.hi >> right.lo)
    return Value.top()


def bitand_values(left: Value, right: Value) -> Value:
    lc, rc = left.as_constant(), right.as_constant()
    if lc is not None and rc is not None:
        return Value.of_int(lc & rc)
    # x & mask with a constant non-negative mask is bounded by the mask.
    if left.is_int and rc is not None and rc >= 0 and left.lo >= 0:
        return Value.of_range(0, rc)
    if right.is_int and lc is not None and lc >= 0 and right.lo >= 0:
        return Value.of_range(0, lc)
    if left.is_int and right.is_int and left.lo >= 0 and right.lo >= 0:
        return Value.of_range(0, max(left.hi, right.hi))
    return Value.top()


def bitor_values(left: Value, right: Value) -> Value:
    lc, rc = left.as_constant(), right.as_constant()
    if lc is not None and rc is not None:
        return Value.of_int(lc | rc)
    if left.is_int and right.is_int and left.lo >= 0 and right.lo >= 0:
        upper = (1 << max(left.hi.bit_length(), right.hi.bit_length(), 1)) - 1
        return Value.of_range(0, upper)
    return Value.top()


def bitxor_values(left: Value, right: Value) -> Value:
    lc, rc = left.as_constant(), right.as_constant()
    if lc is not None and rc is not None:
        return Value.of_int(lc ^ rc)
    if left.is_int and right.is_int and left.lo >= 0 and right.lo >= 0:
        upper = (1 << max(left.hi.bit_length(), right.hi.bit_length(), 1)) - 1
        return Value.of_range(0, upper)
    return Value.top()


#: Comparison result constants.
TRUE_VALUE = Value.of_int(1)
FALSE_VALUE = Value.of_int(0)
BOOL_VALUE = Value.of_range(0, 1)


def compare_values(op: str, left: Value, right: Value) -> Value:
    """Evaluate a comparison abstractly; result is one of true/false/either."""
    if left.is_pointer or right.is_pointer:
        return _compare_pointers(op, left, right)
    if not (left.is_int and right.is_int):
        return BOOL_VALUE
    if op == "==":
        if left.as_constant() is not None and left.as_constant() == right.as_constant():
            return TRUE_VALUE
        if left.hi < right.lo or left.lo > right.hi:
            return FALSE_VALUE
        return BOOL_VALUE
    if op == "!=":
        inverted = compare_values("==", left, right)
        return _invert_bool(inverted)
    if op == "<":
        if left.hi < right.lo:
            return TRUE_VALUE
        if left.lo >= right.hi:
            return FALSE_VALUE
        return BOOL_VALUE
    if op == "<=":
        if left.hi <= right.lo:
            return TRUE_VALUE
        if left.lo > right.hi:
            return FALSE_VALUE
        return BOOL_VALUE
    if op == ">":
        return compare_values("<", right, left)
    if op == ">=":
        return compare_values("<=", right, left)
    return BOOL_VALUE


def _compare_pointers(op: str, left: Value, right: Value) -> Value:
    """Pointer comparisons: only null tests are evaluated precisely."""
    pointer, other = (left, right) if left.is_pointer else (right, left)
    if other.is_int and other.as_constant() == 0:
        if op in ("==",):
            if pointer.is_definitely_nonzero():
                return FALSE_VALUE
            if pointer.is_definitely_zero():
                return TRUE_VALUE
            return BOOL_VALUE
        if op in ("!=",):
            if pointer.is_definitely_nonzero():
                return TRUE_VALUE
            if pointer.is_definitely_zero():
                return FALSE_VALUE
            return BOOL_VALUE
    if left.is_pointer and right.is_pointer and op in ("==", "!="):
        if left.targets and right.targets and not (left.targets & right.targets) \
                and not (left.may_be_null and right.may_be_null) \
                and not left.has_unknown_target() and not right.has_unknown_target():
            return FALSE_VALUE if op == "==" else TRUE_VALUE
    return BOOL_VALUE


def _invert_bool(value: Value) -> Value:
    if value == TRUE_VALUE:
        return FALSE_VALUE
    if value == FALSE_VALUE:
        return TRUE_VALUE
    return BOOL_VALUE


def logical_not(value: Value) -> Value:
    if value.is_definitely_nonzero():
        return FALSE_VALUE
    if value.is_definitely_zero():
        return TRUE_VALUE
    return BOOL_VALUE


def truth_of(value: Value) -> Optional[bool]:
    """Definite truth value of a condition, or None when unknown."""
    if value.is_definitely_nonzero():
        return True
    if value.is_definitely_zero():
        return False
    return None
