"""The CMinor type system.

CMinor types mirror the subset of C types that matter to the Safe TinyOS
toolchain: fixed-width integers, ``bool``, ``char``, ``void``, pointers,
fixed-size arrays, ``struct`` types and function types.  Sizes are *target
dependent* only for pointers; the integer types are fixed-width by
construction, which is how TinyOS code is written in practice.

Types are immutable value objects: two structurally identical types compare
equal, which the inference machinery in :mod:`repro.ccured.infer` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CType:
    """Base class for CMinor types."""

    def is_integer(self) -> bool:
        return isinstance(self, (IntType, BoolType, CharType))

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_scalar(self) -> bool:
        """True for types that fit in a machine register (ints, pointers)."""
        return self.is_integer() or self.is_pointer()

    def sizeof(self, pointer_size: int = 2) -> int:
        """Size of a value of this type in bytes.

        Args:
            pointer_size: Target pointer width in bytes (2 on both the
                Mica2's AVR and the TelosB's MSP430).
        """
        raise NotImplementedError

    def alignment(self, pointer_size: int = 2) -> int:
        """Required alignment in bytes (1 on AVR, natural on MSP430)."""
        return 1

    def decay(self) -> "CType":
        """Array-to-pointer decay, as performed in r-value contexts."""
        if isinstance(self, ArrayType):
            return PointerType(self.element)
        return self


@dataclass(frozen=True)
class VoidType(CType):
    """The ``void`` type."""

    def sizeof(self, pointer_size: int = 2) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class BoolType(CType):
    """The ``bool`` type (one byte, values 0 and 1)."""

    def sizeof(self, pointer_size: int = 2) -> int:
        return 1

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class CharType(CType):
    """The ``char`` type (one byte, used for string data)."""

    def sizeof(self, pointer_size: int = 2) -> int:
        return 1

    def __str__(self) -> str:
        return "char"


@dataclass(frozen=True)
class IntType(CType):
    """A fixed-width integer type such as ``uint8_t`` or ``int16_t``.

    Attributes:
        bits: Width in bits (8, 16 or 32).
        signed: Whether the type is signed.
    """

    bits: int
    signed: bool

    def __post_init__(self) -> None:
        if self.bits not in (8, 16, 32):
            raise ValueError(f"unsupported integer width: {self.bits}")

    def sizeof(self, pointer_size: int = 2) -> int:
        return self.bits // 8

    @property
    def min_value(self) -> int:
        if self.signed:
            return -(1 << (self.bits - 1))
        return 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def __str__(self) -> str:
        prefix = "int" if self.signed else "uint"
        return f"{prefix}{self.bits}_t"


@dataclass(frozen=True)
class PointerType(CType):
    """A pointer type ``T*``."""

    target: CType

    def sizeof(self, pointer_size: int = 2) -> int:
        return pointer_size

    def __str__(self) -> str:
        return f"{self.target}*"


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-size array type ``T[N]``."""

    element: CType
    length: int

    def sizeof(self, pointer_size: int = 2) -> int:
        return self.element.sizeof(pointer_size) * self.length

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class StructField:
    """A single field within a struct."""

    name: str
    ctype: CType


@dataclass(frozen=True)
class StructType(CType):
    """A ``struct`` type with named, ordered fields.

    Struct types compare by name *and* fields; the front end interns struct
    definitions per translation unit so that the same tag always maps to the
    same object.
    """

    name: str
    fields: tuple[StructField, ...] = field(default_factory=tuple)

    def sizeof(self, pointer_size: int = 2) -> int:
        return sum(f.ctype.sizeof(pointer_size) for f in self.fields)

    def field_type(self, name: str) -> CType:
        for f in self.fields:
            if f.name == name:
                return f.ctype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_offset(self, name: str, pointer_size: int = 2) -> int:
        offset = 0
        for f in self.fields:
            if f.name == name:
                return offset
            offset += f.ctype.sizeof(pointer_size)
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class FunctionType(CType):
    """A function type: return type plus ordered parameter types."""

    return_type: CType
    param_types: tuple[CType, ...] = field(default_factory=tuple)

    def sizeof(self, pointer_size: int = 2) -> int:
        return pointer_size

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types) or "void"
        return f"{self.return_type} (*)({params})"


# Canonical singletons used throughout the toolchain.
VOID = VoidType()
BOOL = BoolType()
CHAR = CharType()
INT8 = IntType(8, True)
UINT8 = IntType(8, False)
INT16 = IntType(16, True)
UINT16 = IntType(16, False)
INT32 = IntType(32, True)
UINT32 = IntType(32, False)

#: Mapping from type keywords accepted by the parser to type objects.
NAMED_TYPES: dict[str, CType] = {
    "void": VOID,
    "bool": BOOL,
    "char": CHAR,
    "int8_t": INT8,
    "uint8_t": UINT8,
    "int16_t": INT16,
    "uint16_t": UINT16,
    "int32_t": INT32,
    "uint32_t": UINT32,
    # ``int`` and ``unsigned`` follow the 16-bit convention of both target
    # microcontrollers (avr-gcc and msp430-gcc both use 16-bit int).
    "int": INT16,
    "unsigned": UINT16,
}


def common_arithmetic_type(left: CType, right: CType) -> IntType:
    """Return the type of an arithmetic operation on two integer operands.

    CMinor uses a simplified version of C's usual arithmetic conversions:
    operands are promoted to the wider of the two widths (minimum 16 bits,
    matching integer promotion on the targets); the result is unsigned if
    either promoted operand is unsigned and at least as wide as the other.
    """
    lw = _int_width(left)
    rw = _int_width(right)
    width = max(lw, rw, 16)
    l_signed = _int_signed(left)
    r_signed = _int_signed(right)
    if lw == rw:
        signed = l_signed and r_signed
    elif lw > rw:
        signed = l_signed
    else:
        signed = r_signed
    return IntType(width, signed)


def _int_width(ctype: CType) -> int:
    if isinstance(ctype, IntType):
        return ctype.bits
    if isinstance(ctype, (BoolType, CharType)):
        return 8
    raise TypeError(f"not an integer type: {ctype}")


def _int_signed(ctype: CType) -> bool:
    if isinstance(ctype, IntType):
        return ctype.signed
    if isinstance(ctype, BoolType):
        return False
    if isinstance(ctype, CharType):
        return True
    raise TypeError(f"not an integer type: {ctype}")


def integer_limits(ctype: CType) -> tuple[int, int]:
    """Return the (min, max) representable values of an integer type."""
    if isinstance(ctype, IntType):
        return ctype.min_value, ctype.max_value
    if isinstance(ctype, BoolType):
        return 0, 1
    if isinstance(ctype, CharType):
        return -128, 127
    raise TypeError(f"not an integer type: {ctype}")


def is_assignable(dest: CType, src: CType) -> bool:
    """Whether a value of type ``src`` may be assigned to an lvalue of ``dest``.

    The rules are intentionally permissive in the same places C is (any
    integer converts to any integer; arrays decay; ``void*`` is a universal
    pointer) because the CCured stage, not the front end, is responsible for
    flagging dangerous conversions.
    """
    src = src.decay()
    if dest == src:
        return True
    if dest.is_integer() and src.is_integer():
        return True
    if dest.is_pointer() and src.is_pointer():
        dest_target = dest.target  # type: ignore[attr-defined]
        src_target = src.target  # type: ignore[attr-defined]
        if dest_target.is_void() or src_target.is_void():
            return True
        return dest_target == src_target
    if dest.is_pointer() and src.is_integer():
        # Integer-to-pointer conversion: accepted by the front end (TinyOS
        # device code does this for hardware registers) but flagged WILD by
        # CCured unless the hardware-refactoring pass removed it first.
        return True
    if dest.is_integer() and src.is_pointer():
        return True
    if dest.is_struct() and src.is_struct():
        return dest == src
    return False


def pointer_compatible(left: CType, right: CType) -> bool:
    """Whether two pointer types point at layout-compatible targets."""
    if not (left.is_pointer() and right.is_pointer()):
        return False
    lt = left.target  # type: ignore[attr-defined]
    rt = right.target  # type: ignore[attr-defined]
    if lt == rt:
        return True
    if lt.is_void() or rt.is_void():
        return True
    if lt.is_integer() and rt.is_integer():
        return lt.sizeof() == rt.sizeof()
    return False

