"""Byte-addressed memory objects and pointers for the simulator.

Every global variable, address-taken or aggregate local, and string literal
becomes a :class:`MemoryObject` — a named bytearray.  A pointer value is a
(:class:`MemoryObject`, byte offset) pair, so pointer arithmetic, byte-wise
reinterpretation of structs, bounds checks and out-of-bounds detection all
behave the way they do on the real hardware, without needing a flat address
space.

Pointers stored *into* memory (for example a global ``struct TOS_Msg*``) are
kept in a per-object shadow table keyed by offset, with a sentinel value in
the raw bytes; code that reinterprets pointer bytes as integers sees the
sentinel, which is enough for the programs in this suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.cminor import ast_nodes as ast
from repro.cminor import cint
from repro.cminor import typesys as ty

_object_ids = itertools.count(1)


class MemoryError_(Exception):
    """Raised on accesses outside any object (a caught safety violation).

    Beyond the human-readable message, the error carries the structured
    context of the faulting access — which object was overrun, at what
    offset, by how many bytes, reading or writing — so callers building
    verdict tables (``repro.scenarios``) can triage corruptions without
    parsing strings.  Errors raised for non-access reasons (null or
    non-pointer dereference, unknown variable) leave the fields at their
    ``None`` defaults.

    Attributes:
        access: ``"read"`` or ``"write"`` for an out-of-bounds access.
        access_size: Bytes the access covered.
        offset: Byte offset of the access within the owning object.
        object_name: Name of the owning :class:`MemoryObject`.
        object_kind: Its kind (``"global"``, ``"local"``, ``"string"``).
        object_size: Its allocated size in bytes.
    """

    def __init__(self, message: str, *, access: Optional[str] = None,
                 access_size: Optional[int] = None,
                 offset: Optional[int] = None,
                 object_name: Optional[str] = None,
                 object_kind: Optional[str] = None,
                 object_size: Optional[int] = None):
        super().__init__(message)
        self.access = access
        self.access_size = access_size
        self.offset = offset
        self.object_name = object_name
        self.object_kind = object_kind
        self.object_size = object_size

    def context(self) -> dict:
        """The structured access context as a plain JSON-ready dict."""
        return {
            "access": self.access,
            "access_size": self.access_size,
            "offset": self.offset,
            "object_name": self.object_name,
            "object_kind": self.object_kind,
            "object_size": self.object_size,
        }


@dataclass
class MemoryObject:
    """One allocated object: a global, a local, or a string literal."""

    name: str
    data: bytearray
    kind: str = "global"
    object_id: int = field(default_factory=lambda: next(_object_ids))
    pointer_slots: dict[int, "Pointer"] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"MemoryObject({self.name}, {self.size}B)"


@dataclass(frozen=True)
class Pointer:
    """A pointer value: an object plus a byte offset (possibly out of bounds)."""

    obj: MemoryObject
    offset: int

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.obj, self.offset + delta)

    def in_bounds(self, access_size: int) -> bool:
        return 0 <= self.offset and self.offset + access_size <= self.obj.size

    def __repr__(self) -> str:
        return f"&{self.obj.name}+{self.offset}"


#: Run-time values: integers (including 0 as the null pointer) or pointers.
RuntimeValue = Union[int, Pointer]

#: Sentinel stored in raw bytes where a pointer lives.
_POINTER_SENTINEL = 0xA5A5


def is_null(value: RuntimeValue) -> bool:
    return isinstance(value, int) and value == 0


def compare(op: str, left: RuntimeValue, right: RuntimeValue) -> int:
    """C's comparison ``left op right`` of two run-time values, as 0 or 1.

    A pointer equals only a pointer to the same object and offset, never an
    integer (null included).  Pointers into one object order by offset;
    any other ordering that involves a pointer is false.
    """
    if not (isinstance(left, Pointer) or isinstance(right, Pointer)):
        return cint.COMPARISONS[op](int(left), int(right))
    same_object = isinstance(left, Pointer) and isinstance(right, Pointer) \
        and left.obj is right.obj
    if op in ("==", "!="):
        equal = same_object and left.offset == right.offset
        return 1 if equal == (op == "==") else 0
    if not same_object:
        return 0
    return cint.COMPARISONS[op](left.offset, right.offset)


def elem_size(ctype: Optional[ty.CType], pointer_size: int) -> int:
    """Size of what ``ctype`` points to, for scaling pointer arithmetic."""
    decayed = ctype.decay() if ctype is not None else None
    if isinstance(decayed, ty.PointerType):
        return decayed.target.sizeof(pointer_size) or 1
    return 1


def pointer_arith(op: str, left: RuntimeValue, right: RuntimeValue,
                  left_elem: int, right_elem: int) -> RuntimeValue:
    """C's ``left op right`` (``+`` or ``-``) when either side is a pointer.

    The integer side counts elements of its pointer's ``*_elem`` size; the
    difference of two pointers into one object counts ``left_elem``-sized
    elements, and is 0 across objects.
    """
    if isinstance(left, Pointer) and isinstance(right, Pointer):
        if op == "-" and left.obj is right.obj:
            return (left.offset - right.offset) // left_elem
        return 0
    if isinstance(left, Pointer):
        pointer, integer, elem = left, right, left_elem
    else:
        pointer, integer, elem = right, left, right_elem
    delta = int(integer) * elem
    return pointer.advanced(-delta if op == "-" else delta)


class MemorySystem:
    """Allocates and accesses the memory objects of one node."""

    def __init__(self, pointer_size: int = 2):
        self.pointer_size = pointer_size
        self.objects: dict[str, MemoryObject] = {}
        self.string_objects: dict[str, MemoryObject] = {}

    # -- allocation ------------------------------------------------------------

    def allocate(self, name: str, size: int, kind: str = "global") -> MemoryObject:
        obj = MemoryObject(name=name, data=bytearray(max(size, 1)), kind=kind)
        if kind == "global":
            self.objects[name] = obj
        return obj

    def global_object(self, name: str) -> Optional[MemoryObject]:
        return self.objects.get(name)

    def string_literal(self, value: str) -> MemoryObject:
        """Allocate (or reuse) the object backing a string literal."""
        existing = self.string_objects.get(value)
        if existing is not None:
            return existing
        data = bytearray(value.encode("latin-1", errors="replace") + b"\0")
        obj = MemoryObject(name=f'"{value[:20]}"', data=data, kind="string")
        self.string_objects[value] = obj
        return obj

    # -- typed access ------------------------------------------------------------

    def read(self, pointer: Pointer, ctype: ty.CType) -> RuntimeValue:
        """Read a value of type ``ctype`` at ``pointer``."""
        size = ctype.sizeof(self.pointer_size)
        if not pointer.in_bounds(size):
            raise MemoryError_(
                f"out-of-bounds read of {size} bytes at {pointer!r} "
                f"(object is {pointer.obj.size} bytes)",
                access="read", access_size=size, offset=pointer.offset,
                object_name=pointer.obj.name, object_kind=pointer.obj.kind,
                object_size=pointer.obj.size)
        if ctype.is_pointer():
            stored = pointer.obj.pointer_slots.get(pointer.offset)
            if stored is not None:
                return stored
            raw = int.from_bytes(
                pointer.obj.data[pointer.offset:pointer.offset + size], "little")
            return raw
        raw = int.from_bytes(
            pointer.obj.data[pointer.offset:pointer.offset + size], "little")
        if isinstance(ctype, (ty.IntType, ty.CharType)):
            return cint.wrap_to(ctype, raw)
        return raw

    def write(self, pointer: Pointer, ctype: ty.CType, value: RuntimeValue) -> None:
        """Write ``value`` of type ``ctype`` at ``pointer``."""
        size = ctype.sizeof(self.pointer_size)
        if not pointer.in_bounds(size):
            raise MemoryError_(
                f"out-of-bounds write of {size} bytes at {pointer!r} "
                f"(object is {pointer.obj.size} bytes)",
                access="write", access_size=size, offset=pointer.offset,
                object_name=pointer.obj.name, object_kind=pointer.obj.kind,
                object_size=pointer.obj.size)
        if isinstance(value, Pointer):
            pointer.obj.pointer_slots[pointer.offset] = value
            raw = _POINTER_SENTINEL
        else:
            pointer.obj.pointer_slots.pop(pointer.offset, None)
            raw = int(value)
            if isinstance(ctype, ty.BoolType):
                # The low bytes below are every other integer type's wrap.
                raw = cint.wrap_to(ctype, raw)
        raw &= (1 << (8 * size)) - 1
        pointer.obj.data[pointer.offset:pointer.offset + size] = \
            raw.to_bytes(size, "little")

    def read_c_string(self, pointer: Pointer, limit: int = 256) -> str:
        """Read a NUL-terminated string starting at ``pointer``."""
        chars: list[str] = []
        offset = pointer.offset
        while offset < pointer.obj.size and len(chars) < limit:
            byte = pointer.obj.data[offset]
            if byte == 0:
                break
            chars.append(chr(byte))
            offset += 1
        return "".join(chars)

    # -- fault injection --------------------------------------------------------

    def flip_bit(self, object_name: str, offset: int, bit: int) -> str:
        """Flip one bit of a global object, modelling an SEU-style upset.

        The shadow-pointer representation makes a literal byte XOR wrong
        for slots holding pointers (the raw bytes are a sentinel): when
        ``offset`` is a pointer slot, the stored :class:`Pointer` is
        advanced by ``1 << bit`` bytes instead — the same observable
        outcome a bit flip in a real address register has.  Returns a
        short description of what was flipped (for scenario records).
        Raises :class:`KeyError` for unknown objects and
        :class:`ValueError` for offsets outside the object.
        """
        obj = self.objects.get(object_name)
        if obj is None:
            raise KeyError(
                f"flip_bit: unknown global {object_name!r}; known: "
                f"{sorted(self.objects)[:10]}...")
        if not 0 <= offset < obj.size:
            raise ValueError(
                f"flip_bit: offset {offset} outside {object_name!r} "
                f"({obj.size} bytes)")
        if not 0 <= bit < 8 * self.pointer_size:
            raise ValueError(
                f"flip_bit: bit must be in [0, {8 * self.pointer_size}), "
                f"got {bit}")
        slot_offset = offset - (offset % self.pointer_size)
        stored = obj.pointer_slots.get(slot_offset)
        if stored is not None:
            delta = 1 << bit
            obj.pointer_slots[slot_offset] = stored.advanced(delta)
            return (f"pointer {object_name}+{slot_offset} "
                    f"({stored!r}) advanced by {delta}")
        if bit >= 8:
            raise ValueError(
                f"flip_bit: bit {bit} exceeds one byte and "
                f"{object_name}+{offset} holds no pointer")
        obj.data[offset] ^= 1 << bit
        return f"byte {object_name}+{offset} xor {1 << bit:#04x}"

    # -- snapshot / restore -----------------------------------------------------

    def snapshot(self) -> dict:
        """Serialize every reachable object to plain picklable data.

        Globals are keyed by name and string literals by value; objects
        reachable only through stored pointers (address-taken locals kept
        alive by a global, heap-like buffers) are discovered by walking the
        pointer shadow tables and keyed synthetically, in discovery order,
        so :meth:`restore` can rebuild the exact provenance graph.  Stored
        pointers are serialized as ``(space, key, offset)`` references,
        never as raw addresses — the simulator has none.
        """
        refs: dict[int, tuple[str, object]] = {}
        locals_found: list[MemoryObject] = []
        for name, obj in self.objects.items():
            refs[id(obj)] = ("g", name)
        for value, obj in self.string_objects.items():
            refs[id(obj)] = ("s", value)
        queue = list(self.objects.values()) + list(self.string_objects.values())
        while queue:
            obj = queue.pop(0)
            for offset in sorted(obj.pointer_slots):
                target = obj.pointer_slots[offset].obj
                if id(target) not in refs:
                    key = f"{len(locals_found)}:{target.name}"
                    refs[id(target)] = ("l", key)
                    locals_found.append(target)
                    queue.append(target)

        def entry(obj: MemoryObject) -> dict:
            return {
                "name": obj.name,
                "kind": obj.kind,
                "data": bytes(obj.data),
                "slots": [
                    (offset, refs[id(ptr.obj)], ptr.offset)
                    for offset, ptr in sorted(obj.pointer_slots.items())
                ],
            }

        return {
            "pointer_size": self.pointer_size,
            "globals": {name: entry(obj) for name, obj in self.objects.items()},
            "strings": {value: entry(obj)
                        for value, obj in self.string_objects.items()},
            "locals": {refs[id(obj)][1]: entry(obj) for obj in locals_found},
        }

    def restore(self, snapshot: dict) -> None:
        """Apply a :meth:`snapshot` to this memory system, in place.

        Existing objects are *mutated* (``data[:] = ...``), never replaced:
        the compiled engine's per-node global table holds direct
        :class:`MemoryObject` references and their byte buffers, so object
        identity must survive a restore.
        Objects the snapshot knows and this system does not (lazily
        allocated strings, reachable locals) are created.
        """
        resolved: dict[tuple[str, object], MemoryObject] = {}
        for name, entry in snapshot["globals"].items():
            obj = self.objects.get(name)
            if obj is None:
                obj = self.allocate(name, len(entry["data"]), "global")
            obj.data[:] = entry["data"]
            resolved[("g", name)] = obj
        for value, entry in snapshot["strings"].items():
            obj = self.string_literal(value)
            obj.data[:] = entry["data"]
            resolved[("s", value)] = obj
        for key, entry in snapshot["locals"].items():
            obj = MemoryObject(name=entry["name"],
                               data=bytearray(entry["data"]),
                               kind=entry["kind"])
            resolved[("l", key)] = obj
        for space_name, space in (("g", snapshot["globals"]),
                                  ("s", snapshot["strings"]),
                                  ("l", snapshot["locals"])):
            for key, entry in space.items():
                obj = resolved[(space_name, key)]
                obj.pointer_slots.clear()
                for offset, ref, ptr_offset in entry["slots"]:
                    target = resolved[tuple(ref)]
                    obj.pointer_slots[offset] = Pointer(target, ptr_offset)

    # -- global initialization ------------------------------------------------------

    def initialize_globals(self, variables: Iterable[ast.GlobalVar],
                           pointer_size: int) -> None:
        """Allocate every global, then apply each static initializer once.

        Allocating first means an address initializer (``&g``, also inside
        an aggregate) binds the object the program actually uses, whatever
        the declaration order.
        """
        variables = list(variables)
        for var in variables:
            self.allocate(var.name, var.ctype.sizeof(pointer_size), "global")
        for var in variables:
            if var.init is not None:
                self._apply_initializer(self.objects[var.name], 0, var.ctype,
                                        var.init)

    def _apply_initializer(self, obj: MemoryObject, offset: int, ctype: ty.CType,
                           init: ast.Expr) -> None:
        """Store one initializer in the form the type checker folds it to."""
        pointer = Pointer(obj, offset)
        if isinstance(init, ast.IntLiteral):
            self.write(pointer, ctype, init.value)
        elif isinstance(init, ast.StringLiteral):
            if isinstance(ctype, ty.ArrayType):
                encoded = init.value.encode("latin-1", errors="replace")
                for index, byte in enumerate(encoded[:ctype.length]):
                    obj.data[offset + index] = byte
            elif ctype.is_pointer():
                literal_obj = self.string_literal(init.value)
                self.write(pointer, ctype, Pointer(literal_obj, 0))
        elif isinstance(init, ast.InitList):
            if isinstance(ctype, ty.ArrayType):
                stride = ctype.element.sizeof(self.pointer_size)
                for index, item in enumerate(init.items):
                    self._apply_initializer(obj, offset + index * stride,
                                            ctype.element, item)
            elif isinstance(ctype, ty.StructType):
                for item, struct_field in zip(init.items, ctype.fields):
                    field_offset = ctype.field_offset(struct_field.name,
                                                      self.pointer_size)
                    self._apply_initializer(obj, offset + field_offset,
                                            struct_field.ctype, item)
        elif isinstance(init, ast.AddressOf) and \
                isinstance(init.lvalue, ast.Identifier):
            target = self.objects[init.lvalue.name]
            if ctype.is_pointer():
                self.write(pointer, ctype, Pointer(target, 0))
        else:
            raise TypeError(
                f"initializer of {obj.name!r} is a {type(init).__name__}, "
                "not a literal, string, &global or list of these "
                "(type-check the program before boot)")
