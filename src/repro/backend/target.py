"""Per-target instruction cost models.

The Mica2's ATmega128 is an 8-bit machine: every 16-bit or 32-bit operation
is synthesized from byte operations, pointers occupy register pairs, and
multi-byte loads/stores cost proportionally more code and cycles.  The
TelosB's MSP430 is a 16-bit machine, so 16-bit arithmetic is native and only
32-bit operations pay a penalty.

The cost model is intentionally simple — a table of bytes/cycles per AST
operation, scaled by operand width — because the paper's evaluation cares
about *relative* sizes between build variants of the same application, not
about binary-exact code generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.tinyos.hardware import Platform, platform as lookup_platform


def _width(ctype: Optional[ty.CType], pointer_size: int) -> int:
    """Operand width in bytes (defaults to 2 when unknown)."""
    if ctype is None:
        return 2
    try:
        size = ctype.decay().sizeof(pointer_size)
    except NotImplementedError:
        return 2
    return max(1, min(size, 4))


@dataclass(frozen=True)
class CostModel:
    """Code-size and cycle costs for one target platform.

    Attributes:
        platform: The platform description (clock, memory budgets, string
            placement).
        word_bytes: Natural operand width of the CPU.
        bytes_per_alu_byte: Code bytes per byte of operand width for simple
            ALU operations.
        cycles_per_alu_byte: Cycles per byte of operand width.
        ...
    """

    platform: Platform
    word_bytes: int
    bytes_per_alu_byte: int
    cycles_per_alu_byte: int
    load_store_global_bytes: int
    load_store_cycles: int
    pointer_access_bytes: int
    pointer_access_cycles: int
    call_bytes: int
    call_cycles: int
    branch_bytes: int
    branch_cycles: int
    mul_bytes: int
    mul_cycles: int
    div_bytes: int
    div_cycles: int
    prologue_bytes: int
    prologue_cycles: int
    atomic_save_bytes: int
    atomic_save_cycles: int
    atomic_nosave_bytes: int
    atomic_nosave_cycles: int
    literal_bytes_per_byte: int

    # -- helpers -------------------------------------------------------------

    def _alu_units(self, width: int) -> int:
        """Number of native operations needed for a ``width``-byte operand."""
        return max(1, (width + self.word_bytes - 1) // self.word_bytes)

    # -- expression costs -------------------------------------------------------

    def expr_bytes(self, expr: ast.Expr) -> int:
        """Code bytes contributed by one expression node (children excluded)."""
        pointer_size = self.platform.pointer_bytes
        width = _width(expr.ctype, pointer_size)
        units = self._alu_units(width)
        if isinstance(expr, ast.IntLiteral):
            return self.literal_bytes_per_byte * units
        if isinstance(expr, ast.StringLiteral):
            return self.literal_bytes_per_byte * 2
        if isinstance(expr, ast.Identifier):
            if isinstance(expr.ctype, ty.ArrayType):
                return self.literal_bytes_per_byte * 2
            return self.load_store_global_bytes * units
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "*":
                return self.mul_bytes * units
            if expr.op in ("/", "%"):
                return self.div_bytes * units
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return self.branch_bytes + self.bytes_per_alu_byte * units
            return self.bytes_per_alu_byte * units
        if isinstance(expr, ast.UnaryOp):
            return self.bytes_per_alu_byte * units
        if isinstance(expr, (ast.Deref, ast.Index)):
            return self.pointer_access_bytes + self.bytes_per_alu_byte * (units - 1)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                return self.pointer_access_bytes + self.bytes_per_alu_byte * (units - 1)
            return self.load_store_global_bytes * units
        if isinstance(expr, ast.AddressOf):
            return self.literal_bytes_per_byte * 2
        if isinstance(expr, ast.Call):
            arg_bytes = sum(
                self.bytes_per_alu_byte * self._alu_units(_width(a.ctype, pointer_size))
                for a in expr.args)
            return self.call_bytes + arg_bytes
        if isinstance(expr, ast.Cast):
            source = _width(expr.operand.ctype, pointer_size)
            if width > source:
                return self.bytes_per_alu_byte * (self._alu_units(width) -
                                                  self._alu_units(source))
            return 0
        if isinstance(expr, ast.Ternary):
            return self.branch_bytes
        return 0

    def expr_cycles(self, expr: ast.Expr) -> int:
        """Execution cycles for one expression node (children excluded)."""
        pointer_size = self.platform.pointer_bytes
        width = _width(expr.ctype, pointer_size)
        units = self._alu_units(width)
        if isinstance(expr, (ast.IntLiteral, ast.StringLiteral, ast.AddressOf,
                             ast.SizeOf)):
            return units
        if isinstance(expr, ast.Identifier):
            return self.load_store_cycles * units
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "*":
                return self.mul_cycles * units
            if expr.op in ("/", "%"):
                return self.div_cycles * units
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return self.branch_cycles + self.cycles_per_alu_byte * units
            return self.cycles_per_alu_byte * units
        if isinstance(expr, ast.UnaryOp):
            return self.cycles_per_alu_byte * units
        if isinstance(expr, (ast.Deref, ast.Index)):
            return self.pointer_access_cycles * units
        if isinstance(expr, ast.Member):
            if expr.arrow:
                return self.pointer_access_cycles * units
            return self.load_store_cycles * units
        if isinstance(expr, ast.Call):
            return self.call_cycles + len(expr.args)
        if isinstance(expr, ast.Cast):
            return 1
        if isinstance(expr, ast.Ternary):
            return self.branch_cycles
        return 1

    # -- statement costs -----------------------------------------------------------

    def stmt_bytes(self, stmt: ast.Stmt) -> int:
        """Code bytes contributed by the statement's own control structure."""
        if isinstance(stmt, (ast.Assign, ast.VarDecl)):
            width = _width(getattr(stmt, "ctype", None) or
                           getattr(stmt.lvalue, "ctype", None)
                           if isinstance(stmt, ast.Assign) else stmt.ctype,
                           self.platform.pointer_bytes)
            return self.load_store_global_bytes * self._alu_units(width)
        if isinstance(stmt, ast.If):
            return self.branch_bytes
        if isinstance(stmt, ast.While):
            return self.branch_bytes * 2
        if isinstance(stmt, ast.Return):
            return self.branch_bytes
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return self.branch_bytes
        if isinstance(stmt, ast.Atomic):
            return self.atomic_save_bytes if stmt.save_irq else self.atomic_nosave_bytes
        if isinstance(stmt, ast.Post):
            return self.call_bytes
        return 0

    def stmt_cycles(self, stmt: ast.Stmt) -> int:
        """Cycles charged for the statement's own control structure."""
        if isinstance(stmt, (ast.Assign, ast.VarDecl)):
            return self.load_store_cycles
        if isinstance(stmt, ast.If):
            return self.branch_cycles
        if isinstance(stmt, ast.While):
            return self.branch_cycles
        if isinstance(stmt, ast.Return):
            return self.branch_cycles
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return self.branch_cycles
        if isinstance(stmt, ast.Atomic):
            return self.atomic_save_cycles if stmt.save_irq else self.atomic_nosave_cycles
        if isinstance(stmt, ast.Post):
            return self.call_cycles
        return 0

    def function_overhead_bytes(self, func: ast.FunctionDef) -> int:
        """Prologue/epilogue and frame setup bytes."""
        return self.prologue_bytes + 2 * len(func.params)

    def function_overhead_cycles(self) -> int:
        return self.prologue_cycles

    def interrupt_overhead_cycles(self) -> int:
        """Extra cycles for interrupt entry/exit (register save/restore)."""
        return self.prologue_cycles * 2


#: Cost model for the Mica2 (ATmega128L, 8-bit AVR).
MICA2_COSTS = dict(
    word_bytes=1,
    bytes_per_alu_byte=2,
    cycles_per_alu_byte=1,
    load_store_global_bytes=4,
    load_store_cycles=2,
    pointer_access_bytes=6,
    pointer_access_cycles=3,
    call_bytes=8,
    call_cycles=8,
    branch_bytes=4,
    branch_cycles=2,
    mul_bytes=6,
    mul_cycles=4,
    div_bytes=14,
    div_cycles=40,
    prologue_bytes=14,
    prologue_cycles=10,
    atomic_save_bytes=8,
    atomic_save_cycles=6,
    atomic_nosave_bytes=4,
    atomic_nosave_cycles=2,
    literal_bytes_per_byte=2,
)

#: Cost model for the TelosB (MSP430F1611, 16-bit).
TELOSB_COSTS = dict(
    word_bytes=2,
    bytes_per_alu_byte=3,
    cycles_per_alu_byte=1,
    load_store_global_bytes=4,
    load_store_cycles=3,
    pointer_access_bytes=4,
    pointer_access_cycles=3,
    call_bytes=6,
    call_cycles=6,
    branch_bytes=4,
    branch_cycles=2,
    mul_bytes=8,
    mul_cycles=8,
    div_bytes=16,
    div_cycles=40,
    prologue_bytes=10,
    prologue_cycles=8,
    atomic_save_bytes=6,
    atomic_save_cycles=5,
    atomic_nosave_bytes=4,
    atomic_nosave_cycles=2,
    literal_bytes_per_byte=2,
)


def cost_model_for(platform_name: str) -> CostModel:
    """Cost model for ``"mica2"`` or ``"telosb"``."""
    plat = lookup_platform(platform_name)
    params = MICA2_COSTS if plat.name == "mica2" else TELOSB_COSTS
    return CostModel(platform=plat, **params)
