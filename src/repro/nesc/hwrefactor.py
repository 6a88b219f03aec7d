"""Hardware-register access refactoring.

TinyOS hardware-presentation components access memory-mapped device
registers by casting integer addresses to pointers and dereferencing them
(``*(uint8_t*)0x25 = value``).  CCured cannot prove anything about such
pointers — an integer-to-pointer cast makes the pointer WILD and drags in
expensive run-time metadata.  The paper's toolchain therefore rewrites these
accesses into calls to trusted helper functions *before* running CCured
(the "refactor accesses to hardware registers" box in Figure 1).

This pass performs that rewrite on the flattened program:

* ``*(uint8_t*)ADDR = e``  becomes  ``__hw_write8(ADDR, e)``
* ``*(uint16_t*)ADDR = e`` becomes  ``__hw_write16(ADDR, e)``
* ``*(uint8_t*)ADDR``      becomes  ``__hw_read8(ADDR)`` (in any expression)
* ``*(uint16_t*)ADDR``     becomes  ``__hw_read16(ADDR)``

Only *constant* addresses are rewritten; anything else is left for CCured to
reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import map_expression, replace_statement_expressions, \
    transform_block, walk_statements


@dataclass
class HwRefactorReport:
    """Statistics about the rewrite, used by tests and the pipeline report."""

    reads_rewritten: int = 0
    writes_rewritten: int = 0
    functions_touched: set[str] = field(default_factory=set)

    @property
    def total(self) -> int:
        return self.reads_rewritten + self.writes_rewritten


def _constant_register_address(expr: ast.Expr) -> tuple[int, int] | None:
    """Match ``(uintN_t*) CONSTANT`` and return (address, width in bits)."""
    if not isinstance(expr, ast.Cast):
        return None
    target = expr.target_type
    if not isinstance(target, ty.PointerType):
        return None
    pointee = target.target
    if not isinstance(pointee, ty.IntType):
        return None
    operand = expr.operand
    if isinstance(operand, ast.Cast):
        operand = operand.operand
    if not isinstance(operand, ast.IntLiteral):
        return None
    if pointee.bits not in (8, 16):
        return None
    return operand.value, pointee.bits


def refactor_hardware_accesses(program: Program) -> HwRefactorReport:
    """Rewrite constant-address register accesses into helper calls, in place."""
    report = HwRefactorReport()

    def rewrite_reads(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Deref):
            match = _constant_register_address(expr.pointer)
            if match is not None:
                address, bits = match
                report.reads_rewritten += 1
                call = ast.Call(f"__hw_read{bits}", [ast.IntLiteral(address)])
                call.loc = expr.loc
                return call
        return expr

    for func in program.iter_functions():
        before = report.total

        def rewrite_stmt(stmt: ast.Stmt):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.lvalue, ast.Deref):
                match = _constant_register_address(stmt.lvalue.pointer)
                if match is not None:
                    address, bits = match
                    report.writes_rewritten += 1
                    rvalue = map_expression(stmt.rvalue, rewrite_reads)
                    call = ast.Call(f"__hw_write{bits}",
                                    [ast.IntLiteral(address), rvalue])
                    call.loc = stmt.loc
                    new_stmt = ast.ExprStmt(call)
                    new_stmt.loc = stmt.loc
                    return new_stmt
            replace_statement_expressions(stmt, rewrite_reads)
            return stmt

        transform_block(func.body, rewrite_stmt)
        if report.total != before:
            report.functions_touched.add(func.name)
            program.invalidate_analysis(func.name)

    check_program(program)
    return report


def count_register_casts(program: Program) -> int:
    """Count remaining integer-to-pointer register accesses (for tests)."""
    from repro.cminor.visitor import walk_function_expressions

    remaining = 0
    for func in program.iter_functions():
        for expr in walk_function_expressions(func.body):
            if isinstance(expr, ast.Deref) and \
                    _constant_register_address(expr.pointer) is not None:
                remaining += 1
    return remaining
