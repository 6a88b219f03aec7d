"""The CMinor interpreters used by the simulator.

Two execution engines share one public facade:

* :class:`TreeWalkInterpreter` executes the final (optimized, linked)
  program directly on the AST, charging cycles from the backend cost model
  for every statement it executes.  It is the reference semantics.
* :class:`~repro.avrora.engine.CompiledEngine` lowers each function once
  into a flat stream of Python closures and runs those — several times
  faster, with byte-identical results (see ``ARCHITECTURE.md``).

:class:`Interpreter` is the thin facade the :class:`~repro.avrora.node.Node`
talks to; it selects the engine (compiled by default) and compiles-on-first
-call, caching per-function compiled code for the node's lifetime.

Hardware access builtins are routed to the node's device bus; ``__sleep``
hands control back to the node so it can advance time to the next event;
interrupts are polled between statements and delivered by calling the
registered handler function.

CCured's runtime support builtins (``__bounds_ok``, ``__error_report`` …)
are evaluated concretely against the memory-object model, so a program whose
checks were *not* all optimized away really does pay for them at run time —
and really does halt with a diagnostic if one fails.
"""

from __future__ import annotations

import os
from typing import Optional, TYPE_CHECKING

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import walk_expression
from repro.avrora.memory import (
    MemoryError_,
    MemoryObject,
    MemorySystem,
    Pointer,
    RuntimeValue,
    is_null,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.avrora.node import Node

#: Engine used when a Node does not ask for a specific one.  Override with
#: ``REPRO_AVRORA_ENGINE=tree`` to fall back to the reference tree-walker.
DEFAULT_ENGINE = os.environ.get("REPRO_AVRORA_ENGINE", "compiled")


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[RuntimeValue]):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class Interpreter:
    """Facade selecting one of the execution engines for a node.

    ``engine`` is ``"compiled"`` (default) for the compile-to-closures
    engine or ``"tree"`` for the reference tree-walking interpreter.
    """

    def __init__(self, node: "Node", engine: Optional[str] = None):
        self.node = node
        self.engine_name = engine or DEFAULT_ENGINE
        if self.engine_name == "tree":
            self._impl = TreeWalkInterpreter(node)
        elif self.engine_name == "compiled":
            from repro.avrora.engine import CompiledEngine

            self._impl = CompiledEngine(node)
        else:
            raise ValueError(f"unknown simulator engine {self.engine_name!r}"
                             " (expected 'compiled' or 'tree')")
        self.program: Program = node.program
        self.memory: MemorySystem = node.memory
        self.costs = node.costs

    def call(self, name: str, args: Optional[list[RuntimeValue]] = None
             ) -> Optional[RuntimeValue]:
        """Call a program function by name with already-evaluated arguments."""
        return self._impl.call(name, args)

    @property
    def statements_executed(self) -> int:
        """Statements executed so far (shared metric across engines)."""
        return self._impl.statements_executed

    def superblock_stats(self) -> dict:
        """Superblock fast-path statistics (all-zero for the tree-walker).

        The schema is engine-independent so callers (``SimRecord``, the
        network aggregator, the benchmarks) can sum entries blindly.
        """
        impl = self._impl
        stats = getattr(impl, "superblock_stats", None)
        if stats is not None:
            return stats()
        return {
            "engine": self.engine_name,
            "enabled": False,
            "superblocks": 0,
            "loop_superblocks": 0,
            "traces": 0,
            "inlined_call_sites": 0,
            "entries_fast": 0,
            "entries_slow": 0,
            "bursts": 0,
            "burst_iterations": 0,
            "inlined_calls": 0,
            "fused_statements": 0,
            "statements_total": impl.statements_executed,
            "fused_fraction": 0.0,
        }

    def warm(self) -> int:
        """Precompile every program function (no-op for the tree-walker).

        The node must have booted: lowering binds globals to its memory.
        """
        compile_all = getattr(self._impl, "compile_program", None)
        return compile_all() if compile_all is not None else 0


class TreeWalkInterpreter:
    """Executes one program on behalf of one node by walking the AST."""

    def __init__(self, node: "Node"):
        self.node = node
        self.program: Program = node.program
        self.memory: MemorySystem = node.memory
        self.costs = node.costs
        self.pointer_size = node.costs.platform.pointer_bytes
        self._stmt_cycles_cache: dict[int, int] = {}
        self._analysis = self.program.analysis()
        self.statements_executed = 0

    # -- function calls --------------------------------------------------------

    def call(self, name: str, args: Optional[list[RuntimeValue]] = None
             ) -> Optional[RuntimeValue]:
        """Call a program function by name with already-evaluated arguments."""
        func = self.program.lookup_function(name)
        if func is None:
            raise KeyError(f"call to unknown function {name!r}")
        args = args or []
        frame = self._build_frame(func, args)
        frame["__function__"] = func.name
        self.node.consume(self.costs.function_overhead_cycles())
        try:
            self._exec_block(func.body, frame)
        except _ReturnSignal as signal:
            return signal.value
        return 0 if not func.return_type.is_void() else None

    def _build_frame(self, func: ast.FunctionDef,
                     args: list[RuntimeValue]) -> dict[str, object]:
        if len(args) != len(func.params):
            raise TypeError(
                f"{func.name}() takes {len(func.params)} argument(s) "
                f"but {len(args)} were given")
        frame: dict[str, object] = {}
        taken = self._address_taken_locals(func)
        for param, value in zip(func.params, args):
            if param.name in taken:
                obj = self.memory.allocate(f"{func.name}.{param.name}",
                                           param.ctype.sizeof(self.pointer_size),
                                           kind="local")
                self.memory.write(Pointer(obj, 0), param.ctype, value)
                frame[param.name] = obj
            else:
                frame[param.name] = value
        return frame

    def _address_taken_locals(self, func: ast.FunctionDef) -> frozenset[str]:
        return self._analysis.address_taken_locals(func)

    # -- statements -------------------------------------------------------------

    def _stmt_cost(self, stmt: ast.Stmt) -> int:
        cached = self._stmt_cycles_cache.get(stmt.node_id)
        if cached is not None:
            return cached
        cycles = self.costs.stmt_cycles(stmt)
        for expr in self._analysis.statement_expressions(stmt):
            for node in walk_expression(expr):
                cycles += self.costs.expr_cycles(node)
        cycles = max(cycles, 1)
        self._stmt_cycles_cache[stmt.node_id] = cycles
        return cycles

    def _exec_block(self, block: ast.Block, frame: dict[str, object]) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, frame)
            self.node.poll()

    def _exec_stmt(self, stmt: ast.Stmt, frame: dict[str, object]) -> None:
        self.statements_executed += 1
        self.node.consume(self._stmt_cost(stmt))
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, frame)
        elif isinstance(stmt, ast.VarDecl):
            self._exec_vardecl(stmt, frame)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.rvalue, frame)
            self._store(stmt.lvalue, value, frame)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, frame)
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.cond, frame)):
                self._exec_block(stmt.then_body, frame)
            elif stmt.else_body is not None:
                self._exec_block(stmt.else_body, frame)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, frame)
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, frame) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.Atomic):
            self.node.atomic_depth += 1
            try:
                self._exec_block(stmt.body, frame)
            finally:
                self.node.atomic_depth -= 1
        elif isinstance(stmt, ast.Post):
            raise RuntimeError("post statements must be lowered before simulation")
        else:
            raise RuntimeError(f"cannot execute {type(stmt).__name__}")

    def _exec_vardecl(self, stmt: ast.VarDecl, frame: dict[str, object]) -> None:
        taken_names = self._current_taken(frame)
        if stmt.name in taken_names or isinstance(stmt.ctype,
                                                  (ty.ArrayType, ty.StructType)):
            obj = self.memory.allocate(f"local.{stmt.name}",
                                       stmt.ctype.sizeof(self.pointer_size),
                                       kind="local")
            frame[stmt.name] = obj
            if stmt.init is not None and stmt.ctype.is_scalar():
                self.memory.write(Pointer(obj, 0), stmt.ctype,
                                  self._eval(stmt.init, frame))
            elif isinstance(stmt.init, ast.StringLiteral) and \
                    isinstance(stmt.ctype, ty.ArrayType):
                encoded = stmt.init.value.encode("latin-1", errors="replace")
                for index, byte in enumerate(encoded[:stmt.ctype.length]):
                    obj.data[index] = byte
            return
        value: RuntimeValue = 0
        if stmt.init is not None:
            value = self._eval(stmt.init, frame)
            if stmt.ctype.is_integer() and isinstance(value, int):
                value = ty.wrap_to(stmt.ctype, value)
        frame[stmt.name] = value

    def _current_taken(self, frame: dict[str, object]) -> frozenset[str]:
        func_name = frame.get("__function__")
        if isinstance(func_name, str):
            func = self.program.lookup_function(func_name)
            if func is not None:
                return self._analysis.address_taken_locals(func)
        return frozenset()

    def _exec_while(self, stmt: ast.While, frame: dict[str, object]) -> None:
        while self._truthy(self._eval(stmt.cond, frame)):
            self.node.consume(self.costs.branch_cycles)
            try:
                self._exec_block(stmt.body, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    # -- raw memory access ----------------------------------------------------------

    def _memory_read(self, pointer: Pointer, ctype: ty.CType) -> RuntimeValue:
        """Read memory; an out-of-bounds read returns zero.

        On real hardware an unchecked out-of-bounds access silently reads or
        corrupts whatever lives next in SRAM.  The simulator's per-object
        memory cannot reproduce the exact corruption pattern, so it models
        the *silent* part: the access is absorbed and counted in
        ``node.memory_violations``.
        """
        try:
            return self.memory.read(pointer, ctype)
        except MemoryError_:
            self.node.memory_violations += 1
            return 0

    def _memory_write(self, pointer: Pointer, ctype: ty.CType,
                      value: RuntimeValue) -> None:
        try:
            self.memory.write(pointer, ctype, value)
        except MemoryError_:
            self.node.memory_violations += 1

    # -- lvalues ------------------------------------------------------------------

    def _locate(self, lvalue: ast.Expr, frame: dict[str, object]) -> Pointer:
        """Compute the memory location of an lvalue."""
        if isinstance(lvalue, ast.Identifier):
            slot = frame.get(lvalue.name)
            if isinstance(slot, MemoryObject):
                return Pointer(slot, 0)
            obj = self.memory.global_object(lvalue.name)
            if obj is not None:
                return Pointer(obj, 0)
            raise MemoryError_(f"no storage for {lvalue.name!r}")
        if isinstance(lvalue, ast.Deref):
            pointer = self._eval(lvalue.pointer, frame)
            return self._as_pointer(pointer)
        if isinstance(lvalue, ast.Index):
            base_type = lvalue.base.ctype
            index = self._eval(lvalue.index, frame)
            if not isinstance(index, int):
                raise MemoryError_("non-integer array index")
            if isinstance(base_type, ty.ArrayType):
                base = self._locate(lvalue.base, frame)
                elem_size = base_type.element.sizeof(self.pointer_size)
            else:
                base = self._as_pointer(self._eval(lvalue.base, frame))
                target = base_type.decay()
                elem_size = target.target.sizeof(self.pointer_size) \
                    if isinstance(target, ty.PointerType) else 1
            return base.advanced(index * elem_size)
        if isinstance(lvalue, ast.Member):
            if lvalue.arrow:
                base = self._as_pointer(self._eval(lvalue.base, frame))
                struct_type = lvalue.base.ctype
                if isinstance(struct_type, ty.PointerType):
                    struct_type = struct_type.target
            else:
                base = self._locate(lvalue.base, frame)
                struct_type = lvalue.base.ctype
            if not isinstance(struct_type, ty.StructType):
                raise MemoryError_("member access on a non-struct value")
            resolved = self.program.structs.get(struct_type.name) or struct_type
            offset = resolved.field_offset(lvalue.fieldname, self.pointer_size)
            return base.advanced(offset)
        raise MemoryError_(f"not an lvalue: {type(lvalue).__name__}")

    def _store(self, lvalue: ast.Expr, value: RuntimeValue,
               frame: dict[str, object]) -> None:
        if isinstance(lvalue, ast.Identifier):
            slot = frame.get(lvalue.name)
            if slot is not None and not isinstance(slot, MemoryObject):
                ctype = lvalue.ctype
                if ctype is not None and ctype.is_integer() and isinstance(value, int):
                    value = ty.wrap_to(ctype, value)
                frame[lvalue.name] = value
                return
        location = self._locate(lvalue, frame)
        ctype = lvalue.ctype or ty.UINT8
        self._memory_write(location, ctype, value)

    def _as_pointer(self, value: RuntimeValue) -> Pointer:
        if isinstance(value, Pointer):
            return value
        if is_null(value):
            raise MemoryError_("null pointer dereference")
        raise MemoryError_(f"dereference of non-pointer value {value!r}")

    # -- expressions -----------------------------------------------------------------

    def _truthy(self, value: RuntimeValue) -> bool:
        if isinstance(value, Pointer):
            return True
        return value != 0

    def _eval(self, expr: ast.Expr, frame: dict[str, object]) -> RuntimeValue:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            return Pointer(self.memory.string_literal(expr.value), 0)
        if isinstance(expr, ast.Identifier):
            return self._load_identifier(expr, frame)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, frame)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, frame)
        if isinstance(expr, ast.Deref):
            pointer = self._as_pointer(self._eval(expr.pointer, frame))
            return self._memory_read(pointer, expr.ctype or ty.UINT8)
        if isinstance(expr, ast.AddressOf):
            return self._locate(expr.lvalue, frame)
        if isinstance(expr, (ast.Index, ast.Member)):
            if isinstance(expr.ctype, ty.ArrayType):
                return self._locate(expr, frame)
            location = self._locate(expr, frame)
            return self._memory_read(location, expr.ctype or ty.UINT8)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.Cast):
            return self._eval_cast(expr, frame)
        if isinstance(expr, ast.SizeOf):
            return expr.of_type.sizeof(self.pointer_size)
        if isinstance(expr, ast.Ternary):
            if self._truthy(self._eval(expr.cond, frame)):
                return self._eval(expr.then, frame)
            return self._eval(expr.otherwise, frame)
        raise RuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _load_identifier(self, expr: ast.Identifier,
                         frame: dict[str, object]) -> RuntimeValue:
        name = expr.name
        if name in frame:
            slot = frame[name]
            if isinstance(slot, MemoryObject):
                if isinstance(expr.ctype, ty.ArrayType):
                    return Pointer(slot, 0)
                return self.memory.read(Pointer(slot, 0), expr.ctype or ty.UINT8)
            return slot  # type: ignore[return-value]
        obj = self.memory.global_object(name)
        if obj is not None:
            var = self.program.lookup_global(name)
            ctype = var.ctype if var is not None else (expr.ctype or ty.UINT8)
            if isinstance(ctype, (ty.ArrayType, ty.StructType)):
                return Pointer(obj, 0)
            return self.memory.read(Pointer(obj, 0), ctype)
        raise MemoryError_(f"read of unknown variable {name!r}")

    def _eval_binary(self, expr: ast.BinaryOp, frame: dict[str, object]) -> RuntimeValue:
        op = expr.op
        if op == "&&":
            if not self._truthy(self._eval(expr.left, frame)):
                return 0
            return 1 if self._truthy(self._eval(expr.right, frame)) else 0
        if op == "||":
            if self._truthy(self._eval(expr.left, frame)):
                return 1
            return 1 if self._truthy(self._eval(expr.right, frame)) else 0
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._compare(op, left, right)
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return self._pointer_arithmetic(expr, left, right)
        result = self._int_arithmetic(op, int(left), int(right))
        if expr.ctype is not None and expr.ctype.is_integer():
            return ty.wrap_to(expr.ctype, result)
        return result

    def _int_arithmetic(self, op: str, left: int, right: int) -> int:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return 0
            return int(left / right)
        if op == "%":
            if right == 0:
                return 0
            return int(left - int(left / right) * right)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << (right & 31)
        if op == ">>":
            return left >> (right & 31)
        raise RuntimeError(f"unknown operator {op!r}")

    def _compare(self, op: str, left: RuntimeValue, right: RuntimeValue) -> int:
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            if isinstance(left, Pointer) and isinstance(right, Pointer):
                equal = left.obj is right.obj and left.offset == right.offset
            elif isinstance(left, Pointer):
                equal = False if right != 0 else False
                equal = False
            else:
                equal = False
            if op == "==":
                return 1 if equal else 0
            if op == "!=":
                return 0 if equal else 1
            # Relational pointer comparison: only meaningful within an object.
            if isinstance(left, Pointer) and isinstance(right, Pointer) and \
                    left.obj is right.obj:
                left, right = left.offset, right.offset
            else:
                return 0
        left_int, right_int = int(left), int(right)
        results = {
            "==": left_int == right_int,
            "!=": left_int != right_int,
            "<": left_int < right_int,
            "<=": left_int <= right_int,
            ">": left_int > right_int,
            ">=": left_int >= right_int,
        }
        return 1 if results[op] else 0

    def _pointer_arithmetic(self, expr: ast.BinaryOp, left: RuntimeValue,
                            right: RuntimeValue) -> RuntimeValue:
        op = expr.op
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            if op == "-" and left.obj is right.obj:
                elem = 1
                left_type = expr.left.ctype.decay() if expr.left.ctype else None
                if isinstance(left_type, ty.PointerType):
                    elem = left_type.target.sizeof(self.pointer_size) or 1
                return (left.offset - right.offset) // elem
            return 0
        pointer, integer = (left, right) if isinstance(left, Pointer) else (right, left)
        pointer_type = expr.left.ctype if isinstance(left, Pointer) else expr.right.ctype
        elem = 1
        if pointer_type is not None:
            decayed = pointer_type.decay()
            if isinstance(decayed, ty.PointerType):
                elem = decayed.target.sizeof(self.pointer_size) or 1
        delta = int(integer) * elem
        if op == "-":
            delta = -delta
        return pointer.advanced(delta)

    def _eval_unary(self, expr: ast.UnaryOp, frame: dict[str, object]) -> RuntimeValue:
        operand = self._eval(expr.operand, frame)
        if expr.op == "!":
            return 0 if self._truthy(operand) else 1
        if isinstance(operand, Pointer):
            return operand
        if expr.op == "-":
            result = -int(operand)
        elif expr.op == "~":
            result = ~int(operand)
        else:
            raise RuntimeError(f"unknown unary operator {expr.op!r}")
        if expr.ctype is not None and expr.ctype.is_integer():
            return ty.wrap_to(expr.ctype, result)
        return result

    def _eval_cast(self, expr: ast.Cast, frame: dict[str, object]) -> RuntimeValue:
        value = self._eval(expr.operand, frame)
        target = expr.target_type
        if target.is_integer() and isinstance(value, int):
            return ty.wrap_to(target, value)
        if target.is_pointer() and isinstance(value, int) and value == 0:
            return 0
        return value

    # -- calls --------------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, frame: dict[str, object]) -> RuntimeValue:
        name = expr.callee
        args = [self._eval(arg, frame) for arg in expr.args]
        if name in self.program.builtins:
            return self.node.call_builtin(name, args)
        result = self.call(name, args)
        return result if result is not None else 0
