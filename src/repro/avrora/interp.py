"""The CMinor interpreters used by the simulator.

Two execution engines share one public facade:

* :class:`TreeWalkInterpreter` executes the final (optimized, linked)
  program directly on the AST, charging cycles from the backend cost model
  for every statement it executes.  It is the reference semantics.
* :class:`~repro.avrora.engine.CompiledEngine` lowers each function once
  into a flat stream of Python closures and runs those — several times
  faster, with byte-identical results (see ``ARCHITECTURE.md``).

:class:`Interpreter` is the thin facade the :class:`~repro.avrora.node.Node`
talks to; it selects the engine (compiled by default).  The compiled engine
lowers each function on its first call into the node's
:class:`~repro.avrora.engine.CodeCache`, which the nodes of one network share.

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
from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import walk_expression
from repro.avrora.memory import (
    MemoryError_,
    MemoryObject,
    MemorySystem,
    Pointer,
    RuntimeValue,
    compare,
    elem_size,
    is_null,
    pointer_arith,
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
    engine or ``"tree"`` for the reference tree-walking interpreter.  The
    compiled engine runs the lowerings of ``code_cache``, or of a cache of
    its own when none is given; ``code_cache`` is None for the tree-walker.
    """

    def __init__(self, node: "Node", engine: Optional[str] = None,
                 code_cache=None):
        self.node = node
        self.engine_name = engine or DEFAULT_ENGINE
        self.code_cache = None
        if self.engine_name == "tree":
            self._impl = TreeWalkInterpreter(node)
        elif self.engine_name == "compiled":
            from repro.avrora.engine import CodeCache, CompiledEngine

            self.code_cache = code_cache if code_cache is not None \
                else CodeCache(node.program)
            self._impl = CompiledEngine(node, self.code_cache)
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

    def warm(self) -> int:
        """Lower every program function now; returns the function count.

        Lowering is otherwise lazy (a function's first call).  It reads no
        node state, so this works before :meth:`~repro.avrora.node.Node.\
boot`, and a node whose code cache another node warmed lowers nothing:
        each request is a ``plan_hits`` hit.  No-op (0) for the tree-walker.
        """
        cache = self.code_cache
        if cache is None:
            return 0
        names = list(self.program.functions)
        for name in names:
            cache.plan_for(name)
        return len(names)


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
            # C converts a returned value to the declared return type.
            value = signal.value
            if func.return_type.is_integer() and isinstance(value, int):
                return cint.wrap_to(func.return_type, value)
            return value
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
            # C converts each argument to its parameter's declared type.
            if param.ctype.is_integer() and isinstance(value, int):
                value = cint.wrap_to(param.ctype, value)
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
                value = cint.wrap_to(stmt.ctype, value)
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
                    value = cint.wrap_to(ctype, value)
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
        if op in cint.COMPARISONS:
            return compare(op, left, right)
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return pointer_arith(
                op, left, right,
                elem_size(expr.left.ctype, self.pointer_size),
                elem_size(expr.right.ctype, self.pointer_size))
        result = cint.BINARY_OPS[op](int(left), int(right))
        if expr.ctype is not None and expr.ctype.is_integer():
            return cint.wrap_to(expr.ctype, result)
        return result

    def _eval_unary(self, expr: ast.UnaryOp, frame: dict[str, object]) -> RuntimeValue:
        operand = self._eval(expr.operand, frame)
        if expr.op == "!":
            return 0 if self._truthy(operand) else 1
        if isinstance(operand, Pointer):
            return operand
        result = cint.UNARY_OPS[expr.op](int(operand))
        if expr.ctype is not None and expr.ctype.is_integer():
            return cint.wrap_to(expr.ctype, result)
        return result

    def _eval_cast(self, expr: ast.Cast, frame: dict[str, object]) -> RuntimeValue:
        value = self._eval(expr.operand, frame)
        target = expr.target_type
        if target.is_integer() and isinstance(value, int):
            return cint.wrap_to(target, value)
        return value

    # -- calls --------------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, frame: dict[str, object]) -> RuntimeValue:
        name = expr.callee
        args = [self._eval(arg, frame) for arg in expr.args]
        if name in self.program.builtins:
            return self.node.call_builtin(name, args)
        result = self.call(name, args)
        return result if result is not None else 0
