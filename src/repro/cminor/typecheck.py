"""Type checker for CMinor programs.

The checker validates a whole :class:`~repro.cminor.program.Program` and
annotates every expression node with its computed type (``expr.ctype``).
Later passes — CCured's pointer-kind inference, the fat-pointer transform,
cXprop's abstract interpretation and the backend's lowering — all rely on
these annotations, so the toolchain re-runs the checker after transformation
passes that synthesize new expressions.

Every pass and both simulator engines also read a function's locals as one
flat table (:func:`local_types`).  The parser makes that exact by giving
every local one name, as CIL does; the checker enforces it for any program,
parsed or built by a pass: a function may declare each name once, and may
not use a global that shares a name with one of its locals.  ``break`` and
``continue`` must sit inside a loop.
"""

from __future__ import annotations

from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import SourceLocation, TypeCheckError
from repro.cminor.program import Program

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}
_LOGICAL_OPS = {"&&", "||"}
_ARITH_OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}


def local_types(func: ast.FunctionDef) -> dict[str, ty.CType]:
    """Map every parameter and local variable of ``func`` to its type."""
    from repro.cminor.visitor import walk_statements

    table: dict[str, ty.CType] = {p.name: p.ctype for p in func.params}
    for stmt in walk_statements(func.body):
        if isinstance(stmt, ast.VarDecl):
            table[stmt.name] = stmt.ctype
    return table


class _Scope:
    """A lexical scope mapping variable names to types."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.vars: dict[str, ty.CType] = {}

    def define(self, name: str, ctype: ty.CType, loc: Optional[SourceLocation]) -> None:
        if name in self.vars:
            raise TypeCheckError(f"redefinition of {name!r}", loc)
        self.vars[name] = ctype

    def lookup(self, name: str) -> Optional[ty.CType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None


class TypeChecker:
    """Checks and annotates a whole program."""

    def __init__(self, program: Program, pointer_size: int = 2):
        self.program = program
        self.pointer_size = pointer_size
        self._current_function: Optional[ast.FunctionDef] = None
        #: Declarations met in the current function, in order.
        self._decls: list[ast.VarDecl] = []
        #: Globals the current function uses -> the first use's location.
        self._global_uses: dict[str, Optional[SourceLocation]] = {}
        #: Loops enclosing the statement being checked.
        self._loop_depth = 0

    # -- program / function level ---------------------------------------------

    def check(self) -> None:
        """Type-check the whole program, annotating every expression."""
        for var in self.program.iter_globals():
            self._check_global(var)
        for func in self.program.iter_functions():
            self.check_function(func)

    def _check_global(self, var: ast.GlobalVar) -> None:
        if var.ctype.is_void():
            raise TypeCheckError(f"global {var.name!r} has void type", var.loc)
        if var.init is not None:
            self._check_initializer(var.init, var.ctype, var.loc, _Scope())

    def _check_initializer(self, init: ast.Expr, target: ty.CType,
                           loc: Optional[SourceLocation],
                           scope: Optional["_Scope"] = None) -> None:
        scope = scope if scope is not None else _Scope()
        if isinstance(init, ast.InitList):
            if isinstance(target, ty.ArrayType):
                if len(init.items) > target.length:
                    raise TypeCheckError("too many initializers for array", loc)
                for item in init.items:
                    self._check_initializer(item, target.element, loc, scope)
            elif isinstance(target, ty.StructType):
                if len(init.items) > len(target.fields):
                    raise TypeCheckError(
                        f"too many initializers for struct {target.name}", loc)
                for item, field in zip(init.items, target.fields):
                    self._check_initializer(item, field.ctype, loc, scope)
            else:
                raise TypeCheckError("initializer list for scalar value", loc)
            init.ctype = target
            return
        actual = self._check_expr(init, scope)
        if isinstance(target, ty.ArrayType) and isinstance(init, ast.StringLiteral):
            return
        if not ty.is_assignable(target, actual):
            raise TypeCheckError(
                f"cannot initialize {target} from {actual}", loc)

    def check_function(self, func: ast.FunctionDef) -> None:
        """Type-check one function definition."""
        self._current_function = func
        self._decls, self._global_uses = [], {}
        # The parameters and the body's outermost block share one scope.
        scope = _Scope()
        for param in func.params:
            if param.ctype.is_void():
                raise TypeCheckError(
                    f"parameter {param.name!r} has void type", func.loc)
            scope.define(param.name, param.ctype, func.loc)
        self._check_block(func.body, scope)
        # Every pass reads the locals as one flat table (``local_types``).
        names = {p.name for p in func.params}
        for decl in self._decls:
            if decl.name in names:
                raise TypeCheckError(
                    f"{func.name}: local {decl.name!r} is declared twice "
                    "(each local needs its own name)", decl.loc)
            names.add(decl.name)
        for name, loc in self._global_uses.items():
            if name in names:
                raise TypeCheckError(
                    f"{func.name}: use of global {name!r}, which shares its "
                    "name with a local", loc)
        self._current_function = None

    # -- statements -----------------------------------------------------------

    def _check_block(self, block: ast.Block, scope: _Scope) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, _Scope(scope))
        elif isinstance(stmt, ast.VarDecl):
            if stmt.ctype.is_void():
                raise TypeCheckError(f"variable {stmt.name!r} has void type", stmt.loc)
            if stmt.init is not None:
                self._check_initializer(stmt.init, stmt.ctype, stmt.loc, scope)
            scope.define(stmt.name, stmt.ctype, stmt.loc)
            self._decls.append(stmt)
        elif isinstance(stmt, ast.Assign):
            lhs = self._check_expr(stmt.lvalue, scope)
            rhs = self._check_expr(stmt.rvalue, scope)
            if not ast.is_lvalue(stmt.lvalue):
                raise TypeCheckError("assignment target is not an lvalue", stmt.loc)
            if isinstance(lhs, ty.ArrayType):
                raise TypeCheckError("cannot assign to an array", stmt.loc)
            if not ty.is_assignable(lhs, rhs):
                raise TypeCheckError(f"cannot assign {rhs} to {lhs}", stmt.loc)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.cond, scope, stmt.loc)
            self._check_block(stmt.then_body, _Scope(scope))
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, _Scope(scope))
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond, scope, stmt.loc)
            self._loop_depth += 1
            self._check_block(stmt.body, _Scope(scope))
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            assert self._current_function is not None
            expected = self._current_function.return_type
            if stmt.value is None:
                if not expected.is_void():
                    raise TypeCheckError(
                        f"{self._current_function.name}: missing return value",
                        stmt.loc)
            else:
                actual = self._check_expr(stmt.value, scope)
                if expected.is_void():
                    raise TypeCheckError(
                        f"{self._current_function.name}: returning a value from "
                        "a void function", stmt.loc)
                if not ty.is_assignable(expected, actual):
                    raise TypeCheckError(
                        f"cannot return {actual} as {expected}", stmt.loc)
        elif isinstance(stmt, ast.Atomic):
            self._check_block(stmt.body, _Scope(scope))
        elif isinstance(stmt, ast.Post):
            if (stmt.task not in self.program.functions
                    and stmt.task not in self.program.tasks):
                raise TypeCheckError(f"post of unknown task {stmt.task!r}", stmt.loc)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not self._loop_depth:
                keyword = "break" if isinstance(stmt, ast.Break) else "continue"
                raise TypeCheckError(
                    f"{keyword} statement not within a loop", stmt.loc)
        else:
            raise TypeCheckError(f"unknown statement kind {type(stmt).__name__}",
                                 getattr(stmt, "loc", None))

    def _check_condition(self, cond: ast.Expr, scope: _Scope,
                         loc: Optional[SourceLocation]) -> None:
        ctype = self._check_expr(cond, scope)
        if not (ctype.is_scalar() or isinstance(ctype, (ty.BoolType, ty.CharType))):
            raise TypeCheckError(f"condition has non-scalar type {ctype}", loc)

    # -- expressions ----------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> ty.CType:
        ctype = self._infer_expr(expr, scope)
        expr.ctype = ctype
        return ctype

    def _infer_expr(self, expr: ast.Expr, scope: _Scope) -> ty.CType:
        if isinstance(expr, ast.IntLiteral):
            return self._literal_type(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return ty.PointerType(ty.CHAR)
        if isinstance(expr, ast.Identifier):
            return self._identifier_type(expr, scope)
        if isinstance(expr, ast.BinaryOp):
            return self._binary_type(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            return self._unary_type(expr, scope)
        if isinstance(expr, ast.Deref):
            pointee = self._check_expr(expr.pointer, scope)
            pointee = pointee.decay()
            if not pointee.is_pointer():
                raise TypeCheckError(f"cannot dereference {pointee}", expr.loc)
            return pointee.target  # type: ignore[attr-defined]
        if isinstance(expr, ast.AddressOf):
            inner = self._check_expr(expr.lvalue, scope)
            if not ast.is_lvalue(expr.lvalue):
                raise TypeCheckError("cannot take the address of this expression",
                                     expr.loc)
            return ty.PointerType(inner)
        if isinstance(expr, ast.Index):
            base = self._check_expr(expr.base, scope)
            index = self._check_expr(expr.index, scope)
            if not index.is_integer():
                raise TypeCheckError(f"array index has type {index}", expr.loc)
            if isinstance(base, ty.ArrayType):
                return base.element
            if isinstance(base, ty.PointerType):
                return base.target
            raise TypeCheckError(f"cannot index a value of type {base}", expr.loc)
        if isinstance(expr, ast.Member):
            return self._member_type(expr, scope)
        if isinstance(expr, ast.Call):
            return self._call_type(expr, scope)
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.operand, scope)
            return expr.target_type
        if isinstance(expr, ast.SizeOf):
            inner = getattr(expr, "_sizeof_expr", None)
            if inner is not None:
                inner_type = self._check_expr(inner, scope)
                expr.of_type = inner_type
            return ty.UINT16
        if isinstance(expr, ast.Ternary):
            self._check_condition(expr.cond, scope, expr.loc)
            then = self._check_expr(expr.then, scope)
            otherwise = self._check_expr(expr.otherwise, scope)
            if then.is_integer() and otherwise.is_integer():
                return ty.common_arithmetic_type(then, otherwise)
            if not ty.is_assignable(then, otherwise):
                raise TypeCheckError(
                    f"incompatible ternary arms: {then} vs {otherwise}", expr.loc)
            return then.decay()
        if isinstance(expr, ast.InitList):
            raise TypeCheckError("initializer list used in expression context",
                                 expr.loc)
        raise TypeCheckError(f"unknown expression kind {type(expr).__name__}",
                             expr.loc)

    def _literal_type(self, value: int) -> ty.CType:
        if ty.INT16.min_value <= value <= ty.INT16.max_value:
            return ty.INT16
        if 0 <= value <= ty.UINT16.max_value:
            return ty.UINT16
        if ty.INT32.min_value <= value <= ty.INT32.max_value:
            return ty.INT32
        return ty.UINT32

    def _identifier_type(self, expr: ast.Identifier, scope: _Scope) -> ty.CType:
        local = scope.lookup(expr.name)
        if local is not None:
            return local
        var = self.program.lookup_global(expr.name)
        if var is not None:
            self._global_uses.setdefault(expr.name, expr.loc)
            return var.ctype
        raise TypeCheckError(f"use of undeclared identifier {expr.name!r}", expr.loc)

    def _binary_type(self, expr: ast.BinaryOp, scope: _Scope) -> ty.CType:
        left = self._check_expr(expr.left, scope).decay()
        right = self._check_expr(expr.right, scope).decay()
        op = expr.op
        if op in _LOGICAL_OPS:
            return ty.BOOL
        if op in _COMPARISON_OPS:
            if left.is_pointer() != right.is_pointer():
                if not (left.is_integer() or right.is_integer()):
                    raise TypeCheckError(
                        f"cannot compare {left} with {right}", expr.loc)
            return ty.BOOL
        if op in _ARITH_OPS:
            if left.is_pointer() and right.is_integer() and op in ("+", "-"):
                return left
            if left.is_integer() and right.is_pointer() and op == "+":
                return right
            if left.is_pointer() and right.is_pointer() and op == "-":
                return ty.INT16
            if left.is_integer() and right.is_integer():
                return ty.common_arithmetic_type(left, right)
            raise TypeCheckError(
                f"invalid operands to {op!r}: {left} and {right}", expr.loc)
        raise TypeCheckError(f"unknown binary operator {op!r}", expr.loc)

    def _unary_type(self, expr: ast.UnaryOp, scope: _Scope) -> ty.CType:
        operand = self._check_expr(expr.operand, scope).decay()
        if expr.op == "!":
            if not operand.is_scalar():
                raise TypeCheckError(f"cannot negate {operand}", expr.loc)
            return ty.BOOL
        if expr.op in ("-", "~"):
            if not operand.is_integer():
                raise TypeCheckError(
                    f"invalid operand to unary {expr.op!r}: {operand}", expr.loc)
            return ty.common_arithmetic_type(operand, ty.INT16)
        raise TypeCheckError(f"unknown unary operator {expr.op!r}", expr.loc)

    def _member_type(self, expr: ast.Member, scope: _Scope) -> ty.CType:
        base = self._check_expr(expr.base, scope)
        if expr.arrow:
            base = base.decay()
            if not base.is_pointer():
                raise TypeCheckError(f"-> applied to non-pointer {base}", expr.loc)
            base = base.target  # type: ignore[attr-defined]
        if not isinstance(base, ty.StructType):
            raise TypeCheckError(f"member access on non-struct {base}", expr.loc)
        struct = self.program.structs.get(base.name) or base
        if not struct.has_field(expr.fieldname):
            raise TypeCheckError(
                f"struct {struct.name} has no field {expr.fieldname!r}", expr.loc)
        return struct.field_type(expr.fieldname)

    def _call_type(self, expr: ast.Call, scope: _Scope) -> ty.CType:
        arg_types = [self._check_expr(a, scope).decay() for a in expr.args]
        func = self.program.lookup_function(expr.callee)
        if func is not None:
            expected = [p.ctype for p in func.params]
            if len(arg_types) != len(expected):
                raise TypeCheckError(
                    f"{expr.callee} expects {len(expected)} arguments, "
                    f"got {len(arg_types)}", expr.loc)
            for i, (want, got) in enumerate(zip(expected, arg_types)):
                if not ty.is_assignable(want, got):
                    raise TypeCheckError(
                        f"{expr.callee}: argument {i + 1} has type {got}, "
                        f"expected {want}", expr.loc)
            return func.return_type
        builtin = self.program.lookup_builtin(expr.callee)
        if builtin is not None:
            if len(arg_types) != len(builtin.param_types):
                raise TypeCheckError(
                    f"{expr.callee} expects {len(builtin.param_types)} arguments, "
                    f"got {len(arg_types)}", expr.loc)
            for i, (want, got) in enumerate(zip(builtin.param_types, arg_types)):
                if not ty.is_assignable(want, got):
                    raise TypeCheckError(
                        f"{expr.callee}: argument {i + 1} has type {got}, "
                        f"expected {want}", expr.loc)
            return builtin.return_type
        raise TypeCheckError(f"call to undefined function {expr.callee!r}", expr.loc)

def check_program(program: Program, pointer_size: int = 2) -> Program:
    """Type-check ``program`` in place and return it."""
    TypeChecker(program, pointer_size).check()
    return program
