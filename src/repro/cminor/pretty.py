"""Pretty-printer: turn CMinor ASTs back into source text.

Every stage of the toolchain is source-to-source (as CCured and cXprop are
in the paper), so transformed programs can always be rendered back to CMinor
source — useful for debugging, for golden tests, and for the examples that
show what the instrumented program looks like.
"""

from __future__ import annotations

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_UNARY_PRECEDENCE = 11
_POSTFIX_PRECEDENCE = 12


class PrettyPrinter:
    """Renders expressions, statements, functions, and whole programs."""

    def __init__(self, indent: str = "  "):
        self.indent = indent

    # -- types ----------------------------------------------------------------

    def format_type(self, ctype: ty.CType, name: str = "") -> str:
        """Format a type, optionally with a declarator name (handles arrays)."""
        if isinstance(ctype, ty.ArrayType):
            inner = self.format_type(ctype.element, name)
            return f"{inner}[{ctype.length}]"
        prefix = str(ctype)
        if name:
            return f"{prefix} {name}"
        return prefix

    # -- expressions ----------------------------------------------------------

    def format_expr(self, expr: ast.Expr, parent_prec: int = 0) -> str:
        text, prec = self._expr_with_precedence(expr)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr_with_precedence(self, expr: ast.Expr) -> tuple[str, int]:
        if isinstance(expr, ast.IntLiteral):
            return str(expr.value), _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.StringLiteral):
            escaped = (expr.value.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\t", "\\t").replace("\0", "\\0"))
            return f'"{escaped}"', _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.Identifier):
            return expr.name, _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.BinaryOp):
            prec = _PRECEDENCE[expr.op]
            left = self.format_expr(expr.left, prec)
            right = self.format_expr(expr.right, prec + 1)
            return f"{left} {expr.op} {right}", prec
        if isinstance(expr, ast.UnaryOp):
            operand = self.format_expr(expr.operand, _UNARY_PRECEDENCE)
            return f"{expr.op}{operand}", _UNARY_PRECEDENCE
        if isinstance(expr, ast.Deref):
            operand = self.format_expr(expr.pointer, _UNARY_PRECEDENCE)
            return f"*{operand}", _UNARY_PRECEDENCE
        if isinstance(expr, ast.AddressOf):
            operand = self.format_expr(expr.lvalue, _UNARY_PRECEDENCE)
            return f"&{operand}", _UNARY_PRECEDENCE
        if isinstance(expr, ast.Index):
            base = self.format_expr(expr.base, _POSTFIX_PRECEDENCE)
            return f"{base}[{self.format_expr(expr.index)}]", _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.Member):
            base = self.format_expr(expr.base, _POSTFIX_PRECEDENCE)
            sep = "->" if expr.arrow else "."
            return f"{base}{sep}{expr.fieldname}", _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.Call):
            args = ", ".join(self.format_expr(a) for a in expr.args)
            return f"{expr.callee}({args})", _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.Cast):
            operand = self.format_expr(expr.operand, _UNARY_PRECEDENCE)
            return f"({expr.target_type}){operand}", _UNARY_PRECEDENCE
        if isinstance(expr, ast.SizeOf):
            inner = expr.of_type if expr.operand is None else \
                self.format_expr(expr.operand)
            return f"sizeof({inner})", _POSTFIX_PRECEDENCE
        if isinstance(expr, ast.Ternary):
            cond = self.format_expr(expr.cond, 1)
            then = self.format_expr(expr.then)
            otherwise = self.format_expr(expr.otherwise)
            return f"{cond} ? {then} : {otherwise}", 0
        if isinstance(expr, ast.InitList):
            items = ", ".join(self.format_expr(i) for i in expr.items)
            return f"{{{items}}}", _POSTFIX_PRECEDENCE
        raise TypeError(f"cannot format expression {type(expr).__name__}")

    # -- statements -----------------------------------------------------------

    def format_stmt(self, stmt: ast.Stmt, level: int = 0) -> str:
        pad = self.indent * level
        if isinstance(stmt, ast.Block):
            return self.format_block(stmt, level)
        if isinstance(stmt, ast.VarDecl):
            decl = self.format_type(stmt.ctype, stmt.name)
            quals = " ".join(sorted(stmt.qualifiers))
            if quals:
                decl = f"{quals} {decl}"
            if stmt.init is not None:
                return f"{pad}{decl} = {self.format_expr(stmt.init)};"
            return f"{pad}{decl};"
        if isinstance(stmt, ast.Assign):
            return (f"{pad}{self.format_expr(stmt.lvalue)} = "
                    f"{self.format_expr(stmt.rvalue)};")
        if isinstance(stmt, ast.ExprStmt):
            return f"{pad}{self.format_expr(stmt.expr)};"
        if isinstance(stmt, ast.If):
            text = (f"{pad}if ({self.format_expr(stmt.cond)}) "
                    f"{self.format_block(stmt.then_body, level, inline=True)}")
            if stmt.else_body is not None:
                text += f" else {self.format_block(stmt.else_body, level, inline=True)}"
            return text
        if isinstance(stmt, ast.While):
            return (f"{pad}while ({self.format_expr(stmt.cond)}) "
                    f"{self.format_block(stmt.body, level, inline=True)}")
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                return f"{pad}return {self.format_expr(stmt.value)};"
            return f"{pad}return;"
        if isinstance(stmt, ast.Break):
            return f"{pad}break;"
        if isinstance(stmt, ast.Continue):
            return f"{pad}continue;"
        if isinstance(stmt, ast.Atomic):
            marker = " /* injected */" if stmt.synthetic else ""
            return (f"{pad}atomic{marker} "
                    f"{self.format_block(stmt.body, level, inline=True)}")
        if isinstance(stmt, ast.Post):
            return f"{pad}post {stmt.task}();"
        raise TypeError(f"cannot format statement {type(stmt).__name__}")

    def format_block(self, block: ast.Block, level: int = 0,
                     inline: bool = False) -> str:
        pad = self.indent * level
        lines = [self.format_stmt(s, level + 1) for s in block.stmts]
        body = "\n".join(lines)
        if body:
            text = "{\n" + body + "\n" + pad + "}"
        else:
            text = "{\n" + pad + "}"
        if inline:
            return text
        return pad + text

    # -- declarations ---------------------------------------------------------

    def format_global(self, var: ast.GlobalVar) -> str:
        decl = self.format_type(var.ctype, var.name)
        quals = " ".join(sorted(var.qualifiers))
        if quals:
            decl = f"{quals} {decl}"
        if var.init is not None:
            return f"{decl} = {self.format_expr(var.init)};"
        return f"{decl};"

    def format_function(self, func: ast.FunctionDef) -> str:
        params = ", ".join(self.format_type(p.ctype, p.name) for p in func.params)
        if not params:
            params = "void"
        attrs = []
        if "interrupt" in func.attributes:
            attrs.append(f'__interrupt("{func.attributes["interrupt"]}") ')
        if func.attributes.get("spontaneous"):
            attrs.append("__spontaneous ")
        if func.attributes.get("inline"):
            attrs.append("__inline ")
        header = (f"{''.join(attrs)}{self.format_type(func.return_type)} "
                  f"{func.name}({params}) ")
        return header + self.format_block(func.body, 0, inline=True)

    def format_struct(self, struct: ty.StructType) -> str:
        lines = [f"struct {struct.name} {{"]
        for field in struct.fields:
            lines.append(f"{self.indent}{self.format_type(field.ctype, field.name)};")
        lines.append("};")
        return "\n".join(lines)

    def format_program(self, program: Program) -> str:
        """Render the whole program as a single CMinor source file."""
        parts: list[str] = [f"/* program: {program.name} (platform: {program.platform}) */"]
        for name in program.structs.names():
            struct = program.structs.get(name)
            if struct is not None and struct.fields:
                parts.append(self.format_struct(struct))
        for var in program.iter_globals():
            parts.append(self.format_global(var))
        for func in program.iter_functions():
            parts.append(self.format_function(func))
        return "\n\n".join(parts) + "\n"


def to_source(node: object, indent: str = "  ") -> str:
    """Render any AST node, function, or program to source text."""
    printer = PrettyPrinter(indent)
    if isinstance(node, Program):
        return printer.format_program(node)
    if isinstance(node, ast.FunctionDef):
        return printer.format_function(node)
    if isinstance(node, ast.GlobalVar):
        return printer.format_global(node)
    if isinstance(node, ast.Block):
        return printer.format_block(node)
    if isinstance(node, ast.Stmt):
        return printer.format_stmt(node)
    if isinstance(node, ast.Expr):
        return printer.format_expr(node)
    raise TypeError(f"cannot render {type(node).__name__}")
