"""Recursive-descent parser for CMinor.

Produces the AST defined in :mod:`repro.cminor.ast_nodes`.  Like CIL's
front end, which CCured and cXprop run on in the paper, the parser emits
the program in one normal form, so every later pass sees a single loop
shape and no empty statements:

* compound assignments (``x += e``) become plain assignments
  (``x = x + e``),
* ``++``/``--`` statements become ``x = x + 1`` / ``x = x - 1``,
* ``true``/``false``/``NULL`` become integer literals,
* character literals become integer literals,
* every loop becomes ``while (1) { ... }``: ``while (c)`` and ``for``
  test ``if (!c) break;`` at the top of the body, ``do``/``while`` at its
  end, and a ``for``'s init moves in front of the loop;
* a ``continue`` that would skip a ``for``'s update or a ``do``/``while``'s
  test gets a copy of it in front (CMinor has no ``goto``; CIL does the
  same when it cannot introduce labels);
* ``;`` statements and empty nested blocks are dropped;
* every local has one name in its function: a declaration that would
  shadow a local of its function or a file-scope variable parsed earlier in
  the unit gets a fresh ``name__N``, and every use is resolved to it while
  C's scopes are still visible, before loops are spliced (a ``for``'s
  update and a ``do``/``while``'s test keep reading the names of the scope
  they were written in).  A redeclaration in the same scope keeps its name,
  so the type checker still reports it as a redefinition.
"""

from __future__ import annotations

from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import ParseError, SourceLocation
from repro.cminor.lexer import Token, tokenize
from repro.cminor.program import StructTable, TranslationUnit

_TYPE_KEYWORDS = set(ty.NAMED_TYPES) | {"struct"}
_QUALIFIER_KEYWORDS = {"const", "volatile", "norace", "__progmem"}
_ATTRIBUTE_KEYWORDS = {"__interrupt", "__spontaneous", "__inline"}

_COMPOUND_ASSIGN_OPS = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}


class Parser:
    """Parses a token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: list[Token], unit_name: str = "<string>",
                 structs: Optional[StructTable] = None):
        self.tokens = tokens
        self.pos = 0
        self.unit_name = unit_name
        self.structs = structs if structs is not None else StructTable()
        #: File-scope variables parsed so far in this unit.
        self._globals: set[str] = set()
        #: C's block scopes of the function being parsed, innermost last:
        #: source name -> the local's one name in its function.
        self._scopes: list[dict[str, str]] = []
        #: Every local name given out in the function being parsed.
        self._locals: set[str] = set()

    # -- token stream helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        tok = self._peek()
        if not tok.is_op(op):
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.loc)
        return self._advance()

    def _expect_keyword(self, kw: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(kw):
            raise ParseError(f"expected {kw!r}, found {tok.text!r}", tok.loc)
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self._advance()

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._advance()
            return True
        return False

    # -- names ----------------------------------------------------------------

    def _declare(self, name: str) -> str:
        """Bind a parameter or local in the innermost scope; its one name."""
        scope = self._scopes[-1]
        if name in scope:
            return scope[name]
        unique = name
        suffix = 0
        while unique in self._locals or unique in self._globals:
            suffix += 1
            unique = f"{name}__{suffix}"
        scope[name] = unique
        self._locals.add(unique)
        return unique

    def _resolve(self, name: str) -> str:
        """The name a use of ``name`` refers to (a global's is its own)."""
        for scope in reversed(self._scopes):
            unique = scope.get(name)
            if unique is not None:
                return unique
        return name

    def _at_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind != "keyword":
            return False
        return tok.text in _TYPE_KEYWORDS or tok.text in _QUALIFIER_KEYWORDS

    # -- types ----------------------------------------------------------------

    def _parse_qualifiers(self) -> set[str]:
        quals: set[str] = set()
        while self._peek().kind == "keyword" and self._peek().text in _QUALIFIER_KEYWORDS:
            quals.add(self._advance().text)
        return quals

    def _parse_base_type(self) -> ty.CType:
        tok = self._peek()
        if tok.is_keyword("struct"):
            self._advance()
            name_tok = self._expect_ident()
            return self.structs.lookup(name_tok.text, name_tok.loc)
        if tok.kind == "keyword" and tok.text in ty.NAMED_TYPES:
            self._advance()
            return ty.NAMED_TYPES[tok.text]
        raise ParseError(f"expected a type, found {tok.text!r}", tok.loc)

    def _parse_type(self) -> tuple[ty.CType, set[str]]:
        """Parse ``qualifiers base_type '*'*`` and return (type, qualifiers)."""
        quals = self._parse_qualifiers()
        base = self._parse_base_type()
        quals |= self._parse_qualifiers()
        while self._accept_op("*"):
            base = ty.PointerType(base)
        return base, quals

    def _parse_array_suffix(self, base: ty.CType) -> ty.CType:
        while self._accept_op("["):
            size_tok = self._peek()
            if size_tok.kind != "int":
                raise ParseError("array size must be an integer constant", size_tok.loc)
            self._advance()
            self._expect_op("]")
            base = ty.ArrayType(base, size_tok.value)
        return base

    # -- top level ------------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        """Parse a whole translation unit."""
        unit = TranslationUnit(name=self.unit_name, structs=self.structs)
        while self._peek().kind != "eof":
            self._parse_top_level(unit)
        return unit

    def _parse_top_level(self, unit: TranslationUnit) -> None:
        tok = self._peek()
        if tok.is_keyword("struct") and self._peek(2).is_op("{"):
            self._parse_struct_def()
            return
        attributes = self._parse_attributes()
        ctype, quals = self._parse_type()
        name_tok = self._expect_ident()
        if self._peek().is_op("("):
            func = self._parse_function_rest(name_tok, ctype, attributes)
            if func is not None:
                unit.functions.append(func)
            return
        if attributes:
            raise ParseError("attributes are only valid on functions", name_tok.loc)
        var = self._parse_global_rest(name_tok, ctype, quals)
        unit.globals.append(var)
        self._globals.add(var.name)

    def _parse_attributes(self) -> dict[str, object]:
        attributes: dict[str, object] = {}
        while self._peek().kind == "keyword" and self._peek().text in _ATTRIBUTE_KEYWORDS:
            tok = self._advance()
            if tok.text == "__interrupt":
                self._expect_op("(")
                vec = self._peek()
                if vec.kind not in ("string", "ident"):
                    raise ParseError("__interrupt expects a vector name", vec.loc)
                self._advance()
                self._expect_op(")")
                attributes["interrupt"] = vec.text
            elif tok.text == "__spontaneous":
                attributes["spontaneous"] = True
            elif tok.text == "__inline":
                attributes["inline"] = True
        return attributes

    def _parse_struct_def(self) -> None:
        self._expect_keyword("struct")
        name_tok = self._expect_ident()
        self._expect_op("{")
        fields: list[ty.StructField] = []
        while not self._peek().is_op("}"):
            ftype, _quals = self._parse_type()
            fname = self._expect_ident()
            ftype = self._parse_array_suffix(ftype)
            self._expect_op(";")
            fields.append(ty.StructField(fname.text, ftype))
        self._expect_op("}")
        self._expect_op(";")
        self.structs.define(name_tok.text, fields, name_tok.loc)

    def _parse_global_rest(self, name_tok: Token, ctype: ty.CType,
                           quals: set[str]) -> ast.GlobalVar:
        ctype = self._parse_array_suffix(ctype)
        init: Optional[ast.Expr] = None
        if self._accept_op("="):
            init = self._parse_initializer()
        self._expect_op(";")
        return ast.GlobalVar(
            name=name_tok.text,
            ctype=ctype,
            init=init,
            qualifiers=frozenset(quals),
            origin=self.unit_name,
            loc=name_tok.loc,
        )

    def _parse_initializer(self) -> ast.Expr:
        if self._peek().is_op("{"):
            loc = self._advance().loc
            items: list[ast.Expr] = []
            if not self._peek().is_op("}"):
                items.append(self._parse_initializer())
                while self._accept_op(","):
                    if self._peek().is_op("}"):
                        break
                    items.append(self._parse_initializer())
            self._expect_op("}")
            node = ast.InitList(items)
            node.loc = loc
            return node
        return self.parse_expression()

    def _parse_function_rest(self, name_tok: Token, return_type: ty.CType,
                             attributes: dict[str, object]) -> Optional[ast.FunctionDef]:
        self._expect_op("(")
        # The parameters and the body's outermost block share one scope.
        self._scopes, self._locals = [{}], set()
        params: list[ast.Param] = []
        if self._peek().is_keyword("void") and self._peek(1).is_op(")"):
            self._advance()
        elif not self._peek().is_op(")"):
            params.append(self._parse_param())
            while self._accept_op(","):
                params.append(self._parse_param())
        self._expect_op(")")
        scope = self._scopes.pop()
        if self._accept_op(";"):
            # A prototype: recorded implicitly; the definition must follow in
            # some unit before linking.
            return None
        body = self._parse_block(scope)
        return ast.FunctionDef(
            name=name_tok.text,
            return_type=return_type,
            params=params,
            body=body,
            attributes=attributes,
            origin=self.unit_name,
            loc=name_tok.loc,
        )

    def _parse_param(self) -> ast.Param:
        ctype, _quals = self._parse_type()
        name_tok = self._expect_ident()
        ctype = self._parse_array_suffix(ctype)
        # Arrays decay to pointers in parameter position, as in C.
        if isinstance(ctype, ty.ArrayType):
            ctype = ty.PointerType(ctype.element)
        return ast.Param(self._declare(name_tok.text), ctype)

    # -- statements -----------------------------------------------------------

    def _parse_block(self, scope: Optional[dict[str, str]] = None
                     ) -> ast.Block:
        """Parse ``{ ... }`` in a new scope (or in ``scope``, if given)."""
        open_tok = self._expect_op("{")
        self._scopes.append({} if scope is None else scope)
        stmts: list[ast.Stmt] = []
        while not self._peek().is_op("}"):
            stmts.extend(self._parse_statements())
        self._expect_op("}")
        self._scopes.pop()
        block = ast.Block(stmts)
        block.loc = open_tok.loc
        return block

    def _parse_body(self) -> ast.Block:
        """Parse the body of a branch or loop, always as a block and scope."""
        if self._peek().is_op("{"):
            return self._parse_block()
        block = ast.Block()
        block.loc = self._peek().loc
        self._scopes.append({})
        block.stmts = self._parse_statements()
        self._scopes.pop()
        return block

    def parse_statement(self) -> ast.Stmt:
        """Parse a single statement.

        A ``for`` with an init normalizes to two statements and ``;`` to
        none; those come back wrapped in a :class:`~ast_nodes.Block`.
        """
        if self._peek().is_op("{"):
            return self._parse_block()
        block = self._parse_body()
        return block.stmts[0] if len(block.stmts) == 1 else block

    def _parse_statements(self) -> list[ast.Stmt]:
        """Parse one statement into its normal form: zero or more statements."""
        tok = self._peek()
        if tok.is_op("{"):
            block = self._parse_block()
            return [block] if block.stmts else []
        if tok.is_op(";"):
            self._advance()
            return []
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("if"):
            return [self._parse_if()]
        if tok.is_keyword("while"):
            return [self._parse_while()]
        if tok.is_keyword("do"):
            return [self._parse_do_while()]
        if tok.is_keyword("return"):
            self._advance()
            value = None
            if not self._peek().is_op(";"):
                value = self.parse_expression()
            self._expect_op(";")
            stmt: ast.Stmt = ast.Return(value)
            stmt.loc = tok.loc
            return [stmt]
        if tok.is_keyword("break"):
            self._advance()
            self._expect_op(";")
            stmt = ast.Break()
            stmt.loc = tok.loc
            return [stmt]
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_op(";")
            stmt = ast.Continue()
            stmt.loc = tok.loc
            return [stmt]
        if tok.is_keyword("atomic"):
            self._advance()
            body = self._parse_block()
            stmt = ast.Atomic(body)
            stmt.loc = tok.loc
            return [stmt]
        if tok.is_keyword("post"):
            self._advance()
            task_tok = self._expect_ident()
            self._expect_op("(")
            self._expect_op(")")
            self._expect_op(";")
            stmt = ast.Post(task_tok.text)
            stmt.loc = tok.loc
            return [stmt]
        if self._at_type():
            stmt = self._parse_local_decl()
            self._expect_op(";")
            return [stmt]
        stmt = self._parse_simple_statement()
        self._expect_op(";")
        return [stmt]

    def _parse_local_decl(self) -> ast.Stmt:
        loc = self._peek().loc
        ctype, quals = self._parse_type()
        name_tok = self._expect_ident()
        ctype = self._parse_array_suffix(ctype)
        init = None
        if self._accept_op("="):
            init = self._parse_initializer()
        # Declared after its initializer, which reads the enclosing scope.
        decl = ast.VarDecl(self._declare(name_tok.text), ctype, init,
                           frozenset(quals))
        decl.loc = loc
        return decl

    def _parse_if(self) -> ast.Stmt:
        tok = self._expect_keyword("if")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        then_body = self._parse_body()
        else_body = None
        if self._peek().is_keyword("else"):
            self._advance()
            else_body = self._parse_body()
        stmt = ast.If(cond, then_body, else_body)
        stmt.loc = tok.loc
        return stmt

    def _parse_while(self) -> ast.Stmt:
        tok = self._expect_keyword("while")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        body = self._parse_body()
        if _is_constant_true(cond):
            stmt = ast.While(cond, body)
            stmt.loc = tok.loc
            return stmt
        return _infinite_loop([_loop_guard(cond), *body.stmts], tok.loc)

    def _parse_do_while(self) -> ast.Stmt:
        tok = self._expect_keyword("do")
        body = self._parse_body()
        self._expect_keyword("while")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        guard = _loop_guard(cond)
        stmts = _prepend_to_continues(body.stmts, guard)
        return _infinite_loop([*stmts, guard], tok.loc)

    def _parse_for(self) -> list[ast.Stmt]:
        tok = self._expect_keyword("for")
        self._expect_op("(")
        # The init, test and update have a scope of their own around the
        # body's, which is gone by the time the loop is spliced together.
        self._scopes.append({})
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._at_type():
                init = self._parse_local_decl()
            else:
                init = self._parse_simple_statement()
        self._expect_op(";")
        cond: Optional[ast.Expr] = None
        if not self._peek().is_op(";"):
            cond = self.parse_expression()
        self._expect_op(";")
        update: Optional[ast.Stmt] = None
        if not self._peek().is_op(")"):
            update = self._parse_simple_statement()
        self._expect_op(")")
        stmts = self._parse_body().stmts
        self._scopes.pop()
        if update is not None:
            stmts = [*_prepend_to_continues(stmts, update), update]
        if cond is not None and not _is_constant_true(cond):
            stmts = [_loop_guard(cond), *stmts]
        loop = _infinite_loop(stmts, tok.loc)
        return [init, loop] if init is not None else [loop]

    def _parse_simple_statement(self) -> ast.Stmt:
        """Parse an assignment, increment/decrement, or expression statement."""
        loc = self._peek().loc
        expr = self.parse_expression()
        tok = self._peek()
        if tok.is_op("="):
            self._advance()
            rvalue = self.parse_expression()
            stmt: ast.Stmt = ast.Assign(expr, rvalue)
        elif tok.kind == "op" and tok.text in _COMPOUND_ASSIGN_OPS:
            self._advance()
            rvalue = self.parse_expression()
            binop = ast.BinaryOp(_COMPOUND_ASSIGN_OPS[tok.text], expr, rvalue)
            binop.loc = loc
            stmt = ast.Assign(_clone_expr(expr), binop)
        elif tok.is_op("++") or tok.is_op("--"):
            self._advance()
            one = ast.IntLiteral(1)
            one.loc = loc
            binop = ast.BinaryOp("+" if tok.text == "++" else "-", expr, one)
            binop.loc = loc
            stmt = ast.Assign(_clone_expr(expr), binop)
        else:
            stmt = ast.ExprStmt(expr)
        stmt.loc = loc
        return stmt

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        """Parse an expression (entry point: the ternary level)."""
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_op("?"):
            loc = self._advance().loc
            then = self.parse_expression()
            self._expect_op(":")
            otherwise = self._parse_ternary()
            node = ast.Ternary(cond, then, otherwise)
            node.loc = loc
            return node
        return cond

    _BINARY_LEVELS: list[list[str]] = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self._peek().kind == "op" and self._peek().text in ops:
            tok = self._advance()
            right = self._parse_binary(level + 1)
            node = ast.BinaryOp(tok.text, left, right)
            node.loc = tok.loc
            left = node
        return left

    def _parse_cast(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_op("(") and self._at_type(1):
            self._advance()
            ctype, _quals = self._parse_type()
            self._expect_op(")")
            operand = self._parse_cast()
            node = ast.Cast(ctype, operand)
            node.loc = tok.loc
            return node
        return self._parse_unary()

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "op" and tok.text in ("-", "!", "~"):
            self._advance()
            operand = self._parse_cast()
            node: ast.Expr = ast.UnaryOp(tok.text, operand)
            node.loc = tok.loc
            return node
        if tok.is_op("*"):
            self._advance()
            operand = self._parse_cast()
            node = ast.Deref(operand)
            node.loc = tok.loc
            return node
        if tok.is_op("&"):
            self._advance()
            operand = self._parse_cast()
            node = ast.AddressOf(operand)
            node.loc = tok.loc
            return node
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_op("["):
                self._advance()
                index = self.parse_expression()
                self._expect_op("]")
                node: ast.Expr = ast.Index(expr, index)
            elif tok.is_op("."):
                self._advance()
                field = self._expect_ident()
                node = ast.Member(expr, field.text, arrow=False)
            elif tok.is_op("->"):
                self._advance()
                field = self._expect_ident()
                node = ast.Member(expr, field.text, arrow=True)
            elif tok.is_op("(") and isinstance(expr, ast.Identifier):
                self._advance()
                args: list[ast.Expr] = []
                if not self._peek().is_op(")"):
                    args.append(self.parse_expression())
                    while self._accept_op(","):
                        args.append(self.parse_expression())
                self._expect_op(")")
                node = ast.Call(expr.name, args)
            else:
                return expr
            node.loc = tok.loc
            expr = node

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "int" or tok.kind == "char":
            self._advance()
            node: ast.Expr = ast.IntLiteral(tok.value)
        elif tok.kind == "string":
            self._advance()
            node = ast.StringLiteral(tok.text)
        elif tok.is_keyword("true"):
            self._advance()
            node = ast.IntLiteral(1)
        elif tok.is_keyword("false") or tok.is_keyword("NULL"):
            self._advance()
            node = ast.IntLiteral(0)
        elif tok.is_keyword("sizeof"):
            self._advance()
            self._expect_op("(")
            if self._at_type():
                ctype, _quals = self._parse_type()
                ctype = self._parse_array_suffix(ctype)
                node = ast.SizeOf(ctype)
            else:
                # ``sizeof(expr)`` is resolved by the type checker.
                inner = self.parse_expression()
                node = ast.SizeOf(ty.VOID)
                node._sizeof_expr = inner  # type: ignore[attr-defined]
            self._expect_op(")")
        elif tok.kind == "ident":
            self._advance()
            # A name about to be called is a function's, never a local's.
            name = tok.text if self._peek().is_op("(") else \
                self._resolve(tok.text)
            node = ast.Identifier(name)
        elif tok.is_op("("):
            self._advance()
            node = self.parse_expression()
            self._expect_op(")")
            return node
        else:
            raise ParseError(f"unexpected token {tok.text!r}", tok.loc)
        node.loc = tok.loc
        return node


def _clone_expr(expr: ast.Expr) -> ast.Expr:
    """Deep-copy an expression (used when desugaring compound assignments)."""
    from repro.cminor.visitor import clone_expression

    return clone_expression(expr)


def _is_constant_true(cond: ast.Expr) -> bool:
    return isinstance(cond, ast.IntLiteral) and cond.value != 0


def _loop_guard(cond: ast.Expr) -> ast.Stmt:
    """Build ``if (!cond) break;`` for a loop condition, at its location."""
    negated = ast.UnaryOp("!", cond)
    negated.loc = cond.loc
    break_stmt = ast.Break()
    break_stmt.loc = cond.loc
    guard = ast.If(negated, ast.Block([break_stmt]), None)
    guard.loc = cond.loc
    return guard


def _infinite_loop(stmts: list[ast.Stmt], loc: SourceLocation) -> ast.While:
    """Build ``while (1) { stmts }`` at the source loop's location."""
    one = ast.IntLiteral(1)
    one.loc = loc
    loop = ast.While(one, ast.Block(stmts))
    loop.loc = loc
    return loop


def _prepend_to_continues(stmts: list[ast.Stmt],
                          stmt: ast.Stmt) -> list[ast.Stmt]:
    """Put a copy of ``stmt`` in front of each ``continue`` of a loop body.

    ``stmt`` is the code a ``continue`` must still run before the next
    iteration: a ``for``'s update or a ``do``/``while``'s exit test.  The
    walk does not descend into nested loops, whose ``continue`` statements
    belong to them.
    """
    from repro.cminor.visitor import clone_statement

    out: list[ast.Stmt] = []
    for inner in stmts:
        if isinstance(inner, ast.Continue):
            out.append(clone_statement(stmt))
        elif isinstance(inner, ast.If):
            inner.then_body.stmts = _prepend_to_continues(
                inner.then_body.stmts, stmt)
            if inner.else_body is not None:
                inner.else_body.stmts = _prepend_to_continues(
                    inner.else_body.stmts, stmt)
        elif isinstance(inner, ast.Block):
            inner.stmts = _prepend_to_continues(inner.stmts, stmt)
        elif isinstance(inner, ast.Atomic):
            inner.body.stmts = _prepend_to_continues(inner.body.stmts, stmt)
        out.append(inner)
    return out


def parse_program(source: str, unit_name: str = "<string>",
                  structs: Optional[StructTable] = None) -> TranslationUnit:
    """Parse CMinor source text into a translation unit."""
    return Parser(tokenize(source, unit_name), unit_name, structs).parse_unit()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (convenience helper for tests and tools)."""
    return Parser(tokenize(source)).parse_expression()


def parse_statement(source: str) -> ast.Stmt:
    """Parse a single statement (convenience helper for tests and tools)."""
    return Parser(tokenize(source)).parse_statement()
