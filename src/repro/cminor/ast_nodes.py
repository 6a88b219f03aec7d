"""Abstract syntax tree for CMinor.

The AST intentionally resembles CIL, the simplified C representation that
CCured and cXprop are built on in the paper: there are no function pointers,
``switch`` statements, or gotos; compound assignments are desugared; every
loop is a :class:`While`; and expressions carry their computed type after
type checking.

Nodes are plain mutable dataclasses.  Transformation passes either rewrite
nodes in place or build new subtrees.  The field annotations are the one
description of the tree's shape: :mod:`repro.cminor.visitor` derives every
traversal helper from them and :mod:`repro.cminor.clone` every cloner, and
the generated ``==`` is structural equality (it ignores ``ctype``, ``loc``,
``label`` and ``node_id``, which are declared ``compare=False``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cminor.errors import SourceLocation
from repro.cminor.typesys import CType

_node_counter = itertools.count(1)


def _next_node_id() -> int:
    return next(_node_counter)


class Node:
    """Base class for all AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions.

    Attributes:
        ctype: The expression's type, filled in by the type checker.
        loc: Source location for diagnostics and CCured error messages.
    """

    ctype: Optional[CType] = field(default=None, init=False, compare=False)
    loc: Optional[SourceLocation] = field(default=None, init=False, compare=False)


@dataclass
class IntLiteral(Expr):
    """An integer literal (also used for character literals)."""

    value: int


@dataclass
class StringLiteral(Expr):
    """A string literal.

    Attributes:
        value: The decoded string contents (without the terminating NUL).
        in_rom: Whether the literal lives in flash (``__progmem``) rather
            than RAM.  On the AVR-based Mica2, string literals occupy RAM
            unless explicitly placed in flash — the effect the paper's
            "verbose error messages in ROM" build variant measures.
        label: Unique link-time label, assigned by the linker/backend.
    """

    value: str
    in_rom: bool = False
    label: Optional[str] = field(default=None, compare=False)


@dataclass
class Identifier(Expr):
    """A reference to a variable or parameter by name."""

    name: str


@dataclass
class BinaryOp(Expr):
    """A binary operation.

    ``op`` is one of ``+ - * / % << >> & | ^ == != < <= > >= && ||``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """A unary operation; ``op`` is one of ``- ! ~``."""

    op: str
    operand: Expr


@dataclass
class Deref(Expr):
    """Pointer dereference ``*p``."""

    pointer: Expr


@dataclass
class AddressOf(Expr):
    """Address-of ``&lvalue``."""

    lvalue: Expr


@dataclass
class Index(Expr):
    """Array or pointer indexing ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    """Struct member access ``base.field`` or ``base->field``."""

    base: Expr
    fieldname: str
    arrow: bool = False


@dataclass
class Call(Expr):
    """A direct call to a named function.

    CMinor has no function pointers (TinyOS code generated by the nesC
    compiler is fully wired statically), so the callee is always a name.
    """

    callee: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    """An explicit cast ``(T) expr``."""

    target_type: CType
    operand: Expr


@dataclass
class SizeOf(Expr):
    """``sizeof(type)`` or ``sizeof(operand)``, a constant of type ``uint16_t``.

    The type checker resolves an ``operand`` into ``of_type`` and then drops
    it: C never evaluates the operand of ``sizeof``.
    """

    of_type: CType
    operand: Optional[Expr] = None


@dataclass
class Ternary(Expr):
    """The conditional expression ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""

    loc: Optional[SourceLocation] = field(default=None, init=False, compare=False)
    node_id: int = field(default_factory=_next_node_id, init=False, compare=False)


@dataclass
class VarDecl(Stmt):
    """A local variable declaration, optionally with an initializer."""

    name: str
    ctype: CType
    init: Optional[Expr] = None
    qualifiers: frozenset[str] = field(default_factory=frozenset)


@dataclass
class Assign(Stmt):
    """An assignment ``lvalue = rvalue``.

    Compound assignments (``+=`` etc.) and ``++``/``--`` statements are
    desugared to this form by the parser, mirroring CIL.
    """

    lvalue: Expr
    rvalue: Expr


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects (almost always a call)."""

    expr: Expr


@dataclass
class Block(Stmt):
    """A brace-delimited sequence of statements."""

    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    """An ``if``/``else`` statement."""

    cond: Expr
    then_body: Block = field(default_factory=Block)
    else_body: Optional[Block] = None


@dataclass
class While(Stmt):
    """A ``while`` loop.

    The parser emits only ``while (1)``, leaving the loop through explicit
    ``break`` statements.  The literal condition stays in the tree because
    the backend costs it in code bytes and cycles.
    """

    cond: Expr
    body: Block = field(default_factory=Block)


@dataclass
class Return(Stmt):
    """A ``return`` statement, optionally with a value."""

    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    """A ``break`` statement."""


@dataclass
class Continue(Stmt):
    """A ``continue`` statement."""


@dataclass
class Atomic(Stmt):
    """A nesC ``atomic { ... }`` section.

    On the target hardware this disables interrupts around ``body`` (saving
    and restoring the interrupt-enable bit unless the optimizer can prove the
    save is unnecessary — one of the cXprop improvements in Section 2.1).

    Attributes:
        body: The protected statements.
        save_irq: Whether the generated code must save/restore the previous
            interrupt-enable state (cleared by the atomic-section optimizer
            for non-nested sections reached only with interrupts enabled).
        synthetic: True for atomic sections inserted by the CCured stage to
            protect safety checks on racy variables (Section 2.2), as
            opposed to atomic sections written by the application programmer.
    """

    body: Block = field(default_factory=Block)
    save_irq: bool = True
    synthetic: bool = False


@dataclass
class Post(Stmt):
    """A nesC ``post task();`` statement: enqueue a task for the scheduler."""

    task: str


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------


@dataclass
class InitList(Expr):
    """A brace-enclosed initializer list for arrays and structs."""

    items: list[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    """A function parameter."""

    name: str
    ctype: CType


@dataclass
class GlobalVar(Node):
    """A global (file-scope) variable.

    Attributes:
        name: Variable name (unique after linking).
        ctype: Declared type.
        init: Optional static initializer.
        qualifiers: Any of ``const``, ``volatile``, ``norace``, ``__progmem``.
        origin: Name of the component or runtime unit that declared it; used
            for reporting and for the runtime-footprint experiment (E5).
    """

    name: str
    ctype: CType
    init: Optional[Expr] = None
    qualifiers: frozenset[str] = field(default_factory=frozenset)
    origin: str = ""
    loc: Optional[SourceLocation] = None

    @property
    def is_const(self) -> bool:
        return "const" in self.qualifiers

    @property
    def is_volatile(self) -> bool:
        return "volatile" in self.qualifiers

    @property
    def is_norace(self) -> bool:
        return "norace" in self.qualifiers

    @property
    def in_rom(self) -> bool:
        return "__progmem" in self.qualifiers


@dataclass
class FunctionDef(Node):
    """A function definition.

    Attributes:
        name: Function name (unique after linking).
        return_type: Declared return type.
        params: Ordered parameters.
        body: Function body.
        attributes: Toolchain-relevant attributes:

            * ``interrupt``: interrupt vector name — the function is an
              interrupt handler and therefore a concurrency "root".
            * ``spontaneous``: reachable from outside the program (entry
              points); never removed by dead-code elimination.
            * ``inline``: hint that the inliner should always inline it.
            * ``runtime``: part of the CCured runtime library.
            * ``check``: the function is a CCured safety check helper.
        origin: Component or unit that contributed the function.
    """

    name: str
    return_type: CType
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    attributes: dict[str, object] = field(default_factory=dict)
    origin: str = ""
    loc: Optional[SourceLocation] = None

    @property
    def is_interrupt_handler(self) -> bool:
        return "interrupt" in self.attributes

    @property
    def is_spontaneous(self) -> bool:
        return bool(self.attributes.get("spontaneous"))

    @property
    def is_runtime(self) -> bool:
        return bool(self.attributes.get("runtime"))

    @property
    def always_inline(self) -> bool:
        return bool(self.attributes.get("inline"))

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass
class ExternFunction(Node):
    """A declaration of a function provided by the environment.

    These are the toolchain builtins: hardware access helpers, the sleep
    primitive, interrupt-enable control and the task-post hook.  The
    simulator implements them natively; the backend assigns them fixed code
    costs.
    """

    name: str
    return_type: CType
    param_types: tuple[CType, ...] = field(default_factory=tuple)
    cycles: int = 4
    code_bytes: int = 0


LValue = Union[Identifier, Deref, Index, Member]


def is_lvalue(expr: Expr) -> bool:
    """Whether ``expr`` may appear on the left-hand side of an assignment."""
    if isinstance(expr, (Identifier, Deref)):
        return True
    if isinstance(expr, Index):
        return True
    if isinstance(expr, Member):
        return True
    return False
