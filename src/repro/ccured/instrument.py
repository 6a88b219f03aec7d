"""Check insertion: the instrumentation half of CCured.

``cure`` is the paper's "run CCured" pipeline box.  It infers pointer
kinds, walks every application function and inserts a dynamic check in
front of each memory access it cannot prove safe statically, wraps checks
that involve racy variables in atomic sections, links in the runtime
library, materializes the fat-pointer metadata for SEQ/WILD globals, and
optionally runs CCured's own redundant-check optimizer.

Every inserted check carries a unique identifier as its final argument —
a string for the verbose/terse message strategies, a 16-bit FLID otherwise.
Counting the identifiers that survive optimization reproduces the
methodology behind Figure 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.clone import clone_expr
from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cminor.pretty import PrettyPrinter
from repro.cminor.visitor import (
    child_expressions,
    statement_expressions,
    transform_block,
)
from repro.ccured.checks import (
    CheckInventory,
    CheckKind,
    CheckSite,
    ID_CARRYING_FUNCTIONS,
)
from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.flid import FlidTable
from repro.ccured.infer import expr_slots, infer_pointer_kinds
from repro.ccured.kinds import KindMap, PointerKind, global_slot
from repro.ccured.locks import protect_statement
from repro.ccured.runtime import RUNTIME_UNIT, RuntimeLibrary, build_runtime

#: Origin tag for the fat-pointer metadata globals added by instrumentation.
METADATA_ORIGIN = "__ccured_meta"

#: Prefix of the fat-pointer metadata globals.
METADATA_PREFIX = "__cc_meta_"


@dataclass
class _Access:
    """One memory access that needs a dynamic check."""

    kind: CheckKind
    pointer: ast.Expr
    size: int
    description: str
    is_write: bool
    loc: Optional[object] = None


@dataclass
class CCuredResult:
    """Everything produced by the CCured stage for one program."""

    program: Program
    config: CCuredConfig
    inventory: CheckInventory
    kinds: KindMap
    runtime: RuntimeLibrary
    flid_table: FlidTable
    locked_checks: int = 0
    optimizer_removed: int = 0

    @property
    def checks_inserted(self) -> int:
        return self.inventory.count()

    def report(self) -> dict[str, int]:
        """Summary numbers used by the pipeline report and the tests."""
        kind_counts = self.inventory.count_by_kind()
        pointer_counts = self.kinds.counts()
        return {
            "checks_inserted": self.checks_inserted,
            "null_checks": kind_counts[CheckKind.NULL],
            "bounds_checks": kind_counts[CheckKind.BOUNDS],
            "index_checks": kind_counts[CheckKind.INDEX],
            "wild_checks": kind_counts[CheckKind.WILD],
            "locked_checks": self.locked_checks,
            "safe_pointers": pointer_counts[PointerKind.SAFE],
            "seq_pointers": pointer_counts[PointerKind.SEQ],
            "wild_pointers": pointer_counts[PointerKind.WILD],
            "optimizer_removed": self.optimizer_removed,
        }


class Instrumenter:
    """Inserts dynamic checks into one program."""

    def __init__(self, program: Program, config: CCuredConfig, kinds: KindMap):
        self.program = program
        self.config = config
        self.kinds = kinds
        self.inventory = CheckInventory()
        self.flid_table = FlidTable(application=config.application_name)
        self.locked_checks = 0
        self._printer = PrettyPrinter()
        self._next_id = 1
        self._function: Optional[ast.FunctionDef] = None
        self._locals: dict[str, ty.CType] = {}

    # -- driving ---------------------------------------------------------------

    def run(self) -> None:
        for func in self.program.iter_functions():
            if func.is_runtime or func.origin == RUNTIME_UNIT:
                continue
            before = self.inventory.count()
            self._instrument_function(func)
            if self.inventory.count() != before:
                self.program.invalidate_analysis(func.name)

    def _instrument_function(self, func: ast.FunctionDef) -> None:
        self._function = func
        self._locals = self.program.analysis().local_types(func)

        def rewrite(stmt: ast.Stmt):
            if isinstance(stmt, (ast.Block, ast.Atomic, ast.If, ast.While)) \
                    and not statement_expressions(stmt):
                return stmt
            accesses = self._statement_accesses(stmt)
            if not accesses:
                return stmt
            checks: list[ast.Stmt] = []
            checked_exprs: list[ast.Expr] = []
            for access in accesses:
                site, check_stmt = self._build_check(access)
                checks.append(check_stmt)
                checked_exprs.append(access.pointer)
            replacement, locked = protect_statement(
                checks, checked_exprs, stmt, self.program,
                self.config.insert_locks)
            if locked:
                self.locked_checks += len(checks)
                for site in self.inventory.sites[-len(checks):]:
                    site.racy = True
            return replacement

        transform_block(func.body, rewrite)

    # -- access discovery --------------------------------------------------------

    def _statement_accesses(self, stmt: ast.Stmt) -> list[_Access]:
        accesses: list[_Access] = []
        if isinstance(stmt, ast.Assign):
            self._collect(stmt.lvalue, True, accesses)
            self._collect(stmt.rvalue, False, accesses)
            return accesses
        for expr in statement_expressions(stmt):
            self._collect(expr, False, accesses)
        return accesses

    def _collect(self, expr: ast.Expr, is_write: bool,
                 accesses: list[_Access]) -> None:
        if isinstance(expr, ast.Deref):
            self._add_pointer_access(expr.pointer, self._type_size(expr.ctype),
                                     is_write, accesses, describe=expr)
            self._collect(expr.pointer, False, accesses)
            return
        if isinstance(expr, ast.Index):
            self._add_index_access(expr, is_write, accesses)
            self._collect(expr.base, False, accesses)
            self._collect(expr.index, False, accesses)
            return
        if isinstance(expr, ast.Member):
            if expr.arrow:
                struct_type = self._pointee(expr.base.ctype)
                self._add_pointer_access(expr.base, self._type_size(struct_type),
                                         is_write, accesses, describe=expr)
            self._collect(expr.base, False, accesses)
            return
        if isinstance(expr, ast.AddressOf):
            # Taking an address performs no memory access; only index
            # expressions inside the lvalue are evaluated.
            self._collect_address(expr.lvalue, accesses)
            return
        for child in child_expressions(expr):
            self._collect(child, False, accesses)

    def _collect_address(self, lvalue: ast.Expr, accesses: list[_Access]) -> None:
        if isinstance(lvalue, ast.Index):
            self._collect(lvalue.index, False, accesses)
            self._collect_address(lvalue.base, accesses)
        elif isinstance(lvalue, ast.Member):
            self._collect_address(lvalue.base, accesses)
        elif isinstance(lvalue, ast.Deref):
            self._collect(lvalue.pointer, False, accesses)

    def _add_pointer_access(self, pointer: ast.Expr, size: int, is_write: bool,
                            accesses: list[_Access], describe: ast.Expr) -> None:
        classification = self._classify_pointer(pointer)
        if classification == "static":
            return
        kind = classification
        if kind is PointerKind.SAFE:
            check = CheckKind.NULL
        elif kind is PointerKind.SEQ:
            check = CheckKind.BOUNDS
        else:
            check = CheckKind.WILD
        accesses.append(_Access(
            kind=check,
            pointer=clone_expr(pointer),
            size=max(size, 1),
            description=self._describe(describe),
            is_write=is_write,
            loc=describe.loc or pointer.loc,
        ))

    def _add_index_access(self, expr: ast.Index, is_write: bool,
                          accesses: list[_Access]) -> None:
        base_type = expr.base.ctype
        elem_size = self._type_size(expr.ctype)
        if isinstance(base_type, ty.ArrayType):
            if isinstance(expr.index, ast.IntLiteral) and \
                    0 <= expr.index.value < base_type.length:
                return
            check = CheckKind.INDEX
        else:
            classification = self._classify_pointer(expr.base)
            if classification == "static":
                # Indexing the decay of a known object with a computed index
                # still needs a bounds check.
                check = CheckKind.INDEX
            elif classification is PointerKind.WILD:
                check = CheckKind.WILD
            else:
                check = CheckKind.BOUNDS
        address = ast.AddressOf(ast.Index(clone_expr(expr.base),
                                          clone_expr(expr.index)))
        address.loc = expr.loc
        accesses.append(_Access(
            kind=check,
            pointer=address,
            size=max(elem_size, 1),
            description=self._describe(expr),
            is_write=is_write,
            loc=expr.loc,
        ))

    # -- classification ------------------------------------------------------------

    def _classify_pointer(self, pointer: ast.Expr):
        """Classify the pointer of an access: ``"static"`` or a PointerKind."""
        if isinstance(pointer, ast.AddressOf):
            return "static"
        if isinstance(pointer, ast.StringLiteral):
            return "static"
        if isinstance(pointer, ast.Identifier):
            ctype = self._locals.get(pointer.name)
            if ctype is None:
                var = self.program.lookup_global(pointer.name)
                ctype = var.ctype if var is not None else None
            if isinstance(ctype, ty.ArrayType):
                # Array decay of a named object: the object is known, only
                # the offset can go wrong, and plain decay has offset zero.
                return "static"
        if isinstance(pointer, ast.Cast):
            inner = self._classify_pointer(pointer.operand)
            source = pointer.operand.ctype
            if source is not None and source.is_integer():
                return PointerKind.WILD
            if inner == "static":
                return PointerKind.SEQ if self._is_reinterpret(pointer) else "static"
            return PointerKind.join(inner, PointerKind.SEQ
                                    if self._is_reinterpret(pointer)
                                    else PointerKind.SAFE)
        kinds = [self.kinds.get(slot) for slot in expr_slots(
            pointer, self.program, self._function, self._locals)]
        if not kinds:
            return PointerKind.SAFE
        result = PointerKind.SAFE
        for kind in kinds:
            result = PointerKind.join(result, kind)
        return result

    @staticmethod
    def _is_reinterpret(cast: ast.Cast) -> bool:
        target = cast.target_type
        source = cast.operand.ctype
        if not isinstance(target, ty.PointerType) or source is None:
            return False
        source = source.decay()
        return isinstance(source, ty.PointerType) and source.target != target.target

    # -- check construction ----------------------------------------------------------

    def _build_check(self, access: _Access) -> tuple[CheckSite, ast.Stmt]:
        site = CheckSite(
            check_id=self._next_id,
            kind=access.kind,
            function=self._function.name,
            description=access.description,
            loc=access.loc,
            guards_write=access.is_write,
        )
        self._next_id += 1
        self.inventory.add(site)
        self.flid_table.add_site(site)

        args: list[ast.Expr] = [access.pointer]
        if access.kind is not CheckKind.NULL:
            args.append(ast.IntLiteral(access.size))
        args.append(self._message_argument(site))
        call = ast.Call(access.kind.helper, args)
        call.loc = access.loc
        stmt = ast.ExprStmt(call)
        stmt.loc = access.loc
        return site, stmt

    def _message_argument(self, site: CheckSite) -> ast.Expr:
        strategy = self.config.message_strategy
        if strategy is MessageStrategy.FLID:
            return ast.IntLiteral(site.check_id)
        if strategy is MessageStrategy.TERSE:
            return ast.StringLiteral(site.terse_message())
        literal = ast.StringLiteral(
            site.verbose_message(self.config.application_name))
        literal.in_rom = strategy is MessageStrategy.VERBOSE_ROM
        return literal

    # -- helpers ----------------------------------------------------------------------

    def _describe(self, expr: ast.Expr) -> str:
        text = self._printer.format_expr(expr)
        if len(text) > 40:
            text = text[:37] + "..."
        return text

    def _type_size(self, ctype: Optional[ty.CType]) -> int:
        if ctype is None:
            return 1
        try:
            return ctype.sizeof(pointer_size=2)
        except NotImplementedError:
            return 1

    @staticmethod
    def _pointee(ctype: Optional[ty.CType]) -> Optional[ty.CType]:
        if isinstance(ctype, ty.PointerType):
            return ctype.target
        return ctype


# ---------------------------------------------------------------------------
# Fat-pointer metadata
# ---------------------------------------------------------------------------


def add_fat_pointer_metadata(program: Program, kinds: KindMap) -> int:
    """Materialize the static cost of fat pointers for global pointer slots.

    Every global pointer classified SEQ or WILD gains a metadata global
    holding its base and bound (and tag pointer for WILD).  The metadata is
    kept alive by dead-code elimination for as long as the pointer itself is
    alive, modelling the RAM cost of CCured's fat-pointer representation.

    Returns:
        Number of metadata globals added.
    """
    added = 0
    for var in list(program.iter_globals()):
        if not var.ctype.is_pointer():
            continue
        kind = kinds.get(global_slot(var.name))
        if kind is PointerKind.SAFE:
            continue
        meta_name = f"{METADATA_PREFIX}{var.name}"
        if meta_name in program.globals:
            continue
        words = kind.words - 1
        meta = ast.GlobalVar(
            name=meta_name,
            ctype=ty.ArrayType(ty.UINT16, words),
            init=None,
            qualifiers=frozenset(),
            origin=METADATA_ORIGIN,
        )
        program.add_global(meta)
        added += 1
    return added


# ---------------------------------------------------------------------------
# Survivor counting (the Figure 2 methodology)
# ---------------------------------------------------------------------------

_CHECK_ID_PATTERN = re.compile(r"\[(?:chk|flid )?(\d+)\]|^[a-z](\d+)$")


def extract_check_id(expr: ast.Expr) -> Optional[int]:
    """Extract the check identifier from a check/fail call argument."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.StringLiteral):
        match = _CHECK_ID_PATTERN.search(expr.value)
        if match:
            return int(match.group(1) or match.group(2))
    return None


def surviving_check_ids(program: Program) -> set[int]:
    """Identifiers of the checks still present anywhere in ``program``.

    This mirrors the paper's methodology: a check counts as eliminated only
    when its unique identifier no longer appears in the executable — whether
    the check survived as a helper call or was inlined down to a bare
    ``__ccured_fail`` site.
    """
    survivors: set[int] = set()
    for func in program.iter_functions():
        for expr in _all_expressions(func):
            if isinstance(expr, ast.Call) and expr.callee in ID_CARRYING_FUNCTIONS:
                if not expr.args:
                    continue
                check_id = extract_check_id(expr.args[-1])
                if check_id is not None:
                    survivors.add(check_id)
    return survivors


def _all_expressions(func: ast.FunctionDef):
    from repro.cminor.visitor import walk_function_expressions

    return walk_function_expressions(func.body)


# ---------------------------------------------------------------------------
# The main entry point
# ---------------------------------------------------------------------------


def cure(program: Program, config: Optional[CCuredConfig] = None) -> CCuredResult:
    """Make ``program`` type- and memory-safe, in place.

    Args:
        program: A flattened, type-checked whole program (the nesC compiler
            output, ideally after hardware-register refactoring).
        config: Safety-transformation options; defaults mirror the paper's
            standard safe build (trimmed runtime, verbose messages, locks).

    Returns:
        A :class:`CCuredResult` describing the inserted checks, pointer
        kinds, runtime library and FLID table.
    """
    from repro.ccured.optimizer import optimize_checks

    config = config or CCuredConfig()
    if config.application_name == "app":
        config.application_name = program.name

    kinds = infer_pointer_kinds(program)
    instrumenter = Instrumenter(program, config, kinds)
    instrumenter.run()

    runtime = build_runtime(config)
    runtime.add_to_program(program)
    add_fat_pointer_metadata(program, kinds)
    check_program(program)

    result = CCuredResult(
        program=program,
        config=config,
        inventory=instrumenter.inventory,
        kinds=kinds,
        runtime=runtime,
        flid_table=instrumenter.flid_table,
        locked_checks=instrumenter.locked_checks,
    )
    if config.run_optimizer:
        result.optimizer_removed = optimize_checks(program)
        check_program(program)
    return result
