"""Translation units, whole programs, and linking.

The Safe TinyOS toolchain is a *whole-program* toolchain: the nesC compiler
flattens a component graph into one C file, and every later stage (CCured,
cXprop, the inliner, the backend) operates on that single program.  The
:class:`Program` class is that single artifact.  A program also carries the
TinyOS-specific metadata the paper's tools rely on:

* the list of task functions and interrupt vectors (the two-level
  concurrency model),
* the list of variables the nesC compiler reports as accessed
  non-atomically (used by the modified CCured to lock safety checks),
* the set of builtin environment functions (hardware access, sleep,
  interrupt control) that the simulator implements natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import LinkError, SourceLocation, TypeCheckError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cminor.analysis_cache import ProgramAnalysisCache


class StructTable:
    """Registry of struct definitions shared by units that are linked together."""

    def __init__(self) -> None:
        self._structs: dict[str, ty.StructType] = {}

    def define(self, name: str, fields: list[ty.StructField],
               loc: Optional[SourceLocation] = None) -> ty.StructType:
        """Define (or re-define identically) a struct type."""
        struct = ty.StructType(name, tuple(fields))
        existing = self._structs.get(name)
        if existing is not None and existing != struct:
            raise TypeCheckError(f"conflicting definitions of struct {name}", loc)
        self._structs[name] = struct
        return struct

    def lookup(self, name: str, loc: Optional[SourceLocation] = None) -> ty.StructType:
        """Look up a struct by tag, creating a forward declaration if needed."""
        if name not in self._structs:
            # Forward reference: struct used (e.g. behind a pointer) before its
            # definition.  Record an empty placeholder; ``define`` fills it in.
            self._structs[name] = ty.StructType(name, tuple())
        return self._structs[name]

    def get(self, name: str) -> Optional[ty.StructType]:
        return self._structs.get(name)

    def names(self) -> list[str]:
        return sorted(self._structs)

    def all(self) -> dict[str, ty.StructType]:
        return dict(self._structs)

    def merge(self, other: "StructTable") -> None:
        for name, struct in other._structs.items():
            existing = self._structs.get(name)
            if existing is None or not existing.fields:
                self._structs[name] = struct
            elif struct.fields and existing != struct:
                raise LinkError(f"conflicting definitions of struct {name}")


@dataclass
class TranslationUnit:
    """A single parsed CMinor source unit (one component's generated code)."""

    name: str
    structs: StructTable = field(default_factory=StructTable)
    globals: list[ast.GlobalVar] = field(default_factory=list)
    functions: list[ast.FunctionDef] = field(default_factory=list)


def _builtin(name: str, return_type: ty.CType, params: tuple[ty.CType, ...],
             cycles: int) -> ast.ExternFunction:
    return ast.ExternFunction(name, return_type, params, cycles=cycles)


def standard_builtins() -> dict[str, ast.ExternFunction]:
    """The environment functions every Safe TinyOS program may call.

    These correspond to the inline-assembly / compiler-intrinsic layer of the
    real TinyOS: memory-mapped hardware access (created by the
    hardware-register refactoring step of the pipeline), the sleep
    instruction, and global interrupt control.
    """
    u8, u16 = ty.UINT8, ty.UINT16
    builtins = [
        _builtin("__hw_read8", u8, (u16,), cycles=2),
        _builtin("__hw_write8", ty.VOID, (u16, u8), cycles=2),
        _builtin("__hw_read16", u16, (u16,), cycles=4),
        _builtin("__hw_write16", ty.VOID, (u16, u16), cycles=4),
        _builtin("__sleep", ty.VOID, (), cycles=1),
        _builtin("__enable_interrupts", ty.VOID, (), cycles=1),
        _builtin("__disable_interrupts", ty.VOID, (), cycles=1),
        _builtin("__irq_save", u8, (), cycles=3),
        _builtin("__irq_restore", ty.VOID, (u8,), cycles=3),
        _builtin("__halt", ty.VOID, (u16,), cycles=1),
        # Support routines for the CCured runtime library: pointer metadata
        # queries (evaluated natively by the simulator, reasoned about
        # abstractly by cXprop) and the failure reporting channel.
        _builtin("__bounds_ok", ty.BOOL, (ty.PointerType(ty.VOID), u16), cycles=8),
        _builtin("__align_ok", ty.BOOL, (ty.PointerType(ty.VOID), u16), cycles=4),
        _builtin("__error_report", ty.VOID, (ty.PointerType(ty.CHAR),), cycles=16),
        _builtin("__error_report_id", ty.VOID, (u16,), cycles=8),
    ]
    return {b.name: b for b in builtins}


@dataclass
class Program:
    """A linked, whole CMinor program plus its TinyOS metadata.

    Attributes:
        name: Application name (e.g. ``"Surge"``).
        platform: Target platform name (``"mica2"`` or ``"telosb"``).
        structs: Struct definitions.
        globals: Global variables by name (insertion ordered).
        functions: Function definitions by name (insertion ordered).
        builtins: Environment (extern) functions by name.
        entry: Name of the entry-point function (``"main"``).
        tasks: Ordered names of task functions known to the scheduler.
        interrupt_vectors: Mapping from vector name to handler function name.
        racy_variables: Names of globals the nesC concurrency analysis found
            to be accessed non-atomically (the list the paper's modified
            CCured consumes).
        norace_suppressed: Names of globals whose ``norace`` qualifier was
            suppressed by the toolchain (Section 2.2).
    """

    name: str = "program"
    platform: str = "mica2"
    structs: StructTable = field(default_factory=StructTable)
    globals: dict[str, ast.GlobalVar] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    builtins: dict[str, ast.ExternFunction] = field(default_factory=standard_builtins)
    entry: str = "main"
    tasks: list[str] = field(default_factory=list)
    interrupt_vectors: dict[str, str] = field(default_factory=dict)
    racy_variables: set[str] = field(default_factory=set)
    norace_suppressed: set[str] = field(default_factory=set)

    # -- construction ---------------------------------------------------------
    #
    # Each of these reports the name it declares or removes to the analysis
    # memo; the type check notices what changed about the declaration.

    def add_global(self, var: ast.GlobalVar, replace: bool = False) -> None:
        if not replace and var.name in self.globals:
            raise LinkError(f"duplicate global variable {var.name!r}")
        if var.name in self.functions or var.name in self.builtins:
            raise LinkError(f"{var.name!r} is already defined as a function")
        self.globals[var.name] = var
        self.invalidate_analysis(var.name)

    def add_function(self, func: ast.FunctionDef, replace: bool = False) -> None:
        if not replace and func.name in self.functions:
            raise LinkError(f"duplicate function {func.name!r}")
        if func.name in self.globals:
            raise LinkError(f"{func.name!r} is already defined as a variable")
        self.functions[func.name] = func
        self.invalidate_analysis(func.name)

    def remove_function(self, name: str) -> None:
        self.functions.pop(name, None)
        self.invalidate_analysis(name)

    def remove_global(self, name: str) -> None:
        self.globals.pop(name, None)
        self.invalidate_analysis(name)

    # -- queries --------------------------------------------------------------

    def lookup_function(self, name: str) -> Optional[ast.FunctionDef]:
        return self.functions.get(name)

    def lookup_global(self, name: str) -> Optional[ast.GlobalVar]:
        return self.globals.get(name)

    def lookup_builtin(self, name: str) -> Optional[ast.ExternFunction]:
        return self.builtins.get(name)

    def iter_functions(self) -> Iterator[ast.FunctionDef]:
        return iter(list(self.functions.values()))

    def iter_globals(self) -> Iterator[ast.GlobalVar]:
        return iter(list(self.globals.values()))

    def root_functions(self) -> list[str]:
        """Functions that are externally reachable.

        These are the roots for call-graph reachability: the entry point,
        every interrupt handler, every scheduler task, and anything marked
        ``spontaneous``.
        """
        roots: list[str] = []
        if self.entry in self.functions:
            roots.append(self.entry)
        roots.extend(h for h in self.interrupt_vectors.values() if h in self.functions)
        roots.extend(t for t in self.tasks if t in self.functions)
        for func in self.functions.values():
            if func.is_spontaneous and func.name not in roots:
                roots.append(func.name)
        return roots

    def interrupt_handlers(self) -> list[str]:
        return [h for h in self.interrupt_vectors.values() if h in self.functions]

    def clone(self) -> "Program":
        """Deep-copy the program so a pipeline variant can transform it freely.

        Uses the fast structural cloner (:mod:`repro.cminor.clone`): immutable
        leaves (types, source locations) are shared, every container and AST
        node is copied, and the clone's analysis memo starts with a copy of
        this program's per-function facts and type-check records.  This is
        what lets the sweep runner share one front-end program per
        application across many build variants.
        """
        from repro.cminor.clone import clone_program

        return clone_program(self)

    # -- derived-analysis cache ------------------------------------------------

    def analysis(self) -> "ProgramAnalysisCache":
        """The memo of derived per-function facts of this program.

        Shared by every pass, the type checker and the simulator; see
        :mod:`repro.cminor.analysis_cache`.  A pass that changes a function
        must report it to :meth:`invalidate_analysis` before anything reads
        a fact of that function again.
        """
        cache = self.__dict__.get("_analysis_cache")
        if cache is None:
            from repro.cminor.analysis_cache import ProgramAnalysisCache

            cache = ProgramAnalysisCache()
            self.__dict__["_analysis_cache"] = cache
        return cache

    def invalidate_analysis(self, func_name: Optional[str] = None) -> None:
        """Drop what was derived from ``func_name`` after it changed
        (everything without a name)."""
        cache = self.__dict__.get("_analysis_cache")
        if cache is not None:
            cache.invalidate(func_name)

    def summary(self) -> dict[str, int]:
        """Coarse size statistics used by reports and tests."""
        from repro.cminor.visitor import count_statements

        return {
            "functions": len(self.functions),
            "globals": len(self.globals),
            "tasks": len(self.tasks),
            "interrupt_vectors": len(self.interrupt_vectors),
            "statements": sum(count_statements(f.body) for f in self.functions.values()),
        }


def link_units(units: Iterable[TranslationUnit], name: str = "program",
               platform: str = "mica2") -> Program:
    """Link translation units into a whole program.

    Duplicate function or global definitions across units are link errors,
    matching the behaviour of linking the nesC compiler's output.
    """
    program = Program(name=name, platform=platform)
    for unit in units:
        program.structs.merge(unit.structs)
        for var in unit.globals:
            program.add_global(var)
        for func in unit.functions:
            program.add_function(func)
    return program
