"""The "nesC compiler": flattening a wired application into one program.

This stage reproduces what the nesC compiler does for TinyOS:

1. every component's module-scope symbols are renamed with a
   ``Component__`` prefix so they can coexist in one program;
2. calls to used-interface commands and signals of provided-interface events
   are resolved through the application's wiring (generating fan-out
   dispatchers and default event handlers where needed);
3. ``post task();`` statements are lowered to calls into a generated task
   scheduler, and a ``main`` function is generated that initializes and
   starts the boot components and then runs the scheduler loop;
4. interrupt handlers are registered in the program's vector table;
5. the nesC-style concurrency analysis computes the list of variables
   accessed non-atomically (consumed later by the modified CCured stage).

The result is a single type-checked :class:`~repro.cminor.program.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.errors import CMinorError
from repro.cminor.parser import parse_program
from repro.cminor.program import Program, StructTable, TranslationUnit
from repro.cminor.typecheck import check_program
from repro.cminor.visitor import (
    map_expression,
    replace_statement_expressions,
    transform_block,
    walk_statements,
)
from repro.nesc.application import Application
from repro.nesc.component import Component
from repro.nesc.concurrency import nesc_race_analysis
from repro.nesc.interface import COMMAND, EVENT, Interface

#: Size of the generated task queue (TinyOS 1.x uses a queue of 8 entries).
TASK_QUEUE_SIZE = 8


class WiringError(CMinorError):
    """Raised when interface references cannot be resolved through the wiring."""


@dataclass
class _ComponentContext:
    """Per-component naming information used during flattening."""

    component: Component
    unit: TranslationUnit
    local_symbols: set[str] = field(default_factory=set)

    def prefixed(self, name: str) -> str:
        return f"{self.component.name}__{name}"


def flatten_application(app: Application,
                        suppress_norace: bool = False) -> Program:
    """Flatten ``app`` into a single whole program.

    Args:
        app: The wired application.
        suppress_norace: When True, ``norace`` qualifiers are ignored by the
            concurrency analysis (Section 2.2 of the paper: Safe TinyOS must
            suppress ``norace`` so that safety-critical accesses are
            protected even when the programmer asserted there is no race).
    """
    return NescCompiler(app, suppress_norace=suppress_norace).compile()


class NescCompiler:
    """Flattens an :class:`Application` into a :class:`Program`."""

    def __init__(self, app: Application, suppress_norace: bool = False):
        self.app = app
        self.suppress_norace = suppress_norace
        self.structs = StructTable()
        self.common_globals: set[str] = set()
        self.contexts: list[_ComponentContext] = []
        self.task_ids: dict[str, int] = {}

    # -- public entry ----------------------------------------------------------

    def compile(self) -> Program:
        self.app.validate()
        program = Program(name=self.app.name, platform=self.app.platform,
                          structs=self.structs)

        common_unit = self._parse_common()
        for var in common_unit.globals:
            program.add_global(var)
        for func in common_unit.functions:
            program.add_function(func)

        for component in self.app.components:
            self.contexts.append(self._parse_component(component))

        self._collect_tasks()

        for context in self.contexts:
            self._rename_component(context)

        for context in self.contexts:
            for var in context.unit.globals:
                program.add_global(var)
            for func in context.unit.functions:
                program.add_function(func)

        self._add_default_handlers(program)
        self._add_fanout_dispatchers(program)
        self._lower_posts(program)
        self._generate_scheduler(program)
        self._generate_main(program)
        self._register_interrupts(program)

        program.tasks = [name for name, _ in
                         sorted(self.task_ids.items(), key=lambda item: item[1])]

        check_program(program)
        nesc_race_analysis(program, suppress_norace=self.suppress_norace)
        return program

    # -- parsing ---------------------------------------------------------------

    def _parse_common(self) -> TranslationUnit:
        source = self.app.common_source or ""
        unit = parse_program(source, f"{self.app.name}.common", self.structs)
        self.common_globals = {v.name for v in unit.globals}
        self.common_globals |= {f.name for f in unit.functions}
        return unit

    def _parse_component(self, component: Component) -> _ComponentContext:
        unit = parse_program(component.source, component.name, self.structs)
        local = {v.name for v in unit.globals} | {f.name for f in unit.functions}
        return _ComponentContext(component, unit, local)

    # -- task collection -------------------------------------------------------

    def _collect_tasks(self) -> None:
        next_id = 0
        for context in self.contexts:
            for task in context.component.tasks:
                if task not in context.local_symbols:
                    raise WiringError(
                        f"{context.component.name}: task {task!r} is not defined")
                self.task_ids[context.prefixed(task)] = next_id
                next_id += 1

    # -- renaming and wiring resolution ----------------------------------------

    def _rename_component(self, context: _ComponentContext) -> None:
        component = context.component
        rename: dict[str, str] = {name: context.prefixed(name)
                                  for name in context.local_symbols}

        for var in context.unit.globals:
            var.name = rename[var.name]
            var.origin = component.name
        for func in context.unit.functions:
            func.name = rename[func.name]
            func.origin = component.name

        for func in context.unit.functions:
            local_names = {p.name for p in func.params}
            for stmt in walk_statements(func.body):
                if isinstance(stmt, ast.VarDecl):
                    local_names.add(stmt.name)
                if isinstance(stmt, ast.Post):
                    if stmt.task not in rename:
                        raise WiringError(
                            f"{component.name}: post of unknown task {stmt.task!r}")
                    stmt.task = rename[stmt.task]
                replace_statement_expressions(
                    stmt, lambda e: self._rewrite_expr(e, context, rename, local_names))

    def _rewrite_expr(self, expr: ast.Expr, context: _ComponentContext,
                      rename: dict[str, str], local_names: set[str]) -> ast.Expr:
        if isinstance(expr, ast.Identifier):
            if expr.name in local_names:
                return expr
            if expr.name in rename:
                expr.name = rename[expr.name]
            return expr
        if isinstance(expr, ast.Call):
            expr.callee = self._resolve_callee(expr.callee, context, rename)
            return expr
        return expr

    def _resolve_callee(self, callee: str, context: _ComponentContext,
                        rename: dict[str, str]) -> str:
        component = context.component
        if callee in rename:
            return rename[callee]
        if callee.startswith("__"):
            return callee
        if callee in self.common_globals:
            return callee
        resolved = self._resolve_interface_call(callee, context)
        if resolved is not None:
            return resolved
        raise WiringError(
            f"{component.name}: call to {callee!r} cannot be resolved "
            "(not local, not a builtin, and not an interface function)")

    def _match_interface_call(self, callee: str, component: Component
                              ) -> Optional[tuple[str, Interface, bool, str]]:
        """Match ``Inst_func`` against the component's interface instances.

        Returns (instance, interface, is_provided, function name) or None.
        """
        for inst, (iface, provided) in component.interface_instances().items():
            prefix = inst + "_"
            if callee.startswith(prefix):
                func_name = callee[len(prefix):]
                if iface.has_function(func_name):
                    return inst, iface, provided, func_name
        return None

    def _resolve_interface_call(self, callee: str,
                                context: _ComponentContext) -> Optional[str]:
        component = context.component
        match = self._match_interface_call(callee, component)
        if match is None:
            return None
        inst, iface, provided, func_name = match
        func = iface.function(func_name)
        if not provided and func.kind == COMMAND:
            # ``call Inst.cmd()``: resolve through the wiring to the provider.
            wires = self.app.wires_from(component.name, inst)
            wire = wires[0]
            return f"{wire.provider}__{wire.provider_instance}_{func_name}"
        if provided and func.kind == EVENT:
            # ``signal Inst.ev()``: deliver to the wired user(s).
            wires = self.app.wires_to(component.name, inst)
            if not wires:
                return self._default_handler_name(component.name, inst, func_name)
            if len(wires) == 1:
                wire = wires[0]
                return f"{wire.user}__{wire.user_instance}_{func_name}"
            return self._fanout_name(component.name, inst, func_name)
        if not provided and func.kind == EVENT:
            raise WiringError(
                f"{component.name}: cannot signal event {callee!r} of a used interface")
        raise WiringError(
            f"{component.name}: cannot call command {callee!r} of a provided "
            "interface through the wiring (call the local implementation instead)")

    # -- synthesized functions -------------------------------------------------

    @staticmethod
    def _default_handler_name(component: str, inst: str, func_name: str) -> str:
        return f"{component}__{inst}_{func_name}__default"

    @staticmethod
    def _fanout_name(component: str, inst: str, func_name: str) -> str:
        return f"{component}__{inst}_{func_name}__fanout"

    def _iter_signals(self):
        """Yield (component, instance, interface, event) for every provided event."""
        for context in self.contexts:
            for inst, iface in context.component.provides.items():
                for func in iface.events():
                    yield context.component, inst, iface, func

    def _add_default_handlers(self, program: Program) -> None:
        for component, inst, _iface, func in self._iter_signals():
            wires = self.app.wires_to(component.name, inst)
            if wires:
                continue
            name = self._default_handler_name(component.name, inst, func.name)
            if program.lookup_function(name) is not None:
                continue
            program.add_function(self._make_stub(name, func, component.name))

    def _add_fanout_dispatchers(self, program: Program) -> None:
        for component, inst, _iface, func in self._iter_signals():
            wires = self.app.wires_to(component.name, inst)
            if len(wires) < 2:
                continue
            name = self._fanout_name(component.name, inst, func.name)
            if program.lookup_function(name) is not None:
                continue
            targets = [f"{w.user}__{w.user_instance}_{func.name}" for w in wires]
            program.add_function(
                self._make_fanout(name, func, targets, component.name))

    def _make_stub(self, name: str, func, origin: str) -> ast.FunctionDef:
        params = [ast.Param(pname, ptype) for pname, ptype in func.params]
        body = ast.Block([])
        if not func.return_type.is_void():
            ret = ast.Return(ast.IntLiteral(0))
            body.stmts.append(ret)
        return ast.FunctionDef(name=name, return_type=func.return_type,
                               params=params, body=body,
                               attributes={"inline": True}, origin=origin)

    def _make_fanout(self, name: str, func, targets: list[str],
                     origin: str) -> ast.FunctionDef:
        params = [ast.Param(pname, ptype) for pname, ptype in func.params]
        stmts: list[ast.Stmt] = []
        args = [ast.Identifier(pname) for pname, _ in func.params]
        returns_value = not func.return_type.is_void()
        if returns_value:
            stmts.append(ast.VarDecl("__result", func.return_type, ast.IntLiteral(0)))
        for target in targets:
            call = ast.Call(target, [ast.Identifier(a.name) for a in args])
            if returns_value:
                stmts.append(ast.Assign(ast.Identifier("__result"), call))
            else:
                stmts.append(ast.ExprStmt(call))
        if returns_value:
            stmts.append(ast.Return(ast.Identifier("__result")))
        return ast.FunctionDef(name=name, return_type=func.return_type,
                               params=params, body=ast.Block(stmts),
                               attributes={}, origin=origin)

    # -- post lowering, scheduler, main ----------------------------------------

    def _lower_posts(self, program: Program) -> None:
        def rewrite(stmt: ast.Stmt):
            if isinstance(stmt, ast.Post):
                task_id = self.task_ids.get(stmt.task)
                if task_id is None:
                    raise WiringError(f"post of unknown task {stmt.task!r}")
                call = ast.Call("__tos_post", [ast.IntLiteral(task_id)])
                call.loc = stmt.loc
                new_stmt = ast.ExprStmt(call)
                new_stmt.loc = stmt.loc
                return new_stmt
            return stmt

        for func in program.iter_functions():
            transform_block(func.body, rewrite)

    def _generate_scheduler(self, program: Program) -> None:
        dispatch_body = []
        for task_name, task_id in sorted(self.task_ids.items(), key=lambda i: i[1]):
            dispatch_body.append(
                f"  if (id == {task_id}) {{ {task_name}(); return; }}")
        dispatch = "\n".join(dispatch_body) if dispatch_body else "  return;"
        source = f"""
uint8_t __tos_queue[{TASK_QUEUE_SIZE}];
uint8_t __tos_head = 0;
uint8_t __tos_count = 0;

bool __tos_post(uint8_t id) {{
  bool ok = false;
  atomic {{
    if (__tos_count < {TASK_QUEUE_SIZE}) {{
      __tos_queue[(uint8_t)((__tos_head + __tos_count) % {TASK_QUEUE_SIZE})] = id;
      __tos_count = __tos_count + 1;
      ok = true;
    }}
  }}
  return ok;
}}

void __tos_dispatch(uint8_t id) {{
{dispatch}
}}

void __tos_run_next_or_sleep(void) {{
  uint8_t id = 0;
  bool have = false;
  atomic {{
    if (__tos_count > 0) {{
      id = __tos_queue[__tos_head];
      __tos_head = (uint8_t)((__tos_head + 1) % {TASK_QUEUE_SIZE});
      __tos_count = __tos_count - 1;
      have = true;
    }}
  }}
  if (have) {{
    __tos_dispatch(id);
  }} else {{
    __sleep();
  }}
}}
"""
        unit = parse_program(source, "__scheduler", self.structs)
        for var in unit.globals:
            var.origin = "__scheduler"
            program.add_global(var)
        for func in unit.functions:
            func.origin = "__scheduler"
            program.add_function(func)

    def _generate_main(self, program: Program) -> None:
        lines: list[str] = []
        for component_name, instance in self.app.boot:
            lines.append(f"  {component_name}__{instance}_init();")
        for component_name, instance in self.app.boot:
            lines.append(f"  {component_name}__{instance}_start();")
        boot_calls = "\n".join(lines)
        source = f"""
__spontaneous void main(void) {{
{boot_calls}
  __enable_interrupts();
  while (1) {{
    __tos_run_next_or_sleep();
  }}
}}
"""
        unit = parse_program(source, "__main", self.structs)
        for func in unit.functions:
            func.origin = "__main"
            program.add_function(func)

    def _register_interrupts(self, program: Program) -> None:
        for context in self.contexts:
            for vector, handler in context.component.interrupts.items():
                name = context.prefixed(handler)
                func = program.lookup_function(name)
                if func is None:
                    raise WiringError(
                        f"{context.component.name}: interrupt handler {handler!r} "
                        "was not found after flattening")
                if vector in program.interrupt_vectors:
                    raise WiringError(f"interrupt vector {vector!r} wired twice")
                func.attributes["interrupt"] = vector
                program.interrupt_vectors[vector] = name
