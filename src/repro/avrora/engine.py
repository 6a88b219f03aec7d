"""Compile-to-closures execution engine for the simulator.

The tree-walking interpreter re-derives everything per executed statement:
it re-dispatches on AST node types, re-reads per-function analyses, keeps
frames in dicts, and models ``return``/``break``/``continue`` with Python
exceptions.  This module applies the translate-once/run-many principle of
dynamic binary translators to the simulator: each :class:`FunctionDef` is
lowered **once** into a flat stream of Python closures ("compiled ops"),
and executing the function is a tight ``pc = ops[pc](frame)`` loop.

The lowering pass resolves at compile time everything the tree-walker
resolves per statement:

* **slot-indexed frames** — every parameter and local gets an integer slot
  in a plain list; no per-call dict, no hashing;
* **names bound once** — each identifier is bound to its slot or to its
  global's index in the running node's global table, with no runtime
  fallback: the parser gives every local one name and the type checker
  rejects a function that declares a name twice or uses a global under a
  local's name, so the flat slot table is C's scoping;
* **precomputed costs** — each statement's cycle cost (statement +
  expression nodes) is folded into its op;
* **structured jumps** — ``if``/loops/``break``/``continue``/``return``
  become next-index threading, not signal exceptions;
* **precomputed analyses** — address-taken sets, struct field offsets,
  element sizes, integer wrap masks are all baked into the closures; the
  operators and wraps are :mod:`repro.cminor.cint`'s, the one C integer
  semantics the build passes also fold with;
* **explicit frames** — the engine is a frame-stack machine: statement-
  level calls (``f(x);``, ``y = f(x);``) are CALL ops that push a
  :class:`CompiledFrame`, and returns pop it, so call chains through the
  flattened TinyOS dispatch layers do not consume Python stack.  Only
  calls nested inside larger expressions recurse (into a fresh machine
  run).  The explicit stack is also what makes execution state inspectable
  and, together with the node's poll-point pause gate, resumable
  (see ``Node.run_until``).

A **shared code cache** keeps each lowering for one scope: no op binds a
node, since every frame carries the running node's :class:`CompiledEngine`
in slot :data:`_CTX`, and ops reach the clock, the event queue, the
counters, memory and the global table through it.  One :class:`CodeCache`
therefore holds each function's whole lowering for every node of a
:class:`~repro.avrora.network.Network`, or for a scenario variant's golden
and faulted runs, and a node joining a warm cache lowers nothing.

Semantics are kept **byte-identical** to the tree-walker (cycle counts,
interrupt delivery points, check failures, radio traffic): ops charge the
same costs in the same order and poll the node at exactly the same points
(after every statement, by default).  The differential test in
``tests/avrora/test_engine_differential.py`` enforces this on every
application in the paper's figure suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, TYPE_CHECKING

from repro.backend.target import cost_model_for
from repro.cminor import ast_nodes as ast
from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import walk_expression
from repro.avrora.memory import (
    MemoryError_,
    MemorySystem,
    Pointer,
    RuntimeValue,
    compare,
    elem_size,
    pointer_arith,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.avrora.node import Node


def _simulation_finished():
    """The node module's end-of-simulation signal (lazy to avoid a cycle)."""
    from repro.avrora.node import _SimulationFinished

    return _SimulationFinished


#: Slot 0 of every frame holds the (eventual) return value.
_RET = 0
#: Slot 1 holds the running node's :class:`CompiledEngine`: the one way an
#: op reaches node state, so one op stream serves every node.
_CTX = 1
#: Slot of a function's first parameter or local.
_FIRST = 2

#: Sentinel "next op index" returned by CALL ops after pushing a callee
#: frame onto the engine's explicit stack.  It compares greater than any
#: real op index, so the machine's hot loop needs no extra test: the inner
#: ``while pc < end`` exits, and the dispatcher re-enters with the new top
#: frame.
_CALL = 1 << 30

#: Closure signature of one compiled op: frame -> next op index.
Op = Callable[[list], int]
#: Closure signature of one compiled expression: frame -> runtime value.
ExprFn = Callable[[list], RuntimeValue]

class _Label:
    """A forward-referenced op index, patched when the target is emitted."""

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: Optional[int] = None


class _LoopCtx:
    """Compile-time context of the innermost enclosing loop."""

    __slots__ = ("break_label", "continue_label", "atomic_depth")

    def __init__(self, break_label: _Label, continue_label: _Label,
                 atomic_depth: int):
        self.break_label = break_label
        self.continue_label = continue_label
        self.atomic_depth = atomic_depth


# ---------------------------------------------------------------------------
# Runtime helpers shared by the generated closures
# ---------------------------------------------------------------------------


def _as_pointer(value: RuntimeValue) -> Pointer:
    if isinstance(value, Pointer):
        return value
    if isinstance(value, int) and value == 0:
        raise MemoryError_("null pointer dereference")
    raise MemoryError_(f"dereference of non-pointer value {value!r}")


# ---------------------------------------------------------------------------
# The code cache: each function's lowering, shared by one scope's nodes
# ---------------------------------------------------------------------------


class CodeCache:
    """Each function's whole lowering for one program and one scope.

    No op binds a node (see :data:`_CTX`), so every node simulating the
    program can run the same :class:`CompiledFunction`.  A cache is scoped
    rather than kept for the program's lifetime: every node of a network
    shares one (:func:`~repro.api.workbench.run_network` makes it), and a
    scenario variant's golden and faulted runs share one
    (:class:`~repro.scenarios.runner.ScenarioRunner`).  Dropped with its
    scope, the ops of a finished simulation never pile up across a
    session's many programs.

    :meth:`plan_for` is the one lowering entry point; ``lowerings`` counts
    the functions it lowered and ``plan_hits`` the requests an existing
    lowering served.  The cache registers with the program's analysis
    cache, so a pass that mutates the program after lowering drops every
    lowering (:meth:`invalidate`).  Lowering takes a lock: two networks
    on two threads may share one cache.
    """

    def __init__(self, program: Program):
        self.program = program
        self.costs = cost_model_for(program.platform)
        self.pointer_size = self.costs.platform.pointer_bytes
        self.functions: dict[str, CompiledFunction] = {}
        self.lowerings = 0
        self.plan_hits = 0
        self._lock = threading.Lock()
        self._index_globals()
        program.analysis().attach_code_cache(self)

    def _index_globals(self) -> None:
        #: Every global's index in a node's global table (see
        #: :meth:`CompiledEngine._bind_globals`); a new tuple whenever the
        #: program's globals may have changed, so nodes rebind.
        self.global_names = tuple(self.program.globals)
        self.global_index = {name: index
                             for index, name in enumerate(self.global_names)}

    def plan_for(self, name: str) -> CompiledFunction:
        """Function ``name``'s lowering, lowered on a miss."""
        with self._lock:
            cf = self.functions.get(name)
            if cf is not None:
                self.plan_hits += 1
                return cf
            func = self.program.lookup_function(name)
            if func is None:
                raise KeyError(f"call to unknown function {name!r}")
            cf = _FunctionCompiler(self, func).compile()
            self.functions[name] = cf
            self.lowerings += 1
            return cf

    def invalidate(self) -> None:
        """Drop every lowering after an AST mutation.

        All of them, not just the mutated function's: a caller's CALL op
        keeps the callee lowering it first resolved, and its argument
        conversions bake in the callee's parameter types.
        """
        with self._lock:
            self.functions.clear()
            self._index_globals()


# ---------------------------------------------------------------------------
# Compiled function format
# ---------------------------------------------------------------------------


class CompiledFunction:
    """One lowered function: a flat op stream plus its frame layout."""

    __slots__ = ("name", "ops", "end", "nslots", "params", "nparams",
                 "flat_params", "default_return", "has_atomic")

    def __init__(self, name: str, ops: list[Op], nslots: int,
                 params: tuple, default_return: Optional[int],
                 has_atomic: bool):
        self.name = name
        self.ops = ops
        self.end = len(ops)
        self.nslots = nslots
        #: Per-parameter plan: (slot, taken, ctype, size, storage_name).
        self.params = params
        self.nparams = len(params)
        #: True when arguments can be sliced straight into the frame: no
        #: address-taken parameters, and parameter slots follow
        #: :data:`_FIRST` in order.
        self.flat_params = all(
            plan[0] == _FIRST + index and not plan[1]
            for index, plan in enumerate(params))
        self.default_return = default_return
        self.has_atomic = has_atomic


class CompiledFrame:
    """One activation record on the engine's explicit call stack.

    Call and return are machine transitions, not Python recursion: a CALL
    op builds the callee's frame, parks the caller's resume index in
    ``pc``, and pushes the callee; when the callee's op stream runs off its
    end, the machine pops the frame and routes ``slots[0]`` through
    ``ret_store`` into the caller.
    """

    __slots__ = ("cf", "slots", "pc", "ret_store", "depth0")

    def __init__(self, cf: CompiledFunction, slots: list, depth0: int):
        self.cf = cf
        self.slots = slots
        #: Resume index: 0 on entry; a CALL op parks its continuation here.
        self.pc = 0
        #: Where the callee's return value goes in the caller's frame
        #: (``None`` discards it — plain call statements).
        self.ret_store: Optional[Callable[[list, RuntimeValue], None]] = None
        #: ``node.atomic_depth`` at frame entry, restored when a terminal
        #: exception unwinds through this frame's open atomic sections.
        self.depth0 = depth0


class CompiledEngine:
    """Executes a :class:`CodeCache`'s ops for one node.

    Public API mirrors the tree-walking interpreter: :meth:`call` invokes a
    program function by name with already-evaluated arguments.  The engine
    is also the node's execution context: every frame holds it in slot
    :data:`_CTX`, and the ops read the node's clock, event queue and
    memory, the statement counter, the frame stack and the global table
    from it.

    Statement-level calls (``f(x);`` and ``y = f(x);`` — the dominant
    shapes in flattened TinyOS code) execute as CALL ops that push a
    :class:`CompiledFrame` onto the machine stack; returns pop it.  Calls
    nested inside larger expressions enter a nested machine run.
    """

    __slots__ = ("node", "memory", "cache", "eq", "pi", "poll", "overhead",
                 "stack", "statements_executed", "gobj", "gdata", "gptr",
                 "_layout")

    def __init__(self, node: "Node", cache: CodeCache):
        if cache.program is not node.program:
            raise ValueError("a code cache serves the nodes of one program")
        self.node = node
        self.memory: MemorySystem = node.memory
        self.cache = cache
        # The event queue and pending-interrupt containers are mutated in
        # place by the node and never reassigned, so the engine holds the
        # objects; the ops' poll guard replicates the no-op test at the top
        # of ``Node.poll`` and their accounting ``Node.consume`` exactly.
        self.eq = node._event_queue
        self.pi = node.pending_interrupts
        self.poll = node.poll
        self.overhead = cache.costs.function_overhead_cycles()
        #: Frame stack of the innermost machine run currently executing.
        #: CALL ops push onto it directly; nested runs (interrupt handlers,
        #: expression-position calls) save and restore it.
        self.stack: list[CompiledFrame] = []
        self.statements_executed = 0
        #: The node's global table, by :attr:`CodeCache.global_index`:
        #: each global's memory object, its byte buffer, and a pointer to
        #: it.  Bound on the first call (boot has allocated the objects by
        #: then, and never replaces them; restores mutate them in place).
        self.gobj: list = []
        self.gdata: list = []
        self.gptr: list = []
        self._layout: Optional[tuple] = None

    def _bind_globals(self) -> None:
        """Point the global table at this node's memory objects."""
        names = self.cache.global_names
        objects = self.memory.objects
        try:
            gobj = [objects[name] for name in names]
        except KeyError as missing:
            raise RuntimeError(
                f"no storage for global {missing.args[0]!r}: boot the node "
                "before running it") from None
        self.gobj = gobj
        self.gdata = [obj.data for obj in gobj]
        self.gptr = [Pointer(obj, 0) for obj in gobj]
        self._layout = names

    # -- public API -------------------------------------------------------------

    def call(self, name: str, args: Optional[list[RuntimeValue]] = None
             ) -> Optional[RuntimeValue]:
        """Call a program function by name with already-evaluated arguments.

        Each argument is converted to its parameter's type, as a call
        site's compiled arguments are (see
        :meth:`_FunctionCompiler._compile_args`).
        """
        cache = self.cache
        cf = cache.functions.get(name)
        if cf is None:
            cf = cache.plan_for(name)
        if self._layout is not cache.global_names:
            self._bind_globals()
        args = args or []
        if args and len(args) == cf.nparams:
            args = [cint.wrap_to(plan[2], value)
                    if plan[2].is_integer() and isinstance(value, int)
                    else value for plan, value in zip(cf.params, args)]
        return self._run_machine(self._new_frame(cf, args))

    # -- execution --------------------------------------------------------------

    def _new_frame(self, cf: CompiledFunction,
                   args: list[RuntimeValue]) -> CompiledFrame:
        """Build an activation record: slots, parameters, entry overhead."""
        nparams = cf.nparams
        if len(args) != nparams:
            raise TypeError(
                f"{cf.name}() takes {nparams} argument(s) "
                f"but {len(args)} were given")
        slots = [None] * cf.nslots
        slots[_RET] = cf.default_return
        slots[_CTX] = self
        if cf.flat_params:
            if nparams:
                slots[_FIRST:_FIRST + nparams] = args
        else:
            memory = self.memory
            for plan, value in zip(cf.params, args):
                slot, taken, ctype, size, storage_name = plan
                if taken:
                    obj = memory.allocate(storage_name, size, kind="local")
                    memory.write(Pointer(obj, 0), ctype, value)
                    slots[slot] = obj
                else:
                    slots[slot] = value
        node = self.node
        t = node.time_cycles + self.overhead
        node.time_cycles = t
        if node.end_cycles and t >= node.end_cycles:
            raise _simulation_finished()()
        return CompiledFrame(cf, slots, node.atomic_depth)

    def _run_machine(self, frame: CompiledFrame) -> Optional[RuntimeValue]:
        """Run one machine: dispatch the top frame until the stack drains.

        The inner loop is the engine's hot path and is unchanged from the
        recursive design: ``pc = ops[pc](slots)``.  A CALL op pushes the
        callee and returns :data:`_CALL` (>= any real index), so call
        handling costs the straight-line path nothing.
        """
        stack = [frame]
        prev = self.stack
        self.stack = stack
        node = self.node
        try:
            while True:
                top = stack[-1]
                ops = top.cf.ops
                end = top.cf.end
                slots = top.slots
                pc = top.pc
                try:
                    while pc < end:
                        pc = ops[pc](slots)
                except BaseException:
                    # Mirror the tree-walker's ``finally`` blocks: a
                    # terminal exception (simulation end, halt, safety
                    # fault) unwinding through open atomic sections
                    # restores each frame's entry depth, innermost first.
                    for open_frame in reversed(stack):
                        if open_frame.cf.has_atomic:
                            node.atomic_depth = open_frame.depth0
                    raise
                if pc != end:
                    continue  # a CALL op pushed a new top frame
                value = slots[_RET]
                stack.pop()
                if not stack:
                    return value
                store = top.ret_store
                if store is not None:
                    store(stack[-1].slots, value if value is not None else 0)
        finally:
            self.stack = prev

    # -- lenient memory access (identical to the tree-walker) --------------------

    def _memory_read(self, pointer: Pointer, ctype: ty.CType) -> RuntimeValue:
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


# ---------------------------------------------------------------------------
# The lowering pass
# ---------------------------------------------------------------------------


class _FunctionCompiler:
    """Lowers one ``FunctionDef`` into a :class:`CompiledFunction`."""

    def __init__(self, cache: CodeCache, func: ast.FunctionDef):
        self.cache = cache
        self.func = func
        self.program = cache.program
        self.costs = cache.costs
        self.pointer_size = cache.pointer_size
        self.analysis = self.program.analysis()
        self.taken = self.analysis.address_taken_locals(func)
        # Frame layout: slots 0 and 1 are the return value and the node
        # context; every parameter and local gets a slot (the checker has
        # made each name one variable).
        self.slots: dict[str, int] = {
            name: _FIRST + index
            for index, name in enumerate(self.analysis.local_types(func))}

        self.ops: list = []
        self.end_label = _Label()
        self.loop_stack: list[_LoopCtx] = []
        self.atomic_depth = 0
        self.has_atomic = False
        self._sf = _simulation_finished()

    # -- emission helpers -------------------------------------------------------

    def _emit(self, op: Op) -> int:
        index = len(self.ops)
        self.ops.append(op)
        return index

    def _emit_pending(self, maker: Callable[..., Op], *labels: _Label) -> int:
        index = len(self.ops)
        self.ops.append((maker, labels))
        return index

    def _bind(self, label: _Label) -> None:
        label.index = len(self.ops)

    def _finalize(self) -> None:
        self._bind(self.end_label)
        for index, entry in enumerate(self.ops):
            if isinstance(entry, tuple):
                maker, labels = entry
                self.ops[index] = maker(*(label.index for label in labels))

    # -- costs ------------------------------------------------------------------

    def _stmt_cost(self, stmt: ast.Stmt) -> int:
        """``stmt``'s cycle cost: the statement's plus its expressions'."""
        costs = self.costs
        cycles = costs.stmt_cycles(stmt)
        for expr in self.analysis.statement_expressions(stmt, self.func.name):
            for node in walk_expression(expr):
                cycles += costs.expr_cycles(node)
        return max(cycles, 1)

    # -- top level --------------------------------------------------------------

    def compile(self) -> CompiledFunction:
        func = self.func
        self._compile_block(func.body)
        self._finalize()
        params = tuple(
            (self.slots[param.name], param.name in self.taken, param.ctype,
             param.ctype.sizeof(self.pointer_size),
             f"{func.name}.{param.name}")
            for param in func.params)
        default_return = None if func.return_type.is_void() else 0
        return CompiledFunction(func.name, self.ops, _FIRST + len(self.slots),
                                params, default_return, self.has_atomic)

    def _compile_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._compile_stmt(stmt)

    # -- statements -------------------------------------------------------------
    #
    # Every statement op opens the same way: count the statement, charge
    # its cost (``Node.consume`` inlined) and stop at the end of simulated
    # time; a simple statement then closes with the poll guard (the no-op
    # test at the top of ``Node.poll``).  Both reach the node through the
    # frame's context slot.

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        """Emit the ops for one statement of a block.

        Every statement ends in a poll, as in the tree-walker's
        ``_exec_block``; the parser's normal form leaves no statement that
        runs outside a block.
        """
        if isinstance(stmt, ast.Block):
            self._emit_entry(self._stmt_cost(stmt))
            self._compile_block(stmt)
            self._emit_poll()
        elif isinstance(stmt, ast.VarDecl):
            self._compile_vardecl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._compile_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._compile_exprstmt(stmt)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._compile_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._compile_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._compile_continue(stmt)
        elif isinstance(stmt, ast.Atomic):
            self._compile_atomic(stmt)
        else:
            # ``Post`` (must be lowered before simulation) and any unknown
            # statement kind: charge the cost, then fail — exactly like the
            # tree-walker, and only if the statement is actually reached.
            cost = self._stmt_cost(stmt)
            if isinstance(stmt, ast.Post):
                message = "post statements must be lowered before simulation"
            else:
                message = f"cannot execute {type(stmt).__name__}"

            def op(frame: list, _cost=cost, _message=message) -> int:
                c = frame[1]
                c.statements_executed += 1
                c.node.consume(_cost)
                raise RuntimeError(_message)

            self._emit(op)

    def _emit_entry(self, cost: int) -> int:
        """A bare statement-entry op: count, consume, fall through."""
        nxt = len(self.ops) + 1

        def op(frame: list, _cost=cost, _sf=self._sf, _nxt=nxt) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            return _nxt

        return self._emit(op)

    def _emit_poll(self) -> int:
        nxt = len(self.ops) + 1

        def op(frame: list, _nxt=nxt) -> int:
            c = frame[1]
            eq = c.eq
            if (eq and eq[0][0] <= c.node.time_cycles) or c.pi:
                c.poll()
            return _nxt

        return self._emit(op)

    def _emit_jump(self, target: int) -> int:
        def op(frame: list, _t=target) -> int:
            return _t

        return self._emit(op)

    def _emit_jump_pending(self, label: _Label) -> int:
        def maker(target: int) -> Op:
            def op(frame: list, _t=target) -> int:
                return _t

            return op

        return self._emit_pending(maker, label)

    # -- simple statements ------------------------------------------------------

    def _compile_call_stmt(self, cost: int, call: ast.Call,
                           store: Optional[Callable]) -> None:
        """A statement-level program call: one CALL op on the frame stack.

        Replicates the recursive path exactly — statement entry accounting,
        argument evaluation order, lazy callee resolution, arity check,
        parameter setup and call overhead (the latter three inside
        ``_new_frame``) — but transfers control by pushing a
        :class:`CompiledFrame` instead of recursing into Python.  ``store``
        receives the return value in the caller's frame (``None``
        discards it).  The callee's lowering is looked up in the node's
        code cache on the op's first run and kept in the op: it is the
        same for every node sharing the cache.
        """
        args = self._compile_args(call)
        resume = len(self.ops) + 1

        def op(frame: list, _cost=cost, _sf=self._sf, _name=call.callee,
               _args=args, _cf_cell=[None], _store=store,
               _resume=resume) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            cf = _cf_cell[0]
            if cf is None:
                cf = _cf_cell[0] = c.cache.plan_for(_name)
            callee = c._new_frame(cf, [a(frame) for a in _args])
            callee.ret_store = _store
            stack = c.stack
            stack[-1].pc = _resume
            stack.append(callee)
            return _CALL

        self._emit(op)
        self._emit_poll()

    def _compile_exprstmt(self, stmt: ast.ExprStmt) -> None:
        cost = self._stmt_cost(stmt)
        if isinstance(stmt.expr, ast.Call) and \
                stmt.expr.callee not in self.program.builtins:
            self._compile_call_stmt(cost, stmt.expr, None)
            return
        self._emit_effect(cost, self._compile_expr(stmt.expr))

    def _compile_vardecl(self, stmt: ast.VarDecl) -> None:
        """A declaration's op: a memory object for an address-taken or
        aggregate local, else its slot's initial value."""
        cost = self._stmt_cost(stmt)
        slot = self.slots[stmt.name]
        aggregate = isinstance(stmt.ctype, (ty.ArrayType, ty.StructType))
        if stmt.name in self.taken or aggregate:
            size = stmt.ctype.sizeof(self.pointer_size)
            storage = f"local.{stmt.name}"
            init_value: Optional[ExprFn] = None
            init_bytes: Optional[bytes] = None
            if stmt.init is not None and stmt.ctype.is_scalar():
                init_value = self._compile_expr(stmt.init)
            elif isinstance(stmt.init, ast.StringLiteral) and \
                    isinstance(stmt.ctype, ty.ArrayType):
                encoded = stmt.init.value.encode("latin-1", errors="replace")
                init_bytes = encoded[:stmt.ctype.length]
            ctype = stmt.ctype

            def work(frame: list, _storage=storage, _size=size, _slot=slot,
                     _iv=init_value, _ib=init_bytes, _ct=ctype) -> None:
                memory = frame[1].memory
                obj = memory.allocate(_storage, _size, kind="local")
                frame[_slot] = obj
                if _iv is not None:
                    memory.write(Pointer(obj, 0), _ct, _iv(frame))
                elif _ib is not None:
                    obj.data[0:len(_ib)] = _ib

            self._emit_effect(cost, work)
            return

        init = self._compile_expr(stmt.init) if stmt.init is not None else None
        wrap = cint.make_wrap(stmt.ctype) if stmt.ctype.is_integer() else None

        def work(frame: list, _slot=slot, _init=init, _wrap=wrap) -> None:
            if _init is None:
                frame[_slot] = 0
            else:
                value = _init(frame)
                if _wrap is not None and isinstance(value, int):
                    value = _wrap(value)
                frame[_slot] = value

        self._emit_effect(cost, work)

    def _emit_effect(self, cost: int, work: Callable[[list], object]) -> None:
        """A simple statement op: account, run ``work(frame)``, poll."""
        nxt = len(self.ops) + 1

        def op(frame: list, _cost=cost, _w=work, _sf=self._sf,
               _nxt=nxt) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            _w(frame)
            eq = c.eq
            if (eq and eq[0][0] <= n.time_cycles) or c.pi:
                c.poll()
            return _nxt

        self._emit(op)

    def _compile_assign(self, stmt: ast.Assign) -> None:
        cost = self._stmt_cost(stmt)
        if isinstance(stmt.rvalue, ast.Call) and \
                stmt.rvalue.callee not in self.program.builtins:
            self._compile_call_stmt(cost, stmt.rvalue,
                                    self._compile_store(stmt.lvalue))
            return
        rvalue = self._compile_expr(stmt.rvalue)
        if self._try_inline_assign(stmt, cost, rvalue):
            return
        store = self._compile_store(stmt.lvalue)
        nxt = len(self.ops) + 1

        def op(frame: list, _cost=cost, _rv=rvalue, _st=store, _sf=self._sf,
               _nxt=nxt) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            _st(frame, _rv(frame))
            eq = c.eq
            if (eq and eq[0][0] <= n.time_cycles) or c.pi:
                c.poll()
            return _nxt

        self._emit(op)

    # -- control flow -----------------------------------------------------------

    def _compile_if(self, stmt: ast.If) -> None:
        cost = self._stmt_cost(stmt)
        cond = self._compile_expr(stmt.cond)
        then_index = len(self.ops) + 1
        else_label = _Label()

        def maker(else_index: int, _cost=cost, _cond=cond, _sf=self._sf,
                  _then=then_index) -> Op:
            def op(frame: list) -> int:
                c = frame[1]
                c.statements_executed += 1
                n = c.node
                t = n.time_cycles + _cost
                n.time_cycles = t
                if n.end_cycles and t >= n.end_cycles:
                    raise _sf()
                return _then if _cond(frame) != 0 else else_index

            return op

        self._emit_pending(maker, else_label)
        self._compile_block(stmt.then_body)
        if stmt.else_body is not None:
            merge_label = _Label()
            self._emit_jump_pending(merge_label)
            self._bind(else_label)
            self._compile_block(stmt.else_body)
            self._bind(merge_label)
        else:
            self._bind(else_label)
        self._emit_poll()

    def _compile_while(self, stmt: ast.While) -> None:
        cost = self._stmt_cost(stmt)
        self._emit_entry(cost)
        cond = self._compile_expr(stmt.cond)
        branch_cycles = self.costs.branch_cycles
        exit_label = _Label()
        cond_label = _Label()
        self._bind(cond_label)
        cond_index = len(self.ops)
        body_index = cond_index + 1

        def maker(exit_index: int, _cond=cond, _bc=branch_cycles,
                  _sf=self._sf, _body=body_index) -> Op:
            def op(frame: list) -> int:
                if _cond(frame) != 0:
                    n = frame[1].node
                    t = n.time_cycles + _bc
                    n.time_cycles = t
                    if n.end_cycles and t >= n.end_cycles:
                        raise _sf()
                    return _body
                return exit_index

            return op

        self._emit_pending(maker, exit_label)
        self.loop_stack.append(
            _LoopCtx(exit_label, cond_label, self.atomic_depth))
        self._compile_block(stmt.body)
        self.loop_stack.pop()
        self._emit_jump(cond_index)
        self._bind(exit_label)
        self._emit_poll()

    def _compile_return(self, stmt: ast.Return) -> None:
        cost = self._stmt_cost(stmt)
        value = None if stmt.value is None else \
            self._compile_converted(stmt.value, self.func.return_type)
        unwind = self.atomic_depth

        def maker(end_index: int, _cost=cost, _v=value, _sf=self._sf,
                  _unwind=unwind) -> Op:
            def op(frame: list) -> int:
                c = frame[1]
                c.statements_executed += 1
                n = c.node
                t = n.time_cycles + _cost
                n.time_cycles = t
                if n.end_cycles and t >= n.end_cycles:
                    raise _sf()
                frame[_RET] = _v(frame) if _v is not None else None
                if _unwind:
                    n.atomic_depth -= _unwind
                return end_index

            return op

        self._emit_pending(maker, self.end_label)

    def _compile_break(self, stmt: ast.Break) -> None:
        self._compile_loop_exit(stmt, continue_=False)

    def _compile_continue(self, stmt: ast.Continue) -> None:
        self._compile_loop_exit(stmt, continue_=True)

    def _compile_loop_exit(self, stmt: ast.Stmt, continue_: bool) -> None:
        # The type checker puts every break and continue inside a loop.
        cost = self._stmt_cost(stmt)
        ctx = self.loop_stack[-1]
        label = ctx.continue_label if continue_ else ctx.break_label
        unwind = self.atomic_depth - ctx.atomic_depth

        def maker(target: int, _cost=cost, _sf=self._sf,
                  _unwind=unwind) -> Op:
            def op(frame: list) -> int:
                c = frame[1]
                c.statements_executed += 1
                n = c.node
                t = n.time_cycles + _cost
                n.time_cycles = t
                if n.end_cycles and t >= n.end_cycles:
                    raise _sf()
                if _unwind:
                    n.atomic_depth -= _unwind
                return target

            return op

        self._emit_pending(maker, label)

    def _compile_atomic(self, stmt: ast.Atomic) -> None:
        self.has_atomic = True
        cost = self._stmt_cost(stmt)
        nxt = len(self.ops) + 1

        def enter(frame: list, _cost=cost, _sf=self._sf, _nxt=nxt) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            n.atomic_depth += 1
            return _nxt

        self._emit(enter)
        self.atomic_depth += 1
        self._compile_block(stmt.body)
        self.atomic_depth -= 1
        exit_nxt = len(self.ops) + 1

        def leave(frame: list, _nxt=exit_nxt) -> int:
            frame[1].node.atomic_depth -= 1
            return _nxt

        self._emit(leave)
        self._emit_poll()

    # -- stores -----------------------------------------------------------------

    def _try_inline_assign(self, stmt: ast.Assign, cost: int,
                           rvalue: ExprFn) -> bool:
        """Fuse the two hottest store shapes straight into the assign op.

        Covers (a) scalar locals and (b) integer globals; both replicate
        ``_compile_store`` exactly, minus one closure call.
        """
        lvalue = stmt.lvalue
        if not isinstance(lvalue, ast.Identifier):
            return False
        name = lvalue.name
        nxt = len(self.ops) + 1
        slot = self.slots.get(name)
        if slot is not None:
            if name in self.taken:
                return False
            ctype = lvalue.ctype
            wrap = cint.make_wrap(ctype) if ctype is not None and \
                ctype.is_integer() else None

            def op(frame: list, _cost=cost, _rv=rvalue, _slot=slot, _w=wrap,
                   _sf=self._sf, _nxt=nxt) -> int:
                c = frame[1]
                c.statements_executed += 1
                n = c.node
                t = n.time_cycles + _cost
                n.time_cycles = t
                if n.end_cycles and t >= n.end_cycles:
                    raise _sf()
                value = _rv(frame)
                if _w is not None and isinstance(value, int):
                    value = _w(value)
                frame[_slot] = value
                eq = c.eq
                if (eq and eq[0][0] <= n.time_cycles) or c.pi:
                    c.poll()
                return _nxt

            self._emit(op)
            return True
        index = self._global_index(name)
        size = self._global_int_size(lvalue)
        if size is None:
            return False
        ctype = lvalue.ctype or ty.UINT8
        mask = (1 << (8 * size)) - 1

        def op(frame: list, _cost=cost, _rv=rvalue, _k=index, _size=size,
               _mask=mask, _ct=ctype, _sf=self._sf, _nxt=nxt) -> int:
            c = frame[1]
            c.statements_executed += 1
            n = c.node
            t = n.time_cycles + _cost
            n.time_cycles = t
            if n.end_cycles and t >= n.end_cycles:
                raise _sf()
            value = _rv(frame)
            if type(value) is int:
                obj = c.gobj[_k]
                if obj.pointer_slots:
                    obj.pointer_slots.pop(0, None)
                obj.data[0:_size] = (value & _mask).to_bytes(_size, "little")
            else:
                c._memory_write(c.gptr[_k], _ct, value)
            eq = c.eq
            if (eq and eq[0][0] <= n.time_cycles) or c.pi:
                c.poll()
            return _nxt

        self._emit(op)
        return True

    def _compile_store(self, lvalue: ast.Expr
                       ) -> Callable[[list, RuntimeValue], None]:
        """A closure ``store(frame, value)`` mirroring ``_store``."""
        if isinstance(lvalue, ast.Identifier):
            slot = self.slots.get(lvalue.name)
            if slot is None:
                size = self._global_int_size(lvalue)
                if size is not None:
                    return self._compile_global_write(lvalue, size)
            elif lvalue.name not in self.taken:
                # Scalar local: slot store with the tree-walker's wrap rule.
                ctype = lvalue.ctype
                wrap = cint.make_wrap(ctype) if ctype is not None and \
                    ctype.is_integer() else None

                def store(frame: list, value: RuntimeValue, _slot=slot,
                          _wrap=wrap) -> None:
                    if _wrap is not None and isinstance(value, int):
                        value = _wrap(value)
                    frame[_slot] = value

                return store

        locate = self._compile_locate(lvalue)
        ctype = lvalue.ctype or ty.UINT8

        def store(frame: list, value: RuntimeValue, _loc=locate,
                  _ct=ctype) -> None:
            frame[1]._memory_write(_loc(frame), _ct, value)

        return store

    def _global_index(self, name: str) -> int:
        """Global ``name``'s index in a node's global table.

        Lowering binds every identifier: a parameter or local to its slot,
        anything else to a global.
        """
        index = self.cache.global_index.get(name)
        if index is None:
            raise RuntimeError(f"{self.func.name}: {name!r} is neither a "
                               "local nor a global")
        return index

    def _global_int_size(self, lvalue: ast.Identifier) -> Optional[int]:
        """Bytes of an integer store to a global that fit its object.

        A ``bool`` store takes the memory path, which makes it 0 or 1.
        """
        ctype = lvalue.ctype or ty.UINT8
        if not isinstance(ctype, (ty.IntType, ty.CharType)):
            return None
        size = ctype.sizeof(self.pointer_size)
        declared = self.program.globals[lvalue.name].ctype
        if size > max(declared.sizeof(self.pointer_size), 1):
            return None
        return size

    def _compile_global_write(self, lvalue: ast.Identifier, size: int
                              ) -> Callable[[list, RuntimeValue], None]:
        """Store ``size`` integer bytes to a global, straight into them."""
        ctype = lvalue.ctype or ty.UINT8
        index = self._global_index(lvalue.name)
        mask = (1 << (8 * size)) - 1

        def store(frame: list, value: RuntimeValue, _k=index, _ct=ctype,
                  _size=size, _mask=mask) -> None:
            c = frame[1]
            if type(value) is int:
                obj = c.gobj[_k]
                if obj.pointer_slots:
                    obj.pointer_slots.pop(0, None)
                obj.data[0:_size] = (value & _mask).to_bytes(_size, "little")
            else:
                c._memory_write(c.gptr[_k], _ct, value)

        return store

    # -- lvalue location --------------------------------------------------------

    def _compile_locate(self, lvalue: ast.Expr) -> Callable[[list], Pointer]:
        """A closure computing an lvalue's location; mirrors ``_locate``."""
        if isinstance(lvalue, ast.Identifier):
            slot = self.slots.get(lvalue.name)
            if slot is None:
                index = self._global_index(lvalue.name)
                return lambda frame, _k=index: frame[1].gptr[_k]
            # Only address-taken locals are located; their slot holds the
            # memory object from the declaration.
            return lambda frame, _slot=slot: Pointer(frame[_slot], 0)
        if isinstance(lvalue, ast.Deref):
            pointer = self._compile_expr(lvalue.pointer)

            def locate(frame: list, _p=pointer) -> Pointer:
                return _as_pointer(_p(frame))

            return locate
        if isinstance(lvalue, ast.Index):
            base_type = lvalue.base.ctype
            index = self._compile_expr(lvalue.index)
            if isinstance(base_type, ty.ArrayType):
                base = self._compile_locate(lvalue.base)
                elem = base_type.element.sizeof(self.pointer_size)

                def locate(frame: list, _i=index, _b=base,
                           _e=elem) -> Pointer:
                    offset = _i(frame)
                    if not isinstance(offset, int):
                        raise MemoryError_("non-integer array index")
                    location = _b(frame)
                    return Pointer(location.obj,
                                   location.offset + offset * _e)

                return locate
            base_value = self._compile_expr(lvalue.base)
            elem = 1
            if base_type is not None:
                target = base_type.decay()
                if isinstance(target, ty.PointerType):
                    elem = target.target.sizeof(self.pointer_size)

            def locate(frame: list, _i=index, _b=base_value,
                       _e=elem) -> Pointer:
                offset = _i(frame)
                if not isinstance(offset, int):
                    raise MemoryError_("non-integer array index")
                location = _as_pointer(_b(frame))
                return Pointer(location.obj, location.offset + offset * _e)

            return locate
        if isinstance(lvalue, ast.Member):
            struct_type = lvalue.base.ctype
            if lvalue.arrow and isinstance(struct_type, ty.PointerType):
                struct_type = struct_type.target
            if not isinstance(struct_type, ty.StructType):
                def locate(frame: list) -> Pointer:
                    raise MemoryError_("member access on a non-struct value")

                return locate
            resolved = self.program.structs.get(struct_type.name) or \
                struct_type
            offset = resolved.field_offset(lvalue.fieldname,
                                           self.pointer_size)
            if lvalue.arrow:
                base_value = self._compile_expr(lvalue.base)

                def locate(frame: list, _b=base_value, _o=offset) -> Pointer:
                    location = _as_pointer(_b(frame))
                    return Pointer(location.obj, location.offset + _o)

                return locate
            base = self._compile_locate(lvalue.base)

            def locate(frame: list, _b=base, _o=offset) -> Pointer:
                location = _b(frame)
                return Pointer(location.obj, location.offset + _o)

            return locate
        kind = type(lvalue).__name__

        def locate(frame: list, _kind=kind) -> Pointer:
            raise MemoryError_(f"not an lvalue: {_kind}")

        return locate

    # -- expressions ------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> ExprFn:
        if isinstance(expr, ast.IntLiteral):
            value = expr.value
            return lambda frame, _v=value: _v
        if isinstance(expr, ast.StringLiteral):
            text = expr.value
            return lambda frame, _t=text: \
                Pointer(frame[1].memory.string_literal(_t), 0)
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Deref):
            pointer = self._compile_expr(expr.pointer)
            ctype = expr.ctype or ty.UINT8

            def deref(frame: list, _p=pointer, _ct=ctype) -> RuntimeValue:
                return frame[1]._memory_read(_as_pointer(_p(frame)), _ct)

            return deref
        if isinstance(expr, ast.AddressOf):
            return self._compile_locate(expr.lvalue)
        if isinstance(expr, (ast.Index, ast.Member)):
            if isinstance(expr.ctype, ty.ArrayType):
                return self._compile_locate(expr)
            locate = self._compile_locate(expr)
            ctype = expr.ctype or ty.UINT8

            def load(frame: list, _loc=locate, _ct=ctype) -> RuntimeValue:
                return frame[1]._memory_read(_loc(frame), _ct)

            return load
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.Cast):
            return self._compile_cast(expr)
        if isinstance(expr, ast.SizeOf):
            value = expr.of_type.sizeof(self.pointer_size)
            return lambda frame, _v=value: _v
        if isinstance(expr, ast.Ternary):
            cond = self._compile_expr(expr.cond)
            then = self._compile_expr(expr.then)
            otherwise = self._compile_expr(expr.otherwise)

            def ternary(frame: list, _c=cond, _t=then,
                        _o=otherwise) -> RuntimeValue:
                return _t(frame) if _c(frame) != 0 else _o(frame)

            return ternary
        kind = type(expr).__name__

        def unknown(frame: list, _kind=kind) -> RuntimeValue:
            raise RuntimeError(f"cannot evaluate {_kind}")

        return unknown

    def _compile_identifier(self, expr: ast.Identifier) -> ExprFn:
        name = expr.name
        slot = self.slots.get(name)
        if slot is not None:
            if name not in self.taken:
                return lambda frame, _slot=slot: frame[_slot]
            if isinstance(expr.ctype, ty.ArrayType):
                return lambda frame, _slot=slot: Pointer(frame[_slot], 0)
            ctype = expr.ctype or ty.UINT8

            def load(frame: list, _slot=slot, _ct=ctype) -> RuntimeValue:
                return frame[1].memory.read(Pointer(frame[_slot], 0), _ct)

            return load

        # Global variable: the tree-walker reads with the *declared* type,
        # from the running node's global table.
        index = self._global_index(name)
        ctype = self.program.globals[name].ctype
        if isinstance(ctype, (ty.ArrayType, ty.StructType)):
            return lambda frame, _k=index: frame[1].gptr[_k]
        if isinstance(ctype, ty.IntType):
            size = ctype.sizeof(self.pointer_size)
            if not ctype.signed:
                def load(frame: list, _k=index, _size=size) -> RuntimeValue:
                    return int.from_bytes(frame[1].gdata[_k][0:_size],
                                          "little")

                return load
            maxv = ctype.max_value
            span = 1 << ctype.bits

            def load(frame: list, _k=index, _size=size, _maxv=maxv,
                     _span=span) -> RuntimeValue:
                raw = int.from_bytes(frame[1].gdata[_k][0:_size], "little")
                return raw - _span if raw > _maxv else raw

            return load
        if isinstance(ctype, ty.CharType):
            def load(frame: list, _k=index) -> RuntimeValue:
                raw = frame[1].gdata[_k][0]
                return raw - 0x100 if raw > 0x7F else raw

            return load
        if isinstance(ctype, ty.PointerType):
            size = ctype.sizeof(self.pointer_size)

            def load(frame: list, _k=index, _size=size) -> RuntimeValue:
                obj = frame[1].gobj[_k]
                stored = obj.pointer_slots.get(0)
                if stored is not None:
                    return stored
                return int.from_bytes(obj.data[0:_size], "little")

            return load

        def load(frame: list, _k=index, _ct=ctype) -> RuntimeValue:
            c = frame[1]
            return c.memory.read(c.gptr[_k], _ct)

        return load

    def _compile_binary(self, expr: ast.BinaryOp) -> ExprFn:
        op = expr.op
        left = self._compile_expr(expr.left)
        right = self._compile_expr(expr.right)
        if op == "&&":
            def and_(frame: list, _l=left, _r=right) -> int:
                if _l(frame) == 0:
                    return 0
                return 1 if _r(frame) != 0 else 0

            return and_
        if op == "||":
            def or_(frame: list, _l=left, _r=right) -> int:
                if _l(frame) != 0:
                    return 1
                return 1 if _r(frame) != 0 else 0

            return or_
        if op in cint.COMPARISONS:
            return self._compile_comparison(op, expr, left, right)
        intf = cint.BINARY_OPS[op]
        ctype = expr.ctype
        wrap = cint.make_wrap(ctype) if ctype is not None and \
            ctype.is_integer() else None
        left_elem = elem_size(expr.left.ctype, self.pointer_size)
        right_elem = elem_size(expr.right.ctype, self.pointer_size)

        def slow(a: RuntimeValue, b: RuntimeValue, _op=op, _f=intf,
                 _wrap=wrap, _le=left_elem, _re=right_elem) -> RuntimeValue:
            if isinstance(a, Pointer) or isinstance(b, Pointer):
                return pointer_arith(_op, a, b, _le, _re)
            result = _f(int(a), int(b))
            return _wrap(result) if _wrap is not None else result

        # Specialized shapes for the overwhelmingly common cases: unsigned
        # result types (wrap is a plain mask) and literal right operands.
        # These fold the operator and the wrap into the closure body,
        # saving two function calls per evaluation.
        rconst = expr.right.value if isinstance(expr.right, ast.IntLiteral) \
            else None
        unsigned = isinstance(ctype, ty.IntType) and not ctype.signed
        if unsigned:
            mask = (1 << ctype.bits) - 1
            fused = self._fused_masked_binop(op, left, right, rconst, mask,
                                             slow)
            if fused is not None:
                return fused
        if rconst is not None:
            if wrap is not None:
                def binop(frame: list, _l=left, _c=rconst, _f=intf, _w=wrap,
                          _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return _w(_f(a, _c))
                    return _s(a, _c)
            else:
                def binop(frame: list, _l=left, _c=rconst, _f=intf,
                          _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return _f(a, _c)
                    return _s(a, _c)
            return binop
        if wrap is not None:
            def binop(frame: list, _l=left, _r=right, _f=intf, _w=wrap,
                      _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return _w(_f(a, b))
                return _s(a, b)
        else:
            def binop(frame: list, _l=left, _r=right, _f=intf,
                      _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return _f(a, b)
                return _s(a, b)
        return binop

    def _fused_masked_binop(self, op: str, left: ExprFn, right: ExprFn,
                            rconst: Optional[int], mask: int,
                            slow: Callable) -> Optional[ExprFn]:
        """Inline ``(a <op> b) & mask`` shapes for unsigned results."""
        if rconst is not None:
            c = rconst
            if op == "+":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a + _c) & _m
                    return _s(a, _c)
            elif op == "-":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a - _c) & _m
                    return _s(a, _c)
            elif op == "*":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a * _c) & _m
                    return _s(a, _c)
            elif op == "&":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a & _c) & _m
                    return _s(a, _c)
            elif op == "|":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a | _c) & _m
                    return _s(a, _c)
            elif op == "^":
                def f(frame: list, _l=left, _c=c, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a ^ _c) & _m
                    return _s(a, _c)
            elif op == "<<":
                shift = c & 31

                def f(frame: list, _l=left, _c=c, _sh=shift, _m=mask,
                      _s=slow) -> RuntimeValue:
                    a = _l(frame)
                    if type(a) is int:
                        return (a << _sh) & _m
                    return _s(a, _c)
            else:
                return None
            return f
        if op == "+":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a + b) & _m
                return _s(a, b)
        elif op == "-":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a - b) & _m
                return _s(a, b)
        elif op == "*":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a * b) & _m
                return _s(a, b)
        elif op == "&":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a & b) & _m
                return _s(a, b)
        elif op == "|":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a | b) & _m
                return _s(a, b)
        elif op == "^":
            def f(frame: list, _l=left, _r=right, _m=mask,
                  _s=slow) -> RuntimeValue:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return (a ^ b) & _m
                return _s(a, b)
        else:
            return None
        return f

    def _compile_comparison(self, op: str, expr: ast.BinaryOp, left: ExprFn,
                            right: ExprFn) -> ExprFn:
        if isinstance(expr.right, ast.IntLiteral):
            c = expr.right.value
            if op == "==":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a == _c else 0
                    return compare("==", a, _c)
            elif op == "!=":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a != _c else 0
                    return compare("!=", a, _c)
            elif op == "<":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a < _c else 0
                    return compare("<", a, _c)
            elif op == "<=":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a <= _c else 0
                    return compare("<=", a, _c)
            elif op == ">":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a > _c else 0
                    return compare(">", a, _c)
            else:
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a >= _c else 0
                    return compare(">=", a, _c)
            return cmp_c
        if op == "==":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a == b else 0
                return compare("==", a, b)
        elif op == "!=":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a != b else 0
                return compare("!=", a, b)
        elif op == "<":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a < b else 0
                return compare("<", a, b)
        elif op == "<=":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a <= b else 0
                return compare("<=", a, b)
        elif op == ">":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a > b else 0
                return compare(">", a, b)
        else:
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a >= b else 0
                return compare(">=", a, b)
        return cmp_

    def _compile_unary(self, expr: ast.UnaryOp) -> ExprFn:
        operand = self._compile_expr(expr.operand)
        op = expr.op
        if op == "!":
            def not_(frame: list, _o=operand) -> int:
                return 0 if _o(frame) != 0 else 1

            return not_
        ctype = expr.ctype
        wrap = cint.make_wrap(ctype) if ctype is not None and \
            ctype.is_integer() else None

        def unary(frame: list, _o=operand, _f=cint.UNARY_OPS[op],
                  _w=wrap) -> RuntimeValue:
            value = _o(frame)
            if isinstance(value, Pointer):
                return value
            result = _f(int(value))
            return _w(result) if _w is not None else result

        return unary

    def _compile_cast(self, expr: ast.Cast) -> ExprFn:
        operand = self._compile_expr(expr.operand)
        target = expr.target_type
        if not target.is_integer():
            return operand

        def cast_int(frame: list, _o=operand,
                     _w=cint.make_wrap(target)) -> RuntimeValue:
            value = _o(frame)
            if isinstance(value, int):
                return _w(value)
            return value

        return cast_int

    def _compile_call(self, expr: ast.Call) -> ExprFn:
        name = expr.callee
        if name in self.program.builtins:
            args = tuple(self._compile_expr(arg) for arg in expr.args)

            def call(frame: list, _name=name, _args=args) -> RuntimeValue:
                return frame[1].node.call_builtin(
                    _name, [a(frame) for a in _args])

            return call
        # Expression-position call (nested inside a larger expression):
        # enters a nested machine run via Python recursion.  Statement-level
        # calls never reach this path — they lower to CALL ops.
        args = self._compile_args(expr)

        def call(frame: list, _cf_cell=[None], _name=name,
                 _args=args) -> RuntimeValue:
            c = frame[1]
            cf = _cf_cell[0]
            if cf is None:
                cf = _cf_cell[0] = c.cache.plan_for(_name)
            result = c._run_machine(
                c._new_frame(cf, [a(frame) for a in _args]))
            return result if result is not None else 0

        return call

    # -- conversions at calls and returns --------------------------------------

    def _compile_args(self, call: ast.Call) -> tuple[ExprFn, ...]:
        """A program call's arguments, each converted to its parameter's
        type, as C converts an argument on entry to the callee.

        A call with the wrong arity converts nothing: it raises when the
        callee's frame is built.
        """
        callee = self.program.lookup_function(call.callee)
        if callee is None or len(callee.params) != len(call.args):
            return tuple(self._compile_expr(arg) for arg in call.args)
        return tuple(self._compile_converted(arg, param.ctype)
                     for arg, param in zip(call.args, callee.params))

    def _compile_converted(self, expr: ast.Expr,
                           ctype: ty.CType) -> ExprFn:
        """``expr``'s value converted to ``ctype`` (a no-op unless integer).

        Nothing is compiled where the conversion is a no-op
        (:func:`~repro.cminor.cint.fits`); otherwise the closure converts
        only a value out of range, which real programs rarely produce.
        """
        value = self._compile_expr(expr)
        if not ctype.is_integer() or cint.fits(expr, ctype):
            return value
        lo, hi = cint.value_range(ctype)

        def convert(frame: list, _v=value, _lo=lo, _hi=hi,
                    _w=cint.make_wrap(ctype)) -> RuntimeValue:
            result = _v(frame)
            if type(result) is int and not _lo <= result <= _hi:
                return _w(result)
            return result

        return convert
