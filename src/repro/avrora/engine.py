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
* **names bound once** — each identifier is bound to its slot or to the
  booted node's global object, with no runtime fallback: the parser gives
  every local one name and the type checker rejects a function that
  declares a name twice or uses a global under a local's name, so the
  flat slot table is C's scoping (lowering therefore follows
  ``Node.boot``);
* **precomputed costs** — each statement's cycle cost (statement +
  expression nodes) is folded into its op;
* **structured jumps** — ``if``/loops/``break``/``continue``/``return``
  become next-index threading, not signal exceptions;
* **precomputed analyses** — address-taken sets, struct field offsets,
  element sizes, integer wrap masks are all baked into the closures;
* **explicit frames** — the engine is a frame-stack machine: statement-
  level calls (``f(x);``, ``y = f(x);``) are CALL ops that push a
  :class:`CompiledFrame`, and returns pop it, so call chains through the
  flattened TinyOS dispatch layers do not consume Python stack.  Only
  calls nested inside larger expressions recurse (into a fresh machine
  run).  The explicit stack is also what makes execution state inspectable
  and, together with the node's poll-point pause gate, resumable
  (see ``Node.run_until``).

Two mechanisms push past per-statement dispatch:

* **superblocks** — maximal straight-line runs of simple statements fuse
  into a single op that charges the run's precomputed cycle total once,
  bumps the statement counter once, and executes the bare work closures
  back-to-back.  The parser emits every loop in one form,
  ``while (1) { [if (c) break;] tail }``; a loop whose tail is fusable
  additionally gets a **loop superblock** that runs whole iterations in a
  burst.  Entry is gated by a
  **poll-window guard**: if the node's next queued event (which
  includes the lockstep kernel's horizon sentinels), a pending interrupt,
  or the end of simulated time could land inside the block's cycle window,
  the superblock falls back to the unfused per-statement ops — so every
  event, interrupt delivery and pause lands at exactly the cycle it would
  without fusion.  ``REPRO_AVRORA_SUPERBLOCKS=0`` disables fusion, which
  leaves the per-statement lowering as the test oracle.
* **traces** — superblocks extend *through* calls to leaf functions
  (bodies with no further calls, no address-taken locals, no loops):
  the callee's work closures are spliced inline under the caller's
  poll-window guard, with the callee's frame slots flattened into extra
  slots of the caller's frame, so one guard and one accounting
  write-back cover the whole trace including every inlined call.
  Because an inlined ``if`` may execute either branch, callee cycle and
  statement accounting is *dynamic*: the guard checks the window
  against the worst case, the inlined units accumulate the actually
  executed cost, and a mid-trace fault repairs the accounting to
  exactly what the per-statement path would have charged.  A plain
  fused region is the same op with an accumulator that stays zero.
* **a shared code cache** — the node-independent front end of lowering
  (frame layout, per-statement cycle costs, fusability, parameter plans)
  is computed once per program in a :class:`CodeCache` hanging off the
  program's analysis cache (and invalidated with it), so every node of an
  N-node :class:`~repro.avrora.network.Network` shares one front-end
  lowering per function.  Only the final closure binding — which bakes
  node-local state (memory objects, event queue, clock) into the ops for
  speed — remains per node.

Semantics are kept **byte-identical** to the tree-walker (cycle counts,
interrupt delivery points, check failures, radio traffic): ops charge the
same costs in the same order and poll the node at exactly the same points
(after every statement, by default).  The differential test in
``tests/avrora/test_engine_differential.py`` enforces this on every
application in the paper's figure suite, with fusion on and off.
"""

from __future__ import annotations

import operator
import os
from typing import Callable, Optional, TYPE_CHECKING

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
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.avrora.node import Node


def _simulation_finished():
    """The node module's end-of-simulation signal (lazy to avoid a cycle)."""
    from repro.avrora.node import _SimulationFinished

    return _SimulationFinished


#: Slot 0 of every frame holds the (eventual) return value.
_RET = 0

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

#: Iterations a loop superblock runs per burst when nothing bounds the
#: poll window (no queued event, no end of simulated time).  Purely a
#: flush granularity: accounting is written back after every burst.
_BURST_CHUNK = 1 << 16

#: Statement kinds eligible for superblock fusion (when call-free): their
#: ops are pure frame/memory work with no control transfer, no poll
#: obligations of their own, and no cycle charges beyond the statement's
#: precomputed cost.
_FUSABLE_KINDS = (ast.Assign, ast.ExprStmt, ast.VarDecl)


def _superblocks_enabled() -> bool:
    """Read the fusion switch (``REPRO_AVRORA_SUPERBLOCKS``, default on)."""
    value = os.environ.get("REPRO_AVRORA_SUPERBLOCKS", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


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


def _compare_rt(op: str, left: RuntimeValue, right: RuntimeValue) -> int:
    """Comparison slow path; mirrors the tree-walker's ``_compare``."""
    if isinstance(left, Pointer) or isinstance(right, Pointer):
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            equal = left.obj is right.obj and left.offset == right.offset
        else:
            equal = False
        if op == "==":
            return 1 if equal else 0
        if op == "!=":
            return 0 if equal else 1
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


def _div_rt(left: int, right: int) -> int:
    if right == 0:
        return 0
    return int(left / right)


def _mod_rt(left: int, right: int) -> int:
    if right == 0:
        return 0
    return int(left - int(left / right) * right)


def _shl_rt(left: int, right: int) -> int:
    return left << (right & 31)


def _shr_rt(left: int, right: int) -> int:
    return left >> (right & 31)


#: Integer arithmetic implementations, mirroring ``_int_arithmetic``.
_INT_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div_rt,
    "%": _mod_rt,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": _shl_rt,
    ">>": _shr_rt,
}

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _make_wrap(ctype: ty.CType) -> Callable[[int], int]:
    """A closure implementing ``ty.wrap_to(ctype, value)``."""
    if isinstance(ctype, ty.IntType):
        bits = ctype.bits
        mask = (1 << bits) - 1
        if not ctype.signed:
            return lambda v, _m=mask: v & _m

        maxv = (1 << (bits - 1)) - 1
        span = 1 << bits

        def wrap_signed(v: int, _m: int = mask, _x: int = maxv,
                        _s: int = span) -> int:
            v &= _m
            return v - _s if v > _x else v

        return wrap_signed
    if isinstance(ctype, ty.BoolType):
        return lambda v: 1 if v else 0
    if isinstance(ctype, ty.CharType):
        def wrap_char(v: int) -> int:
            v &= 0xFF
            return v - 0x100 if v > 0x7F else v

        return wrap_char
    if isinstance(ctype, ty.PointerType):
        return lambda v: v & 0xFFFF
    return lambda v, _c=ctype: ty.wrap_to(_c, v)


def _elem_size(ctype: Optional[ty.CType], pointer_size: int) -> int:
    """Pointed-to element size used for pointer arithmetic scaling."""
    if ctype is None:
        return 1
    decayed = ctype.decay()
    if isinstance(decayed, ty.PointerType):
        return decayed.target.sizeof(pointer_size) or 1
    return 1


def _pointer_arith(op: str, left: RuntimeValue, right: RuntimeValue,
                   left_elem: int, right_elem: int, diff_elem: int
                   ) -> RuntimeValue:
    """Pointer arithmetic slow path; mirrors ``_pointer_arithmetic``."""
    if isinstance(left, Pointer) and isinstance(right, Pointer):
        if op == "-" and left.obj is right.obj:
            return (left.offset - right.offset) // diff_elem
        return 0
    if isinstance(left, Pointer):
        pointer, integer, elem = left, right, left_elem
    else:
        pointer, integer, elem = right, left, right_elem
    delta = int(integer) * elem
    if op == "-":
        delta = -delta
    return Pointer(pointer.obj, pointer.offset + delta)


# ---------------------------------------------------------------------------
# The shared code cache (node-independent lowering front end)
# ---------------------------------------------------------------------------


class FunctionPlan:
    """The node-independent half of one function's lowering.

    Everything here is derived purely from the AST, the program's analysis
    cache and the (platform-determined) cost model — no node state — so one
    plan serves every engine simulating the program: frame layout, parameter
    plans, per-statement cycle costs, and the superblock fusability facts.
    Plans are shared read-only; see :class:`CodeCache`.
    """

    __slots__ = ("name", "slots", "params", "default_return", "stmt_costs",
                 "fusable", "loop_conds", "call_sites", "leaf_cost")

    def __init__(self, name: str, slots: dict[str, int], params: tuple,
                 default_return: Optional[int], stmt_costs: dict[int, int],
                 fusable: frozenset[int], loop_conds: frozenset[int],
                 call_sites: dict[int, tuple], leaf_cost: Optional[int]):
        self.name = name
        #: Frame slot of every parameter and local (slot 0 = return).
        self.slots = slots
        #: Per-parameter plan: (slot, taken, ctype, size, storage_name).
        self.params = params
        self.default_return = default_return
        #: ``stmt.node_id`` -> precomputed cycle cost (statement + exprs).
        self.stmt_costs = stmt_costs
        #: ``node_id`` of every statement eligible for superblock fusion.
        self.fusable = fusable
        #: ``node_id`` of every If whose condition is call-free — the
        #: precondition for fusing it as a loop superblock's if-break
        #: guard.
        self.loop_conds = loop_conds
        #: ``node_id`` -> callee names, for otherwise-fusable statements
        #: whose every call targets a non-builtin program function with
        #: matching arity — the trace-inlining candidates.  Whether each
        #: callee is actually inlinable (``leaf_cost`` below) is the
        #: *callee's* plan's fact, checked at compile time.
        self.call_sites = call_sites
        #: Worst-case cycles one invocation of this function charges when
        #: spliced inline as a trace leaf (body statements only, call
        #: overhead excluded), or None when the body is not leaf-inlinable
        #: (contains calls, loops, address-taken locals, non-trailing
        #: returns, or any non-fusable statement kind).
        self.leaf_cost = leaf_cost


def _build_plan(func: ast.FunctionDef, program: Program,
                costs) -> FunctionPlan:
    """Run the lowering front end for one function (AST walks live here)."""
    cache = program.analysis()
    pointer_size = costs.platform.pointer_bytes
    taken = cache.address_taken_locals(func)

    # Frame layout: slot 0 is the return value; every parameter and local
    # gets a slot (the checker has made each name one variable).
    slots: dict[str, int] = {}
    for name in cache.local_types(func):
        slots[name] = 1 + len(slots)

    from repro.cminor.visitor import walk_statements

    stmt_costs: dict[int, int] = {}
    fusable: set[int] = set()
    loop_conds: set[int] = set()
    call_free: set[int] = set()
    call_sites: dict[int, tuple] = {}
    builtins = program.builtins
    for stmt in walk_statements(func.body):
        cycles = costs.stmt_cycles(stmt)
        calls: list[ast.Call] = []
        for expr in cache.statement_expressions(stmt, func.name):
            for node in walk_expression(expr):
                cycles += costs.expr_cycles(node)
                if isinstance(node, ast.Call):
                    calls.append(node)
        stmt_costs[stmt.node_id] = max(cycles, 1)
        if not calls:
            call_free.add(stmt.node_id)
            if isinstance(stmt, _FUSABLE_KINDS):
                fusable.add(stmt.node_id)
        elif isinstance(stmt, _FUSABLE_KINDS):
            # Trace candidate: every call must target a non-builtin
            # program function with matching arity (builtins can
            # schedule events or fail checks mid-statement, and an
            # arity mismatch must raise exactly where the per-statement
            # path raises it).
            names = []
            for call in calls:
                callee = None if call.callee in builtins else \
                    program.lookup_function(call.callee)
                if callee is None or len(call.args) != len(callee.params):
                    names = None
                    break
                names.append(call.callee)
            if names:
                call_sites[stmt.node_id] = tuple(names)
        if isinstance(stmt, ast.If) and not any(
                isinstance(node, ast.Call)
                for node in walk_expression(stmt.cond)):
            loop_conds.add(stmt.node_id)

    params = []
    for param in func.params:
        params.append((
            slots[param.name],
            param.name in taken,
            param.ctype,
            param.ctype.sizeof(pointer_size),
            f"{func.name}.{param.name}",
        ))
    default_return = 0 if not func.return_type.is_void() else None
    leaf_cost = _leaf_cost(func, stmt_costs, call_free, taken)
    return FunctionPlan(func.name, slots, tuple(params), default_return,
                        stmt_costs, frozenset(fusable),
                        frozenset(loop_conds), call_sites, leaf_cost)


def _leaf_cost(func: ast.FunctionDef, stmt_costs: dict[int, int],
               call_free: set[int], taken) -> Optional[int]:
    """Worst-case body cycles of a leaf-inlinable function, or None.

    A function is a *trace leaf* when splicing its body inline under a
    caller's poll-window guard is sound: no address-taken locals (their
    memory objects would outlive the flattened slots), and a body made
    only of call-free fusable statements and call-free ``if``s whose
    branches are the same shape, plus one optional *trailing* return.
    Loops, atomic sections, break/continue and mid-body returns all
    disqualify — their control flow cannot run as a straight unit list.
    The returned bound takes the more expensive branch of every ``if``,
    so the caller's guard window covers any dynamic path.
    """
    if taken:
        return None

    def block_max(stmts) -> Optional[int]:
        total = 0
        for s in stmts:
            if s.node_id not in call_free:
                return None
            if isinstance(s, _FUSABLE_KINDS):
                total += stmt_costs[s.node_id]
            elif isinstance(s, ast.If):
                then_max = block_max(s.then_body.stmts)
                if then_max is None:
                    return None
                else_max = 0
                if s.else_body is not None:
                    else_max = block_max(s.else_body.stmts)
                    if else_max is None:
                        return None
                total += stmt_costs[s.node_id] + max(then_max, else_max)
            else:
                return None
        return total

    stmts = func.body.stmts
    ret: Optional[ast.Return] = None
    if stmts and isinstance(stmts[-1], ast.Return):
        ret = stmts[-1]
        if ret.node_id not in call_free:
            return None
        stmts = stmts[:-1]
    cost = block_max(stmts)
    if cost is None:
        return None
    if ret is not None:
        cost += stmt_costs[ret.node_id]
    return cost


class CodeCache:
    """Per-program cache of :class:`FunctionPlan` shared by every node.

    Lives on the program's :class:`~repro.cminor.analysis_cache.\
ProgramAnalysisCache` (see :meth:`code_cache
    <repro.cminor.analysis_cache.ProgramAnalysisCache.code_cache>`) and is
    invalidated with it, so passes that mutate function bodies drop the
    stale plans automatically.  ``lowerings`` counts front-end lowerings
    actually performed — in an N-node network it stays at one per function,
    while ``plan_hits`` counts the per-node compilations served by an
    existing plan (the compile-once evidence the network benchmark
    records).
    """

    __slots__ = ("plans", "lowerings", "plan_hits")

    def __init__(self) -> None:
        self.plans: dict[str, FunctionPlan] = {}
        self.lowerings = 0
        self.plan_hits = 0

    def plan_for(self, func: ast.FunctionDef, program: Program,
                 costs) -> FunctionPlan:
        """The shared plan for ``func``, lowered with ``costs`` on a miss.

        A cache belongs to one program, and every node simulating it costs
        statements with ``cost_model_for(program.platform)``, so one plan
        per function serves them all.
        """
        plan = self.plans.get(func.name)
        if plan is None:
            plan = _build_plan(func, program, costs)
            self.plans[func.name] = plan
            self.lowerings += 1
        else:
            self.plan_hits += 1
        return plan

    def invalidate(self, func_name: Optional[str] = None) -> None:
        """Drop plans after an AST mutation (mirrors the analysis cache)."""
        if func_name is None:
            self.plans.clear()
        else:
            self.plans.pop(func_name, None)


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
        #: address-taken parameters, and parameter slots are 1..nparams.
        self.flat_params = all(
            plan[0] == index + 1 and not plan[1]
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
    """Executes one program for one node as an explicit frame-stack machine.

    Public API mirrors the tree-walking interpreter: :meth:`call` invokes a
    program function by name with already-evaluated arguments.  Functions
    are lowered on first call and cached for the node's lifetime.

    Statement-level calls (``f(x);`` and ``y = f(x);`` — the dominant
    shapes in flattened TinyOS code) execute as CALL ops that push a
    :class:`CompiledFrame` onto the machine stack; returns pop it.  Calls
    nested inside larger expressions fall back to a recursive
    :meth:`_invoke`, which enters a nested machine run.
    """

    def __init__(self, node: "Node"):
        self.node = node
        self.program: Program = node.program
        self.memory: MemorySystem = node.memory
        self.costs = node.costs
        self.pointer_size = node.costs.platform.pointer_bytes
        self._compiled: dict[str, CompiledFunction] = {}
        self._overhead = self.costs.function_overhead_cycles()
        self._sf = _simulation_finished()
        #: Mutable cell counting executed statements (cheap to close over).
        self._stmt_cell = [0]
        #: Frame stack of the innermost machine run currently executing.
        #: CALL ops push onto it directly; nested runs (interrupt handlers,
        #: expression-position calls) save and restore it.
        self._stack: list[CompiledFrame] = []
        #: Superblock fusion switch (``REPRO_AVRORA_SUPERBLOCKS``), read at
        #: engine construction so tests can toggle it per node.
        self.superblocks_enabled = _superblocks_enabled()
        #: Node-independent lowering plans shared with every other engine
        #: simulating this program (compile-once across a network).
        self.code_cache: CodeCache = self.program.analysis().code_cache()
        #: Superblocks formed at compile time (straight-line / loop).
        self.superblocks = 0
        self.loop_superblocks = 0
        #: Trace superblocks formed (fused regions with >= 1 inlined
        #: call) and call sites spliced inline, both compile-time counts.
        self.traces = 0
        self.inlined_sites = 0
        #: Runtime fast-path counters, mutated in place by the fused ops:
        #: [fast entries, slow entries, fused statements, bursts,
        #:  burst iterations, inlined calls executed].
        self._sb_cell = [0, 0, 0, 0, 0, 0]
        #: Per-region dynamic accumulator: [extra cycles, extra statements,
        #: inlined calls], reset by each fused op on entry and charged by
        #: inlined callees only.  Safe to share engine-wide: fused runs
        #: are straight-line (no polls, no nested machine runs), so they
        #: never nest.
        self._acc = [0, 0, 0]

    @property
    def statements_executed(self) -> int:
        return self._stmt_cell[0]

    def superblock_stats(self) -> dict:
        """Superblock formation and fast-path hit-rate statistics."""
        fast, slow, fused, bursts, iterations, inlined = self._sb_cell
        total = self._stmt_cell[0]
        return {
            "engine": "compiled",
            "enabled": self.superblocks_enabled,
            "superblocks": self.superblocks,
            "loop_superblocks": self.loop_superblocks,
            "traces": self.traces,
            "inlined_call_sites": self.inlined_sites,
            "entries_fast": fast,
            "entries_slow": slow,
            "bursts": bursts,
            "burst_iterations": iterations,
            "inlined_calls": inlined,
            "fused_statements": fused,
            "statements_total": total,
            "fused_fraction": round(fused / total, 4) if total else 0.0,
        }

    def compile_program(self) -> int:
        """Lower every program function now (normally lazy); returns count.

        Lowering binds every global to the node's memory object, so the
        node must have booted (:meth:`~repro.avrora.node.Node.boot`).  Used
        by benchmarks to separate compile time from run time when measuring
        how the shared code cache amortizes per-node lowering.
        """
        for name in self.program.functions:
            if name not in self._compiled:
                self._compile_name(name)
        return len(self._compiled)

    # -- public API -------------------------------------------------------------

    def call(self, name: str, args: Optional[list[RuntimeValue]] = None
             ) -> Optional[RuntimeValue]:
        """Call a program function by name with already-evaluated arguments."""
        cf = self._compiled.get(name)
        if cf is None:
            cf = self._compile_name(name)
        return self._run_machine(self._new_frame(cf, args or []))

    # -- compilation ------------------------------------------------------------

    def _compile_name(self, name: str) -> CompiledFunction:
        func = self.program.lookup_function(name)
        if func is None:
            raise KeyError(f"call to unknown function {name!r}")
        cf = _FunctionCompiler(self, func).compile()
        self._compiled[name] = cf
        return cf

    # -- execution --------------------------------------------------------------

    def _invoke(self, name: str, args: list[RuntimeValue]) -> RuntimeValue:
        """Call-expression entry point (coerces a void result to 0)."""
        cf = self._compiled.get(name)
        if cf is None:
            cf = self._compile_name(name)
        result = self._run_machine(self._new_frame(cf, args))
        return result if result is not None else 0

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
        if cf.flat_params:
            if nparams:
                slots[1:1 + nparams] = args
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
        t = node.time_cycles + self._overhead
        node.time_cycles = t
        if node.end_cycles and t >= node.end_cycles:
            raise self._sf()
        return CompiledFrame(cf, slots, node.atomic_depth)

    def _run_machine(self, frame: CompiledFrame) -> Optional[RuntimeValue]:
        """Run one machine: dispatch the top frame until the stack drains.

        The inner loop is the engine's hot path and is unchanged from the
        recursive design: ``pc = ops[pc](slots)``.  A CALL op pushes the
        callee and returns :data:`_CALL` (>= any real index), so call
        handling costs the straight-line path nothing.
        """
        stack = [frame]
        prev = self._stack
        self._stack = stack
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
            self._stack = prev

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

    def __init__(self, engine: CompiledEngine, func: ast.FunctionDef):
        self.engine = engine
        self.func = func
        self.program = engine.program
        self.costs = engine.costs
        self.pointer_size = engine.pointer_size
        cache = self.program.analysis()
        self._cache = cache
        self.taken = cache.address_taken_locals(func)

        # The node-independent front end — frame layout, per-statement
        # costs, fusability — comes from the shared per-program code cache:
        # in an N-node network it is computed once, not N times.
        plan = engine.code_cache.plan_for(func, self.program, engine.costs)
        self.plan = plan
        self.slots: dict[str, int] = plan.slots

        self.ops: list = []
        self.end_label = _Label()
        self.loop_stack: list[_LoopCtx] = []
        self.atomic_depth = 0
        self.has_atomic = False
        self.sb_enabled = engine.superblocks_enabled
        #: Extra frame slots appended past the plan's layout, holding the
        #: flattened frames of inlined trace callees (one block per call
        #: site, so re-entrancy within one statement cannot alias).
        self.extra_slots = 0
        #: True while compiling a trace work closure: program calls then
        #: lower to inline splices instead of CALL ops / machine runs.
        self._inline_calls = False
        self._acc = engine._acc

        # Hot-path bindings baked into the generated ops.  The event queue
        # and pending-interrupt containers are mutated in place by the node
        # and never reassigned, so closing over the objects is safe; the
        # inlined accounting and the poll guard replicate ``Node.consume``
        # and the no-op test at the top of ``Node.poll`` exactly.
        self.node = engine.node
        self._sf = _simulation_finished()
        self._eq = self.node._event_queue
        self._pending = self.node.pending_interrupts
        self._cell = engine._stmt_cell
        self._sb = engine._sb_cell
        self._poll = self.node.poll

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
        return self.plan.stmt_costs[stmt.node_id]

    # -- top level --------------------------------------------------------------

    def compile(self) -> CompiledFunction:
        self._compile_block(self.func.body)
        self._finalize()
        return CompiledFunction(self.func.name, self.ops,
                                1 + len(self.slots) + self.extra_slots,
                                self.plan.params,
                                self.plan.default_return, self.has_atomic)

    def _compile_block(self, block: ast.Block) -> None:
        stmts = block.stmts
        if not self.sb_enabled:
            for stmt in stmts:
                self._compile_stmt(stmt)
            return
        index = 0
        while index < len(stmts):
            extras = self._run_extras(stmts, index)
            # A run is worth a guard when it fuses >= 2 statements, or
            # contains even a single trace statement (inlining one call
            # already beats the CALL-op machinery).
            if len(extras) >= 2 or any(extras):
                end = index + len(extras)
                self._compile_superblock(stmts[index:end], extras)
                index = end
            else:
                self._compile_stmt(stmts[index])
                index += 1

    # -- fused regions ----------------------------------------------------------

    def _site_extra(self, stmt: ast.Stmt) -> Optional[int]:
        """Worst-case inlined-callee cycles for one trace statement.

        None when the statement is not a trace candidate: no recorded
        call sites, or any callee not leaf-inlinable (recursive and
        non-leaf callees fail here — their plans carry
        ``leaf_cost is None`` — and stay on the CALL-op path).
        """
        names = self.plan.call_sites.get(stmt.node_id)
        if not names:
            return None
        overhead = self.engine._overhead
        extra = 0
        for name in names:
            func = self.program.lookup_function(name)
            if func is None:
                return None
            plan = self.engine.code_cache.plan_for(func, self.program,
                                                   self.costs)
            if plan.leaf_cost is None:
                return None
            extra += overhead + plan.leaf_cost
        return extra

    def _run_extras(self, stmts: list, start: int = 0) -> list[int]:
        """Per-statement worst-case callee cycles of the run at ``start``.

        The run is the longest stretch of ``stmts`` from ``start`` whose
        statements are fusable (extra 0) or trace statements (extra > 0,
        see :meth:`_site_extra`); the returned list has one entry per
        statement of the run, so its length is the run's length.
        """
        fusable = self.plan.fusable
        extras = []
        for index in range(start, len(stmts)):
            stmt = stmts[index]
            if stmt.node_id in fusable:
                extras.append(0)
                continue
            extra = self._site_extra(stmt)
            if extra is None:
                break
            extras.append(extra)
        return extras

    def _fuse(self, run: list, extras: list[int]) -> tuple:
        """Lower one run for fused execution: ``(works, prefix, extra_max)``.

        ``works`` are the statements' bare effects (see
        :meth:`_compile_trace_work`); ``prefix[j]`` is the static cycle total
        the per-statement path has charged once statement ``j`` is
        entered (it charges before it executes); ``extra_max`` sums the
        run's ``extras``, the worst case of its inlined callees.  Guards
        check their window against that worst case, while the callees'
        actual charge accumulates in the engine's trace accumulator.  A
        plain run is a trace run whose accumulator stays zero.
        """
        works = []
        prefix = []
        total = 0
        for stmt in run:
            total += self._stmt_cost(stmt)
            prefix.append(total)
            works.append(self._compile_trace_work(stmt))
        extra_max = sum(extras)
        if extra_max:
            self.engine.traces += 1
        return tuple(works), tuple(prefix), extra_max

    def _compile_superblock(self, run: list, extras: list[int]) -> None:
        """Fuse one maximal straight-line run of fusable statements.

        Emits a guard op followed by the unchanged per-statement ops.  The
        guard checks the **poll window**: if the node's next queued event
        (horizon sentinels included), the end of simulated time or a
        pending interrupt could make any per-statement poll or end-check
        observable inside the run's worst-case cycle window, it falls
        through to the per-statement ops — execution is then bit-for-bit
        today's.  Otherwise it runs the bare work closures
        back-to-back, charges the static total plus whatever the inlined
        callees accumulated, bumps the statement counter once, and jumps
        past the slow path.

        If a work closure raises (e.g. a null-pointer dereference aborting
        the simulation), the accounting is repaired to exactly what the
        per-statement path would have charged up to and including the
        faulting statement before the exception propagates.
        """
        self.engine.superblocks += 1
        works, prefix, extra_max = self._fuse(run, extras)
        guard_index = len(self.ops)
        self.ops.append(None)  # patched below, after the slow path exists
        for stmt in run:
            self._compile_stmt(stmt)

        def op(frame: list, _n=self.node, _eq=self._eq, _pi=self._pending,
               _works=works, _prefix=prefix, _max=prefix[-1] + extra_max,
               _cell=self._cell, _sb=self._sb, _acc=self._acc,
               _slow=guard_index + 1, _done=len(self.ops)) -> int:
            t = _n.time_cycles
            limit = t + _max
            end = _n.end_cycles
            if _pi or (_eq and _eq[0][0] <= limit) or (end and limit >= end):
                _sb[1] += 1
                return _slow
            _sb[0] += 1
            _acc[0] = _acc[1] = _acc[2] = 0
            j = -1
            try:
                for work in _works:
                    j += 1
                    work(frame)
            finally:
                # Statements 0..j were entered: all of them after the
                # run, or up to the faulting one.
                _n.time_cycles = t + _prefix[j] + _acc[0]
                done = j + 1 + _acc[1]
                _cell[0] += done
                _sb[2] += done
                _sb[5] += _acc[2]
            return _done

        self.ops[guard_index] = op

    def _emit_loop_burst(self, stmt: ast.While, exit_label: _Label) -> None:
        """The loop superblock for the parser's one loop form.

        The parser emits every loop as
        ``while (1) { [if (c) break;] tail }`` (see
        :mod:`repro.cminor.parser`).  When the optional if-break guard's
        condition is call-free and the tail is one fusable run, this emits
        a burst op at the loop head, in front of the normal condition op.
        A loop whose guard calls or whose tail does not fuse keeps the
        per-statement lowering.

        Each entry computes how many whole iterations fit strictly inside
        the poll window (next event, horizon sentinel, end of time),
        costing each at its worst case when inlined callees make the cost
        dynamic, and runs them back-to-back, writing the cycle and
        statement accounting once at the end.  Per iteration the
        accounting mirrors the per-statement path exactly: the while
        branch charge, the guard's statement cost and count, then the
        tail.  Leaving through the break also charges and counts the
        break statement, at the cycle the per-statement path would; an
        exhausted window falls through to the per-statement machinery; a
        fault repairs the accounting up to the faulting statement.
        """
        cond = stmt.cond
        if not (self.sb_enabled and isinstance(cond, ast.IntLiteral)
                and cond.value != 0):
            return
        body = stmt.body.stmts
        guard = body[0] if body else None
        if (isinstance(guard, ast.If) and guard.else_body is None
                and len(guard.then_body.stmts) == 1
                and isinstance(guard.then_body.stmts[0], ast.Break)
                and guard.node_id in self.plan.loop_conds):
            tail = body[1:]
        else:
            guard = None
            tail = body
        extras = self._run_extras(tail)
        if len(extras) != len(tail) or not body:
            return
        works, prefix, extra_max = self._fuse(tail, extras)
        head_cost = self.costs.branch_cycles
        head_stmts = 0
        exit_cond = None
        exit_cost = 0
        if guard is not None:
            head_cost += self._stmt_cost(guard)
            head_stmts = 1
            exit_cond = self._compile_expr(guard.cond)
            exit_cost = head_cost + self._stmt_cost(guard.then_body.stmts[0])
        iter_cost = head_cost + (prefix[-1] if prefix else 0)
        worst = iter_cost + extra_max
        self.engine.loop_superblocks += 1
        nxt = len(self.ops) + 1

        def maker(exit_index: int, _n=self.node, _eq=self._eq,
                  _pi=self._pending, _ec=exit_cond, _works=works,
                  _prefix=prefix, _ic=iter_cost, _im=worst,
                  _is=head_stmts + len(works), _hc=head_cost,
                  _hs=head_stmts, _xc=exit_cost,
                  _xs=max(0, exit_cost - worst), _cell=self._cell,
                  _sb=self._sb, _acc=self._acc, _chunk=_BURST_CHUNK,
                  _nxt=nxt) -> Op:
            def op(frame: list) -> int:
                if _pi:
                    return _nxt
                t = _n.time_cycles
                end = _n.end_cycles
                if _eq:
                    limit = _eq[0][0] - 1
                    if end and end - 1 < limit:
                        limit = end - 1
                elif end:
                    limit = end - 1
                else:
                    limit = t + _im * _chunk
                # A break exit can charge more than one full iteration
                # (exit cost > iteration cost when the tail is tiny);
                # shrink the budget so every exit stays inside the window.
                k_max = (limit - t - _xs) // _im
                if k_max <= 0:
                    return _nxt
                _acc[0] = _acc[1] = _acc[2] = 0
                k = 0
                cycles = stmts = 0
                out = _nxt
                try:
                    while k < k_max:
                        j = -1
                        if _ec is not None and _ec(frame) != 0:
                            cycles = _xc
                            stmts = _hs + 1
                            out = exit_index
                            break
                        for work in _works:
                            j += 1
                            work(frame)
                        k += 1
                except BaseException:
                    # The partial iteration: the head, plus the tail up
                    # to and including the faulting statement (j < 0:
                    # the guard's condition raised).
                    cycles = _hc + (_prefix[j] if j >= 0 else 0)
                    stmts = _hs + j + 1
                    raise
                finally:
                    _n.time_cycles = t + k * _ic + cycles + _acc[0]
                    done = k * _is + stmts + _acc[1]
                    _cell[0] += done
                    _sb[2] += done
                    _sb[3] += 1
                    _sb[4] += k
                    _sb[5] += _acc[2]
                return out

            return op

        self._emit_pending(maker, exit_label)

    def _compile_work(self, stmt: ast.Stmt) -> Callable[[list], None]:
        """The bare effect of one fusable statement.

        No statement counting, no cycle charge, no end-of-time check, no
        poll: the enclosing superblock performs those once for the whole
        run, which the poll-window guard proves unobservable.  The closure
        reuses the exact store/expression compilers of the slow path, so
        the effect (including lenient-memory absorption) is identical.
        """
        if isinstance(stmt, ast.Assign):
            store = self._compile_store(stmt.lvalue)
            rvalue = self._compile_expr(stmt.rvalue)

            def work(frame: list, _st=store, _rv=rvalue) -> None:
                _st(frame, _rv(frame))

            return work
        if isinstance(stmt, ast.ExprStmt):
            value = self._compile_expr(stmt.expr)

            def work(frame: list, _v=value) -> None:
                _v(frame)

            return work
        return self._compile_vardecl_work(stmt)

    def _compile_vardecl_work(self, stmt: ast.VarDecl
                              ) -> Callable[[list], None]:
        """``_compile_vardecl`` minus accounting and poll (see above)."""
        slot = self.slots[stmt.name]
        aggregate = isinstance(stmt.ctype, (ty.ArrayType, ty.StructType))
        if stmt.name in self.taken or aggregate:
            memory = self.engine.memory
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

            def work(frame: list, _mem=memory, _storage=storage, _size=size,
                     _slot=slot, _iv=init_value, _ib=init_bytes,
                     _ct=ctype) -> None:
                obj = _mem.allocate(_storage, _size, kind="local")
                frame[_slot] = obj
                if _iv is not None:
                    _mem.write(Pointer(obj, 0), _ct, _iv(frame))
                elif _ib is not None:
                    obj.data[0:len(_ib)] = _ib

            return work

        init = self._compile_expr(stmt.init) if stmt.init is not None else None
        wrap = _make_wrap(stmt.ctype) if stmt.ctype.is_integer() else None

        def work(frame: list, _slot=slot, _init=init, _wrap=wrap) -> None:
            if _init is None:
                frame[_slot] = 0
            else:
                value = _init(frame)
                if _wrap is not None and isinstance(value, int):
                    value = _wrap(value)
                frame[_slot] = value

        return work

    # -- trace inlining ---------------------------------------------------------

    def _compile_trace_work(self, stmt: ast.Stmt) -> Callable[[list], None]:
        """The work closure of a fused statement: calls splice inline.

        Identical to :meth:`_compile_work` except that, for the duration
        of this one statement's compilation, program calls lower through
        :meth:`_compile_inline_call` instead of entering a machine run
        (the run former proved every callee leaf-inlinable; a call-free
        statement compiles the same either way).  The per-statement slow
        path behind the same guard is compiled with the flag off, so a
        bailed window still runs the ordinary CALL-op machinery.
        """
        self._inline_calls = True
        try:
            return self._compile_work(stmt)
        finally:
            self._inline_calls = False

    def _compile_inline_call(self, expr: ast.Call) -> ExprFn:
        """Splice a leaf callee's body inline into the caller's frame.

        The callee's frame (return slot + locals/params) is flattened
        into a fresh block of extra caller-frame slots, and its body is
        compiled — with a sub-compiler whose slot map is shifted into
        that block — to a list of *units* ``(frame, acc) -> None`` that
        charge the trace accumulator exactly as the per-statement path
        charges the node: cost-and-count first, then the effect.  The
        call itself adds the function-entry overhead, resets the slot
        block (every invocation starts from a fresh frame's slots), stores the raw argument values into the parameter slots
        and runs the units; the return slot then holds the result, with
        the same void-to-0 coercion as ``_invoke``.
        """
        engine = self.engine
        func = self.program.lookup_function(expr.callee)
        sub = _FunctionCompiler(engine, func)
        plan = sub.plan
        nslots = 1 + len(plan.slots)
        base = 1 + len(self.slots) + self.extra_slots
        self.extra_slots += nslots
        sub.slots = {name: base + index
                     for name, index in plan.slots.items()}
        # Argument expressions belong to the *caller* (nested calls in
        # them inline into their own slot blocks, allocated after this
        # one, so the blocks never alias).
        args = tuple(self._compile_expr(arg) for arg in expr.args)
        param_slots = tuple(base + p[0] for p in plan.params)
        body = func.body.stmts
        units = []
        if body and isinstance(body[-1], ast.Return):
            units = self._leaf_units(sub, body[:-1])
            units.append(self._leaf_return_unit(sub, body[-1], base))
        else:
            units = self._leaf_units(sub, body)
        template = [None] * nslots
        template[0] = plan.default_return
        engine.inlined_sites += 1
        acc = self._acc
        overhead = engine._overhead
        units = tuple(units)
        template = tuple(template)

        if len(args) == 1:
            def call1(frame: list, _a0=args[0], _s0=param_slots[0],
                      _b=base, _e=base + nslots, _tmpl=template,
                      _units=units, _acc=acc, _oh=overhead) -> RuntimeValue:
                v0 = _a0(frame)
                _acc[0] += _oh
                _acc[2] += 1
                frame[_b:_e] = _tmpl
                frame[_s0] = v0
                for unit in _units:
                    unit(frame, _acc)
                value = frame[_b]
                return value if value is not None else 0

            return call1
        if len(args) == 2:
            def call2(frame: list, _a0=args[0], _a1=args[1],
                      _s0=param_slots[0], _s1=param_slots[1], _b=base,
                      _e=base + nslots, _tmpl=template, _units=units,
                      _acc=acc, _oh=overhead) -> RuntimeValue:
                v0 = _a0(frame)
                v1 = _a1(frame)
                _acc[0] += _oh
                _acc[2] += 1
                frame[_b:_e] = _tmpl
                frame[_s0] = v0
                frame[_s1] = v1
                for unit in _units:
                    unit(frame, _acc)
                value = frame[_b]
                return value if value is not None else 0

            return call2

        def call(frame: list, _args=args, _ps=param_slots, _b=base,
                 _e=base + nslots, _tmpl=template, _units=units, _acc=acc,
                 _oh=overhead) -> RuntimeValue:
            values = [a(frame) for a in _args]
            _acc[0] += _oh
            _acc[2] += 1
            frame[_b:_e] = _tmpl
            for slot, value in zip(_ps, values):
                frame[slot] = value
            for unit in _units:
                unit(frame, _acc)
            value = frame[_b]
            return value if value is not None else 0

        return call

    def _leaf_units(self, sub: "_FunctionCompiler", stmts: list) -> list:
        """Compile a leaf body block into accumulator-charging units.

        Each unit replicates one per-statement op minus the end-of-time
        check and poll (both proven unobservable by the enclosing trace
        guard): it adds the statement's cost and count to the
        accumulator *before* running the effect, so a faulting effect
        leaves the accumulator exactly where the per-statement path's
        charge-then-execute order would.  ``if`` units charge before
        evaluating the condition — the per-statement order — then run
        the chosen branch's units.
        """
        units = []
        for stmt in stmts:
            cost = sub._stmt_cost(stmt)
            if isinstance(stmt, ast.If):
                cond = sub._compile_expr(stmt.cond)
                then_units = tuple(self._leaf_units(sub,
                                                    stmt.then_body.stmts))
                else_units = tuple(
                    self._leaf_units(sub, stmt.else_body.stmts)) \
                    if stmt.else_body is not None else ()

                def unit(frame: list, acc: list, _c=cost, _cond=cond,
                         _t=then_units, _e=else_units) -> None:
                    acc[0] += _c
                    acc[1] += 1
                    for inner in (_t if _cond(frame) != 0 else _e):
                        inner(frame, acc)
            else:
                work = sub._compile_work(stmt)

                def unit(frame: list, acc: list, _c=cost,
                         _w=work) -> None:
                    acc[0] += _c
                    acc[1] += 1
                    _w(frame)
            units.append(unit)
        return units

    def _leaf_return_unit(self, sub: "_FunctionCompiler", stmt: ast.Return,
                          ret_slot: int) -> Callable[[list, list], None]:
        """The trailing-return unit: charge, then set the return slot."""
        cost = sub._stmt_cost(stmt)
        value = sub._compile_expr(stmt.value) if stmt.value is not None \
            else None

        def unit(frame: list, acc: list, _c=cost, _v=value,
                 _rs=ret_slot) -> None:
            acc[0] += _c
            acc[1] += 1
            frame[_rs] = _v(frame) if _v is not None else None

        return unit

    # -- statements -------------------------------------------------------------

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
            consume = self.engine.node.consume
            cell = self.engine._stmt_cell

            def op(frame: list, _consume=consume, _cost=cost, _cell=cell,
                   _message=message) -> int:
                _cell[0] += 1
                _consume(_cost)
                raise RuntimeError(_message)

            self._emit(op)

    def _emit_entry(self, cost: int) -> int:
        """A bare statement-entry op: count, consume, fall through."""
        nxt = len(self.ops) + 1

        def op(frame: list, _n=self.node, _cost=cost, _cell=self._cell,
               _sf=self._sf, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            return _nxt

        return self._emit(op)

    def _emit_poll(self) -> int:
        nxt = len(self.ops) + 1

        def op(frame: list, _n=self.node, _eq=self._eq, _pi=self._pending,
               _poll=self._poll, _nxt=nxt) -> int:
            if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                _poll()
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
        discards it).
        """
        args = tuple(self._compile_expr(arg) for arg in call.args)
        resume = len(self.ops) + 1
        engine = self.engine

        def op(frame: list, _eng=engine, _n=self.node, _cost=cost,
               _cell=self._cell, _sf=self._sf, _name=call.callee,
               _args=args, _cf_cell=[None], _store=store,
               _resume=resume) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            cf = _cf_cell[0]
            if cf is None:
                cf = _eng._compiled.get(_name)
                if cf is None:
                    cf = _eng._compile_name(_name)
                _cf_cell[0] = cf
            callee = _eng._new_frame(cf, [a(frame) for a in _args])
            callee.ret_store = _store
            stack = _eng._stack
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
        value = self._compile_expr(stmt.expr)
        nxt = len(self.ops) + 1

        def op(frame: list, _n=self.node, _cost=cost, _v=value,
               _cell=self._cell, _sf=self._sf, _eq=self._eq,
               _pi=self._pending, _poll=self._poll, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            _v(frame)
            if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                _poll()
            return _nxt

        self._emit(op)

    def _compile_vardecl(self, stmt: ast.VarDecl) -> None:
        cost = self._stmt_cost(stmt)
        slot = self.slots[stmt.name]
        nxt = len(self.ops) + 1
        aggregate = isinstance(stmt.ctype, (ty.ArrayType, ty.StructType))
        if stmt.name in self.taken or aggregate:
            memory = self.engine.memory
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

            def op(frame: list, _n=self.node, _cost=cost, _cell=self._cell,
                   _sf=self._sf, _mem=memory, _storage=storage, _size=size,
                   _slot=slot, _iv=init_value, _ib=init_bytes, _ct=ctype,
                   _eq=self._eq, _pi=self._pending,
                   _poll=self._poll, _nxt=nxt) -> int:
                _cell[0] += 1
                t = _n.time_cycles + _cost
                _n.time_cycles = t
                if _n.end_cycles and t >= _n.end_cycles:
                    raise _sf()
                obj = _mem.allocate(_storage, _size, kind="local")
                frame[_slot] = obj
                if _iv is not None:
                    _mem.write(Pointer(obj, 0), _ct, _iv(frame))
                elif _ib is not None:
                    obj.data[0:len(_ib)] = _ib
                if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                    _poll()
                return _nxt

            self._emit(op)
            return

        init = self._compile_expr(stmt.init) if stmt.init is not None else None
        wrap = _make_wrap(stmt.ctype) if stmt.ctype.is_integer() else None

        def op(frame: list, _n=self.node, _cost=cost, _cell=self._cell,
               _sf=self._sf, _slot=slot, _init=init, _wrap=wrap,
               _eq=self._eq, _pi=self._pending,
               _poll=self._poll, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            if _init is None:
                frame[_slot] = 0
            else:
                value = _init(frame)
                if _wrap is not None and isinstance(value, int):
                    value = _wrap(value)
                frame[_slot] = value
            if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                _poll()
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

        def op(frame: list, _n=self.node, _cost=cost, _rv=rvalue,
               _st=store, _cell=self._cell, _sf=self._sf, _eq=self._eq,
               _pi=self._pending, _poll=self._poll, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            _st(frame, _rv(frame))
            if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                _poll()
            return _nxt

        self._emit(op)

    # -- control flow -----------------------------------------------------------

    def _compile_if(self, stmt: ast.If) -> None:
        cost = self._stmt_cost(stmt)
        cond = self._compile_expr(stmt.cond)
        then_index = len(self.ops) + 1
        else_label = _Label()

        def maker(else_index: int, _n=self.node, _cost=cost, _cond=cond,
                  _cell=self._cell, _sf=self._sf, _then=then_index) -> Op:
            def op(frame: list) -> int:
                _cell[0] += 1
                t = _n.time_cycles + _cost
                _n.time_cycles = t
                if _n.end_cycles and t >= _n.end_cycles:
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
        loop_head = len(self.ops)
        self._emit_loop_burst(stmt, exit_label)
        cond_index = len(self.ops)
        body_index = cond_index + 1

        def maker(exit_index: int, _cond=cond, _n=self.node,
                  _bc=branch_cycles, _sf=self._sf, _body=body_index) -> Op:
            def op(frame: list) -> int:
                if _cond(frame) != 0:
                    t = _n.time_cycles + _bc
                    _n.time_cycles = t
                    if _n.end_cycles and t >= _n.end_cycles:
                        raise _sf()
                    return _body
                return exit_index

            return op

        self._emit_pending(maker, exit_label)
        self.loop_stack.append(
            _LoopCtx(exit_label, cond_label, self.atomic_depth))
        self._compile_block(stmt.body)
        self.loop_stack.pop()
        self._emit_jump(loop_head)
        self._bind(exit_label)
        self._emit_poll()

    def _compile_return(self, stmt: ast.Return) -> None:
        cost = self._stmt_cost(stmt)
        value = self._compile_expr(stmt.value) if stmt.value is not None \
            else None
        unwind = self.atomic_depth

        def maker(end_index: int, _n=self.node, _cost=cost, _v=value,
                  _cell=self._cell, _sf=self._sf, _unwind=unwind) -> Op:
            def op(frame: list) -> int:
                _cell[0] += 1
                t = _n.time_cycles + _cost
                _n.time_cycles = t
                if _n.end_cycles and t >= _n.end_cycles:
                    raise _sf()
                frame[_RET] = _v(frame) if _v is not None else None
                if _unwind:
                    _n.atomic_depth -= _unwind
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
        cell = self._cell
        ctx = self.loop_stack[-1]
        label = ctx.continue_label if continue_ else ctx.break_label
        unwind = self.atomic_depth - ctx.atomic_depth

        def maker(target: int, _n=self.node, _cost=cost, _cell=cell,
                  _sf=self._sf, _unwind=unwind) -> Op:
            def op(frame: list) -> int:
                _cell[0] += 1
                t = _n.time_cycles + _cost
                _n.time_cycles = t
                if _n.end_cycles and t >= _n.end_cycles:
                    raise _sf()
                if _unwind:
                    _n.atomic_depth -= _unwind
                return target

            return op

        self._emit_pending(maker, label)

    def _compile_atomic(self, stmt: ast.Atomic) -> None:
        self.has_atomic = True
        cost = self._stmt_cost(stmt)
        nxt = len(self.ops) + 1

        def enter(frame: list, _n=self.node, _cost=cost, _cell=self._cell,
                  _sf=self._sf, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            _n.atomic_depth += 1
            return _nxt

        self._emit(enter)
        self.atomic_depth += 1
        self._compile_block(stmt.body)
        self.atomic_depth -= 1
        exit_nxt = len(self.ops) + 1

        def leave(frame: list, _n=self.node, _nxt=exit_nxt) -> int:
            _n.atomic_depth -= 1
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
            wrap = _make_wrap(ctype) if ctype is not None and \
                ctype.is_integer() else None

            def op(frame: list, _n=self.node, _cost=cost, _rv=rvalue,
                   _slot=slot, _w=wrap, _cell=self._cell, _sf=self._sf,
                   _eq=self._eq, _pi=self._pending, _poll=self._poll,
                   _nxt=nxt) -> int:
                _cell[0] += 1
                t = _n.time_cycles + _cost
                _n.time_cycles = t
                if _n.end_cycles and t >= _n.end_cycles:
                    raise _sf()
                value = _rv(frame)
                if _w is not None and isinstance(value, int):
                    value = _w(value)
                frame[_slot] = value
                if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                    _poll()
                return _nxt

            self._emit(op)
            return True
        obj = self._global(name)
        size = self._global_int_size(lvalue)
        if size is None:
            return False
        ctype = lvalue.ctype or ty.UINT8
        mask = (1 << (8 * size)) - 1
        mwrite = self.engine._memory_write

        def op(frame: list, _n=self.node, _cost=cost, _rv=rvalue,
               _obj=obj, _size=size, _mask=mask, _ct=ctype, _mw=mwrite,
               _cell=self._cell, _sf=self._sf, _eq=self._eq,
               _pi=self._pending, _poll=self._poll, _nxt=nxt) -> int:
            _cell[0] += 1
            t = _n.time_cycles + _cost
            _n.time_cycles = t
            if _n.end_cycles and t >= _n.end_cycles:
                raise _sf()
            value = _rv(frame)
            if type(value) is int:
                if _obj.pointer_slots:
                    _obj.pointer_slots.pop(0, None)
                _obj.data[0:_size] = \
                    (value & _mask).to_bytes(_size, "little")
            else:
                _mw(Pointer(_obj, 0), _ct, value)
            if (_eq and _eq[0][0] <= _n.time_cycles) or _pi:
                _poll()
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
                wrap = _make_wrap(ctype) if ctype is not None and \
                    ctype.is_integer() else None

                def store(frame: list, value: RuntimeValue, _slot=slot,
                          _wrap=wrap) -> None:
                    if _wrap is not None and isinstance(value, int):
                        value = _wrap(value)
                    frame[_slot] = value

                return store

        locate = self._compile_locate(lvalue)
        ctype = lvalue.ctype or ty.UINT8
        mwrite = self.engine._memory_write

        def store(frame: list, value: RuntimeValue, _loc=locate, _ct=ctype,
                  _mw=mwrite) -> None:
            _mw(_loc(frame), _ct, value)

        return store

    def _global(self, name: str) -> MemoryObject:
        """The booted node's memory object of global ``name``.

        Lowering binds every identifier: a parameter or local to its slot,
        anything else to a global, which boot has allocated.
        """
        obj = self.engine.memory.objects.get(name)
        if obj is None:
            raise RuntimeError(f"{self.func.name}: no storage for {name!r} "
                               "(functions lower after Node.boot())")
        return obj

    def _global_int_size(self, lvalue: ast.Identifier) -> Optional[int]:
        """Bytes of an integer store to a global that fit its object."""
        ctype = lvalue.ctype or ty.UINT8
        if not isinstance(ctype, (ty.IntType, ty.BoolType, ty.CharType)):
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
        obj = self._global(lvalue.name)
        mwrite = self.engine._memory_write
        mask = (1 << (8 * size)) - 1

        def store(frame: list, value: RuntimeValue, _obj=obj,
                  _ct=ctype, _mw=mwrite, _size=size,
                  _mask=mask) -> None:
            if type(value) is int:
                if _obj.pointer_slots:
                    _obj.pointer_slots.pop(0, None)
                _obj.data[0:_size] = \
                    (value & _mask).to_bytes(_size, "little")
            else:
                _mw(Pointer(_obj, 0), _ct, value)

        return store

    # -- lvalue location --------------------------------------------------------

    def _compile_locate(self, lvalue: ast.Expr) -> Callable[[list], Pointer]:
        """A closure computing an lvalue's location; mirrors ``_locate``."""
        if isinstance(lvalue, ast.Identifier):
            slot = self.slots.get(lvalue.name)
            if slot is None:
                pointer = Pointer(self._global(lvalue.name), 0)
                return lambda frame, _p=pointer: _p
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
            literal = self.engine.memory.string_literal
            text = expr.value
            return lambda frame, _l=literal, _t=text: Pointer(_l(_t), 0)
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Deref):
            pointer = self._compile_expr(expr.pointer)
            ctype = expr.ctype or ty.UINT8
            mread = self.engine._memory_read

            def deref(frame: list, _p=pointer, _ct=ctype,
                      _mr=mread) -> RuntimeValue:
                return _mr(_as_pointer(_p(frame)), _ct)

            return deref
        if isinstance(expr, ast.AddressOf):
            return self._compile_locate(expr.lvalue)
        if isinstance(expr, (ast.Index, ast.Member)):
            if isinstance(expr.ctype, ty.ArrayType):
                return self._compile_locate(expr)
            locate = self._compile_locate(expr)
            ctype = expr.ctype or ty.UINT8
            mread = self.engine._memory_read

            def load(frame: list, _loc=locate, _ct=ctype,
                     _mr=mread) -> RuntimeValue:
                return _mr(_loc(frame), _ct)

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
            read = self.engine.memory.read

            def load(frame: list, _slot=slot, _ct=ctype,
                     _rd=read) -> RuntimeValue:
                return _rd(Pointer(frame[_slot], 0), _ct)

            return load

        # Global variable: the tree-walker reads with the *declared* type.
        # Its object's byte buffer is mutated in place and never replaced
        # after boot (restores included), so loads bake it in.
        obj = self._global(name)
        ctype = self.program.globals[name].ctype
        if isinstance(ctype, (ty.ArrayType, ty.StructType)):
            pointer = Pointer(obj, 0)
            return lambda frame, _p=pointer: _p
        data = obj.data
        if isinstance(ctype, ty.IntType):
            size = ctype.sizeof(self.pointer_size)
            if not ctype.signed:
                def load(frame: list, _data=data,
                         _size=size) -> RuntimeValue:
                    return int.from_bytes(_data[0:_size], "little")

                return load
            maxv = ctype.max_value
            span = 1 << ctype.bits

            def load(frame: list, _data=data, _size=size, _maxv=maxv,
                     _span=span) -> RuntimeValue:
                raw = int.from_bytes(_data[0:_size], "little")
                return raw - _span if raw > _maxv else raw

            return load
        if isinstance(ctype, ty.CharType):
            def load(frame: list, _data=data) -> RuntimeValue:
                raw = _data[0]
                return raw - 0x100 if raw > 0x7F else raw

            return load
        if isinstance(ctype, ty.PointerType):
            size = ctype.sizeof(self.pointer_size)

            def load(frame: list, _obj=obj, _size=size) -> RuntimeValue:
                stored = _obj.pointer_slots.get(0)
                if stored is not None:
                    return stored
                return int.from_bytes(_obj.data[0:_size], "little")

            return load
        pointer = Pointer(obj, 0)
        read = self.engine.memory.read
        return lambda frame, _p=pointer, _ct=ctype, _rd=read: _rd(_p, _ct)

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
        if op in _COMPARISON_OPS:
            return self._compile_comparison(op, expr, left, right)
        intf = _INT_OPS.get(op)
        if intf is None:
            def bad(frame: list, _op=op) -> RuntimeValue:
                raise RuntimeError(f"unknown operator {_op!r}")

            return bad
        ctype = expr.ctype
        wrap = _make_wrap(ctype) if ctype is not None and \
            ctype.is_integer() else None
        left_elem = _elem_size(expr.left.ctype, self.pointer_size)
        right_elem = _elem_size(expr.right.ctype, self.pointer_size)

        def slow(a: RuntimeValue, b: RuntimeValue, _op=op, _f=intf,
                 _wrap=wrap, _le=left_elem, _re=right_elem) -> RuntimeValue:
            if isinstance(a, Pointer) or isinstance(b, Pointer):
                return _pointer_arith(_op, a, b, _le, _re, _le)
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
                    return _compare_rt("==", a, _c)
            elif op == "!=":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a != _c else 0
                    return _compare_rt("!=", a, _c)
            elif op == "<":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a < _c else 0
                    return _compare_rt("<", a, _c)
            elif op == "<=":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a <= _c else 0
                    return _compare_rt("<=", a, _c)
            elif op == ">":
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a > _c else 0
                    return _compare_rt(">", a, _c)
            else:
                def cmp_c(frame: list, _l=left, _c=c) -> int:
                    a = _l(frame)
                    if type(a) is int:
                        return 1 if a >= _c else 0
                    return _compare_rt(">=", a, _c)
            return cmp_c
        if op == "==":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a == b else 0
                return _compare_rt("==", a, b)
        elif op == "!=":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a != b else 0
                return _compare_rt("!=", a, b)
        elif op == "<":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a < b else 0
                return _compare_rt("<", a, b)
        elif op == "<=":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a <= b else 0
                return _compare_rt("<=", a, b)
        elif op == ">":
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a > b else 0
                return _compare_rt(">", a, b)
        else:
            def cmp_(frame: list, _l=left, _r=right) -> int:
                a = _l(frame)
                b = _r(frame)
                if type(a) is int and type(b) is int:
                    return 1 if a >= b else 0
                return _compare_rt(">=", a, b)
        return cmp_

    def _compile_unary(self, expr: ast.UnaryOp) -> ExprFn:
        operand = self._compile_expr(expr.operand)
        op = expr.op
        if op == "!":
            def not_(frame: list, _o=operand) -> int:
                return 0 if _o(frame) != 0 else 1

            return not_
        ctype = expr.ctype
        wrap = _make_wrap(ctype) if ctype is not None and \
            ctype.is_integer() else None
        if op == "-":
            def neg(frame: list, _o=operand, _w=wrap) -> RuntimeValue:
                value = _o(frame)
                if isinstance(value, Pointer):
                    return value
                result = -int(value)
                return _w(result) if _w is not None else result

            return neg
        if op == "~":
            def inv(frame: list, _o=operand, _w=wrap) -> RuntimeValue:
                value = _o(frame)
                if isinstance(value, Pointer):
                    return value
                result = ~int(value)
                return _w(result) if _w is not None else result

            return inv

        def bad(frame: list, _o=operand, _op=op) -> RuntimeValue:
            _o(frame)
            raise RuntimeError(f"unknown unary operator {_op!r}")

        return bad

    def _compile_cast(self, expr: ast.Cast) -> ExprFn:
        operand = self._compile_expr(expr.operand)
        target = expr.target_type
        if target.is_integer():
            wrap = _make_wrap(target)

            def cast_int(frame: list, _o=operand, _w=wrap) -> RuntimeValue:
                value = _o(frame)
                if isinstance(value, int):
                    return _w(value)
                return value

            return cast_int
        if target.is_pointer():
            def cast_ptr(frame: list, _o=operand) -> RuntimeValue:
                value = _o(frame)
                if isinstance(value, int) and value == 0:
                    return 0
                return value

            return cast_ptr
        return operand

    def _compile_call(self, expr: ast.Call) -> ExprFn:
        name = expr.callee
        if self._inline_calls and name not in self.program.builtins:
            # Compiling a trace work closure: the run former already
            # proved every callee of this statement leaf-inlinable.
            return self._compile_inline_call(expr)
        args = tuple(self._compile_expr(arg) for arg in expr.args)
        if name in self.program.builtins:
            call_builtin = self.engine.node.call_builtin

            def call(frame: list, _cb=call_builtin, _name=name,
                     _args=args) -> RuntimeValue:
                return _cb(_name, [a(frame) for a in _args])

            return call
        # Expression-position call (nested inside a larger expression):
        # enters a nested machine run via Python recursion.  Statement-level
        # calls never reach this path — they lower to CALL ops.
        engine = self.engine

        def call(frame: list, _cf_cell=[None], _eng=engine,
                 _name=name, _args=args) -> RuntimeValue:
            cf = _cf_cell[0]
            if cf is None:
                cf = _eng._compiled.get(_name)
                if cf is None:
                    cf = _eng._compile_name(_name)
                _cf_cell[0] = cf
            result = _eng._run_machine(
                _eng._new_frame(cf, [a(frame) for a in _args]))
            return result if result is not None else 0

        return call
