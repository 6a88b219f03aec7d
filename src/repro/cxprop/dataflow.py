"""The flow-sensitive abstract interpreter over one function.

The engine walks a function's structured body, tracking an abstract state
— a mapping from variable names to :class:`~repro.cxprop.values.Value` —
and records a joined snapshot of the state in front of every statement.
The parser's normal form leaves one loop shape, ``while (1)`` with explicit
``if (!c) break;`` exits, so a loop condition is refined like any other
branch condition.  The transformation passes (branch folding, check
elimination, constant substitution) consult those snapshots.

Concurrency soundness: variables that interrupt handlers touch are only
trusted *inside* atomic sections (and inside interrupt handlers, which run
with interrupts disabled); everywhere else a read of such a variable yields
its whole-program invariant.  This is the practical version of the paper's
"sound analysis of concurrent code".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cminor.visitor import lvalue_root, walk_expression
from repro.cxprop.domains.base import AbstractDomain
from repro.cxprop.domains.interval import IntervalDomain
from repro.cxprop.evaluate import Evaluator
from repro.cxprop.interproc import WholeProgramFacts
from repro.cxprop.values import MemoryTarget, Value

#: Maximum abstract iterations of a loop body before widening kicks in.
_MAX_LOOP_ITERATIONS = 6
#: Iteration at which widening starts.
_WIDEN_AFTER = 3

State = dict[str, Value]


@dataclass
class Flow:
    """Outcome of abstractly executing a statement or block."""

    fall: Optional[State]
    breaks: list[State] = field(default_factory=list)
    continues: list[State] = field(default_factory=list)
    returns: list[State] = field(default_factory=list)

    @staticmethod
    def falling(state: Optional[State]) -> "Flow":
        return Flow(fall=state)


def join_states(domain: AbstractDomain, left: Optional[State],
                right: Optional[State]) -> Optional[State]:
    """Join two states (None means unreachable).

    Copy-on-write with identity fast paths: interned values make
    ``lval is rval`` true for every variable that both branches agree on,
    so the (allocation-heavy) ``domain.join`` only runs for entries that
    actually differ.
    """
    if left is None:
        return dict(right) if right is not None else None
    if right is None:
        return dict(left)
    if left is right:
        return dict(left)
    joined: State = {}
    if len(left) == len(right):
        # Common case in the widening loop: same key set on both sides.
        get_right = right.get
        same_keys = True
        for name, lval in left.items():
            rval = get_right(name)
            if rval is None:
                same_keys = False
                break
            joined[name] = lval if lval is rval else domain.join(lval, rval)
        if same_keys:
            return joined
        joined.clear()
    for name in set(left) | set(right):
        lval = left.get(name)
        rval = right.get(name)
        if lval is None or rval is None:
            # Missing entries fall back to the lazy lookup default; dropping
            # the entry keeps the join conservative.
            continue
        if lval is rval:
            joined[name] = lval
        else:
            joined[name] = domain.join(lval, rval)
    return joined


class _FlowContext:
    """Evaluation context bound to a specific state and atomicity flag."""

    def __init__(self, analysis: "FunctionAnalysis", state: State, in_atomic: bool):
        self.analysis = analysis
        self.state = state
        self.in_atomic = in_atomic

    def lookup(self, name: str) -> Value:
        return self.analysis.lookup(self.state, name, self.in_atomic)

    def call_result(self, call: ast.Call) -> Value:
        func = self.analysis.program.lookup_function(call.callee)
        if func is None:
            return Value.top()
        return Value.of_type(func.return_type)

    def local_target(self, name: str) -> Optional[MemoryTarget]:
        ctype = self.analysis.locals_.get(name)
        if ctype is None:
            return None
        return MemoryTarget("local", f"{self.analysis.func.name}:{name}",
                            ctype.sizeof(2))


@dataclass
class AnalysisResult:
    """Per-statement snapshots produced by one function analysis."""

    states_before: dict[int, State] = field(default_factory=dict)
    atomic_at: dict[int, bool] = field(default_factory=dict)

    def state_before(self, stmt: ast.Stmt) -> Optional[State]:
        return self.states_before.get(stmt.node_id)

    def in_atomic(self, stmt: ast.Stmt) -> bool:
        return self.atomic_at.get(stmt.node_id, False)


class FunctionAnalysis:
    """Analyzes one function and records per-statement states."""

    def __init__(self, program: Program, func: ast.FunctionDef,
                 facts: WholeProgramFacts,
                 domain: Optional[AbstractDomain] = None,
                 pointer_size: int = 2):
        self.program = program
        self.func = func
        self.facts = facts
        self.domain = domain or IntervalDomain()
        self.evaluator = Evaluator(program, pointer_size)
        self._analysis = program.analysis()
        self.locals_ = self._analysis.local_types(func)
        self.address_taken = facts.address_taken_locals.get(func.name, set())
        self.result = AnalysisResult()

    # -- variable lookup ----------------------------------------------------------

    def lookup(self, state: State, name: str, in_atomic: bool) -> Value:
        if name in self.locals_:
            if name in self.address_taken:
                return Value.of_type(self.locals_[name])
            value = state.get(name)
            if value is None:
                return Value.of_type(self.locals_[name])
            return value
        if name in self.program.globals:
            if name in self.facts.shared_variables and not in_atomic:
                return self.facts.invariant(name)
            var = self.program.lookup_global(name)
            if var is not None and var.is_volatile:
                return Value.of_type(var.ctype)
            value = state.get(name)
            if value is None:
                return self.facts.invariant(name)
            return value
        return Value.top()

    # -- driving --------------------------------------------------------------------

    def run(self) -> AnalysisResult:
        initial: State = {}
        in_atomic = self.func.is_interrupt_handler
        flow = self._exec_block(self.func.body, initial, in_atomic)
        del flow
        return self.result

    # -- statement execution ----------------------------------------------------------

    def _record(self, stmt: ast.Stmt, state: State, in_atomic: bool) -> None:
        snapshot = self._sanitize(state, in_atomic)
        existing = self.result.states_before.get(stmt.node_id)
        if existing is None:
            self.result.states_before[stmt.node_id] = snapshot
        else:
            joined = join_states(self.domain, existing, snapshot)
            self.result.states_before[stmt.node_id] = joined or {}
        self.result.atomic_at[stmt.node_id] = in_atomic and \
            self.result.atomic_at.get(stmt.node_id, True)

    def _sanitize(self, state: State, in_atomic: bool) -> State:
        """Degrade shared variables to their invariant outside atomic sections."""
        snapshot = dict(state)
        if not in_atomic:
            for name in list(snapshot):
                if name in self.facts.shared_variables:
                    snapshot[name] = self.facts.invariant(name)
        return snapshot

    def _exec_block(self, block: ast.Block, state: Optional[State],
                    in_atomic: bool) -> Flow:
        current = state
        flow = Flow(fall=None)
        for stmt in block.stmts:
            if current is None:
                break
            step = self._exec_stmt(stmt, current, in_atomic)
            flow.breaks.extend(step.breaks)
            flow.continues.extend(step.continues)
            flow.returns.extend(step.returns)
            current = step.fall
        flow.fall = current
        return flow

    def _exec_stmt(self, stmt: ast.Stmt, state: State, in_atomic: bool) -> Flow:
        self._record(stmt, state, in_atomic)
        if isinstance(stmt, ast.Block):
            return self._exec_block(stmt, state, in_atomic)
        if isinstance(stmt, ast.Atomic):
            entry = dict(state)
            if not in_atomic:
                # Entering an atomic section from interruptible code: any
                # knowledge about interrupt-shared variables is stale.  A
                # nested atomic section (interrupts already off) keeps it.
                for name in self.facts.shared_variables:
                    entry.pop(name, None)
            return self._exec_block(stmt.body, entry, True)
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, state, in_atomic)
        if isinstance(stmt, ast.While):
            return self._exec_loop(stmt, state, in_atomic)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state, in_atomic)
            return Flow(fall=None, returns=[dict(state)])
        if isinstance(stmt, ast.Break):
            return Flow(fall=None, breaks=[dict(state)])
        if isinstance(stmt, ast.Continue):
            return Flow(fall=None, continues=[dict(state)])
        if isinstance(stmt, ast.Post):
            return Flow.falling(state)
        new_state = dict(state)
        if isinstance(stmt, ast.VarDecl):
            self._transfer_vardecl(stmt, new_state, in_atomic)
        elif isinstance(stmt, ast.Assign):
            self._transfer_assign(stmt, new_state, in_atomic)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, new_state, in_atomic)
            self._havoc_for_calls(stmt, new_state)
        return Flow.falling(new_state)

    # -- control flow -------------------------------------------------------------------

    def _exec_if(self, stmt: ast.If, state: State, in_atomic: bool) -> Flow:
        cond_value = self._eval(stmt.cond, state, in_atomic)
        self._havoc_for_calls(stmt, state)
        from repro.cxprop.values import truth_of

        truth = truth_of(cond_value)
        flows: list[Flow] = []
        if truth is not False:
            then_state = self._refine(dict(state), stmt.cond, True, in_atomic)
            flows.append(self._exec_block(stmt.then_body, then_state, in_atomic))
        if truth is not True:
            else_state = self._refine(dict(state), stmt.cond, False, in_atomic)
            if stmt.else_body is not None:
                flows.append(self._exec_block(stmt.else_body, else_state, in_atomic))
            else:
                flows.append(Flow.falling(else_state))
        merged = Flow(fall=None)
        fall: Optional[State] = None
        for flow in flows:
            fall = join_states(self.domain, fall, flow.fall)
            merged.breaks.extend(flow.breaks)
            merged.continues.extend(flow.continues)
            merged.returns.extend(flow.returns)
        merged.fall = fall
        return merged

    def _exec_loop(self, stmt: ast.While, state: State, in_atomic: bool) -> Flow:
        head: Optional[State] = dict(state)
        previous_head: Optional[State] = None
        merged = Flow(fall=None)
        exit_states: list[State] = []
        returns: list[State] = []
        cond_always_true = isinstance(stmt.cond, ast.IntLiteral) and stmt.cond.value != 0

        for iteration in range(_MAX_LOOP_ITERATIONS):
            assert head is not None
            cond_value = self._eval(stmt.cond, head, in_atomic)
            from repro.cxprop.values import truth_of

            truth = truth_of(cond_value)
            if truth is False:
                break
            body_state = self._refine(dict(head), stmt.cond, True, in_atomic) \
                if not cond_always_true else dict(head)
            flow = self._exec_block(stmt.body, body_state, in_atomic)
            returns.extend(flow.returns)
            exit_states.extend(flow.breaks)
            next_head: Optional[State] = None
            for candidate in flow.continues + ([flow.fall] if flow.fall is not None else []):
                next_head = join_states(self.domain, next_head, candidate)
            if next_head is None:
                # The body always breaks or returns: no further iterations.
                head = None
                break
            joined = join_states(self.domain, head, next_head) or {}
            if iteration >= _WIDEN_AFTER:
                joined = self._widen(head, joined)
            if joined == head:
                head = joined
                break
            previous_head = head
            head = joined
        del previous_head

        exit_state: Optional[State] = None
        for candidate in exit_states:
            exit_state = join_states(self.domain, exit_state, candidate)
        if not cond_always_true and head is not None:
            false_state = self._refine(dict(head), stmt.cond, False, in_atomic)
            exit_state = join_states(self.domain, exit_state, false_state)
        merged.returns = returns
        merged.fall = exit_state
        return merged

    def _widen(self, old: State, new: State) -> State:
        widened: State = {}
        for name, value in new.items():
            previous = old.get(name)
            ctype = self.locals_.get(name)
            if ctype is None:
                var = self.program.lookup_global(name)
                ctype = var.ctype if var is not None else None
            if previous is None or previous != value:
                widened[name] = self.domain.widen(previous or value, value, ctype)
            else:
                widened[name] = value
        return widened

    # -- refinement ----------------------------------------------------------------------

    def _refine(self, state: State, cond: ast.Expr, branch: bool,
                in_atomic: bool) -> State:
        """Narrow variable ranges using the branch condition."""
        if isinstance(cond, ast.UnaryOp) and cond.op == "!":
            return self._refine(state, cond.operand, not branch, in_atomic)
        if isinstance(cond, ast.BinaryOp) and cond.op == "&&" and branch:
            state = self._refine(state, cond.left, True, in_atomic)
            return self._refine(state, cond.right, True, in_atomic)
        if isinstance(cond, ast.BinaryOp) and cond.op == "||" and not branch:
            state = self._refine(state, cond.left, False, in_atomic)
            return self._refine(state, cond.right, False, in_atomic)
        if isinstance(cond, ast.Identifier):
            return self._refine_compare(state, cond, "!=" if branch else "==",
                                        Value.of_int(0), in_atomic)
        if isinstance(cond, ast.BinaryOp) and cond.op in ("<", "<=", ">", ">=",
                                                          "==", "!="):
            op = cond.op if branch else _negate_comparison(cond.op)
            left, right = cond.left, cond.right
            if isinstance(left, ast.Identifier):
                bound = self._eval(right, state, in_atomic)
                return self._refine_compare(state, left, op, bound, in_atomic)
            if isinstance(right, ast.Identifier):
                bound = self._eval(left, state, in_atomic)
                return self._refine_compare(state, right, _swap_comparison(op),
                                            bound, in_atomic)
        return state

    def _refine_compare(self, state: State, var: ast.Identifier, op: str,
                        bound: Value, in_atomic: bool) -> State:
        if not self._refinable(var.name, in_atomic):
            return state
        current = self.lookup(state, var.name, in_atomic)
        if not current.is_int or not bound.is_int:
            return state
        lo, hi = current.lo, current.hi
        if op == "<":
            hi = min(hi, bound.hi - 1)
        elif op == "<=":
            hi = min(hi, bound.hi)
        elif op == ">":
            lo = max(lo, bound.lo + 1)
        elif op == ">=":
            lo = max(lo, bound.lo)
        elif op == "==":
            lo, hi = max(lo, bound.lo), min(hi, bound.hi)
        elif op == "!=":
            constant = bound.as_constant()
            if constant is not None:
                if lo == constant:
                    lo = lo + 1
                if hi == constant:
                    hi = hi - 1
        if lo > hi:
            # Contradiction: the branch is unreachable; keep the old value so
            # downstream folding stays conservative.
            return state
        state[var.name] = Value.of_range(lo, hi)
        return state

    def _refinable(self, name: str, in_atomic: bool) -> bool:
        if name in self.locals_:
            return name not in self.address_taken
        if name in self.program.globals:
            if name in self.facts.shared_variables and not in_atomic:
                return False
            var = self.program.lookup_global(name)
            if var is not None and var.is_volatile:
                return False
            return name not in self.facts.address_taken_globals
        return False

    # -- transfer functions ----------------------------------------------------------------

    def _eval(self, expr: ast.Expr, state: State, in_atomic: bool) -> Value:
        ctx = _FlowContext(self, state, in_atomic)
        return self.evaluator.eval(expr, ctx)

    def _transfer_vardecl(self, stmt: ast.VarDecl, state: State,
                          in_atomic: bool) -> None:
        if stmt.init is None:
            return
        value = self._eval(stmt.init, state, in_atomic)
        self._havoc_for_calls(stmt, state)
        if stmt.name not in self.address_taken:
            if stmt.ctype.is_integer():
                value = value.clamp_to_type(stmt.ctype)
            state[stmt.name] = value

    def _transfer_assign(self, stmt: ast.Assign, state: State,
                         in_atomic: bool) -> None:
        value = self._eval(stmt.rvalue, state, in_atomic)
        self._eval(stmt.lvalue, state, in_atomic)
        self._havoc_for_calls(stmt, state)
        lvalue = stmt.lvalue
        if isinstance(lvalue, ast.Identifier):
            name = lvalue.name
            declared = self.locals_.get(name)
            if declared is None:
                var = self.program.lookup_global(name)
                declared = var.ctype if var is not None else None
            if declared is not None and declared.is_integer() and value.is_int:
                value = value.clamp_to_type(declared)
            if name in self.locals_:
                if name not in self.address_taken:
                    state[name] = value
                return
            if name in self.program.globals:
                state[name] = value
                return
            return
        root = lvalue_root(lvalue)
        if root is None:
            # Store through a pointer: anything address-taken may change.
            for name in list(state):
                if name in self.facts.address_taken_globals or \
                        name in self.address_taken:
                    state.pop(name, None)

    def _havoc_for_calls(self, stmt: ast.Stmt, state: State) -> None:
        """Invalidate state that a called function may modify."""
        for expr in self._analysis.statement_expressions(stmt,
                                                         self.func.name):
            for node in walk_expression(expr):
                if isinstance(node, ast.Call) and \
                        node.callee in self.program.functions:
                    for name in self.facts.modified_globals(node.callee):
                        state.pop(name, None)


def _negate_comparison(op: str) -> str:
    return {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}[op]


def _swap_comparison(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]
