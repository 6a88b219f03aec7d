"""The analysis memo's contract across every mutating pass.

Each function's derived facts live in ``Program.analysis()`` for exactly as
long as the function is unchanged, and ``check_program`` re-checks only
what changed.  That holds only if every pass reports each function it
changes, so each pass here runs with every memo kind warmed.  Afterwards
the functions it reported must be exactly those whose definition differs,
every memoized fact must equal a fresh recompute, and an incremental type
check must leave the annotations a full check leaves.  A pass that changes
a function without reporting it fails these assertions.
"""

import pickle
from contextlib import contextmanager

import pytest

from helpers import make_program
from repro.backend.gcc_opt import gcc_optimize
from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.instrument import cure
from repro.ccured.optimizer import optimize_checks
from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.analysis_cache import ProgramAnalysisCache, memory_locals
from repro.cminor.callgraph import function_callees
from repro.cminor.clone import clone_function
from repro.cminor.errors import TypeCheckError
from repro.cminor.program import Program
from repro.cminor.typecheck import TypeChecker, check_program, local_types
from repro.cminor.visitor import (
    statement_expressions,
    walk_expression,
    walk_function_expressions,
    walk_statements,
)
from repro.cxprop.atomic_opt import call_sites
from repro.cxprop.dce import variable_usage
from repro.cxprop.driver import CxpropConfig
from repro.cxprop.inline import inline_program
from repro.cxprop.interproc import address_taken, direct_writes
from repro.cxprop.passes import (
    AtomicOptPass,
    CopyPropPass,
    CxpropFactsPass,
    DcePass,
    FoldPass,
)
from repro.nesc.concurrency import function_accesses
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.tinyos import suite
from repro.toolchain.lower import back_end_passes, front_end_passes
from repro.toolchain.passes import (
    FixpointPass,
    Pass,
    PassContext,
    PassManager,
    PassOutcome,
)
from repro.toolchain.variants import SAFE_OPTIMIZED, UNSAFE_OPTIMIZED

APP = "Oscilloscope_Mica2"

#: Every kind of per-function fact the toolchain memoizes.
FACT_KINDS = (local_types, memory_locals, function_callees, call_sites,
              variable_usage, direct_writes, address_taken, function_accesses)


def _warm(program) -> None:
    """Populate every memo kind for every function."""
    cache = program.analysis()
    for func in program.iter_functions():
        for compute in FACT_KINDS:
            cache.fact(compute, func)
        for stmt in walk_statements(func.body):
            cache.statement_expressions(stmt, func.name)


def _assert_cache_fresh(program) -> None:
    """Every memoized fact must agree with a from-scratch recompute."""
    cache = program.analysis()
    for compute, table in cache._facts.items():
        assert compute in FACT_KINDS, f"unlisted memo kind {compute.__name__}"
        for name, fact in table.items():
            func = program.functions.get(name)
            assert func is not None, \
                f"{compute.__name__} kept a removed function {name}"
            assert fact == compute(func), \
                f"stale {compute.__name__} for {name}"
    for func in program.iter_functions():
        for stmt in walk_statements(func.body):
            cached = cache.statement_expressions(stmt, func.name)
            expected = tuple(statement_expressions(stmt))
            assert len(cached) == len(expected) and \
                all(a is b for a, b in zip(cached, expected)), \
                f"stale statement_expressions in {func.name}"


def _annotations(program) -> list:
    """Every expression's type annotation, in walk order."""
    rows = []
    for var in program.iter_globals():
        if var.init is not None:
            rows.append((var.name, [(type(expr).__name__, expr.ctype)
                                    for expr in walk_expression(var.init)]))
    for func in program.iter_functions():
        rows.append((func.name, [
            (type(expr).__name__, expr.ctype, getattr(expr, "of_type", None))
            for expr in walk_function_expressions(func.body)]))
    return rows


def _assert_check_is_full(program) -> None:
    """An incremental check leaves what a full check of a copy leaves."""
    check_program(program)
    full = program.clone()
    full.analysis().invalidate()
    check_program(full)
    assert _annotations(program) == _annotations(full)
    assert program.analysis().checked == full.analysis().checked


@contextmanager
def _reported():
    """The names every program reports as changed while the block runs
    (``None`` among them: everything).  Meanwhile every memoized fact a
    pass reads must equal a fresh recompute."""
    names: set = set()
    invalidate, fact = Program.invalidate_analysis, ProgramAnalysisCache.fact

    def recording(program, reported=None):
        names.add(reported)
        invalidate(program, reported)

    def checked_fact(cache, compute, func):
        value = fact(cache, compute, func)
        assert value == compute(func), \
            f"a pass read a stale {compute.__name__} of {func.name}"
        return value

    Program.invalidate_analysis = recording
    ProgramAnalysisCache.fact = checked_fact
    try:
        yield names
    finally:
        Program.invalidate_analysis = invalidate
        ProgramAnalysisCache.fact = fact


def _checked_stage(program, stage):
    """Run ``stage`` with every memo kind warmed, and check the contract on
    ``program``, or on the program ``stage`` returns if it makes one."""
    before = {}
    if program is not None:
        _warm(program)
        before = {name: clone_function(func)
                  for name, func in program.functions.items()}
    with _reported() as reported:
        result = stage()
    if isinstance(result, Program):
        program = result
    changed = {name for name in before.keys() | program.functions.keys()
               if before.get(name) != program.functions.get(name)}
    assert None not in reported, "a pass dropped the whole memo"
    assert reported & (before.keys() | program.functions.keys()) == changed, \
        "the functions a pass reported are not the ones it changed"
    _assert_cache_fresh(program)
    _assert_check_is_full(program)


@pytest.fixture()
def program():
    return suite.build_program(APP, suppress_norace=True)


def _run_pass(program, pass_, ctx=None):
    """Run one pass through the manager."""
    ctx = ctx or PassContext(program=program)
    ctx.program = program
    PassManager([pass_]).run(ctx)
    return ctx


class TestMutatingStagesKeepAnalysisConsistent:
    def test_hwrefactor(self, program):
        _checked_stage(program, lambda: refactor_hardware_accesses(program))

    def test_cure_and_ccured_optimizer(self, program):
        refactor_hardware_accesses(program)
        _checked_stage(program, lambda: cure(program, CCuredConfig(
            message_strategy=MessageStrategy.FLID, run_optimizer=False)))

        from repro.ccured.passes import CCuredOptimizerPass
        _checked_stage(program,
                       lambda: _run_pass(program, CCuredOptimizerPass()))

    def test_inliner(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                   run_optimizer=False))
        _checked_stage(program, lambda: inline_program(program))

    def test_every_cxprop_pass(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID))
        config = CxpropConfig()
        ctx = PassContext(program=program)
        for pass_ in [CxpropFactsPass(config), FoldPass(config),
                      CopyPropPass(), AtomicOptPass(), DcePass()]:
            _checked_stage(program,
                           lambda: _run_pass(program, pass_, ctx))

    def test_gcc_optimizer(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID))
        _checked_stage(program, lambda: gcc_optimize(program))


def test_optimize_checks_invalidates_under_the_manager(program):
    """``ccured.optimize`` reports the functions it removes checks from,
    called directly as under the manager."""
    refactor_hardware_accesses(program)
    cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                               run_optimizer=False))
    removed = []
    _checked_stage(program,
                   lambda: removed.append(optimize_checks(program)))
    assert removed[0] > 0


class _Contracted(Pass):
    """Runs ``inner`` through :func:`_checked_stage`."""

    def __init__(self, inner: Pass):
        self.inner = inner
        self.name = inner.name

    def run(self, program, ctx):
        outcomes = []

        def stage():
            outcomes.append(self.inner.run(program, ctx))
            return outcomes[0].program

        _checked_stage(program, stage)
        return outcomes[0]


def _contracted(passes: list[Pass]) -> list[Pass]:
    """``passes`` checked one by one, down to each cXprop round's passes."""
    for pass_ in passes:
        if isinstance(pass_, FixpointPass):
            pass_.body = [_Contracted(inner) for inner in pass_.body]
    return [_Contracted(pass_) for pass_ in passes]


@pytest.mark.parametrize("app", suite.FIGURE_APPS)
def test_every_pass_keeps_the_contract_on_every_figure_app(app):
    """Every pass of the safe- and unsafe-optimized builds of every figure
    app, checked after each pass and each cXprop round pass."""
    application = suite.build_application(app)
    front = PassContext(variant=SAFE_OPTIMIZED, application=application)
    PassManager(_contracted(front_end_passes(SAFE_OPTIMIZED))).run(front)
    for variant in (SAFE_OPTIMIZED, UNSAFE_OPTIMIZED):
        ctx = PassContext(variant=variant, application=application,
                          program=front.program.clone())
        PassManager(_contracted(back_end_passes(variant))).run(ctx)
        assert ctx.image is not None


class TestRewritesTheFigureBuildsDoNotMake:
    """Rewrites no safe- or unsafe-optimized figure build makes, each on a
    small program of its own."""

    def test_gcc_folds_a_literal_branch(self):
        program = make_program("""
void dropped(void) { }
__spontaneous void main(void) { if (0) { dropped(); } }
""")
        _checked_stage(program, lambda: gcc_optimize(program))
        assert "dropped" not in program.functions

    def test_gcc_removes_an_easy_check(self):
        program = make_program("""
uint8_t x;
void __ccured_check_null(void* p, uint16_t msg) { }
__spontaneous void main(void) { __ccured_check_null(&x, 1); }
""")
        _checked_stage(program, lambda: gcc_optimize(program))
        assert "__ccured_check_null" not in program.functions

    def test_dce_removes_an_empty_branch(self):
        from repro.cxprop.dce import eliminate_dead_code

        program = make_program("""
uint8_t other;
__spontaneous void main(void) { if (other) { } }
""")
        _checked_stage(program, lambda: eliminate_dead_code(program))
        assert "other" not in program.globals


class _UnreportedEdit(Pass):
    """Adds a call to ``main`` without reporting the change."""

    name = "unreported"

    def run(self, program, ctx):
        call = ast.Call("__sleep", [])
        program.functions["main"].body.stmts.insert(0, ast.ExprStmt(call))
        return PassOutcome(changed=1)


def test_a_pass_that_does_not_report_its_change_breaks_the_contract(program):
    with pytest.raises(AssertionError, match="not the ones it changed"):
        _checked_stage(program,
                       lambda: _run_pass(program, _UnreportedEdit()))
    with pytest.raises(AssertionError, match="stale function_callees for main"):
        _assert_cache_fresh(program)
    with pytest.raises(AssertionError):
        _assert_check_is_full(program)


class TestIncrementalCheck:
    SOURCE = """
uint8_t level;
void helper(void) { }
__spontaneous uint16_t reader(void) { helper(); return level; }
__spontaneous void other(void) { }
"""

    @staticmethod
    def _level_read(program) -> ast.Identifier:
        return next(expr for expr in walk_function_expressions(
            program.functions["reader"].body)
            if isinstance(expr, ast.Identifier) and expr.name == "level")

    def test_only_changed_functions_are_checked_again(self, monkeypatch):
        program = make_program(self.SOURCE)
        checked = []
        check_function = TypeChecker.check_function
        monkeypatch.setattr(
            TypeChecker, "check_function",
            lambda checker, func: (checked.append(func.name),
                                   check_function(checker, func)))
        check_program(program)
        assert checked == []
        program.invalidate_analysis("other")
        check_program(program)
        assert checked == ["other"]

    def test_removing_a_called_function_still_fails_the_check(self):
        program = make_program(self.SOURCE)
        program.remove_function("helper")
        with pytest.raises(TypeCheckError,
                           match="call to undefined function 'helper'"):
            check_program(program)

    def test_retyping_a_read_global_re_annotates_the_reader(self):
        program = make_program(self.SOURCE)
        assert self._level_read(program).ctype == ty.UINT8
        program.add_global(ast.GlobalVar("level", ty.UINT16), replace=True)
        check_program(program)
        assert self._level_read(program).ctype == ty.UINT16

    def test_removing_a_posted_task_fails_the_poster_check(self):
        program = make_program("""
void work(void) { }
__spontaneous void poster(void) { post work(); }
""")
        program.tasks = ["work"]
        check_program(program)
        program.remove_function("work")
        program.tasks = []
        with pytest.raises(TypeCheckError, match="post of unknown task"):
            check_program(program)

    def test_declarations_report_their_own_name(self):
        program = make_program(self.SOURCE)
        other = clone_function(program.functions["other"])
        for change, name in (
                (lambda: program.add_global(ast.GlobalVar("added", ty.UINT8)),
                 "added"),
                (lambda: program.remove_global("added"), "added"),
                (lambda: program.add_function(other, replace=True), "other"),
                (lambda: program.remove_function("other"), "other")):
            with _reported() as names:
                change()
            assert names == {name}

    def test_a_struct_table_change_checks_every_function(self, monkeypatch):
        program = make_program(self.SOURCE)
        checked = []
        check_function = TypeChecker.check_function
        monkeypatch.setattr(
            TypeChecker, "check_function",
            lambda checker, func: (checked.append(func.name),
                                   check_function(checker, func)))
        program.structs.define("added", [ty.StructField("x", ty.UINT8)])
        check_program(program)
        assert checked == list(program.functions)


class TestMemoLifetime:
    def test_a_pickled_program_leaves_the_memo_behind(self, program):
        _warm(program)
        check_program(program)
        restored = pickle.loads(pickle.dumps(program)).analysis()
        assert restored._facts == {} and restored.checked == {}

    def test_a_built_program_drops_its_memo(self):
        from repro.api.workbench import Workbench

        result = Workbench().build_result(APP, SAFE_OPTIMIZED)
        cache = result.program.analysis()
        assert cache._facts == {} and cache.checked == {}
