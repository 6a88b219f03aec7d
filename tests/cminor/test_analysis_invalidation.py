"""Analysis-cache invalidation coverage across every mutating pass.

For a figure application, each transformation stage is run with a fully
warmed ``Program.analysis()`` cache; afterwards the cache must be
indistinguishable from a fresh recompute.  A pass that mutates function
bodies without (declaratively or manually) invalidating the cache fails
these assertions, because the warmed entries would describe the old AST.
"""

import pytest

from repro.ccured.config import CCuredConfig, MessageStrategy
from repro.ccured.instrument import cure
from repro.ccured.optimizer import optimize_checks
from repro.backend.gcc_opt import gcc_optimize
from repro.cminor.analysis_cache import ProgramAnalysisCache
from repro.cminor.visitor import statement_expressions, walk_statements
from repro.cxprop.driver import CxpropConfig
from repro.cxprop.inline import inline_program
from repro.cxprop.passes import (
    AtomicOptPass,
    CopyPropPass,
    CxpropFactsPass,
    DcePass,
    FoldPass,
)
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.tinyos import suite
from repro.toolchain.passes import PassContext, PassManager

APP = "Oscilloscope_Mica2"


def _warm(program) -> None:
    """Populate every cacheable analysis for every function."""
    cache = program.analysis()
    for func in program.iter_functions():
        cache.local_types(func)
        cache.address_taken_locals(func)
        for stmt in walk_statements(func.body):
            cache.statement_expressions(stmt, func.name)


def _assert_cache_fresh(program) -> None:
    """The live cache must agree with a from-scratch recompute."""
    cache = program.analysis()
    fresh = ProgramAnalysisCache(program)
    for func in program.iter_functions():
        assert cache.local_types(func) == fresh.local_types(func), \
            f"stale local_types for {func.name}"
        assert cache.address_taken_locals(func) == \
            fresh.address_taken_locals(func), \
            f"stale address_taken_locals for {func.name}"
        for stmt in walk_statements(func.body):
            cached = cache.statement_expressions(stmt, func.name)
            expected = tuple(statement_expressions(stmt))
            assert len(cached) == len(expected) and \
                all(a is b for a, b in zip(cached, expected)), \
                f"stale statement_expressions in {func.name}"


@pytest.fixture()
def program():
    return suite.build_program(APP, suppress_norace=True)


def _run_pass(program, pass_, ctx=None):
    """Run one pass under the manager's declaration-driven invalidation."""
    ctx = ctx or PassContext(program=program)
    ctx.program = program
    PassManager([pass_]).run(ctx)
    return ctx


class TestMutatingStagesKeepAnalysisConsistent:
    def test_hwrefactor(self, program):
        _warm(program)
        refactor_hardware_accesses(program)
        _assert_cache_fresh(program)

    def test_cure_and_ccured_optimizer(self, program):
        refactor_hardware_accesses(program)
        _warm(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                   run_optimizer=False))
        _assert_cache_fresh(program)

        from repro.ccured.passes import CCuredOptimizerPass
        _warm(program)
        _run_pass(program, CCuredOptimizerPass())
        _assert_cache_fresh(program)

    def test_inliner(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                   run_optimizer=False))
        _warm(program)
        inline_program(program)
        _assert_cache_fresh(program)

    def test_every_cxprop_pass(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID))
        config = CxpropConfig()
        ctx = PassContext(program=program)
        for pass_ in [CxpropFactsPass(config), FoldPass(config),
                      CopyPropPass(), AtomicOptPass(), DcePass()]:
            _warm(program)
            _run_pass(program, pass_, ctx)
            _assert_cache_fresh(program)

    def test_gcc_optimizer(self, program):
        refactor_hardware_accesses(program)
        cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID))
        _warm(program)
        gcc_optimize(program)
        _assert_cache_fresh(program)


def test_optimize_checks_invalidates_under_the_manager(program):
    """``ccured.optimize`` relies on the declaration (the raw function does
    not self-invalidate), so running it through the manager must clean up."""
    refactor_hardware_accesses(program)
    cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                               run_optimizer=False))
    _warm(program)
    removed = optimize_checks(program)
    assert removed > 0
    # Direct call: the cache may now be stale; the manager-driven path in
    # TestMutatingStagesKeepAnalysisConsistent covers the supported route.
    program.invalidate_analysis()
    _assert_cache_fresh(program)
