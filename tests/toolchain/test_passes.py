"""Tests for the pass-manager layer: registry, manager, traces, lowering."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.cxprop.driver import CxpropConfig, resolve_pointer_size
from repro.toolchain.lower import (
    back_end_passes,
    front_end_passes,
    variant_pass_names,
    variant_passes,
)
from repro.toolchain.passes import (
    FixpointPass,
    Pass,
    PassContext,
    PassManager,
    PassOutcome,
    create_pass,
    registered_passes,
)
from repro.api.workbench import Workbench
from repro.toolchain.pipeline import result_from_context
from repro.toolchain.variants import (
    BASELINE,
    SAFE_FLID,
    SAFE_OPTIMIZED,
)

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import tiny_application


def _run_passes(app, variant, label=None):
    """Run ``variant``'s whole pass list on ``app`` in one manager."""
    ctx = PassContext(variant=variant, application=app,
                      label=label or app.name)
    trace = PassManager(variant_passes(variant)).run(ctx)
    return result_from_context(ctx, trace)


class TestRegistry:
    def test_every_stage_is_registered(self):
        names = registered_passes()
        for expected in ["nesc.flatten", "nesc.hwrefactor", "ccured.cure",
                         "ccured.optimize", "inline", "cxprop", "cxprop.facts",
                         "cxprop.fold", "cxprop.copyprop", "cxprop.atomic",
                         "cxprop.dce", "gcc", "image"]:
            assert expected in names, f"{expected} not registered"

    def test_create_pass_by_name(self):
        pass_ = create_pass("nesc.flatten", suppress_norace=False)
        assert pass_.name == "nesc.flatten"
        assert pass_.suppress_norace is False
        with pytest.raises(KeyError):
            create_pass("no-such-pass")


class TestLowering:
    def test_baseline_lowers_to_minimal_pipeline(self):
        assert variant_pass_names(BASELINE) == [
            "nesc.flatten", "nesc.hwrefactor", "gcc", "image"]

    def test_safe_optimized_lowers_to_the_full_pipeline(self):
        assert variant_pass_names(SAFE_OPTIMIZED) == [
            "nesc.flatten", "nesc.hwrefactor", "ccured.cure",
            "ccured.optimize", "inline", "cxprop", "gcc", "image"]

    def test_fig2_variant_skips_the_inliner(self):
        names = variant_pass_names(SAFE_FLID)
        assert "ccured.optimize" in names
        assert "inline" not in names and "cxprop" not in names

    def test_front_and_back_end_partition_the_pass_list(self):
        front = [p.name for p in front_end_passes(SAFE_FLID)]
        back = [p.name for p in back_end_passes(SAFE_FLID)]
        assert front + back == variant_pass_names(SAFE_FLID)
        assert front == ["nesc.flatten", "nesc.hwrefactor"]


class TestPassManager:
    def test_build_trace_records_every_pass(self):
        result = _run_passes(tiny_application(), SAFE_FLID)
        trace = result.trace
        assert trace is not None
        assert trace.pass_names() == variant_pass_names(SAFE_FLID)
        assert trace.wall_time_s > 0
        for entry in trace.passes:
            assert entry.wall_time_s >= 0

    def test_trace_change_counts_match_stage_reports(self):
        result = _run_passes(tiny_application(), SAFE_FLID)
        reports = {entry.name: entry for entry in result.trace.passes}
        assert reports["nesc.hwrefactor"].changed == result.hw_refactor.total
        assert reports["ccured.cure"].changed == result.checks_inserted
        assert reports["image"].detail is result.image

    def test_a_pass_invalidates_only_what_it_reports(self):
        """The manager does no invalidation of its own: a pass that reports
        the one function it changed keeps every other function's facts."""

        class Touch(Pass):
            name = "touch"

            def run(self, program, ctx):
                program.functions["main"].body.stmts.append(
                    ast.VarDecl("added", ty.UINT8))
                program.invalidate_analysis("main")
                return PassOutcome(changed=1, detail=None)

        from repro.nesc.flatten import flatten_application
        program = flatten_application(tiny_application(), suppress_norace=True)
        cache = program.analysis()
        kept = {func.name: cache.local_types(func)
                for func in program.iter_functions()}

        PassManager([Touch()]).run(PassContext(program=program))
        for func in program.iter_functions():
            fresh = cache.local_types(func)
            if func.name == "main":
                assert "added" in fresh
            else:
                assert fresh is kept[func.name]


class TestFixpointPass:
    def test_iterates_until_no_change(self):
        class CountDown(Pass):
            name = "countdown"

            def __init__(self):
                self.budget = 3

            def run(self, program, ctx):
                if self.budget > 0:
                    self.budget -= 1
                    return PassOutcome(changed=1)
                return PassOutcome(changed=0)

        fix = FixpointPass("fix", [CountDown()], max_rounds=10)
        outcome = fix.run(Program(), PassContext())
        # 3 changing rounds plus the quiescent round that detects the fixpoint.
        assert outcome.detail["rounds"] == 4
        assert outcome.changed == 3

    def test_max_rounds_caps_iteration(self):
        class Restless(Pass):
            name = "restless"

            def run(self, program, ctx):
                return PassOutcome(changed=1)

        fix = FixpointPass("fix", [Restless()], max_rounds=2)
        outcome = fix.run(Program(), PassContext())
        assert outcome.detail["rounds"] == 2
        assert outcome.changed == 2


class TestBuildNamedLabel:
    def test_label_is_set_at_construction_not_mutated_after(self):
        result = Workbench().build_result("BlinkTask_Mica2", BASELINE)
        assert result.application == "BlinkTask_Mica2"
        assert result.summary()["application"] == "BlinkTask_Mica2"

    def test_build_defaults_to_the_application_name(self):
        app = tiny_application()
        result = Workbench().build_unregistered(app, BASELINE)
        assert result.application == app.name

    def test_build_accepts_an_explicit_label(self):
        result = _run_passes(tiny_application(), BASELINE,
                             label="Figure_Label")
        assert result.application == "Figure_Label"


class TestPointerSizeThreading:
    def test_default_config_derives_from_platform(self):
        assert CxpropConfig().pointer_size is None
        assert resolve_pointer_size(Program(platform="mica2"),
                                    CxpropConfig()) == 2
        assert resolve_pointer_size(Program(platform="telosb"),
                                    CxpropConfig()) == 2

    def test_explicit_pointer_size_wins(self):
        config = CxpropConfig(pointer_size=4)
        assert resolve_pointer_size(Program(platform="mica2"), config) == 4

    def test_unknown_platform_falls_back_to_two_bytes(self):
        assert resolve_pointer_size(Program(platform="desktop"),
                                    CxpropConfig()) == 2

    def test_cxprop_runs_on_a_telosb_program(self):
        from repro.cxprop.driver import optimize_program
        from repro.tinyos import suite

        program = suite.build_program("RadioCountToLeds_TelosB",
                                      suppress_norace=True)
        report = optimize_program(program)
        assert report.rounds >= 1
