"""Tests for the public build API: Workbench builds and run_network."""

import pytest

from repro.api.specs import BuildSpec, SimSpec
from repro.api.workbench import Workbench, run_network
from repro.ccured.flid import decompress_failure
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE, SAFE_FLID, SAFE_OPTIMIZED

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import tiny_application


@pytest.fixture(scope="module")
def bench():
    return Workbench()


class TestFacade:
    def test_application_listing(self, bench):
        apps = bench.applications()
        assert len(apps) == 12 and "Surge_Mica2" in apps

    def test_default_variant_is_the_headline_configuration(self, bench):
        record = bench.build("BlinkTask_Mica2")
        assert record.variant == SAFE_OPTIMIZED.name

    def test_variant_can_be_selected_by_name(self, bench):
        record = bench.build("BlinkTask_Mica2", "baseline")
        assert record.variant == "baseline"
        assert record.checks_inserted == 0

    def test_unknown_variant_raises(self, bench):
        with pytest.raises(KeyError):
            bench.build("BlinkTask_Mica2", "no-such-variant")

    def test_build_outcome_exposes_the_paper_metrics(self, bench):
        result = bench.build_result("BlinkTask_Mica2", "safe-flid")
        assert result.image.code_bytes > 0
        assert result.image.ram_bytes > 0
        assert result.checks_inserted > 0
        assert result.checks_surviving <= result.checks_inserted
        assert result.ccured.flid_table is not None

    def test_explain_failure_uses_the_flid_table(self, bench):
        table = bench.build_result("BlinkTask_Mica2",
                                   "safe-flid").ccured.flid_table
        flid = next(iter(table.entries))
        assert "check failed" in decompress_failure(table, flid)

    def test_explain_failure_on_unsafe_build(self, bench):
        """An unsafe build inserts no checks, so it has no FLID table."""
        assert bench.build_result("BlinkTask_Mica2", BASELINE).ccured is None

    def test_custom_applications_are_supported(self, bench):
        result = bench.build_unregistered(tiny_application(), SAFE_FLID)
        assert result.checks_inserted > 0

    def test_simulation_returns_duty_cycle_and_devices(self,
                                                       blink_baseline_build):
        network = run_network(blink_baseline_build.program, seconds=1.0,
                              traffic=duty_cycle_context("BlinkTask_Mica2"))
        node = network.nodes[0]
        assert 0.0 < node.duty_cycle() < 0.1
        assert not node.halted
        assert node.failures == []
        assert node.interrupts_delivered > 0

    def test_multi_node_simulation(self, blink_baseline_build):
        network = run_network(blink_baseline_build.program, seconds=0.5,
                              node_count=3)
        assert len(network.nodes) == 3


class TestFacadeDefaults:
    def test_none_variant_means_the_facade_default(self, bench):
        """``build(app)`` with no variant builds the headline variant."""
        assert bench.build("BlinkTask_Mica2", None) is \
            bench.build("BlinkTask_Mica2", SAFE_OPTIMIZED.name)

    def test_resolve_variant_none_returns_the_default(self):
        assert Workbench._as_build_spec("BlinkTask_Mica2", None) == \
            BuildSpec(app="BlinkTask_Mica2", variant=SAFE_OPTIMIZED.name)

    def test_facades_can_share_one_workbench(self, bench):
        """Callers sharing one Workbench share one build, whether they
        name the variant or pass the variant object."""
        a = bench.build_result("BlinkTask_Mica2", "baseline")
        b = bench.build_result("BlinkTask_Mica2", BASELINE)
        assert a is b


class TestSimulationErrors:
    def test_empty_simulation_outcome_raises_a_clear_error(self):
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            SimSpec(app="BlinkTask_Mica2", variant="baseline", node_count=0)

    def test_zero_node_simulation_is_rejected_up_front(self,
                                                       blink_baseline_build):
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            run_network(blink_baseline_build.program, seconds=0.5,
                        node_count=0)
