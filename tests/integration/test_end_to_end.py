"""End-to-end integration tests: the paper's claims on whole applications."""

import gc
import types

import pytest

from repro.api.workbench import Workbench, run_network
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.sweep import SweepRunner
from repro.toolchain.variants import BASELINE, SAFE_OPTIMIZED


@pytest.fixture(scope="module")
def bench():
    return Workbench()


def _run(result, seconds: float, traffic=None):
    """Simulate one mote running ``result``'s program; returns the node."""
    return run_network(result.program, seconds=seconds,
                       traffic=traffic).nodes[0]


class TestBehaviouralEquivalence:
    """The safe, optimized build must behave exactly like the baseline."""

    @pytest.fixture(scope="class")
    def runs(self, bench):
        app = "Oscilloscope_Mica2"
        results = {}
        for variant in ("baseline", "safe-flid", "safe-optimized"):
            result = bench.build_result(app, variant)
            results[variant] = (result,
                                _run(result, 2.0, duty_cycle_context(app)))
        return results

    def test_no_safety_failures_in_a_correct_program(self, runs):
        for variant, (result, node) in runs.items():
            assert not node.halted, f"{variant} halted unexpectedly"
            assert node.failures == [], f"{variant} reported failures"

    def test_observable_behaviour_is_identical(self, runs):
        baseline_node = runs["baseline"][1]
        for variant in ("safe-flid", "safe-optimized"):
            node = runs[variant][1]
            assert node.adc.conversions == baseline_node.adc.conversions
            assert len(node.radio.packets_sent) == \
                len(baseline_node.radio.packets_sent)
            assert node.leds.state.changes == \
                baseline_node.leds.state.changes

    def test_transmitted_packets_are_byte_identical(self, runs):
        baseline_packets = runs["baseline"][1].radio.packets_sent
        optimized_packets = runs["safe-optimized"][1].radio.packets_sent
        assert baseline_packets == optimized_packets

    def test_safety_costs_cpu_and_optimization_recovers_it(self, runs):
        baseline = runs["baseline"][1].duty_cycle()
        safe = runs["safe-flid"][1].duty_cycle()
        optimized = runs["safe-optimized"][1].duty_cycle()
        assert safe > baseline
        assert optimized < safe
        assert optimized < baseline * 1.25

    def test_no_memory_violations_anywhere(self, runs):
        for _variant, (result, node) in runs.items():
            assert node.memory_violations == 0


class TestHeadlineClaims:
    def test_safe_optimized_is_close_to_baseline_in_size(self, bench):
        app = "CntToLedsAndRfm_Mica2"
        baseline = bench.build(app, BASELINE)
        optimized = bench.build(app, "safe-optimized")
        assert optimized.code_bytes <= baseline.code_bytes * 1.25
        assert optimized.ram_bytes <= baseline.ram_bytes * 1.25

    def test_most_checks_are_removed_by_the_full_pipeline(self, bench):
        record = bench.build("Surge_Mica2", "safe-optimized")
        assert record.checks_inserted >= 50
        assert record.checks_removed_fraction >= 0.5

    def test_a_receive_heavy_application_works_safely_under_traffic(self, bench):
        app = "RfmToLeds_Mica2"
        node = _run(bench.build_result(app, "safe-optimized"), 2.0,
                    duty_cycle_context(app))
        assert node.radio.packets_received >= 4
        assert not node.halted and node.failures == []
        assert node.leds.state.changes >= 1

    def test_telosb_application_builds_and_runs(self, bench):
        result = bench.build_result("RadioCountToLeds_TelosB",
                                    "safe-optimized")
        assert result.program.platform == "telosb"
        node = _run(result, 1.0)
        assert not node.halted
        assert len(node.radio.packets_sent) >= 1


class TestNoCyclicGarbage:
    """The nesC race analysis, CCured's kind inference, cXprop's fold and
    atomic optimization, the GCC model and the call graph run once per
    function or statement; a recursive nested helper there would leave a
    function-cell reference cycle per call for the cyclic collector."""

    MODULES = ("repro.nesc.concurrency", "repro.ccured.infer",
               "repro.cxprop.fold", "repro.cxprop.atomic_opt",
               "repro.backend.gcc_opt", "repro.cminor.callgraph")

    def test_a_build_leaves_none_of_their_functions_in_gc_garbage(self):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            # safe-optimized runs all three: the race analysis in the
            # front end, kind inference in CCured, and fold in cXprop.
            build = SweepRunner(["Oscilloscope_Mica2"],
                                [SAFE_OPTIMIZED]).run().builds[0]
            gc.collect()
            leaked = sorted({
                f"{obj.__module__}.{obj.__qualname__}"
                for obj in gc.garbage
                if isinstance(obj, types.FunctionType)
                and obj.__module__ in self.MODULES})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert build.result.cxprop is not None
        assert leaked == []
