"""Integration tests for the safety property itself.

These tests build applications containing genuine memory-safety bugs and
check the central claim of the system: the unsafe build silently misbehaves,
while every safe build traps the violation at run time and reports a
diagnostic that the FLID table can decompress.
"""

import pytest

from repro.api.workbench import Workbench, run_network
from repro.ccured.flid import decompress_failure
from repro.nesc.component import Component
from repro.tinyos.apps import _base
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE, variant_by_name


def buggy_application(bound: int):
    """A sampler whose loop bound overruns its 4-entry buffer when bound > 4."""
    ifaces = _base.interfaces()
    source = f"""
uint16_t samples[4];
uint8_t cursor = 0;
uint16_t taken = 0;

uint8_t Control_init(void) {{
  cursor = 0;
  taken = 0;
  return 1;
}}

uint8_t Control_start(void) {{
  Timer_start(100);
  return 1;
}}

uint8_t Control_stop(void) {{
  return 1;
}}

uint8_t Timer_fired(void) {{
  PhotoADC_getData();
  return 1;
}}

uint8_t PhotoADC_dataReady(uint16_t value) {{
  atomic {{
    if (cursor < {bound}) {{
      samples[cursor] = value;
      cursor = cursor + 1;
    }} else {{
      cursor = 0;
    }}
    taken = taken + 1;
  }}
  return 1;
}}
"""
    component = Component(
        name="SamplerM",
        provides={"Control": ifaces["StdControl"]},
        uses={"Timer": ifaces["Timer"], "PhotoADC": ifaces["ADC"]},
        source=source,
    )
    app = _base.new_application("Sampler", "mica2", "bounded sampler")
    _base.add_timer_stack(app, ifaces)
    _base.add_adc(app, ifaces)
    app.add_component(component)
    app.wire("SamplerM", "Timer", "TimerC", "Timer0")
    app.wire("SamplerM", "PhotoADC", "ADCC", "PhotoADC")
    app.boot.append(("SamplerM", "Control"))
    return app


@pytest.fixture(scope="module")
def bench():
    return Workbench()


def _run(result, seconds: float, traffic=None):
    """Simulate one mote running ``result``'s program; returns the node."""
    return run_network(result.program, seconds=seconds,
                       traffic=traffic).nodes[0]


def _build_buggy(bench, bound: int, variant):
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    return bench.build_unregistered(buggy_application(bound), variant)


class TestBuggyApplication:
    def test_unsafe_build_corrupts_memory_silently(self, bench):
        node = _run(_build_buggy(bench, 6, BASELINE), 2.0)
        assert not node.halted
        assert node.failures == []
        assert node.memory_violations > 0

    @pytest.mark.parametrize("variant", ["safe-flid", "safe-optimized",
                                         "safe-verbose"])
    def test_safe_builds_trap_the_overrun(self, bench, variant):
        node = _run(_build_buggy(bench, 6, variant), 2.0)
        assert node.halted, f"{variant} should halt on the out-of-bounds store"
        assert node.failures, f"{variant} should report the failure"
        assert node.memory_violations == 0, \
            "the check must fire before the bad store happens"

    def test_flid_report_decompresses_to_the_right_place(self, bench):
        result = _build_buggy(bench, 6, "safe-flid")
        failure = _run(result, 2.0).failures[0]
        assert failure.flid is not None
        message = decompress_failure(result.ccured.flid_table, failure.flid)
        assert "SamplerM" in message and "dataReady" in message

    def test_the_surviving_check_is_the_one_that_matters(self, bench):
        result = _build_buggy(bench, 6, "safe-optimized")
        assert result.checks_surviving >= 1
        assert _run(result, 2.0).halted

    def test_correct_version_of_the_same_program_never_traps(self, bench):
        node = _run(_build_buggy(bench, 4, "safe-optimized"), 2.0)
        assert not node.halted
        assert node.failures == []
        assert node.memory_violations == 0


class TestSafetyAcrossTheSuite:
    @pytest.mark.parametrize("app", ["BlinkTask_Mica2", "SenseToRfm_Mica2",
                                     "Ident_Mica2"])
    def test_shipped_applications_never_trip_their_checks(self, bench, app):
        node = _run(bench.build_result(app, "safe-flid"), 1.5,
                    duty_cycle_context(app))
        assert not node.halted
        assert node.failures == []
        assert node.memory_violations == 0
