"""Tests for build variants, the pipeline, reporting, and simulation contexts."""

import pytest

from repro.api.workbench import Workbench
from repro.ccured.config import MessageStrategy, RuntimeMode
from repro.toolchain.config import BuildVariant
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.report import FigureTable, clip, percent_change
from repro.toolchain.variants import (
    BASELINE,
    FIGURE2_STRATEGIES,
    FIGURE3_VARIANTS,
    SAFE_FULL_RUNTIME,
    SAFE_OPTIMIZED,
    UNSAFE_OPTIMIZED,
    all_variant_names,
    variant_by_name,
)

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import tiny_application


class TestVariants:
    def test_figure3_has_seven_bars_in_order(self):
        assert len(FIGURE3_VARIANTS) == 7
        assert FIGURE3_VARIANTS[0].message_strategy is MessageStrategy.VERBOSE
        assert FIGURE3_VARIANTS[-1] is UNSAFE_OPTIMIZED

    def test_figure2_has_four_strategies(self):
        assert len(FIGURE2_STRATEGIES) == 4
        assert not FIGURE2_STRATEGIES[0].run_ccured_optimizer
        assert FIGURE2_STRATEGIES[-1].run_inliner

    def test_lookup_by_name(self):
        assert variant_by_name("baseline") is BASELINE
        assert variant_by_name("safe-optimized") is SAFE_OPTIMIZED
        with pytest.raises(KeyError):
            variant_by_name("unknown")
        assert "safe-flid" in all_variant_names()

    def test_describe_summarizes_the_stages(self):
        text = SAFE_OPTIMIZED.describe()
        assert "safe" in text and "inline" in text and "cxprop" in text
        assert BASELINE.describe().startswith("unsafe")

    def test_full_runtime_variant_uses_the_naive_port(self):
        assert SAFE_FULL_RUNTIME.runtime_mode is RuntimeMode.FULL


class TestPipeline:
    def test_baseline_build_has_no_checks(self, blink_baseline_build):
        assert blink_baseline_build.checks_inserted == 0
        assert blink_baseline_build.checks_surviving == 0
        assert blink_baseline_build.ccured is None

    def test_safe_build_records_every_stage(self, blink_safe_build):
        result = blink_safe_build
        assert result.ccured is not None
        assert result.checks_inserted > 0
        assert result.hw_refactor is not None and result.hw_refactor.total > 0
        assert result.gcc is not None

    def test_optimized_build_removes_checks_and_shrinks(self, blink_safe_build,
                                                        blink_optimized_build):
        assert blink_optimized_build.checks_surviving < \
            blink_safe_build.checks_surviving
        assert blink_optimized_build.image.code_bytes < \
            blink_safe_build.image.code_bytes
        assert blink_optimized_build.inline is not None
        assert blink_optimized_build.cxprop is not None

    def test_safe_build_is_larger_than_baseline(self, blink_baseline_build,
                                                blink_safe_build):
        assert blink_safe_build.image.code_bytes > \
            blink_baseline_build.image.code_bytes

    def test_runtime_footprint_is_reported(self, blink_safe_build):
        rom, ram = blink_safe_build.runtime_footprint()
        assert rom > 0
        assert ram >= 2

    def test_custom_application_can_be_built(self):
        result = Workbench().build_unregistered(tiny_application(), BASELINE)
        assert result.image.code_bytes > 0
        assert result.program.lookup_function("main") is not None

    def test_summary_dictionary(self, blink_optimized_build):
        summary = blink_optimized_build.summary()
        assert summary["application"] == "BlinkTask_Mica2"
        assert summary["variant"] == "safe-optimized"
        assert summary["code_bytes"] == blink_optimized_build.image.code_bytes


class TestReportHelpers:
    def test_percent_change(self):
        assert percent_change(110, 100) == pytest.approx(10.0)
        assert percent_change(90, 100) == pytest.approx(-10.0)
        assert percent_change(5, 0) == 0.0

    def test_clip(self):
        assert clip(250.0, -100.0, 100.0) == 100.0
        assert clip(-250.0, -100.0, 100.0) == -100.0
        assert clip(42.0, -100.0, 100.0) == 42.0

    def test_figure_table_rows_and_formatting(self):
        table = FigureTable(title="Demo", metric="x", applications=["A", "B"])
        table.baselines = {"A": 10.0, "B": 20.0}
        series = table.add_series("variant")
        series.values = {"A": 5.0, "B": -2.5}
        rows = table.rows()
        assert rows[0]["baseline"] == 10.0 and rows[1]["variant"] == -2.5
        text = table.format()
        assert "Demo" in text and "variant" in text and "A" in text


class TestContexts:
    def test_reactive_applications_get_radio_traffic(self):
        context = duty_cycle_context("RfmToLeds_Mica2")
        assert context is not None and context.radio_period_s > 0

    def test_base_station_also_gets_uart_traffic(self):
        context = duty_cycle_context("GenericBase_Mica2")
        assert context is not None and context.uart_period_s > 0

    def test_self_driven_applications_need_no_traffic(self):
        assert duty_cycle_context("BlinkTask_Mica2") is None
        assert duty_cycle_context("Oscilloscope_Mica2") is None

    def test_surge_context_advertises_a_route(self):
        context = duty_cycle_context("Surge_Mica2")
        assert context is not None
        from repro.tinyos import messages as msgs

        assert context.am_type == msgs.AM_MULTIHOP
