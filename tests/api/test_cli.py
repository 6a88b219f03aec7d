"""The ``python -m repro`` command line: JSON and table output."""

import io
import json

import pytest

from repro.api.cli import main, resolve_apps, resolve_variants
from repro.api.records import BuildRecord, SimRecord
from repro.tinyos.suite import FIGURE_APPS, MICA2_APPS
from repro.toolchain.sweep import SweepRunner
from repro.toolchain.variants import variant_by_name


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


def reference_summary(app: str, variant: str) -> dict:
    """The unshared reference build's summary (no prefix snapshots)."""
    return SweepRunner([app], [variant_by_name(variant)],
                       share_front_end=False).run().builds[0].summary


class TestTokenResolution:
    def test_app_sets(self):
        assert resolve_apps("all") == FIGURE_APPS
        assert resolve_apps("mica2") == MICA2_APPS
        assert resolve_apps("A_Mica2, B_Mica2") == ["A_Mica2", "B_Mica2"]

    def test_variant_sets(self):
        figure3 = resolve_variants("figure3")
        assert figure3[0] == "baseline" and len(figure3) == 8
        assert len(resolve_variants("figure2")) == 4
        assert "safe-optimized" in resolve_variants("all")
        assert resolve_variants("baseline,safe-flid") == \
            ["baseline", "safe-flid"]


class TestListCommand:
    def test_json_listing(self):
        status, output = run_cli("list", "--json")
        assert status == 0
        data = json.loads(output)
        assert data["applications"] == FIGURE_APPS
        assert "safe-optimized" in data["variants"]
        assert data["variant_sets"]["figure3"][0] == "baseline"

    def test_table_listing(self):
        status, output = run_cli("list")
        assert status == 0
        assert "BlinkTask_Mica2" in output and "safe-optimized" in output


class TestBuildCommand:
    def test_json_record_round_trips(self):
        status, output = run_cli("build", "BlinkTask_Mica2",
                                 "--variant", "safe-flid", "--json")
        assert status == 0
        record = BuildRecord.from_dict(json.loads(output))
        expected = reference_summary("BlinkTask_Mica2", "safe-flid")
        assert record.summary() == expected

    def test_table_output(self):
        status, output = run_cli("build", "BlinkTask_Mica2",
                                 "--variant", "baseline")
        assert status == 0
        assert "BlinkTask_Mica2" in output and "baseline" in output

    def test_unknown_app_fails_cleanly(self):
        status, _output = run_cli("build", "NoSuchApp")
        assert status == 2

    def test_unknown_variant_fails_cleanly(self):
        status, _output = run_cli("build", "BlinkTask_Mica2",
                                  "--variant", "bogus")
        assert status == 2


class TestSweepCommand:
    def test_json_records_round_trip_and_match_the_pipeline(self):
        status, output = run_cli(
            "sweep", "--apps", "BlinkTask_Mica2",
            "--variants", "baseline,safe-optimized", "--json")
        assert status == 0
        data = json.loads(output)
        assert data["spec"]["apps"] == ["BlinkTask_Mica2"]
        records = [BuildRecord.from_dict(entry) for entry in data["records"]]
        for record in records:
            expected = reference_summary(record.app, record.variant)
            assert record.summary() == expected

    def test_negative_process_count_is_a_usage_error(self):
        status, _output = run_cli("sweep", "--apps", "BlinkTask_Mica2",
                                  "--variants", "baseline",
                                  "--processes", "-1")
        assert status == 2


class TestSimulateCommand:
    def test_json_record_round_trips(self):
        status, output = run_cli("simulate", "BlinkTask_Mica2",
                                 "--variant", "baseline",
                                 "--seconds", "1", "--json")
        assert status == 0
        record = SimRecord.from_dict(json.loads(output))
        assert record.node_count == 1
        assert 0.0 < record.duty_cycle < 0.1

    def test_zero_nodes_is_a_spec_error(self):
        status, _output = run_cli("simulate", "BlinkTask_Mica2",
                                  "--nodes", "0")
        assert status == 2

    def test_topology_loss_and_seed_flags_reach_the_record(self):
        status, output = run_cli("simulate", "Surge_Mica2",
                                 "--variant", "baseline",
                                 "--seconds", "10", "--nodes", "3",
                                 "--topology", "chain", "--loss", "0.2",
                                 "--seed", "9", "--traffic", "none",
                                 "--json")
        assert status == 0
        record = SimRecord.from_dict(json.loads(output))
        assert record.topology == "chain"
        assert record.node_count == 3
        assert len(record.packets_sent) == 3

    def test_invalid_loss_is_a_spec_error(self):
        status, _output = run_cli("simulate", "BlinkTask_Mica2",
                                  "--loss", "1.5")
        assert status == 2


@pytest.mark.parametrize("command", [
    ("simulate", "BlinkTask_Mica2"),
    ("scenarios", "BlinkTask_Mica2"),
    ("figures", "--figure", "3c", "--apps", "BlinkTask_Mica2"),
])
def test_infinite_seconds_is_a_usage_error(command):
    status, _output = run_cli(*command, "--seconds", "inf")
    assert status == 2


class TestFiguresCommand:
    def test_figure3a_json(self):
        status, output = run_cli("figures", "--figure", "3a",
                                 "--apps", "BlinkTask_Mica2", "--json")
        assert status == 0
        (table,) = json.loads(output)
        assert "3(a)" in table["title"]
        (row,) = table["rows"]
        assert row["application"] == "BlinkTask_Mica2"
        assert row["baseline"] > 0
        assert row["safe-optimized"] is not None


class TestStoreFlag:
    def test_warm_build_executes_nothing(self, tmp_path):
        store = str(tmp_path / "artifacts")
        status, _ = run_cli("build", "BlinkTask_Mica2", "--store", store)
        assert status == 0

        status, output = run_cli("build", "BlinkTask_Mica2",
                                 "--store", store, "--stats", "--json")
        assert status == 0
        payload = json.loads(output)
        stats = payload["stats"]
        assert stats["passes_executed"] == 0
        assert stats["builds_executed"] == 0
        assert stats["lowerings"] == 0
        assert stats["store"]["record_hits"] == 1
        BuildRecord.from_dict(payload["record"])  # round-trippable

    def test_cold_and_warm_emit_byte_identical_records(self, tmp_path):
        store = str(tmp_path / "artifacts")
        _, cold = run_cli("build", "BlinkTask_Mica2", "--json",
                          "--store", store)
        _, warm = run_cli("build", "BlinkTask_Mica2", "--json",
                          "--store", store)
        assert cold == warm

    def test_stats_table_mode_prints_counters(self, tmp_path):
        store = str(tmp_path / "artifacts")
        run_cli("build", "BlinkTask_Mica2", "--store", store)
        status, output = run_cli("build", "BlinkTask_Mica2",
                                 "--store", store, "--stats")
        assert status == 0
        assert "executed   : 0 passes" in output
        assert "1 record hit(s)" in output

    def test_gc_command_reports_and_evicts(self, tmp_path):
        store = str(tmp_path / "artifacts")
        run_cli("build", "BlinkTask_Mica2", "--store", store)
        status, output = run_cli("gc", "--store", store, "--json")
        assert status == 0
        report = json.loads(output)
        assert report["entries"] > 0 and report["evicted"] == 0

        status, output = run_cli("gc", "--store", store,
                                 "--budget-bytes", "1", "--json")
        assert status == 0
        report = json.loads(output)
        assert report["evicted"] > 0
        assert report["bytes_after"] <= 1

    def test_negative_gc_budget_is_a_usage_error(self, tmp_path):
        store = str(tmp_path / "artifacts")
        run_cli("build", "BlinkTask_Mica2", "--store", store)
        _, output = run_cli("gc", "--store", store, "--json")
        entries = json.loads(output)["entries"]
        assert entries > 0
        status, _ = run_cli("gc", "--store", store, "--budget-bytes", "-1")
        assert status == 2
        _, output = run_cli("gc", "--store", store, "--json")
        assert json.loads(output)["entries"] == entries
