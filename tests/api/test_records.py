"""Record schemas: JSON round-trips and summary compatibility."""

import json
from dataclasses import replace

import pytest

from repro.api.records import BuildRecord, ScenarioRecord, SimRecord

BUILD = BuildRecord(app="BlinkTask_Mica2", variant="safe-flid",
                    content_key="abc123", code_bytes=2948, ram_bytes=35,
                    checks_inserted=12, checks_surviving=11,
                    passes=("nesc.flatten", "gcc"), wall_time_s=0.125)

SIM = SimRecord(app="Surge_Mica2", variant="safe-optimized",
                content_key="def456", node_count=2, seconds=3.0,
                duty_cycles=(0.01, 0.02), failures=0, halted=False,
                led_changes=14,
                superblocks={"fused_statements": 10,
                             "statements_total": 40,
                             "entries_fast": 3, "entries_slow": 1,
                             "fused_fraction": 0.25})

SCENARIO = ScenarioRecord(
    app="Surge_Mica2", content_key="c1a0b2a4b9612bf4", node_count=2,
    seconds=2.0, topology="chain", seed=0,
    variants=("baseline", "safe-optimized"),
    faults=("bit-flip@RadioCRCPacketC__radio_rx_ptr",),
    verdicts=(("silent-corruption", "detected"),),
    golden={"runs": 2, "cache_hits": 0})


@pytest.mark.parametrize("record, telemetry", [
    (BUILD, {"passes": ("image",)}),
    (BUILD, {"wall_time_s": 0.25}),
    (SIM, {"superblocks": {"fused_statements": 0, "statements_total": 40}}),
    (SCENARIO, {"golden": {"runs": 0, "cache_hits": 2}}),
], ids=["build-passes", "build-wall-time", "sim-superblocks",
        "scenario-golden"])
def test_telemetry_never_decides_equality(record, telemetry):
    """What the session ran before, how long it took and how the engine
    got there are telemetry: a record differing only in them is equal,
    with an equal hash."""
    changed = replace(record, **telemetry)
    assert changed == record
    assert hash(changed) == hash(record)


class TestBuildRecord:
    def test_json_round_trip(self):
        wire = json.dumps(BUILD.to_dict())
        assert BuildRecord.from_dict(json.loads(wire)) == BUILD

    def test_summary_matches_build_result_schema(self):
        assert BUILD.summary() == {
            "application": "BlinkTask_Mica2",
            "variant": "safe-flid",
            "code_bytes": 2948,
            "ram_bytes": 35,
            "checks_inserted": 12,
            "checks_surviving": 11,
        }

    def test_check_accounting(self):
        assert BUILD.checks_removed == 1
        assert BUILD.checks_removed_fraction == pytest.approx(1 / 12)
        unsafe = BuildRecord(app="a", variant="baseline", content_key="k",
                             code_bytes=1, ram_bytes=1, checks_inserted=0,
                             checks_surviving=0)
        assert unsafe.checks_removed_fraction == 0.0

    def test_from_summary_round_trips_the_summary(self):
        record = BuildRecord.from_summary(BUILD.summary(), "abc123",
                                          passes=BUILD.passes,
                                          wall_time_s=BUILD.wall_time_s)
        assert record == BUILD

    def test_records_are_frozen(self):
        with pytest.raises(AttributeError):
            BUILD.code_bytes = 0


class TestSimRecord:
    def test_json_round_trip(self):
        wire = json.dumps(SIM.to_dict())
        assert SimRecord.from_dict(json.loads(wire)) == SIM

    def test_duty_cycle_is_the_first_node(self):
        assert SIM.duty_cycle == pytest.approx(0.01)

    def test_duty_cycle_with_no_nodes_raises_a_clear_error(self):
        empty = SimRecord(app="Surge_Mica2", variant="baseline",
                          content_key="k", node_count=1, seconds=1.0,
                          duty_cycles=(), failures=0, halted=False,
                          led_changes=0)
        with pytest.raises(ValueError, match="Surge_Mica2"):
            empty.duty_cycle

    def test_records_predating_superblocks_load_with_an_empty_dict(self):
        wire = {k: v for k, v in SIM.to_dict().items()
                if k != "superblocks"}
        assert SimRecord.from_dict(wire).superblocks == {}

    def test_records_carrying_removed_kernel_telemetry_still_load(self):
        """Records written while the multi-process kernel existed carry
        ``workers``/``shards``/``recovery``; loading ignores them."""
        wire = {**SIM.to_dict(), "workers": 2,
                "shards": [{"worker": 0, "nodes": [0, 1], "rounds": 12,
                            "packets_in": 3, "packets_out": 4,
                            "checkpoints": 1, "sync_wait_s": 0.01,
                            "wall_s": 0.2}],
                "recovery": {"respawns": 0, "replayed_rounds": 0,
                             "checkpoints": 2, "checkpoint_bytes": 1234,
                             "chaos_kills": 0, "recovery_wall_s": 0.0}}
        record = SimRecord.from_dict(json.loads(json.dumps(wire)))
        assert record == SIM
        assert not {"workers", "shards", "recovery"} & set(record.to_dict())

    def test_records_carrying_plan_store_telemetry_still_load(self):
        """Records written while the persistent plan store existed carry
        its counters and directory in ``code_cache``; loading ignores
        them."""
        code_cache = {"functions": 31, "lowerings": 0, "plan_hits": 60,
                      "disk_loads": 31, "store_hits": 1, "store_misses": 0,
                      "store_stores": 0, "store_dir": "/tmp/plans"}
        wire = {**SIM.to_dict(), "code_cache": code_cache}
        record = SimRecord.from_dict(json.loads(json.dumps(wire)))
        assert record == SIM
        assert "code_cache" not in record.to_dict()

    def test_records_stay_hashable_despite_the_stats_dict(self):
        # frozen dataclass: the superblocks field is excluded from the
        # generated __hash__ (dicts are unhashable) and from equality.
        assert hash(SIM) == hash(SIM)
        assert len({SIM, SIM}) == 1


class TestScenarioRecord:
    def test_records_carrying_a_workers_count_still_load(self):
        wire = {**SCENARIO.to_dict(), "workers": 2}
        loaded = ScenarioRecord.from_dict(json.loads(json.dumps(wire)))
        assert loaded == SCENARIO
        assert "workers" not in loaded.to_dict()
