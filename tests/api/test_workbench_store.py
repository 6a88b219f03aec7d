"""Workbench routed through the artifact store: warm hits execute nothing."""

import pytest

from repro.api.records import BuildRecord
from repro.api.specs import BuildSpec, ScenarioSpec, SimSpec, SweepSpec
from repro.api.workbench import Workbench
from repro.scenarios.faults import FaultPlan, default_fault
from repro.toolchain.passes import PassManager

from helpers import tiny_application  # noqa: F401  (asserts tests/ on path)


def _counting(monkeypatch, counter):
    original = PassManager.run

    def counted(self, *args, **kwargs):
        counter.append(True)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PassManager, "run", counted)


BUILD = BuildSpec(app="BlinkTask_Mica2", variant="safe-flid")


class TestWarmBuilds:
    def test_cold_session_with_warm_store_builds_nothing(self, tmp_path,
                                                         monkeypatch):
        store = str(tmp_path / "artifacts")
        writer = Workbench(store=store)
        original = writer.build(BUILD)
        assert writer.stats()["passes_executed"] > 0

        executed: list = []
        _counting(monkeypatch, executed)
        reader = Workbench(store=store)
        record = reader.build(BUILD)
        stats = reader.stats()
        assert executed == []
        assert stats["passes_executed"] == 0
        assert stats["builds_executed"] == 0
        assert stats["lowerings"] == 0
        assert stats["store"]["record_hits"] == 1
        assert record.to_dict() == original.to_dict()

    def test_warm_sweep_serves_every_record_from_disk(self, tmp_path):
        store = str(tmp_path / "artifacts")
        spec = SweepSpec(apps=("BlinkTask_Mica2",),
                         variants=("baseline", "safe-flid"))
        originals = Workbench(store=store).sweep(spec)
        reader = Workbench(store=store)
        records = reader.sweep(spec)
        assert reader.stats()["passes_executed"] == 0
        assert [r.to_dict() for r in records] == \
            [r.to_dict() for r in originals]

    def test_novel_variant_resumes_from_stored_snapshot(self, tmp_path):
        store = str(tmp_path / "artifacts")
        Workbench(store=store).build(BUILD)

        # safe-flid's session stored the prefixes where registered
        # variants diverge: the front end, ccured.cure[flid], and that plus
        # ccured.optimize.  safe-optimized shares the last with safe-flid;
        # a fresh session must resume from it instead of re-running the
        # shared prefix.
        novel = Workbench(store=store)
        novel.build(BuildSpec(app="BlinkTask_Mica2",
                              variant="safe-optimized"))
        warm_passes = novel.stats()["passes_executed"]
        assert novel.store.snapshot_hits >= 1
        cold = Workbench()
        cold.build(BuildSpec(app="BlinkTask_Mica2",
                             variant="safe-optimized"))
        cold_passes = cold.stats()["passes_executed"]
        assert 0 < warm_passes < cold_passes

    def test_snapshot_resume_builds_identical_summary(self, tmp_path):
        store = str(tmp_path / "artifacts")
        spec = BuildSpec(app="BlinkTask_Mica2", variant="safe-optimized")
        Workbench(store=store).build(BUILD)
        resumed = Workbench(store=store).build(spec)
        full = Workbench().build(spec)
        assert resumed.summary() == full.summary()

    def test_build_result_still_available_after_store_hit(self, tmp_path):
        store = str(tmp_path / "artifacts")
        Workbench(store=store).build(BUILD)
        reader = Workbench(store=store)
        record = reader.build(BUILD)     # served from disk
        result = reader.build_result(BUILD)  # needs a live program
        assert result.summary() == record.summary()
        # The served record stays the session's, and is not written again.
        assert reader.build(BUILD) is record
        assert reader.store.stats()["stores"] == 0


class TestWarmSimulationsAndScenarios:
    SIM = SimSpec(app="BlinkTask_Mica2", variant="safe-flid", seconds=0.05)

    def test_sim_record_served_from_store(self, tmp_path, monkeypatch):
        store = str(tmp_path / "artifacts")
        original = Workbench(store=store).simulate(self.SIM)

        executed: list = []
        _counting(monkeypatch, executed)
        reader = Workbench(store=store)
        record = reader.simulate(self.SIM)
        stats = reader.stats()
        assert executed == []
        assert stats["simulations_executed"] == 0
        assert stats["lowerings"] == 0
        assert record.to_dict() == original.to_dict()

    def test_scenario_record_served_from_store(self, tmp_path):
        store = str(tmp_path / "artifacts")
        spec = ScenarioSpec(
            app="BlinkTask_Mica2", variants=("safe-flid",),
            plan=FaultPlan(faults=(default_fault("bit-flip", 1),)),
            node_count=1, seconds=0.05)
        original = Workbench(store=store).run_scenario(spec)
        reader = Workbench(store=store)
        record = reader.run_scenario(spec)
        stats = reader.stats()
        assert stats["scenarios_executed"] == 0
        assert stats["passes_executed"] == 0
        assert record.to_dict() == original.to_dict()


class TestStoreResilience:
    def test_corrupt_record_falls_back_to_building(self, tmp_path):
        store = str(tmp_path / "artifacts")
        writer = Workbench(store=store)
        original = writer.build(BUILD)
        path = writer.store._record_path(BUILD.content_key())
        with open(path, "w") as handle:
            handle.write("not json at all")
        reader = Workbench(store=store)
        rebuilt = reader.build(BUILD)
        stats = reader.stats()
        assert stats["builds_executed"] == 1
        assert stats["store"]["errors"] >= 1
        # Deterministic content matches; wall time is the rebuild's own.
        assert rebuilt.summary() == original.summary()
        assert rebuilt.passes == original.passes

    def test_gc_eviction_degrades_to_rebuild(self, tmp_path):
        store = str(tmp_path / "artifacts")
        writer = Workbench(store=store)
        writer.build(BUILD)
        writer.store.gc(0)  # evict everything
        reader = Workbench(store=store)
        reader.build(BUILD)
        stats = reader.stats()
        assert stats["builds_executed"] == 1
        assert stats["store"]["record_misses"] >= 1
