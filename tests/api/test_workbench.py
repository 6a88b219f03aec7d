"""Workbench routing: memoization, prefix sharing, pool mode, simulation."""

import pytest

from repro.api.figures import figure2_table, figure3a_table
from repro.api.records import BuildRecord
from repro.api.specs import BuildSpec, SimSpec, SweepSpec
from repro.api.workbench import Workbench
from repro.avrora import interp
from repro.ccured.passes import CurePass
from repro.cminor.program import Program
from repro.nesc.passes import FlattenPass
from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain import sweep
from repro.toolchain.config import BuildVariant
from repro.toolchain.passes import PassManager
from repro.toolchain.sweep import SweepRunner, variant_pass_keys
from repro.toolchain.variants import (
    BASELINE,
    FIGURE2_STRATEGIES,
    FIGURE3_VARIANTS,
    variant_by_name,
)

from helpers import tiny_application


def _counting(monkeypatch, cls, counter):
    original = cls.run

    def counted(self, *args, **kwargs):
        counter.append(getattr(self, "name", type(self).__name__))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "run", counted)


class TestMemoization:
    def test_second_identical_build_does_not_rerun_passes(self, monkeypatch):
        bench = Workbench()
        first = bench.build("BlinkTask_Mica2", "safe-flid")
        first_result = bench.build_result("BlinkTask_Mica2", "safe-flid")

        executed: list[str] = []
        _counting(monkeypatch, PassManager, executed)
        second = bench.build("BlinkTask_Mica2", "safe-flid")
        second_result = bench.build_result("BlinkTask_Mica2", "safe-flid")

        assert executed == []
        assert second is first
        assert second_result is first_result
        # The build's trace is the original object — no pass re-ran.
        assert second_result.trace is first_result.trace
        assert tuple(second_result.trace.pass_names()) == first.passes

    def test_record_and_result_share_one_summary(self):
        bench = Workbench()
        record = bench.build(BuildSpec(app="BlinkTask_Mica2",
                                       variant="safe-optimized"))
        result = bench.build_result("BlinkTask_Mica2", "safe-optimized")
        assert record.summary() == result.summary()
        assert record.content_key == BuildSpec(
            app="BlinkTask_Mica2", variant="safe-optimized").content_key()

    def test_figure2_reuses_figure3_builds(self):
        """Figure 2's last three bars are Figure 3's safe-flid,
        safe-flid-cxprop and safe-optimized builds: one session builds
        Figures 2 and 3(a) in 9 builds, not 12."""
        returned: list[BuildRecord] = []

        class RecordingWorkbench(Workbench):
            def build(self, spec, variant=None):
                record = super().build(spec, variant)
                returned.append(record)
                return record

        bench = RecordingWorkbench()
        figure2_table(bench, ["BlinkTask_Mica2"])
        figure2 = list(returned)
        returned.clear()
        figure3a_table(bench, ["BlinkTask_Mica2"])
        figure3a = {record.variant: record for record in returned}

        assert bench.stats()["builds_executed"] == 9
        assert [record.variant for record in figure2] == \
            [variant.name for variant in FIGURE2_STRATEGIES]
        for record, name in zip(figure2[1:], ["safe-flid", "safe-flid-cxprop",
                                              "safe-optimized"]):
            assert record is figure3a[name]

    def test_sweep_reuses_memoized_builds(self):
        bench = Workbench()
        single = bench.build("BlinkTask_Mica2", "baseline")
        records = bench.sweep(SweepSpec(apps=("BlinkTask_Mica2",),
                                        variants=("baseline", "safe-flid")))
        assert records[0] is single
        again = bench.sweep(SweepSpec(apps=("BlinkTask_Mica2",),
                                      variants=("baseline", "safe-flid")))
        assert [r is s for r, s in zip(again, records)] == [True, True]


class TestPrefixSharing:
    def test_flid_variants_share_front_end_and_ccured_across_calls(
            self, monkeypatch):
        """Two interactive builds of FLID-cured variants run the nesC front
        end (and the CCured stage) exactly once between them."""
        flattens: list[str] = []
        cures: list[str] = []
        _counting(monkeypatch, FlattenPass, flattens)
        _counting(monkeypatch, CurePass, cures)

        bench = Workbench()
        first = bench.build_result("Oscilloscope_Mica2", "safe-flid")
        second = bench.build_result("Oscilloscope_Mica2", "safe-optimized")

        assert flattens == ["nesc.flatten"]
        assert cures == ["ccured.cure"]
        # Asserted via pass traces too: the shared prefix reports are the
        # very same objects in both builds' traces.
        assert first.trace.passes[0] is second.trace.passes[0]
        assert second.trace.pass_names()[:4] == \
            ["nesc.flatten", "nesc.hwrefactor", "ccured.cure",
             "ccured.optimize"]
        # And the shared stage never leaks state: each result's ccured
        # report points at its own program.
        assert first.ccured.program is first.program
        assert second.ccured.program is second.program


class TestSnapshotLifetime:
    def test_figures_2_and_3a_clone_11_programs_per_app(self, monkeypatch):
        """Figures 2 and 3(a) snapshot each app at the 3 points where
        registered variants diverge and resume its other 8 builds from
        them: 11 clones per app.  Every snapshot taken is resumed at least
        once."""
        cloned: list[Program] = []
        clone = Program.clone

        def counted(program):
            cloned.append(program)
            return clone(program)

        taken: list = []

        class Recorded(sweep._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                taken.append(self)

        monkeypatch.setattr(Program, "clone", counted)
        monkeypatch.setattr(sweep, "_Snapshot", Recorded)
        apps = ["BlinkTask_Mica2", "Oscilloscope_Mica2"]
        bench = Workbench()
        figure2_table(bench, apps)
        figure3a_table(bench, apps)

        assert len(cloned) == 11 * len(apps)
        assert len(taken) == 3 * len(apps)
        for snapshot in taken:
            assert any(source is snapshot.program for source in cloned)

    def test_snapshots_are_freed_once_their_variants_are_built(self):
        """A session keeps an app's snapshot only while some registered
        variant that starts with its prefix is unbuilt: after the figures
        it holds the front end (for safe-full-runtime), after every
        registered variant nothing."""
        app = "BlinkTask_Mica2"
        bench = Workbench()
        figure2_table(bench, [app])
        figure3a_table(bench, [app])
        assert list(bench._snapshots[app]) == \
            [variant_pass_keys("safe-full-runtime")[:2]]

        for name in bench.variant_names():
            bench.build(app, name)
        assert app not in bench._snapshots


class TestDifferential:
    def test_workbench_matches_direct_pipeline_for_all_figure3_builds(self):
        """Workbench summaries are byte-identical to the unshared reference
        sweep (every build runs its whole pass list directly, with no
        prefix snapshots) for every FIGURE_APPS × Figure-3 variant."""
        variants = [BASELINE] + FIGURE3_VARIANTS
        bench = Workbench()
        records = bench.sweep(SweepSpec(
            apps=tuple(FIGURE_APPS),
            variants=tuple(v.name for v in variants)))
        expected = SweepRunner(FIGURE_APPS, variants,
                               share_front_end=False).run().summaries()
        assert [record.summary() for record in records] == expected


class TestProcessPool:
    def test_pooled_sweep_matches_in_process_records(self):
        spec = SweepSpec(apps=("BlinkTask_Mica2",),
                         variants=("baseline", "safe-flid"))
        pooled = Workbench().sweep(spec, processes=1)
        local = Workbench().sweep(spec)
        assert pooled == local
        # The pass trace crosses the process boundary too: only the
        # session's wall time differs.
        assert [r.passes for r in pooled] == [r.passes for r in local]
        assert all(r.passes[0] == "nesc.flatten" for r in pooled)
        for record in pooled + local:
            assert record.wall_time_s > 0

    def test_build_result_rebuilds_in_process_after_pooled_sweep(
            self, monkeypatch):
        spec = SweepSpec(apps=("BlinkTask_Mica2",), variants=("baseline",))
        bench = Workbench()
        (record,) = bench.sweep(spec, processes=1)
        flattens: list[str] = []
        _counting(monkeypatch, FlattenPass, flattens)
        result = bench.build_result("BlinkTask_Mica2", "baseline")
        # Programs stay in the worker, so the program is built again here ...
        assert flattens == ["nesc.flatten"]
        assert result.summary() == record.summary()
        assert tuple(result.trace.pass_names()) == record.passes
        # ... and the record admitted first stays the session's record.
        assert bench.build("BlinkTask_Mica2", "baseline") is record
        assert bench.build_result("BlinkTask_Mica2", "baseline") is result


class TestUnregisteredBuilds:
    def test_custom_variants_share_the_app_snapshot_store(self, monkeypatch):
        flattens: list[str] = []
        _counting(monkeypatch, FlattenPass, flattens)
        bench = Workbench()
        custom = BuildVariant(name="custom-tweak",
                              description="ad-hoc",
                              run_inliner=True, run_cxprop=False)
        assert custom.name not in bench.variant_names()
        bench.build("BlinkTask_Mica2", "safe-flid")
        result = bench.build_unregistered("BlinkTask_Mica2", custom)
        # The unregistered build resumed from the registered build's
        # front-end snapshot: no second flatten.
        assert flattens == ["nesc.flatten"]
        assert result.image.code_bytes > 0


class TestLifecycle:
    def test_clear_drops_every_session_cache(self):
        bench = Workbench()
        record = bench.build("BlinkTask_Mica2", "baseline")
        bench.build_unregistered(tiny_application(),
                                 variant_by_name("baseline"))
        bench.simulate(SimSpec(app="BlinkTask_Mica2", variant="baseline",
                               seconds=0.5))
        assert bench.cached_builds() == 1
        bench.clear()
        assert bench.cached_builds() == 0
        rebuilt = bench.build("BlinkTask_Mica2", "baseline")
        assert rebuilt is not record
        assert rebuilt.summary() == record.summary()


class TestSimulation:
    def test_simulate_returns_a_memoized_record(self):
        bench = Workbench()
        spec = SimSpec(app="BlinkTask_Mica2", variant="baseline", seconds=1.0)
        first = bench.simulate(spec)
        second = bench.simulate(SimSpec(app="BlinkTask_Mica2",
                                        variant="baseline", seconds=1.0))
        assert second is first
        assert len(first.duty_cycles) == 1
        assert 0.0 < first.duty_cycle < 0.1
        assert not first.halted and first.failures == 0

    def test_multi_node_simulation_records_every_node(self):
        bench = Workbench()
        record = bench.simulate(SimSpec(app="BlinkTask_Mica2",
                                        variant="baseline", node_count=3,
                                        seconds=0.5))
        assert record.node_count == 3
        assert len(record.duty_cycles) == 3
        assert len(record.packets_sent) == 3
        assert len(record.injected_radio) == 3

    def test_chain_topology_simulation_reports_cross_node_packets(self):
        bench = Workbench()
        record = bench.simulate(SimSpec(
            app="Surge_Mica2", variant="baseline", node_count=3,
            seconds=20.0, traffic="none", topology="chain"))
        assert record.topology == "chain"
        assert record.packets_delivered > 0
        assert all(sent > 0 for sent in record.packets_sent)
        # The relay hears both ends; the leaf only its chain neighbour.
        assert record.packets_received[1] >= record.packets_received[2]
        # Lossless channel: nothing charged to the loss model.
        assert record.packets_lost == 0
        assert record.to_dict()["topology"] == "chain"

    def test_seeded_lossy_simulations_memoize_by_seed(self):
        bench = Workbench()
        lossy = SimSpec(app="BlinkTask_Mica2", variant="baseline",
                        node_count=2, seconds=0.5, loss=0.5, seed=3)
        other_seed = SimSpec(app="BlinkTask_Mica2", variant="baseline",
                             node_count=2, seconds=0.5, loss=0.5, seed=4)
        assert bench.simulate(lossy) is bench.simulate(lossy)
        assert bench.simulate(lossy) is not bench.simulate(other_seed)

    def test_record_equality_ignores_what_the_session_ran_before(
            self, monkeypatch):
        """A record is a function of its spec.  A session that simulated
        the build before and the tree engine record equal results; the
        records must compare equal and hash alike."""
        spec = SimSpec(app="BlinkTask_Mica2", variant="baseline", seconds=1.0)
        fresh = Workbench().simulate(spec)
        warmed = Workbench()
        warmed.simulate(SimSpec(app="BlinkTask_Mica2", variant="baseline",
                                seconds=0.5))
        records = [warmed.simulate(spec)]
        with monkeypatch.context() as patch:
            patch.setattr(interp, "DEFAULT_ENGINE", "tree")
            records.append(Workbench().simulate(spec))
        for record in records:
            assert record.content_key == fresh.content_key
            assert record == fresh
            assert hash(record) == hash(fresh)
