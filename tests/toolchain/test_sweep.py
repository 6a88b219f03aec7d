"""Tests for the batched sweep runner and its front-end sharing."""

import pytest

from repro.toolchain.sweep import (
    SweepRunner,
    persistent_prefixes,
    variant_pass_keys,
)
from repro.toolchain.variants import (
    BASELINE,
    FIG2_GCC_ONLY,
    SAFE_FLID,
    SAFE_FLID_CXPROP,
    SAFE_OPTIMIZED,
    SAFE_VERBOSE,
    UNSAFE_OPTIMIZED,
)

APPS = ["BlinkTask_Mica2", "Oscilloscope_Mica2"]
# safe-flid / safe-flid-cxprop / safe-optimized share their CCured stage,
# so this set exercises both front-end and deeper prefix sharing.
VARIANTS = [BASELINE, SAFE_FLID, SAFE_FLID_CXPROP, SAFE_OPTIMIZED]


@pytest.fixture(scope="module")
def shared_sweep():
    return SweepRunner(APPS, VARIANTS, share_front_end=True).run()


class TestSweepEquivalence:
    def test_shared_sweep_matches_per_variant_builds(self, shared_sweep):
        """Front-end sharing must not change any build summary."""
        for app in APPS:
            for variant in VARIANTS:
                alone = SweepRunner([app], [variant]).run().builds[0]
                assert shared_sweep.get(app, variant.name).summary == \
                    alone.summary

    def test_unshared_sweep_matches_shared_sweep(self, shared_sweep):
        unshared = SweepRunner(APPS, VARIANTS, share_front_end=False).run()
        assert unshared.summaries() == shared_sweep.summaries()

    def test_builds_preserve_app_then_variant_order(self, shared_sweep):
        order = [(b.application, b.variant_name) for b in shared_sweep]
        assert order == [(a, v.name) for a in APPS for v in VARIANTS]

    def test_results_carry_full_build_results(self, shared_sweep):
        build = shared_sweep.get("BlinkTask_Mica2", "safe-optimized")
        assert build.result is not None
        assert build.result.cxprop is not None
        assert build.result.trace is not None
        # The merged trace has the shared front end prepended.
        assert build.result.trace.pass_names()[:2] == \
            ["nesc.flatten", "nesc.hwrefactor"]

    def test_shared_ccured_stage_is_repointed_per_build(self, shared_sweep):
        """Even when the CCured stage ran on a shared prefix, each result's
        ccured report must reference that build's own program."""
        for variant_name in ("safe-flid", "safe-flid-cxprop", "safe-optimized"):
            result = shared_sweep.get("BlinkTask_Mica2", variant_name).result
            assert result.ccured is not None
            assert result.ccured.program is result.program

    def test_unknown_build_raises(self, shared_sweep):
        with pytest.raises(KeyError):
            shared_sweep.get("BlinkTask_Mica2", "no-such-variant")


class TestSweepIsolation:
    def test_variants_of_one_app_do_not_interfere(self, shared_sweep):
        """Mutations of one variant's clone never leak into another's."""
        baseline = shared_sweep.get("BlinkTask_Mica2", BASELINE.name).result
        optimized = shared_sweep.get("BlinkTask_Mica2",
                                     SAFE_OPTIMIZED.name).result
        assert baseline.program is not optimized.program
        assert baseline.checks_inserted == 0
        assert optimized.checks_inserted > 0
        # The baseline program must not contain CCured runtime functions.
        assert all(not f.is_runtime for f in baseline.program.iter_functions())


class TestSnapshotStore:
    def test_snapshots_persist_across_runner_calls(self, monkeypatch):
        """A shared store lets a later sweep resume from an earlier sweep's
        front end instead of re-flattening."""
        from repro.nesc.passes import FlattenPass

        flattens = []
        original = FlattenPass.run

        def counted(self, program, ctx):
            flattens.append(ctx.label)
            return original(self, program, ctx)

        monkeypatch.setattr(FlattenPass, "run", counted)

        store: dict = {}
        first = SweepRunner(["BlinkTask_Mica2"], [SAFE_FLID],
                            snapshot_store=store).run()
        second = SweepRunner(["BlinkTask_Mica2"], [SAFE_OPTIMIZED],
                             snapshot_store=store).run()
        assert flattens == ["BlinkTask_Mica2"]
        assert "BlinkTask_Mica2" in store
        # Resumed builds still match independent ones byte for byte.
        expected = SweepRunner(["BlinkTask_Mica2"], [SAFE_OPTIMIZED],
                               share_front_end=False).run().builds[0].summary
        assert second.builds[0].summary == expected
        assert first.builds[0].summary != expected

    def test_store_points_are_where_registered_variants_diverge(self):
        """A cross-call store snapshots a figure app only at the front end,
        ``ccured.cure[flid]`` and ``ccured.cure[flid]`` +
        ``ccured.optimize``: the prefixes some registered variant resumes
        from.  Other stage boundaries are never read back."""
        keys = variant_pass_keys(SAFE_OPTIMIZED.name)
        front_end, cure, optimize = keys[:2], keys[:3], keys[:4]
        assert [key.split("[")[0] for key in optimize] == [
            "nesc.flatten", "nesc.hwrefactor", "ccured.cure",
            "ccured.optimize"]
        assert "flid" in cure[-1]

        store: dict = {}
        SweepRunner(["BlinkTask_Mica2"], [SAFE_OPTIMIZED],
                    snapshot_store=store).run()
        assert sorted(store["BlinkTask_Mica2"], key=len) == \
            [front_end, cure, optimize]
        assert persistent_prefixes(SAFE_OPTIMIZED) == \
            [front_end, cure, optimize]
        assert persistent_prefixes(FIG2_GCC_ONLY) == [front_end, cure]
        for variant in (BASELINE, SAFE_VERBOSE, UNSAFE_OPTIMIZED):
            assert persistent_prefixes(variant) == [front_end]

    def test_application_objects_build_in_process(self):
        from helpers import tiny_application

        app = tiny_application()
        result = SweepRunner([app], [SAFE_FLID]).run()
        assert result.builds[0].application == app.name
        assert result.builds[0].summary["checks_inserted"] > 0

    def test_process_pool_rejects_application_objects(self):
        from helpers import tiny_application

        runner = SweepRunner([tiny_application()], [BASELINE], processes=1)
        with pytest.raises(ValueError, match="registered application names"):
            runner.run()


class TestProcessPool:
    def test_process_pool_reproduces_in_process_summaries(self, shared_sweep):
        pooled = SweepRunner(APPS, VARIANTS, processes=2).run()
        assert pooled.summaries() == shared_sweep.summaries()
        assert [build.passes for build in pooled] == \
            [build.passes for build in shared_sweep]

    def test_process_pool_builds_carry_summaries_only(self):
        pooled = SweepRunner(["BlinkTask_Mica2"], [BASELINE],
                             processes=1).run()
        assert len(pooled) == 1
        assert pooled.builds[0].result is None
        assert pooled.builds[0].summary["code_bytes"] > 0
