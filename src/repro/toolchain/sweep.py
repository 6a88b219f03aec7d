"""Batched N-app × M-variant builds over shared pass-list prefixes.

Every figure of the paper is a sweep: each of the twelve applications built
under each of several variants.  Building them independently re-runs the
nesC front end (parse, flatten, type check, race analysis) once
per variant — and, for variants that also agree on their CCured
configuration, the whole instrumentation stage — even though those prefixes
of the pass list are deterministic functions of the application and the
pass configurations.

:class:`SweepRunner` exploits that: every pass declares a
:meth:`~repro.toolchain.passes.Pass.cache_key`, and variants whose pass
lists share a key prefix build from a fast
:meth:`~repro.cminor.program.Program.clone` of a snapshot taken at the
divergence point.  The front end (``nesc.flatten`` + ``nesc.hwrefactor``)
is the universal shared prefix; the three FLID-cured Figure 3 variants
additionally share the CCured stage.  Shared and unshared sweeps must
produce identical build summaries — ``benchmarks/bench_pipeline_sweep.py``
asserts this and records the speedup.

An opt-in process-pool mode (``processes=N``) distributes whole
applications across worker processes.  Programs and images do not cross
process boundaries, so a pooled build's ``SweepBuild.result`` is ``None``;
its summary, pass names and pass time are those of an in-process build.

Snapshots normally live for one :meth:`SweepRunner.run` call.  A caller
that issues many small sweeps over time — :class:`repro.api.Workbench`
routes every interactive ``build()`` through a one-build sweep — can pass a
``snapshot_store`` to persist them across calls, so the second build of an
application resumes from the first build's front end even though the two
builds arrived in separate calls.  Such a store is filled only where the
registered variants' pass lists (or the call's own) diverge: a build
resumes from its longest snapshotted prefix, so a snapshot anywhere else
would never be read back.  For a figure application those points are the
front end, ``ccured.cure[flid]`` and ``ccured.cure[flid]`` +
``ccured.optimize``.  The store's owner decides how long each snapshot
lives; the Workbench frees one once every registered variant whose pass
list starts with its prefix has been built for the application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Optional, Sequence, Union

from repro.cminor.program import Program
from repro.nesc.application import Application
from repro.tinyos import suite
from repro.toolchain.config import BuildVariant
from repro.toolchain.lower import variant_passes
from repro.toolchain.passes import (
    BuildTrace,
    Pass,
    PassContext,
    PassManager,
    PassReport,
)
from repro.toolchain.pipeline import BuildResult, result_from_context
from repro.toolchain.variants import all_variant_names, variant_by_name


@dataclass
class SweepBuild:
    """One (application, variant) build of a sweep.

    ``summary`` equals ``BuildResult.summary()``, and ``passes`` and
    ``wall_time_s`` are the build trace's pass names and wall time, in
    every mode.  ``result`` carries the full :class:`BuildResult` for
    in-process sweeps and is ``None`` in process-pool mode (programs do
    not cross process boundaries).
    """

    application: str
    variant_name: str
    summary: dict[str, object]
    passes: tuple[str, ...]
    wall_time_s: float
    result: Optional[BuildResult] = None


def _sweep_build(app_name: str, ctx: PassContext, trace: BuildTrace,
                 keep_result: bool) -> SweepBuild:
    result = result_from_context(ctx, trace)
    return SweepBuild(app_name, ctx.variant.name, result.summary(),
                      tuple(trace.pass_names()), trace.wall_time_s,
                      result if keep_result else None)


@dataclass
class SweepResult:
    """All builds of one sweep, in (application, variant) order."""

    builds: list[SweepBuild] = field(default_factory=list)

    def get(self, application: str, variant_name: str) -> SweepBuild:
        for build in self.builds:
            if build.application == application and \
                    build.variant_name == variant_name:
                return build
        raise KeyError(f"no build for {application!r} / {variant_name!r}")

    def summaries(self) -> list[dict[str, object]]:
        return [build.summary for build in self.builds]

    def __len__(self) -> int:
        return len(self.builds)

    def __iter__(self):
        return iter(self.builds)


@dataclass
class _Snapshot:
    """A program state at a shared pass-list prefix, plus its reports."""

    program: Program
    reports: dict[str, object]
    trace_passes: list[PassReport]


@dataclass
class _Plan:
    """One variant's lowered pass list with its prefix-sharing keys."""

    variant: BuildVariant
    passes: list[Pass]
    keys: tuple[str, ...]


def _plan(variant: BuildVariant) -> _Plan:
    passes = variant_passes(variant)
    return _Plan(variant, passes,
                 tuple(pass_.cache_key(variant) for pass_ in passes))


def _resume_points(key_lists: Iterable[tuple[str, ...]],
                   ) -> set[tuple[str, ...]]:
    """The prefixes builds will actually resume from: divergence points.

    Resuming always picks the *longest* snapshotted prefix of a plan's key
    list, so only each plan's maximal prefix shared with any other plan is
    worth snapshotting; snapshots at shorter shared prefixes would never be
    read back, wasting a full program clone each.
    """
    distinct = set(key_lists)
    points: set[tuple[str, ...]] = set()
    for keys in distinct:
        best = 0
        for other in distinct:
            if other == keys:
                continue
            common = 0
            for left, right in zip(keys, other):
                if left != right:
                    break
                common += 1
            best = max(best, common)
        if best:
            points.add(keys[:best])
    return points


@lru_cache(maxsize=None)
def variant_pass_keys(variant_name: str) -> tuple[str, ...]:
    """The cache-key sequence a registered variant's pass list lowers to."""
    return _plan(variant_by_name(variant_name)).keys


def _store_points(key_lists: Iterable[tuple[str, ...]],
                  ) -> set[tuple[str, ...]]:
    """Snapshot points for a cross-call store: where the given plans or any
    registered variant's plan diverge, so a later call's build of any
    registered variant resumes from what this call leaves behind."""
    return _resume_points([*map(variant_pass_keys, all_variant_names()),
                           *key_lists])


def persistent_prefixes(variant: BuildVariant) -> list[tuple[str, ...]]:
    """One variant's persistent snapshot points, shortest prefix first.

    These are the pass-list prefixes a cross-call (or cross-session —
    :class:`repro.store.ArtifactStore` persists them to disk) snapshot
    store keeps for the variant: the prefixes of its pass list at which
    a registered variant's pass list (or its own) parts from the others.
    For a figure variant that is the front end, plus ``ccured.cure[flid]``
    and ``ccured.cure[flid]`` + ``ccured.optimize`` for the FLID-cured
    ones.  A build of the variant resumes from the longest such prefix
    present in the store.
    """
    keys = _plan(variant).keys
    return sorted((point for point in _store_points([keys])
                   if len(point) < len(keys) and keys[:len(point)] == point),
                  key=len)


def _build_one_app(app_name: str, variants: Sequence[BuildVariant],
                   share_front_end: bool, keep_results: bool,
                   app: Optional[Application] = None,
                   snapshots: Optional[dict[tuple[str, ...], _Snapshot]] = None,
                   ) -> list[SweepBuild]:
    """Build one application under every variant (worker-safe helper).

    Args:
        app: Prebuilt application object; looked up in the suite registry by
            ``app_name`` when omitted.
        snapshots: Cross-call snapshot store for this application.  When
            given, prefix snapshots from earlier calls are resumed from and
            the store is extended where the registered variants' pass lists
            (and this call's) diverge, for later calls.
    """
    builds: list[SweepBuild] = []
    if not share_front_end:
        # The unshared reference: each variant runs its whole pass list in
        # one manager on a freshly wired application, with no snapshots.
        for variant in variants:
            ctx = PassContext(
                variant=variant, label=app_name,
                application=app if app is not None
                else suite.build_application(app_name))
            trace = PassManager(variant_passes(variant)).run(ctx)
            builds.append(_sweep_build(app_name, ctx, trace, keep_results))
        return builds

    if app is None:
        app = suite.build_application(app_name)
    plans = [_plan(variant) for variant in variants]
    if snapshots is None:
        snapshots = {}
        wanted = _resume_points(plan.keys for plan in plans)
    else:
        wanted = _store_points(plan.keys for plan in plans)
    for plan in plans:
        # Resume from the longest already-built shared prefix, if any.
        start = 0
        for length in range(len(plan.keys), 0, -1):
            snapshot = snapshots.get(plan.keys[:length])
            if snapshot is not None:
                start = length
                break

        ctx = PassContext(variant=plan.variant, application=app,
                          label=app_name)
        trace_passes: list[PassReport] = []
        if start:
            ctx.program = snapshot.program.clone()
            ctx.reports.update(snapshot.reports)
            trace_passes.extend(snapshot.trace_passes)

        manager = PassManager([])
        for index in range(start, len(plan.passes)):
            manager.passes = [plan.passes[index]]
            trace_passes.extend(manager.run(ctx).passes)
            prefix = plan.keys[:index + 1]
            if prefix in wanted and prefix not in snapshots and \
                    index + 1 < len(plan.passes) and ctx.program is not None:
                snapshots[prefix] = _Snapshot(ctx.program.clone(),
                                              dict(ctx.reports),
                                              list(trace_passes))

        trace = BuildTrace(
            passes=trace_passes,
            wall_time_s=sum(entry.wall_time_s for entry in trace_passes))
        builds.append(_sweep_build(app_name, ctx, trace, keep_results))
    return builds


class SweepRunner:
    """Builds N applications × M variants through the pass-manager layer.

    Args:
        apps: Figure application names (see ``repro.tinyos.suite``) or
            prebuilt :class:`~repro.nesc.application.Application` objects
            (labelled by their ``name``; in-process modes only).
        variants: Build variants, applied to every application in order.
        share_front_end: Build variants of an application from clones of
            shared pass-list-prefix snapshots — the nesC front end for every
            variant (grouped by ``suppress_norace``), and deeper prefixes
            (e.g. a common CCured stage) where variants agree.  With
            ``False`` every build runs the full pipeline independently —
            useful as the comparison baseline.
        processes: Opt-in process-pool mode: distribute applications over
            this many worker processes.  Builds then carry no ``result``.
        snapshot_store: Cross-call prefix-snapshot cache keyed by
            application label.  Pass the same dict to successive runners and
            later sweeps resume from earlier sweeps' front-end (and CCured)
            snapshots instead of rebuilding them.  In-process modes only.
    """

    def __init__(self, apps: Sequence[Union[str, Application]],
                 variants: Sequence[BuildVariant],
                 *, share_front_end: bool = True,
                 processes: Optional[int] = None,
                 snapshot_store: Optional[
                     dict[str, dict[tuple[str, ...], _Snapshot]]] = None):
        self.apps = list(apps)
        self.variants = list(variants)
        self.share_front_end = share_front_end
        self.processes = processes
        self.snapshot_store = snapshot_store

    @staticmethod
    def _label_of(app: Union[str, Application]) -> str:
        return app if isinstance(app, str) else app.name

    def run(self) -> SweepResult:
        if self.processes:
            return self._run_process_pool()
        builds: list[SweepBuild] = []
        for app in self.apps:
            label = self._label_of(app)
            snapshots = None
            if self.snapshot_store is not None:
                snapshots = self.snapshot_store.setdefault(label, {})
            builds.extend(_build_one_app(
                label, self.variants, self.share_front_end, keep_results=True,
                app=None if isinstance(app, str) else app,
                snapshots=snapshots))
        return SweepResult(builds)

    def _run_process_pool(self) -> SweepResult:
        from concurrent.futures import ProcessPoolExecutor

        names = []
        for app in self.apps:
            if not isinstance(app, str):
                raise ValueError(
                    f"process-pool sweeps accept registered application "
                    f"names only, not Application objects ({app.name!r}); "
                    f"run it in-process instead")
            names.append(app)
        work = partial(_build_one_app, variants=self.variants,
                       share_front_end=self.share_front_end,
                       keep_results=False)
        builds: list[SweepBuild] = []
        with ProcessPoolExecutor(max_workers=self.processes) as pool:
            for app_builds in pool.map(work, names):
                builds.extend(app_builds)
        return SweepResult(builds)
