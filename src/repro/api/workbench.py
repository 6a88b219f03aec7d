"""The Workbench: one session object, one execution engine.

The Workbench is the one build API: every build — interactive or
batched, library or CLI — funnels through a :class:`Workbench`, which
routes it through
:class:`~repro.toolchain.sweep.SweepRunner` with a session-persistent
prefix-snapshot store.  That gives three properties for free:

* **Prefix sharing everywhere.**  Even two single ``build()`` calls made
  minutes apart share the nesC front end (and, where their variants agree,
  the CCured stage): the first call leaves snapshots in the store, the
  second resumes from them.  A snapshot lives until every registered
  variant that could resume from it has been built for its application.
* **Memoization by content key.**  Results are cached on the spec's
  :meth:`~repro.api.specs.BuildSpec.content_key`, so an identical request
  never re-runs a pass.
* **One record schema.**  Every build yields a
  :class:`~repro.api.records.BuildRecord`, whether it ran in-process (full
  :class:`~repro.toolchain.pipeline.BuildResult` retained and available via
  :meth:`Workbench.build_result`) or on the process pool
  (:meth:`Workbench.submit`, summaries only).

The session caches assume applications and variants are not mutated after
their first build, and cached results are *shared*: a second identical
request returns the same :class:`~repro.toolchain.pipeline.BuildResult`
(and its live program) as the first, so treat returned results as
read-only — run further ad-hoc passes on a
:meth:`~repro.cminor.program.Program.clone`, or call :meth:`clear` to drop
the session caches.  In-process methods are intended for one driving
thread, while :meth:`submit` futures admit their records under a lock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.api.records import BuildRecord, ScenarioRecord, SimRecord
from repro.api.specs import (
    SCHEMA_VERSION,
    TRAFFIC_BASE,
    TRAFFIC_DEFAULT,
    BuildSpec,
    ScenarioSpec,
    SimSpec,
    SweepSpec,
)
from repro.avrora.network import Channel, Network, TrafficGenerator
from repro.avrora.node import Node
from repro.nesc.application import Application
from repro.store import ArtifactStore, snapshot_key
from repro.tinyos import suite
from repro.toolchain.config import BuildVariant
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.passes import executed_pass_count
from repro.toolchain.pipeline import BuildResult
from repro.toolchain.sweep import (
    SweepRunner,
    persistent_prefixes,
    variant_pass_keys,
)
from repro.toolchain.variants import all_variant_names, variant_by_name

if TYPE_CHECKING:
    from repro.avrora.engine import CodeCache


def run_network(program, *, seconds: float, node_count: int = 1,
                traffic: Optional[TrafficGenerator] = None,
                channel: Optional[Channel] = None,
                traffic_first_node_only: bool = False,
                prepare: Optional[Callable[[Network], None]] = None,
                code_cache: Optional[CodeCache] = None,
                ) -> Network:
    """Boot ``node_count`` motes running ``program`` and co-simulate them.

    Nodes advance in lockstep over the given ``channel`` (default:
    lossless broadcast).  Broadcast networks number nodes from 1 (the
    historical convention); every other topology numbers them from 0, so
    the first node is the routing base station (``TOS_LOCAL_ADDRESS == 0``
    — what ``MultiHopRouterM`` treats as the collection root).
    ``traffic_first_node_only`` installs the synthetic traffic generator
    on the first node only.  ``prepare`` runs against the fully assembled
    network after the nodes boot and before the clock starts — the
    scenario layer's hook for arming fault injections.

    ``code_cache`` is the scope of the simulator's lowerings: every node
    runs its ops, so each function is lowered once for the whole network.
    By default the network gets a cache of its own, dropped with it; pass
    one to share lowering across several runs of ``program`` (a scenario
    variant's golden and faulted runs do).
    """
    # The engine module loads with the first simulation, not with the API.
    from repro.avrora.engine import CodeCache

    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    channel = channel or Channel()
    network = Network(traffic=traffic, channel=channel)
    if code_cache is None:
        code_cache = CodeCache(program)
    first_id = 1 if channel.topology == "broadcast" else 0
    for index in range(node_count):
        node = Node(program, node_id=first_id + index,
                    code_cache=code_cache)
        node.boot()
        network.add_node(
            node, traffic=(index == 0 or not traffic_first_node_only))
    if prepare is not None:
        prepare(network)
    network.run(seconds)
    return network


def is_registered_variant(variant: BuildVariant) -> bool:
    """Whether ``variant`` is (equal to) a predefined registry variant."""
    try:
        return variant_by_name(variant.name) == variant
    except KeyError:
        return False


class Workbench:
    """Cache-routed execution engine for builds, sweeps and simulations.

    Args:
        store: Persistent artifact store — a directory path or a
            :class:`repro.store.ArtifactStore` — shared across sessions.
            Records are looked up there before any pass runs (a warm hit
            executes nothing, proven by :meth:`stats`), newly built
            records and persistent prefix snapshots are written back, and
            a novel variant of a known application resumes from a stored
            front-end snapshot instead of re-flattening.
    """

    def __init__(self, *,
                 store: Union[str, os.PathLike, ArtifactStore, None] = None):
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(os.fspath(store), schema=SCHEMA_VERSION)
        self.store: Optional[ArtifactStore] = store
        self._records: dict[str, BuildRecord] = {}
        self._results: dict[str, BuildResult] = {}
        self._sim_records: dict[str, SimRecord] = {}
        self._scenario_records: dict[str, ScenarioRecord] = {}
        # Created on first use (lazy import keeps api importable without
        # the scenarios package and vice versa); session-persistent so
        # its golden-run fingerprint cache spans scenarios.
        self._scenario_runner = None
        self._snapshots: dict[str, dict] = {}
        # Snapshot-store keys already persisted (or hydrated) this session,
        # so repeat builds do not rewrite identical entries.
        self._snapshot_keys_done: set[str] = set()
        # Unregistered builds (custom Application objects / ad-hoc variants)
        # have no content key; they are memoized by identity for the session,
        # pinning the application object so ``id`` stays unambiguous.
        self._unregistered: dict[tuple, tuple[object, BuildResult]] = {}
        self._object_snapshots: dict[int, dict[str, dict]] = {}
        self._lock = threading.Lock()
        # Serializes the heavy execution paths (pass pipelines, network
        # runs) so :meth:`submit`'s pool thread, which drives builds
        # concurrently with the caller, never races the caller on the
        # shared snapshot store or a shared program.  Re-entrant because
        # simulations and scenarios build through the same engine on the
        # same thread.
        self._execute_lock = threading.RLock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._builds_executed = 0
        self._simulations_executed = 0
        self._scenarios_executed = 0
        self._lowerings = 0
        self._passes_at_init = executed_pass_count()

    # -- introspection ---------------------------------------------------------

    def applications(self) -> list[str]:
        """Names of the registered benchmark applications."""
        return suite.all_application_names()

    def variant_names(self) -> list[str]:
        """Names of the registered build variants."""
        return all_variant_names()

    def cached_builds(self) -> int:
        """Number of memoized build records in this session."""
        with self._lock:
            return len(self._records) + len(self._unregistered)

    # -- building --------------------------------------------------------------

    @staticmethod
    def _as_build_spec(spec: Union[BuildSpec, str],
                       variant: Union[str, BuildVariant, None]) -> BuildSpec:
        if isinstance(spec, BuildSpec):
            if variant is not None:
                raise TypeError("pass the variant inside the BuildSpec")
            return spec
        if variant is None:
            return BuildSpec(app=spec)
        name = variant.name if isinstance(variant, BuildVariant) else variant
        return BuildSpec(app=spec, variant=name)

    def build(self, spec: Union[BuildSpec, str],
              variant: Union[str, BuildVariant, None] = None) -> BuildRecord:
        """Build one registered application; memoized by content key.

        Accepts a :class:`BuildSpec` or an application name plus optional
        variant (default: the paper's headline ``safe-optimized``).
        """
        spec = self._as_build_spec(spec, variant)
        key = spec.content_key()
        with self._lock:
            record = self._records.get(key)
        if record is not None:
            return record
        if self._missing_after_store([spec]):
            self._execute([spec])
        with self._lock:
            return self._records[key]

    def build_result(self, spec: Union[BuildSpec, str],
                     variant: Union[str, BuildVariant, None] = None,
                     ) -> BuildResult:
        """Like :meth:`build`, but returns the full in-process result.

        If the record was admitted by a process-pool sweep (summary only),
        the build is re-run in-process — programs do not cross process
        boundaries.
        """
        spec = self._as_build_spec(spec, variant)
        key = spec.content_key()
        with self._lock:
            result = self._results.get(key)
        if result is not None:
            return result
        # The artifact store holds records, not live programs — a full
        # result always builds in-process (resuming from any stored
        # front-end snapshot of the application).
        self._execute([spec])
        with self._lock:
            return self._results[key]

    def sweep(self, spec: Union[SweepSpec, None] = None, *,
              apps: Optional[list[str]] = None,
              variants: Optional[list[str]] = None) -> list[BuildRecord]:
        """Build an N-app × M-variant cross product, in (app, variant) order.

        Builds already memoized are not re-run; the rest are batched through
        :class:`~repro.toolchain.sweep.SweepRunner` with prefix sharing.
        """
        if spec is None:
            spec = SweepSpec(apps=tuple(apps or ()),
                             variants=tuple(variants or ()))
        specs = spec.build_specs()
        with self._lock:
            missing = [s for s in specs
                       if s.content_key() not in self._records]
        missing = self._missing_after_store(missing)
        if missing:
            self._execute(missing)
        with self._lock:
            return [self._records[s.content_key()] for s in specs]

    def submit(self, spec: SweepSpec, *,
               processes: Optional[int] = None) -> "Future[list[BuildRecord]]":
        """Run a sweep concurrently on the process pool; returns a future.

        The future resolves to the sweep's records in (app, variant) order.
        ``processes`` worker processes run it (default
        ``min(4, cpu_count)``).  Pooled builds carry summaries only — use
        :meth:`build_result` when a program or image is needed (it
        rebuilds in-process).
        """
        workers = processes or min(4, os.cpu_count() or 1)

        def run_pooled() -> list[BuildRecord]:
            specs = spec.build_specs()
            with self._lock:
                missing = [s for s in specs
                           if s.content_key() not in self._records]
            missing = self._missing_after_store(missing)
            with self._execute_lock:
                for variant_names, apps in self._grouped(missing):
                    runner = SweepRunner(
                        apps,
                        [variant_by_name(name) for name in variant_names],
                        processes=workers)
                    for build in runner.run():
                        self._admit(build)
                    self._release_snapshots(apps)
            with self._lock:
                return [self._records[s.content_key()] for s in specs]

        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="workbench")
            return self._executor.submit(run_pooled)

    def build_unregistered(self, app: Union[str, Application],
                           variant: BuildVariant) -> BuildResult:
        """Build a custom application and/or an unregistered variant.

        The build still routes through the sweep runner (sharing
        front-end snapshots where possible) but is memoized by identity
        instead of content key, since ad-hoc applications and variants
        have no stable serialized name.
        """
        if isinstance(app, str):
            ident: tuple = ("app", app)
            store = self._snapshots  # keyed by pass cache keys: shareable
        else:
            ident = ("object", id(app))
            store = self._object_snapshots.get(id(app), {})
        key = (ident, variant)
        with self._lock:
            cached = self._unregistered.get(key)
        if cached is not None:
            return cached[1]
        with self._execute_lock:
            runner = SweepRunner([app], [variant], snapshot_store=store)
            build = runner.run().builds[0]
        with self._lock:
            self._unregistered[key] = (app, build.result)
            if not isinstance(app, str):
                # Commit the object's snapshot store only after a successful
                # build: the pin above keeps ``id(app)`` unambiguous, and a
                # failed build leaves no stale snapshots behind for a later
                # object that happens to reuse the id.
                self._object_snapshots[id(app)] = store
        return build.result

    # -- simulation ------------------------------------------------------------

    def simulate(self, spec: SimSpec) -> SimRecord:
        """Build (memoized) and simulate one application; returns a record.

        The simulation runs on the lockstep network kernel with the
        spec's topology, loss rate and seed; per-node packet and traffic
        statistics land in the record.  With a session :attr:`store`, a
        previously recorded identical spec is served straight from disk —
        no build, no simulation.
        """
        key = spec.content_key()
        with self._lock:
            cached = self._sim_records.get(key)
        if cached is not None:
            return cached
        stored = self._record_from_store(key, SimRecord.from_dict)
        if stored is not None:
            with self._lock:
                return self._sim_records.setdefault(key, stored)
        with self._execute_lock:
            result = self.build_result(spec.build_spec())
            traffic = duty_cycle_context(spec.app) \
                if spec.traffic in (TRAFFIC_DEFAULT, TRAFFIC_BASE) else None
            channel = Channel(topology=spec.topology, loss=spec.loss,
                              seed=spec.seed)
            from repro.avrora.engine import CodeCache

            code_cache = CodeCache(result.program)
            network = run_network(
                result.program, seconds=spec.seconds,
                node_count=spec.node_count, traffic=traffic, channel=channel,
                traffic_first_node_only=(spec.traffic == TRAFFIC_BASE),
                code_cache=code_cache)
        stats = network.node_stats()
        record = SimRecord(
            app=spec.app,
            variant=spec.variant,
            content_key=key,
            node_count=spec.node_count,
            seconds=spec.seconds,
            topology=spec.topology,
            duty_cycles=tuple(node.duty_cycle() for node in network.nodes),
            packets_sent=tuple(s["packets_sent"] for s in stats),
            packets_received=tuple(s["packets_received"] for s in stats),
            injected_radio=tuple(s["injected_radio"] for s in stats),
            injected_uart=tuple(s["injected_uart"] for s in stats),
            packets_delivered=network.delivered_packets,
            packets_lost=network.lost_packets,
            failures=sum(len(node.failures) for node in network.nodes),
            halted=any(node.halted for node in network.nodes),
            led_changes=sum(node.leds.state.changes for node in network.nodes),
            superblocks=network.superblock_stats(),
        )
        with self._lock:
            self._simulations_executed += 1
            self._lowerings += code_cache.lowerings
            record = self._sim_records.setdefault(key, record)
        if self.store is not None:
            self.store.store_record(key, record.to_dict())
        return record

    # -- scenarios -------------------------------------------------------------

    def run_scenario(self, spec: ScenarioSpec) -> ScenarioRecord:
        """Execute one fault plan across build variants; returns the matrix.

        Builds are memoized as usual; each variant then gets one fault-free
        golden run (cached on the session-persistent scenario runner) plus
        one faulted run per fault in the plan, and every (variant, fault)
        cell is classified against the verdict lattice of
        :mod:`repro.scenarios.runner`.  The record is memoized by the
        spec's content key — like simulations, a scenario is a pure
        function of its spec, so equal specs share one execution.
        """
        key = spec.content_key()
        with self._lock:
            cached = self._scenario_records.get(key)
        if cached is not None:
            return cached
        stored = self._record_from_store(key, ScenarioRecord.from_dict)
        if stored is not None:
            with self._lock:
                return self._scenario_records.setdefault(key, stored)
        with self._lock:
            if self._scenario_runner is None:
                from repro.scenarios.runner import ScenarioRunner
                self._scenario_runner = ScenarioRunner(self)
            runner = self._scenario_runner
        with self._execute_lock:
            lowered = runner.lowerings
            outcome = runner.run(spec)
            lowered = runner.lowerings - lowered
        record = ScenarioRecord(
            app=spec.app,
            content_key=key,
            node_count=spec.node_count,
            seconds=spec.seconds,
            topology=spec.topology,
            seed=spec.seed,
            variants=spec.variants,
            faults=tuple(spec.plan.labels()),
            verdicts=outcome["verdicts"],
            details=outcome["details"],
            golden=outcome["golden"],
        )
        with self._lock:
            self._scenarios_executed += 1
            self._lowerings += lowered
            record = self._scenario_records.setdefault(key, record)
        if self.store is not None:
            self.store.store_record(key, record.to_dict())
        return record

    # -- engine ----------------------------------------------------------------

    @staticmethod
    def _grouped(specs: list[BuildSpec]) -> list[tuple[tuple[str, ...],
                                                       list[str]]]:
        """Group build specs so applications requesting the same variant set
        batch into one runner call (maximal prefix sharing)."""
        by_app: dict[str, list[str]] = {}
        for spec in specs:
            variants = by_app.setdefault(spec.app, [])
            if spec.variant not in variants:
                variants.append(spec.variant)
        groups: dict[tuple[str, ...], list[str]] = {}
        for app, variant_names in by_app.items():
            groups.setdefault(tuple(variant_names), []).append(app)
        return list(groups.items())

    def _execute(self, specs: list[BuildSpec]) -> None:
        """Run builds in-process via the sweep runner and admit the results.

        With a session :attr:`store`, each application's persistent prefix
        snapshots are hydrated from disk first (so even a cold session
        skips the nesC front end for known applications) and any snapshots
        this execution minted are persisted back afterwards.  Snapshots no
        unbuilt registered variant can resume from are then dropped.
        """
        with self._execute_lock:
            for variant_names, apps in self._grouped(specs):
                variants = [variant_by_name(name) for name in variant_names]
                if self.store is not None:
                    for app in apps:
                        self._hydrate_snapshots(app, variants)
                runner = SweepRunner(apps, variants,
                                     snapshot_store=self._snapshots)
                for build in runner.run():
                    self._admit(build)
                if self.store is not None:
                    for app in apps:
                        self._persist_snapshots(app, variants)
                self._release_snapshots(apps)

    def _release_snapshots(self, apps: list[str]) -> None:
        """Free each app's snapshots that no pending build can resume from.

        A snapshot serves the registered variants whose pass lists start
        with its prefix.  Once each of them has a record for the
        application, the session never builds them again, so the snapshot
        is dropped (persisted ones stay on disk).
        """
        for app in apps:
            snapshots = self._snapshots.get(app)
            if snapshots:
                with self._lock:
                    pending = [
                        variant_pass_keys(name) for name in all_variant_names()
                        if BuildSpec(app=app, variant=name).content_key()
                        not in self._records]
                for prefix in list(snapshots):
                    if not any(keys[:len(prefix)] == prefix
                               for keys in pending):
                        del snapshots[prefix]
            if not snapshots:
                self._snapshots.pop(app, None)

    def _admit(self, build) -> None:
        """Merge one :class:`~repro.toolchain.sweep.SweepBuild` into the caches."""
        key = BuildSpec(app=build.application,
                        variant=build.variant_name).content_key()
        passes: tuple[str, ...] = ()
        wall_time_s = 0.0
        if build.result is not None and build.result.trace is not None:
            passes = tuple(build.result.trace.pass_names())
            wall_time_s = build.result.trace.wall_time_s
        record = BuildRecord.from_summary(build.summary, key,
                                          passes=passes,
                                          wall_time_s=wall_time_s)
        with self._lock:
            self._builds_executed += 1
            existing = self._records.get(key)
            if existing is None or (not existing.passes and passes):
                # First admission wins, except that an in-process rebuild
                # upgrades a summary-only record from a pooled sweep with
                # its pass trace.
                self._records[key] = record
            if build.result is not None and key not in self._results:
                self._results[key] = build.result
            admitted = self._records[key]
        if self.store is not None:
            self.store.store_record(key, admitted.to_dict())

    # -- artifact store --------------------------------------------------------

    def _record_from_store(self, key: str, loader) -> Optional[object]:
        """One record from the artifact store, deserialized, or None."""
        if self.store is None:
            return None
        payload = self.store.load_record(key)
        if payload is None:
            return None
        return loader(payload)

    def _missing_after_store(self, specs: list[BuildSpec]) -> list[BuildSpec]:
        """Admit store-served build records; return the specs still missing.

        This is the warm-hit fast path: a spec served here executes zero
        passes and zero lowerings (:meth:`stats` proves it).
        """
        if self.store is None:
            return list(specs)
        missing: list[BuildSpec] = []
        for spec in specs:
            key = spec.content_key()
            record = self._record_from_store(key, BuildRecord.from_dict)
            if record is None:
                missing.append(spec)
                continue
            with self._lock:
                self._records.setdefault(key, record)
        return missing

    def _snapshot_entries(self, app: str,
                          variants: list[BuildVariant]) -> list[tuple]:
        """(store key, prefix) for every persistent snapshot point."""
        entries: list[tuple] = []
        seen: set[tuple[str, ...]] = set()
        for variant in variants:
            for prefix in persistent_prefixes(variant):
                if prefix in seen:
                    continue
                seen.add(prefix)
                entries.append(
                    (snapshot_key(app, prefix, SCHEMA_VERSION), prefix))
        return entries

    def _hydrate_snapshots(self, app: str,
                           variants: list[BuildVariant]) -> None:
        """Fill the session snapshot store from disk before building.

        Builds resume from the *longest* snapshotted prefix, so for each
        variant disk is probed longest-first and the probe stops at the
        first hit — shorter prefixes could never be resumed from anyway.
        """
        snapshots = self._snapshots.setdefault(app, {})
        for variant in variants:
            for prefix in reversed(persistent_prefixes(variant)):
                if prefix in snapshots:
                    break  # the longest available prefix wins
                key = snapshot_key(app, prefix, SCHEMA_VERSION)
                if key in self._snapshot_keys_done:
                    continue
                payload = self.store.load_snapshot(key)
                # Hit or miss, never consult disk for this key again: a
                # miss means the build right below mints (and persists)
                # the snapshot itself.
                self._snapshot_keys_done.add(key)
                if payload is not None:
                    snapshots[prefix] = payload
                    break

    def _persist_snapshots(self, app: str,
                           variants: list[BuildVariant]) -> None:
        """Write snapshots this session minted at persistent points."""
        snapshots = self._snapshots.get(app, {})
        for key, prefix in self._snapshot_entries(app, variants):
            snapshot = snapshots.get(prefix)
            if snapshot is None:
                continue
            if key in self._snapshot_keys_done and \
                    self.store.has_snapshot(key):
                continue
            self.store.store_snapshot(key, snapshot)
            self._snapshot_keys_done.add(key)

    # -- telemetry -------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Counter-proof of what this session actually executed.

        ``passes_executed`` counts passes run by this process since the
        workbench was constructed (prefix-snapshot resumes and store hits
        never run a pass), ``lowerings`` counts the functions the
        session's simulations and scenarios lowered, and ``store`` is
        the artifact store's hit/miss/store/eviction counters.  A warm
        store serving a previously recorded spec shows zeros across the
        board — that is the claim the CI smoke legs assert.
        """
        with self._lock:
            counters = {
                "builds_executed": self._builds_executed,
                "simulations_executed": self._simulations_executed,
                "scenarios_executed": self._scenarios_executed,
                "lowerings": self._lowerings,
            }
            store_stats = dict(self.store.stats()) \
                if self.store is not None else {}
        return {
            "passes_executed": executed_pass_count() - self._passes_at_init,
            **counters,
            "store": store_stats,
        }

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        """Drop every session cache (records, results, snapshots, sims).

        Long-lived sessions retain full build results indefinitely, and an
        application's prefix snapshots until its registered variants are
        built; call this to release them without discarding the Workbench
        itself.
        """
        with self._lock:
            self._records.clear()
            self._results.clear()
            self._sim_records.clear()
            self._scenario_records.clear()
            self._scenario_runner = None
            self._snapshots.clear()
            self._snapshot_keys_done.clear()
            self._unregistered.clear()
            self._object_snapshots.clear()

    def shutdown(self) -> None:
        """Stop the background executor (pending futures still complete)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "Workbench":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
