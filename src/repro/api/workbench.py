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
  :class:`~repro.api.records.BuildRecord`, whether it ran in-process or on
  the process pool (:meth:`Workbench.sweep` with ``processes``); only an
  in-process build keeps its full
  :class:`~repro.toolchain.pipeline.BuildResult`, available via
  :meth:`Workbench.build_result`.

The session caches assume applications and variants are not mutated after
their first build, and cached results are *shared*: a second identical
request returns the same :class:`~repro.toolchain.pipeline.BuildResult`
(and its live program) as the first, so treat returned results as
read-only — run further ad-hoc passes on a
:meth:`~repro.cminor.program.Program.clone`, or call :meth:`clear` to drop
the session caches.  Every request runs on the caller's thread; a session
is meant for one driving thread.
"""

from __future__ import annotations

import os
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
        return len(self._records)

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
        if key not in self._records and self._missing_after_store([spec]):
            self._execute([spec])
        return self._records[key]

    def build_result(self, spec: Union[BuildSpec, str],
                     variant: Union[str, BuildVariant, None] = None,
                     ) -> BuildResult:
        """Like :meth:`build`, but returns the full in-process result.

        A build whose record came from the artifact store or the process
        pool runs again in-process — programs cross neither — and its
        record stays the one admitted first.
        """
        spec = self._as_build_spec(spec, variant)
        key = spec.content_key()
        if key not in self._results:
            self._execute([spec])
        return self._results[key]

    def sweep(self, spec: Union[SweepSpec, None] = None, *,
              apps: Optional[list[str]] = None,
              variants: Optional[list[str]] = None,
              processes: int = 0) -> list[BuildRecord]:
        """Build an N-app × M-variant cross product, in (app, variant) order.

        Builds already memoized are not re-run; the rest are batched through
        :class:`~repro.toolchain.sweep.SweepRunner` with prefix sharing.
        With ``processes``, that many worker processes share the
        applications out and the records equal an in-process sweep's; a
        later :meth:`build_result` of such a build runs it again in-process.
        """
        if spec is None:
            spec = SweepSpec(apps=tuple(apps or ()),
                             variants=tuple(variants or ()))
        specs = spec.build_specs()
        missing = self._missing_after_store(
            [s for s in specs if s.content_key() not in self._records])
        if missing:
            self._execute(missing, processes)
        return [self._records[s.content_key()] for s in specs]

    def build_unregistered(self, app: Union[str, Application],
                           variant: BuildVariant) -> BuildResult:
        """Build a custom application and/or an unregistered variant.

        The build routes through the sweep runner but is not memoized, since
        ad-hoc applications and variants have no content key.  A registered
        application name resumes from (and extends) the session's prefix
        snapshots; an :class:`Application` object builds with snapshots of
        its own call.
        """
        store = self._snapshots if isinstance(app, str) else None
        runner = SweepRunner([app], [variant], snapshot_store=store)
        return runner.run().builds[0].result

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
        cached = self._sim_records.get(key)
        if cached is not None:
            return cached
        stored = self._record_from_store(key, SimRecord.from_dict)
        if stored is not None:
            self._sim_records[key] = stored
            return stored
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
        self._simulations_executed += 1
        self._lowerings += code_cache.lowerings
        self._sim_records[key] = record
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
        cached = self._scenario_records.get(key)
        if cached is not None:
            return cached
        stored = self._record_from_store(key, ScenarioRecord.from_dict)
        if stored is not None:
            self._scenario_records[key] = stored
            return stored
        if self._scenario_runner is None:
            from repro.scenarios.runner import ScenarioRunner
            self._scenario_runner = ScenarioRunner(self)
        runner = self._scenario_runner
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
        self._scenarios_executed += 1
        self._lowerings += lowered
        self._scenario_records[key] = record
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

    def _execute(self, specs: list[BuildSpec], processes: int = 0) -> None:
        """Run builds via the sweep runner and admit the results.

        In-process, with a session :attr:`store`, each application's
        persistent prefix snapshots are hydrated from disk first (so even a
        cold session skips the nesC front end for known applications) and
        any snapshots this execution minted are persisted back afterwards.
        With ``processes``, the builds run on that many worker processes
        instead, and their snapshots stay in the workers.  Snapshots no
        unbuilt registered variant can resume from are then dropped.
        """
        persist = self.store is not None and not processes
        for variant_names, apps in self._grouped(specs):
            variants = [variant_by_name(name) for name in variant_names]
            if persist:
                for app in apps:
                    self._hydrate_snapshots(app, variants)
            runner = SweepRunner(apps, variants, processes=processes,
                                 snapshot_store=self._snapshots)
            for build in runner.run():
                self._admit(build)
            if persist:
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
        self._builds_executed += 1
        if build.result is not None:
            self._results.setdefault(key, build.result)
        if key in self._records:
            # First admission wins: a record served from the store or the
            # pool stays (and is not written again) when build_result()
            # later runs the build in-process.
            return
        record = self._records[key] = BuildRecord.from_summary(
            build.summary, key, passes=build.passes,
            wall_time_s=build.wall_time_s)
        if self.store is not None:
            self.store.store_record(key, record.to_dict())

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
        return {
            "passes_executed": executed_pass_count() - self._passes_at_init,
            "builds_executed": self._builds_executed,
            "simulations_executed": self._simulations_executed,
            "scenarios_executed": self._scenarios_executed,
            "lowerings": self._lowerings,
            "store": dict(self.store.stats()) if self.store is not None
            else {},
        }

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        """Drop every session cache (records, results, snapshots, sims).

        Long-lived sessions retain full build results indefinitely, and an
        application's prefix snapshots until its registered variants are
        built; call this to release them without discarding the Workbench
        itself.
        """
        self._records.clear()
        self._results.clear()
        self._sim_records.clear()
        self._scenario_records.clear()
        self._scenario_runner = None
        self._snapshots.clear()
        self._snapshot_keys_done.clear()
