"""Typed, JSON-round-trippable result records.

Records are the serializable projection of a build or simulation: plain
frozen dataclasses of numbers and strings that can be written to disk and
reload with ``from_dict(to_dict(record)) == record``.  A build's record is
the same whether it ran in-process or on the process pool.  The live objects
— programs, memory images, FLID tables — stay inside the
:class:`~repro.api.workbench.Workbench` session that produced them; ask it
for the full :class:`~repro.toolchain.pipeline.BuildResult` when you need
them.

``BuildRecord.summary()`` reproduces ``BuildResult.summary()`` field for
field, so records and the sweep benchmarks
(``benchmarks/bench_pipeline_sweep.py``) speak the same schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.specs import SCHEMA_VERSION


@dataclass(frozen=True)
class BuildRecord:
    """One finished build: the numbers the paper's figures report.

    Attributes:
        app: Figure label of the application.
        variant: Build variant name.
        content_key: The producing :class:`~repro.api.specs.BuildSpec`'s
            content key (memoization identity).
        code_bytes: Flash footprint of the final image.
        ram_bytes: Static RAM footprint (data + bss + RAM strings).
        checks_inserted: Safety checks CCured inserted (0 for unsafe builds).
        checks_surviving: Checks remaining in the final image.
        passes: Names of the executed passes, in order.
        wall_time_s: Build wall time attributed to this build's pass list.

    ``passes`` and ``wall_time_s`` are telemetry of the session that ran
    the build, so they take no part in equality or hashing.
    """

    app: str
    variant: str
    content_key: str
    code_bytes: int
    ram_bytes: int
    checks_inserted: int
    checks_surviving: int
    passes: tuple[str, ...] = field(default=(), compare=False)
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def checks_removed(self) -> int:
        return self.checks_inserted - self.checks_surviving

    @property
    def checks_removed_fraction(self) -> float:
        if self.checks_inserted == 0:
            return 0.0
        return self.checks_removed / self.checks_inserted

    def summary(self) -> dict[str, object]:
        """The exact ``BuildResult.summary()`` dictionary for this build."""
        return {
            "application": self.app,
            "variant": self.variant,
            "code_bytes": self.code_bytes,
            "ram_bytes": self.ram_bytes,
            "checks_inserted": self.checks_inserted,
            "checks_surviving": self.checks_surviving,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "build-record",
            "schema": SCHEMA_VERSION,
            "app": self.app,
            "variant": self.variant,
            "content_key": self.content_key,
            "code_bytes": self.code_bytes,
            "ram_bytes": self.ram_bytes,
            "checks_inserted": self.checks_inserted,
            "checks_surviving": self.checks_surviving,
            "passes": list(self.passes),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BuildRecord":
        return cls(
            app=data["app"],
            variant=data["variant"],
            content_key=data["content_key"],
            code_bytes=data["code_bytes"],
            ram_bytes=data["ram_bytes"],
            checks_inserted=data["checks_inserted"],
            checks_surviving=data["checks_surviving"],
            passes=tuple(data.get("passes", ())),
            wall_time_s=data.get("wall_time_s", 0.0),
        )

    @classmethod
    def from_summary(cls, summary: dict, content_key: str,
                     passes: tuple[str, ...] = (),
                     wall_time_s: float = 0.0) -> "BuildRecord":
        """Build a record from a ``BuildResult.summary()`` dictionary."""
        return cls(
            app=summary["application"],
            variant=summary["variant"],
            content_key=content_key,
            code_bytes=summary["code_bytes"],
            ram_bytes=summary["ram_bytes"],
            checks_inserted=summary["checks_inserted"],
            checks_surviving=summary["checks_surviving"],
            passes=passes,
            wall_time_s=wall_time_s,
        )


@dataclass(frozen=True)
class SimRecord:
    """One finished simulation: per-node duty cycles, packets and failures.

    Attributes:
        app: Figure label of the simulated application.
        variant: Build variant that produced the simulated image.
        content_key: The producing :class:`~repro.api.specs.SimSpec`'s
            content key.
        node_count: Number of simulated motes.
        seconds: Simulated virtual seconds.
        topology: Radio-channel topology the nodes were wired in.
        duty_cycles: Per-node duty cycle, in node order.
        packets_sent: Per-node radio transmissions, in node order.
        packets_received: Per-node packets accepted by the radio.
        injected_radio: Per-node synthetic radio packets injected.
        injected_uart: Per-node synthetic UART frames injected.
        packets_delivered: Packets delivered across the air, network-wide.
        packets_lost: Packets the lossy channel dropped, network-wide.
        failures: Total safety failures reported across all nodes.
        halted: Whether any node halted.
        led_changes: Total LED state changes across all nodes (the cheap
            behavioural fingerprint the examples compare).
        superblocks: Execution counts of the network
            (``Network.superblock_stats``): ``statements_total``, the
            statements every node executed, and ``fused_statements``,
            which is 0.  Execution telemetry, so it takes no part in
            equality or hashing.  Empty for records predating the field;
            older records may carry fusion counters as further keys.

    Records written by older versions may carry ``workers``, ``shards``
    and ``recovery`` keys (telemetry of a since-removed multi-process
    kernel) and a ``code_cache`` key (session-wide lowering counters);
    :meth:`from_dict` ignores them.
    """

    app: str
    variant: str
    content_key: str
    node_count: int
    seconds: float
    duty_cycles: tuple[float, ...]
    failures: int
    halted: bool
    led_changes: int
    topology: str = "broadcast"
    packets_sent: tuple[int, ...] = ()
    packets_received: tuple[int, ...] = ()
    injected_radio: tuple[int, ...] = ()
    injected_uart: tuple[int, ...] = ()
    packets_delivered: int = 0
    packets_lost: int = 0
    superblocks: dict = field(default_factory=dict, compare=False)

    @property
    def duty_cycle(self) -> float:
        """Duty cycle of the first node (the paper's single-mote metric)."""
        if not self.duty_cycles:
            raise ValueError(f"simulation of {self.app} × {self.variant} "
                             f"recorded no nodes")
        return self.duty_cycles[0]

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "sim-record",
            "schema": SCHEMA_VERSION,
            "app": self.app,
            "variant": self.variant,
            "content_key": self.content_key,
            "node_count": self.node_count,
            "seconds": self.seconds,
            "topology": self.topology,
            "duty_cycles": list(self.duty_cycles),
            "packets_sent": list(self.packets_sent),
            "packets_received": list(self.packets_received),
            "injected_radio": list(self.injected_radio),
            "injected_uart": list(self.injected_uart),
            "packets_delivered": self.packets_delivered,
            "packets_lost": self.packets_lost,
            "failures": self.failures,
            "halted": self.halted,
            "led_changes": self.led_changes,
            "superblocks": dict(self.superblocks),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimRecord":
        return cls(
            app=data["app"],
            variant=data["variant"],
            content_key=data["content_key"],
            node_count=data["node_count"],
            seconds=data["seconds"],
            topology=data.get("topology", "broadcast"),
            duty_cycles=tuple(data["duty_cycles"]),
            packets_sent=tuple(data.get("packets_sent", ())),
            packets_received=tuple(data.get("packets_received", ())),
            injected_radio=tuple(data.get("injected_radio", ())),
            injected_uart=tuple(data.get("injected_uart", ())),
            packets_delivered=data.get("packets_delivered", 0),
            packets_lost=data.get("packets_lost", 0),
            failures=data["failures"],
            halted=data["halted"],
            led_changes=data["led_changes"],
            superblocks=dict(data.get("superblocks", {})),
        )


@dataclass(frozen=True)
class ScenarioRecord:
    """One finished fault scenario: the variant × fault verdict matrix.

    Attributes:
        app: Application every variant built.
        content_key: The producing
            :class:`~repro.api.specs.ScenarioSpec`'s content key.
        node_count: Motes per simulated network.
        seconds: Virtual seconds per run.
        topology: Channel topology the runs were wired in.
        seed: Channel seed shared by every run.
        variants: Matrix columns, in build order.
        faults: Matrix rows — human-readable fault labels from
            ``FaultPlan.labels()`` (unique within the plan).
        verdicts: ``verdicts[fault_index][variant_index]`` — one of
            ``detected`` / ``crash`` / ``silent-corruption`` / ``benign``
            (see :mod:`repro.scenarios.runner`).  A pure function of the
            spec: bit-identical across reruns.
        details: Per-cell diagnostics keyed ``"<fault label>|<variant>"``
            (failure totals, halted/diverged node positions, memory
            violations), read from node state only.
        golden: Golden-run cache statistics of the producing runner:
            ``{"runs": ..., "cache_hits": ...}``.  Execution telemetry: a
            warm runner reports hits where a cold one reports runs, so it
            takes no part in equality or hashing.

    An older record's ``workers`` key is ignored on load, like
    :class:`SimRecord`'s.
    """

    app: str
    content_key: str
    node_count: int
    seconds: float
    topology: str
    seed: int
    variants: tuple[str, ...]
    faults: tuple[str, ...]
    verdicts: tuple[tuple[str, ...], ...]
    details: dict = field(default_factory=dict, hash=False)
    golden: dict = field(default_factory=dict, compare=False)

    def verdict(self, fault: str, variant: str) -> str:
        """The verdict for one (fault label, variant) cell."""
        return self.verdicts[self.faults.index(fault)][
            self.variants.index(variant)]

    def counts(self, variant: str) -> dict[str, int]:
        """How many faults landed in each verdict class for ``variant``."""
        column = self.variants.index(variant)
        tally: dict[str, int] = {}
        for row in self.verdicts:
            tally[row[column]] = tally.get(row[column], 0) + 1
        return tally

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "scenario-record",
            "schema": SCHEMA_VERSION,
            "app": self.app,
            "content_key": self.content_key,
            "node_count": self.node_count,
            "seconds": self.seconds,
            "topology": self.topology,
            "seed": self.seed,
            "variants": list(self.variants),
            "faults": list(self.faults),
            "verdicts": [list(row) for row in self.verdicts],
            "details": {key: dict(value)
                        for key, value in self.details.items()},
            "golden": dict(self.golden),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioRecord":
        return cls(
            app=data["app"],
            content_key=data["content_key"],
            node_count=data["node_count"],
            seconds=data["seconds"],
            topology=data.get("topology", "chain"),
            seed=data.get("seed", 0),
            variants=tuple(data["variants"]),
            faults=tuple(data["faults"]),
            verdicts=tuple(tuple(row) for row in data["verdicts"]),
            details={key: dict(value)
                     for key, value in data.get("details", {}).items()},
            golden=dict(data.get("golden", {})),
        )
