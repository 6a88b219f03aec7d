"""Declarative request specs: what to build, sweep or simulate.

A spec is *data*: a frozen dataclass naming registered applications and
build variants, with no references to live programs or pass objects.  Every
spec round-trips through JSON (``from_dict(to_dict(spec)) == spec``) and has
a stable :meth:`content_key` — a digest of the pass list the spec lowers to,
derived from each pass's
:meth:`~repro.toolchain.passes.Pass.cache_key` — so two equal specs name the
same deterministic build output across sessions and processes.  The
:class:`~repro.api.workbench.Workbench` memoizes on exactly that key.

Validation happens at construction time: unknown applications and variants
raise :class:`KeyError` (matching the suite and variant registries), and
malformed simulation parameters (``node_count < 1``, ``seconds`` that is
not positive and finite) raise :class:`ValueError` immediately instead of
failing deep inside the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.avrora.network import TOPOLOGIES
from repro.scenarios.faults import FaultPlan
from repro.store.artifacts import content_digest
from repro.tinyos import suite
from repro.toolchain.contexts import DEFAULT_DUTY_CYCLE_SECONDS
from repro.toolchain.sweep import variant_pass_keys
from repro.toolchain.variants import SAFE_OPTIMIZED, variant_by_name

#: Version stamped into every serialized spec and record; bump when the
#: dictionary layout changes incompatibly *or* when simulation semantics
#: change enough that previously recorded results no longer reproduce.
#: v2: the channel derives loss and jitter from a stable per-packet hash
#: of (seed, src, dst, sequence) instead of a shared ``random.Random``
#: stream, so v1 simulation records name different trajectories.
SCHEMA_VERSION = 2

#: ``SimSpec.traffic`` profiles: simulate inside the application's default
#: duty-cycle context (Section 3.4) on every node, on the first node only
#: (e.g. stimulating just the base station of a topology), or with no
#: synthetic traffic at all — real cross-node traffic only.
TRAFFIC_DEFAULT = "default"
TRAFFIC_BASE = "base"
TRAFFIC_NONE = "none"

TRAFFIC_PROFILES = (TRAFFIC_DEFAULT, TRAFFIC_BASE, TRAFFIC_NONE)


def _check_app(app: str) -> None:
    if app not in suite.FIGURE_APPS:
        raise KeyError(f"unknown application {app!r}; known: "
                       f"{suite.FIGURE_APPS}")


def _check_seconds(spec) -> None:
    """Simulated time must be positive and finite: the node converts it to
    an integer cycle budget."""
    if not 0 < spec.seconds < math.inf:
        raise ValueError(
            f"{spec.describe()}: seconds must be positive and finite, "
            f"got {spec.seconds}")


@dataclass(frozen=True)
class BuildSpec:
    """Build one registered application with one registered variant."""

    app: str
    variant: str = SAFE_OPTIMIZED.name

    def __post_init__(self):
        _check_app(self.app)
        variant_by_name(self.variant)

    def content_key(self) -> str:
        """Stable identity of this build: app × variant × pass cache keys.

        No two registered variants lower to the same pass list, so the
        variant name adds no distinction; it stays in the material so that
        records and stored records keep their keys.
        """
        return content_digest({
            "schema": SCHEMA_VERSION,
            "kind": "build",
            "app": self.app,
            "variant": self.variant,
            "passes": list(variant_pass_keys(self.variant)),
        })[:16]

    def to_dict(self) -> dict[str, object]:
        return {"kind": "build", "schema": SCHEMA_VERSION,
                "app": self.app, "variant": self.variant}

    @classmethod
    def from_dict(cls, data: dict) -> "BuildSpec":
        return cls(app=data["app"], variant=data["variant"])


@dataclass(frozen=True)
class SweepSpec:
    """Build the cross product of N applications × M variants, in order."""

    apps: tuple[str, ...]
    variants: tuple[str, ...]

    def __post_init__(self):
        # Tolerate lists (the natural JSON shape) by coercing to tuples so
        # equality and hashing behave; frozen dataclasses need object.__setattr__.
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.apps:
            raise ValueError("SweepSpec needs at least one application")
        if not self.variants:
            raise ValueError("SweepSpec needs at least one variant")
        for app in self.apps:
            _check_app(app)
        for variant in self.variants:
            variant_by_name(variant)

    def build_specs(self) -> list[BuildSpec]:
        """The sweep's builds in (application, variant) order."""
        return [BuildSpec(app=app, variant=variant)
                for app in self.apps for variant in self.variants]

    def content_key(self) -> str:
        return content_digest({
            "schema": SCHEMA_VERSION,
            "kind": "sweep",
            "builds": [spec.content_key() for spec in self.build_specs()],
        })[:16]

    def to_dict(self) -> dict[str, object]:
        return {"kind": "sweep", "schema": SCHEMA_VERSION,
                "apps": list(self.apps), "variants": list(self.variants)}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        return cls(apps=tuple(data["apps"]), variants=tuple(data["variants"]))


@dataclass(frozen=True)
class SimSpec:
    """Simulate one build in a network context for some virtual seconds.

    Attributes:
        app: Registered application (its build is resolved via
            :class:`BuildSpec`).
        variant: Registered build variant.
        node_count: Number of motes in the simulated network (>= 1).
        seconds: Virtual seconds to simulate (finite, > 0).
        traffic: ``"default"`` runs every node inside the application's
            duty-cycle traffic context (Section 3.4); ``"base"`` stimulates
            only the first node (the base station / hub of a topology);
            ``"none"`` disables synthetic traffic entirely.
        topology: Radio-channel wiring: ``broadcast`` (every pair),
            ``chain``, ``star`` or ``grid``.  Non-broadcast topologies
            number nodes from 0 so the first node is the routing base
            station (``TOS_LOCAL_ADDRESS == 0``).
        loss: Per-link, per-packet drop probability in [0, 1).
        seed: Seed of the channel's loss RNG; equal seeds give
            bit-identical simulations.

    Dictionaries written by older versions may carry ``workers`` and
    ``chaos`` keys (settings of a since-removed multi-process kernel) and
    the directory of a since-removed persistent lowering-plan store;
    :meth:`from_dict` ignores them, and they never entered the content
    key, so stored records still hit.
    """

    app: str
    variant: str = SAFE_OPTIMIZED.name
    node_count: int = 1
    seconds: float = DEFAULT_DUTY_CYCLE_SECONDS
    traffic: str = TRAFFIC_DEFAULT
    topology: str = "broadcast"
    loss: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_app(self.app)
        variant_by_name(self.variant)
        if self.node_count < 1:
            raise ValueError(
                f"{self.describe()}: node_count must be >= 1, "
                f"got {self.node_count}")
        _check_seconds(self)
        if self.traffic not in TRAFFIC_PROFILES:
            raise ValueError(
                f"{self.describe()}: traffic must be one of "
                f"{TRAFFIC_PROFILES}, got {self.traffic!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"{self.describe()}: topology must be one of "
                f"{TOPOLOGIES}, got {self.topology!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(
                f"{self.describe()}: loss must be in [0, 1), "
                f"got {self.loss}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"{self.describe()}: seed must be a non-negative integer, "
                f"got {self.seed!r}")

    def describe(self) -> str:
        return (f"SimSpec({self.app} × {self.variant}, "
                f"{self.node_count} node(s), {self.seconds}s)")

    def build_spec(self) -> BuildSpec:
        return BuildSpec(app=self.app, variant=self.variant)

    def content_key(self) -> str:
        return content_digest({
            "schema": SCHEMA_VERSION,
            "kind": "sim",
            "build": self.build_spec().content_key(),
            "node_count": self.node_count,
            "seconds": self.seconds,
            "traffic": self.traffic,
            "topology": self.topology,
            "loss": self.loss,
            "seed": self.seed,
        })[:16]

    def to_dict(self) -> dict[str, object]:
        return {"kind": "sim", "schema": SCHEMA_VERSION,
                "app": self.app, "variant": self.variant,
                "node_count": self.node_count, "seconds": self.seconds,
                "traffic": self.traffic, "topology": self.topology,
                "loss": self.loss, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "SimSpec":
        return cls(app=data["app"], variant=data["variant"],
                   node_count=data["node_count"], seconds=data["seconds"],
                   traffic=data.get("traffic", TRAFFIC_DEFAULT),
                   topology=data.get("topology", "broadcast"),
                   loss=data.get("loss", 0.0),
                   seed=data.get("seed", 0))


@dataclass(frozen=True)
class ScenarioSpec:
    """Run one seeded fault plan against N build variants of one app.

    The scenario layer's request object: every (variant, fault) pair in
    the cross product runs the *same* simulation — same topology, same
    channel seed, same plan seed — differing only in which safety passes
    the build carries, so the resulting verdict matrix isolates what the
    variant contributes.

    Defaults differ from :class:`SimSpec` where adversity demands it:
    two nodes in a ``chain``, because payload corruption and packet loss
    act on *cross-node* transmissions, which a single-node broadcast
    never has.  The default duty-cycle traffic context stays on — it
    exercises every node's receive path from the first second, while the
    application's own multihop exchange supplies the real cross-node
    packets the corruptor mutates.

    Attributes:
        app: Registered application, built once per variant.
        variants: Build variants to compare, in matrix-column order.
        plan: The seeded :class:`~repro.scenarios.faults.FaultPlan`; one
            simulation runs per fault, per variant.
        node_count: Motes in the network (>= 1; every fault targeting a
            node position must fit).
        seconds: Virtual seconds per run (finite, > 0).
        traffic: Synthetic-traffic profile, as in :class:`SimSpec`.
        topology: Channel wiring, as in :class:`SimSpec`.
        loss: Per-link drop probability in [0, 1).
        seed: Channel seed (the plan's fault seed is separate, in
            ``plan.seed``).

    As with :class:`SimSpec`, an older dictionary's ``workers`` key and
    lowering-plan store directory are ignored on load and were never part
    of the content key.
    """

    app: str
    variants: tuple[str, ...]
    plan: FaultPlan
    node_count: int = 2
    seconds: float = DEFAULT_DUTY_CYCLE_SECONDS
    traffic: str = TRAFFIC_DEFAULT
    topology: str = "chain"
    loss: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        _check_app(self.app)
        if not self.variants:
            raise ValueError(
                f"{self.describe()}: needs at least one variant")
        for variant in self.variants:
            variant_by_name(variant)
        if not isinstance(self.plan, FaultPlan):
            raise TypeError(
                f"{self.describe()}: plan must be a FaultPlan, "
                f"got {type(self.plan).__name__}")
        if self.node_count < 1:
            raise ValueError(
                f"{self.describe()}: node_count must be >= 1, "
                f"got {self.node_count}")
        if self.plan.max_node() >= self.node_count:
            raise ValueError(
                f"{self.describe()}: plan targets node "
                f"{self.plan.max_node()} but the network has only "
                f"{self.node_count} node(s)")
        _check_seconds(self)
        if self.traffic not in TRAFFIC_PROFILES:
            raise ValueError(
                f"{self.describe()}: traffic must be one of "
                f"{TRAFFIC_PROFILES}, got {self.traffic!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"{self.describe()}: topology must be one of "
                f"{TOPOLOGIES}, got {self.topology!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(
                f"{self.describe()}: loss must be in [0, 1), "
                f"got {self.loss}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"{self.describe()}: seed must be a non-negative integer, "
                f"got {self.seed!r}")

    def describe(self) -> str:
        return (f"ScenarioSpec({self.app} × {len(self.variants)} "
                f"variant(s) × {len(self.plan.faults)} fault(s))")

    def build_specs(self) -> list[BuildSpec]:
        """One build per variant, in matrix-column order."""
        return [BuildSpec(app=self.app, variant=variant)
                for variant in self.variants]

    def content_key(self) -> str:
        return content_digest({
            "schema": SCHEMA_VERSION,
            "kind": "scenario",
            "builds": [spec.content_key() for spec in self.build_specs()],
            "plan": self.plan.to_dict(),
            "node_count": self.node_count,
            "seconds": self.seconds,
            "traffic": self.traffic,
            "topology": self.topology,
            "loss": self.loss,
            "seed": self.seed,
        })[:16]

    def to_dict(self) -> dict[str, object]:
        return {"kind": "scenario", "schema": SCHEMA_VERSION,
                "app": self.app, "variants": list(self.variants),
                "plan": self.plan.to_dict(),
                "node_count": self.node_count, "seconds": self.seconds,
                "traffic": self.traffic, "topology": self.topology,
                "loss": self.loss, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return cls(app=data["app"], variants=tuple(data["variants"]),
                   plan=FaultPlan.from_dict(data["plan"]),
                   node_count=data.get("node_count", 2),
                   seconds=data.get("seconds",
                                    DEFAULT_DUTY_CYCLE_SECONDS),
                   traffic=data.get("traffic", TRAFFIC_DEFAULT),
                   topology=data.get("topology", "chain"),
                   loss=data.get("loss", 0.0),
                   seed=data.get("seed", 0))

