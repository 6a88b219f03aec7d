"""Executing fault plans across build variants and classifying the outcome.

The runner answers the paper's question as a table: *what does each build
variant do when this exact adversity happens?*  For every variant it
first takes (or reuses) a fault-free **golden run** fingerprint, then
replays the same seeded simulation once per fault with a
:class:`~repro.scenarios.injector.ScenarioInjector` armed, and classifies
each run against the verdict lattice:

``detected``
    The safety layer reported at least one new
    :class:`~repro.avrora.node.FailureRecord` — a bounds or pointer check
    caught the corruption (the safe-build outcome the paper argues for).
``crash``
    A node halted without a failure report and without being told to
    (induced kills use a reserved halt code) — fail-stop, but blind.
``silent-corruption``
    No detection, no crash, yet the mote kept going on corrupted state.
    For *state* faults (bit flips, in-flight payload corruption) the
    golden run saw identical inputs, so any per-node fingerprint
    divergence qualifies.  For *input* faults (crafted packets, node
    churn — ``Fault.perturbs_inputs``) behavioural divergence is expected
    by design, so only silently absorbed out-of-bounds accesses count.
``benign``
    None of the above — the fault landed somewhere that never mattered,
    or was handled defensively.

Everything is deterministic: plans are seeded, the channel and corruptor
hash per-packet, and injections ride the node's event queue at absolute
virtual times — so a verdict matrix is a pure function of (spec, plan) and
reruns bit-identically.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional

from repro.api.specs import TRAFFIC_BASE, TRAFFIC_DEFAULT, BuildSpec
from repro.api.workbench import run_network
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.scenarios.faults import KILL_HALT_CODE, Fault
from repro.scenarios.injector import ScenarioInjector
from repro.toolchain.contexts import duty_cycle_context

if TYPE_CHECKING:
    from repro.api.specs import ScenarioSpec
    from repro.api.workbench import Workbench
    from repro.avrora.engine import CodeCache

#: Verdicts, strongest first — the order the lattice is evaluated in.
VERDICTS = ("detected", "crash", "silent-corruption", "benign")

#: Positions of the fingerprint fields the classifier reads by index.
_FP_HALTED, _FP_FAILURES, _FP_VIOLATIONS = 0, 2, 3


def node_fingerprint(node: Node) -> tuple:
    """An externally visible behavioural fingerprint of one mote.

    Everything here is bit-identical across reruns and grant schedules
    (the lockstep kernel's contract), so fingerprint comparison never
    confuses scheduling artefacts with corruption.
    """
    sent = node.radio.packets_sent
    return (
        bool(node.halted),
        node.halt_code,
        len(node.failures),
        node.memory_violations,
        node.leds.state.value,
        node.leds.state.changes,
        node.leds.state.red_toggles,
        len(sent),
        hashlib.sha256(b"".join(sent)).hexdigest()[:16],
        node.radio.packets_received,
        node.radio.packets_dropped,
        hashlib.sha256(bytes(node.uart.sent_bytes)).hexdigest()[:16],
        node.interpreter.statements_executed,
    )


def classify(network: Network, golden: tuple[tuple, ...],
             fault: Fault) -> str:
    """Place one faulted run in the verdict lattice (see module docstring)."""
    nodes = network.nodes
    golden_failures = sum(fp[_FP_FAILURES] for fp in golden)
    if sum(len(node.failures) for node in nodes) > golden_failures:
        return "detected"
    for position, node in enumerate(nodes):
        induced_halt = node.halt_code == KILL_HALT_CODE
        if node.halted and not induced_halt \
                and not golden[position][_FP_HALTED]:
            return "crash"
    for position, node in enumerate(nodes):
        if fault.perturbs_inputs or position in fault.induced_nodes():
            # Divergence here is expected by design: the node was killed,
            # rebooted, or the network's traffic pattern itself changed
            # (a crafted packet is an input the golden run never saw, and
            # its influence propagates).  Silently *absorbed*
            # out-of-bounds accesses still count: a lenient build
            # swallowing them is exactly the corruption the verdict is
            # after.
            if node.memory_violations > golden[position][_FP_VIOLATIONS]:
                return "silent-corruption"
        elif node_fingerprint(node) != golden[position]:
            return "silent-corruption"
    return "benign"


class ScenarioRunner:
    """Runs fault plans through a :class:`~repro.api.workbench.Workbench`.

    The runner owns the **golden-run cache**: fault-free fingerprints are
    keyed by (variant build key, simulation parameters), so an N-variant ×
    M-fault scenario costs N golden runs — and re-running scenarios (or
    different plans) against the same variants costs zero more.

    Within one :meth:`run`, a variant's golden and faulted runs share one
    :class:`~repro.avrora.engine.CodeCache`, so each function of the
    variant is lowered once, not once per run; ``lowerings`` counts them.
    """

    def __init__(self, workbench: "Workbench"):
        self.workbench = workbench
        self._golden: dict[tuple, tuple[tuple, ...]] = {}
        self.golden_runs = 0
        self.golden_hits = 0
        self.lowerings = 0
        #: ``id(program)`` -> the code cache of a variant of the running
        #: :meth:`run`; empty outside it.
        self._code_caches: dict[int, CodeCache] = {}

    # -- simulation plumbing ---------------------------------------------------

    @staticmethod
    def _sim_key(spec: "ScenarioSpec", build_key: str) -> tuple:
        return (build_key, spec.node_count, spec.seconds, spec.traffic,
                spec.topology, spec.loss, spec.seed)

    def _run(self, spec: "ScenarioSpec", program,
             injector: Optional[ScenarioInjector]) -> Network:
        traffic = duty_cycle_context(spec.app) \
            if spec.traffic in (TRAFFIC_DEFAULT, TRAFFIC_BASE) else None
        channel = Channel(topology=spec.topology, loss=spec.loss,
                          seed=spec.seed)
        return run_network(
            program, seconds=spec.seconds, node_count=spec.node_count,
            traffic=traffic, channel=channel,
            traffic_first_node_only=(spec.traffic == TRAFFIC_BASE),
            prepare=injector.arm if injector is not None else None,
            code_cache=self._code_caches.get(id(program)))

    def golden_fingerprints(self, spec: "ScenarioSpec", build_key: str,
                            program) -> tuple[tuple, ...]:
        """Fault-free per-node fingerprints for one variant (cached)."""
        key = self._sim_key(spec, build_key)
        cached = self._golden.get(key)
        if cached is not None:
            self.golden_hits += 1
            return cached
        self.golden_runs += 1
        network = self._run(spec, program, None)
        fingerprints = tuple(node_fingerprint(node)
                             for node in network.nodes)
        return self._golden.setdefault(key, fingerprints)

    # -- the verdict table -----------------------------------------------------

    def run(self, spec: "ScenarioSpec") -> dict:
        """Execute the full variant × fault matrix for one scenario.

        Returns plain data (the workbench wraps it into a
        :class:`~repro.api.records.ScenarioRecord`):
        ``verdicts[fault_index][variant_index]``, a ``details`` dict keyed
        ``"<fault label>|<variant>"``, and golden-cache statistics.
        """
        from repro.avrora.engine import CodeCache

        faults = spec.plan.faults
        labels = spec.plan.labels()
        columns: list[list[str]] = []     # [variant][fault]
        details: dict[str, dict] = {}
        runs_before, hits_before = self.golden_runs, self.golden_hits
        for variant in spec.variants:
            build_spec = BuildSpec(app=spec.app, variant=variant)
            result = self.workbench.build_result(build_spec)
            code_cache = CodeCache(result.program)
            self._code_caches[id(result.program)] = code_cache
            try:
                golden = self.golden_fingerprints(
                    spec, build_spec.content_key(), result.program)
                cells: list[str] = []
                for label, fault in zip(labels, faults):
                    injector = ScenarioInjector(fault, seed=spec.plan.seed)
                    network = self._run(spec, result.program, injector)
                    verdict = classify(network, golden, fault)
                    cells.append(verdict)
                    details[f"{label}|{variant}"] = self._detail(
                        network, golden, fault, verdict)
            finally:
                del self._code_caches[id(result.program)]
                self.lowerings += code_cache.lowerings
            columns.append(cells)
        verdicts = tuple(tuple(columns[v][f]
                               for v in range(len(spec.variants)))
                         for f in range(len(faults)))
        # Per-scenario deltas, not the runner's cumulative counters: the
        # record must not depend on what else the session ran before it.
        return {
            "verdicts": verdicts,
            "details": details,
            "golden": {"runs": self.golden_runs - runs_before,
                       "cache_hits": self.golden_hits - hits_before},
        }

    @staticmethod
    def _detail(network: Network, golden: tuple[tuple, ...], fault: Fault,
                verdict: str) -> dict:
        """Facts about one faulted run, read from node state only.

        The injector's ``fired`` log and corruption counter stay out: the
        record describes what the motes did, and the node fingerprints
        already carry every observable consequence of the fault.
        """
        induced = set(fault.induced_nodes())
        diverged = [position for position, node in enumerate(network.nodes)
                    if position not in induced
                    and node_fingerprint(node) != golden[position]]
        return {
            "verdict": verdict,
            "failures": sum(len(node.failures) for node in network.nodes),
            "halted": [position
                       for position, node in enumerate(network.nodes)
                       if node.halted],
            "memory_violations": sum(node.memory_violations
                                     for node in network.nodes),
            "diverged_nodes": diverged,
        }
