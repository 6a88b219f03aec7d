"""The benchmark's three workloads, driven through the public API.

Each workload has a set-up (the work a user pays before the measured
operation: a fresh interpreter importing the toolchain, plus any builds the
operation needs) and an iteration (the measured operation).  An iteration
returns its outputs as plain JSON data, which the runner checks against the
frozen references in ``golden.json`` and against the other iterations of
the same run.

* ``figures_cold`` — every figure table for every application, from a
  fresh :class:`~repro.api.workbench.Workbench` with no artifact store
  (what ``python -m repro figures --figure all`` does).
* ``surge_chain8`` — ``Surge_Mica2`` × ``baseline`` on an 8-node chain with
  a small seeded per-link loss, no synthetic traffic, 10 simulated seconds.
* ``fault_matrix`` — ``Surge_Mica2`` × {``baseline``, ``safe-optimized``}
  × the five default faults on a 2-node chain, with a seeded fault plan.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.api import figures
from repro.api.specs import TRAFFIC_NONE, ScenarioSpec, SimSpec
from repro.api.workbench import Workbench, run_network
from repro.avrora.network import Channel
from repro.scenarios.faults import DEFAULT_FAULT_NAMES, FaultPlan, default_fault
from repro.scenarios.runner import ScenarioRunner
from repro.tinyos.suite import all_application_names

#: The seed the frozen references were taken at.
DEFAULT_SEED = 0

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: What a fresh session imports before it can run any workload.
_IMPORTS = ("import repro.api.figures, repro.api.workbench, "
            "repro.scenarios.runner, repro.toolchain.lower")


@dataclass
class Meter:
    """Builds, simulation timings and simulated work of one set-up or
    iteration."""

    builds: int = 0
    sim_ms: list[float] = field(default_factory=list)
    statements: int = 0
    node_seconds: float = 0.0

    def add_sim(self, seconds: float, statements: int,
                node_seconds: float) -> None:
        self.sim_ms.append(seconds * 1e3)
        self.statements += statements
        self.node_seconds += node_seconds

    @property
    def operations(self) -> int:
        return self.builds + len(self.sim_ms)


class TimedWorkbench(Workbench):
    """A Workbench that counts its executed builds and times simulations."""

    def __init__(self, meter: Meter):
        super().__init__()
        self.meter = meter

    def build(self, spec, variant=None):
        cached = self.cached_builds()
        record = super().build(spec, variant)
        self.meter.builds += self.cached_builds() - cached
        return record

    def simulate(self, spec):
        started = time.perf_counter()
        record = super().simulate(spec)
        self.meter.add_sim(time.perf_counter() - started,
                           record.superblocks["statements_total"],
                           record.node_count * record.seconds)
        return record


class TimedRunner(ScenarioRunner):
    """A ScenarioRunner that times every golden and faulted simulation."""

    def __init__(self, workbench: Workbench, meter: Meter):
        super().__init__(workbench)
        self.meter = meter

    def _run(self, spec, program, injector):
        started = time.perf_counter()
        network = super()._run(spec, program, injector)
        self.meter.add_sim(
            time.perf_counter() - started,
            sum(node.interpreter.statements_executed
                for node in network.nodes),
            spec.node_count * spec.seconds)
        return network


def start_fresh_session() -> None:
    """Run a fresh interpreter that imports the toolchain, and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    subprocess.run([sys.executable, "-c", _IMPORTS], env=env, check=True,
                   timeout=120, stdin=subprocess.DEVNULL)


def canonical(data) -> object:
    """JSON-normal form (tuples become lists, keys sorted on dump)."""
    return json.loads(json.dumps(data, sort_keys=True))


class Workload:
    """Base: ``prepare`` is the in-process set-up, ``iterate`` the work."""

    name = ""
    #: The layer a traced iteration's top-level call reports as.
    span = ""

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        self.short = short

    def prepare(self, meter: Meter) -> None:
        """In-process set-up; builds it runs are counted into ``meter``."""

    def iterate(self, meter: Meter, tracer=None) -> dict:
        raise NotImplementedError

    def _span(self, tracer):
        return tracer.span(self.span) if tracer is not None else nullcontext()

    def invariants(self, outputs: dict) -> list[str]:
        """Seed-independent properties every output must have."""
        return []


class FiguresCold(Workload):
    name = "figures_cold"
    span = "api.figures"

    #: Short input: one mote app with a radio stack, one without.
    SHORT_APPS = ["BlinkTask_Mica2", "RfmToLeds_Mica2"]

    TABLES = (("figure2", figures.figure2_table),
              ("figure3a", figures.figure3a_table),
              ("figure3b", figures.figure3b_table),
              ("figure3c", figures.figure3c_table))

    def __init__(self, seed: int, short: bool = False):
        super().__init__(seed, short)
        # The figures have no random inputs: the seed changes nothing.
        self.apps = self.SHORT_APPS if short else all_application_names()

    def iterate(self, meter: Meter, tracer=None) -> dict:
        workbench = TimedWorkbench(meter)
        outputs = {}
        for key, table_of in self.TABLES:
            with self._span(tracer):
                table = table_of(workbench, self.apps)
            outputs[key] = {"title": table.title,
                            "rows": {row["application"]: row
                                     for row in table.rows()}}
        return canonical(outputs)


class SurgeChain8(Workload):
    name = "surge_chain8"
    span = "api.run_network"

    LOSS = 0.05

    def __init__(self, seed: int, short: bool = False):
        super().__init__(seed, short)
        self.spec = SimSpec(app="Surge_Mica2", variant="baseline",
                            node_count=8, seconds=3.0 if short else 10.0,
                            traffic=TRAFFIC_NONE, topology="chain",
                            loss=self.LOSS, seed=seed)
        self.program = None

    def prepare(self, meter: Meter) -> None:
        self.program = Workbench().build_result(
            self.spec.build_spec()).program
        meter.builds += 1

    def iterate(self, meter: Meter, tracer=None) -> dict:
        spec = self.spec
        started = time.perf_counter()
        with self._span(tracer):
            network = run_network(
                self.program, seconds=spec.seconds,
                node_count=spec.node_count,
                channel=Channel(topology=spec.topology, loss=spec.loss,
                                seed=spec.seed))
        nodes = network.nodes
        meter.add_sim(time.perf_counter() - started,
                      sum(node.interpreter.statements_executed
                          for node in nodes),
                      spec.node_count * spec.seconds)
        log = hashlib.sha256()
        for entry in network.deliveries:
            log.update(repr((entry.sender_id, entry.receiver_id,
                             entry.sent_cycles, entry.received_cycles,
                             entry.accepted, entry.payload)).encode())
        return canonical({
            "deliveries": len(network.deliveries),
            "delivery_log_sha256": log.hexdigest(),
            "delivered": network.delivered_packets,
            "lost": network.lost_packets,
            "nodes": [{"node_id": node.node_id,
                       "statements": node.interpreter.statements_executed,
                       "duty_cycle": node.duty_cycle(),
                       "packets_sent": len(node.radio.packets_sent),
                       "packets_received": node.radio.packets_received,
                       "failures": len(node.failures),
                       "halted": node.halted}
                      for node in nodes],
        })

    def invariants(self, outputs: dict) -> list[str]:
        problems = []
        nodes = outputs["nodes"]
        # Every chain transmission reaches each neighbour or is lost, and
        # a delivery is accepted at most once.
        links = sum(node["packets_sent"] * (1 if i in (0, len(nodes) - 1)
                                            else 2)
                    for i, node in enumerate(nodes))
        if not outputs["delivered"] <= outputs["deliveries"]:
            problems.append("more packets accepted than delivered")
        if not outputs["deliveries"] + outputs["lost"] <= links:
            problems.append("more deliveries and losses than transmissions")
        if not sum(node["packets_sent"] for node in nodes):
            problems.append("no node transmitted")
        for node in nodes:
            if node["failures"] or node["halted"]:
                problems.append(f"node {node['node_id']} failed or halted")
        return problems


class FaultMatrix(Workload):
    name = "fault_matrix"
    span = "scenarios.run"

    VARIANTS = ("baseline", "safe-optimized")

    def __init__(self, seed: int, short: bool = False):
        super().__init__(seed, short)
        plan = FaultPlan(faults=tuple(default_fault(name, 2)
                                      for name in DEFAULT_FAULT_NAMES),
                         seed=seed)
        self.spec = ScenarioSpec(app="Surge_Mica2", variants=self.VARIANTS,
                                 plan=plan, node_count=2,
                                 seconds=2.0 if short else 3.0)
        self.workbench: Optional[Workbench] = None

    def prepare(self, meter: Meter) -> None:
        # Both variants in one sweep call, sharing the nesC front end.
        self.workbench = Workbench()
        records = self.workbench.sweep(apps=[self.spec.app],
                                       variants=list(self.VARIANTS))
        meter.builds += len(records)

    def iterate(self, meter: Meter, tracer=None) -> dict:
        # A fresh runner per iteration: its golden-run cache starts empty,
        # as in a new session that already holds the builds.
        outcome = TimedRunner(self.workbench, meter).run(self.spec)
        return canonical({
            "faults": self.spec.plan.labels(),
            "variants": list(self.VARIANTS),
            "verdicts": outcome["verdicts"],
            "details": outcome["details"],
            "golden": outcome["golden"],
        })

    def invariants(self, outputs: dict) -> list[str]:
        problems = []
        # The paper's headline split: a pointer bit-flip corrupts the
        # unsafe build silently and is caught by the safe one.
        row = outputs["verdicts"][DEFAULT_FAULT_NAMES.index("bit-flip")]
        if row != ["silent-corruption", "detected"]:
            problems.append(f"bit-flip split lost: {row}")
        if outputs["golden"] != {"runs": len(self.VARIANTS),
                                 "cache_hits": 0}:
            problems.append(f"golden runs: {outputs['golden']}")
        return problems


WORKLOADS = {cls.name: cls for cls in (FiguresCold, SurgeChain8, FaultMatrix)}
