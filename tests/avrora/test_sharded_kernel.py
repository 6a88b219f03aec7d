"""The sharded multi-process kernel: bit-identical fields, labelled errors.

The acceptance property of ``repro.avrora.shard``: partitioning a topology
across worker processes changes *nothing* observable — delivery logs,
per-node statement counts, duty cycles and device state are byte-equal to
the single-process kernel for every worker count.  Verified differentially
over seeded lossy chains and grids with two figure applications.
"""

from __future__ import annotations

import pytest

from repro.api.specs import SimSpec
from repro.api.workbench import Workbench, run_network
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def surge_program():
    return Workbench().build_result("Surge_Mica2", BASELINE).program


@pytest.fixture(scope="module")
def cnt_program():
    return Workbench().build_result("CntToLedsAndRfm_Mica2",
                                    BASELINE).program


def _fingerprint(network: Network) -> dict:
    """Everything the sharded kernel promises to keep bit-identical."""
    return {
        "nodes": [(node.node_id,
                   node.interpreter.statements_executed,
                   node.time_cycles, node.busy_cycles, node.sleep_cycles,
                   node.duty_cycle(),
                   node.interrupts_delivered,
                   node.radio.packets_sent, node.radio.packets_received,
                   node.radio.packets_dropped,
                   node.leds.state.changes)
                  for node in network.nodes],
        "deliveries": [(d.sender_id, d.receiver_id, d.sent_cycles,
                        d.received_cycles, d.accepted, d.payload)
                       for d in network.deliveries],
        "delivered": network.delivered_packets,
        "lost": network.lost_packets,
    }


def _simulate(program, app: str, workers: int, seconds: float,
              node_count: int, **channel_kwargs) -> dict:
    network = run_network(
        program, seconds=seconds, node_count=node_count,
        traffic=duty_cycle_context(app),
        channel=Channel(**channel_kwargs), workers=workers)
    fingerprint = _fingerprint(network)
    if workers > 1:
        fingerprint["shards"] = network.shard_stats
    return fingerprint


def _assert_identical_across_workers(program, app, seconds, node_count,
                                     **channel_kwargs):
    runs = {}
    for workers in WORKER_COUNTS:
        runs[workers] = _simulate(program, app, workers, seconds,
                                  node_count, **channel_kwargs)
        shards = runs[workers].pop("shards", None)
        if workers > 1:
            # The run really was sharded, every shard did work, and the
            # shard ranges partition the node positions exactly.
            assert shards is not None and len(shards) == workers
            covered = []
            for stats in shards:
                lo, hi = stats["nodes"]
                covered.extend(range(lo, hi))
                assert stats["rounds"] > 0
            assert covered == list(range(node_count))
    for workers in WORKER_COUNTS[1:]:
        assert runs[workers] == runs[1], \
            f"{app}: workers={workers} diverged from the in-process kernel"


class TestBitIdenticalFields:
    def test_surge_lossy_chain(self, surge_program):
        _assert_identical_across_workers(
            surge_program, "Surge_Mica2", seconds=3.0, node_count=6,
            topology="chain", loss=0.15, seed=5, jitter_us=40)

    def test_surge_lossy_grid(self, surge_program):
        _assert_identical_across_workers(
            surge_program, "Surge_Mica2", seconds=3.0, node_count=9,
            topology="grid", grid_width=3, loss=0.1, seed=3)

    def test_cnt_to_rfm_lossy_chain(self, cnt_program):
        _assert_identical_across_workers(
            cnt_program, "CntToLedsAndRfm_Mica2", seconds=2.0, node_count=6,
            topology="chain", loss=0.2, seed=7, jitter_us=80)

    def test_cnt_to_rfm_grid(self, cnt_program):
        _assert_identical_across_workers(
            cnt_program, "CntToLedsAndRfm_Mica2", seconds=2.0, node_count=9,
            topology="grid", grid_width=3, loss=0.1, seed=11)


# ---------------------------------------------------------------------------
# Parallel-config validation: labelled errors at every layer
# ---------------------------------------------------------------------------


IDLE = "__spontaneous void main(void) { __sleep(); }"


def _tiny_network(node_count: int = 3) -> Network:
    program = make_program(IDLE)
    network = Network(channel=Channel(topology="chain"))
    for node_id in range(node_count):
        node = Node(program, node_id=node_id)
        node.boot()
        network.add_node(node)
    return network


class TestParallelConfigErrors:
    def test_network_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="parallel config.*>= 1"):
            _tiny_network().run(0.01, workers=0)

    def test_network_rejects_more_workers_than_nodes(self):
        with pytest.raises(ValueError,
                           match="parallel config.*exceed the node count"):
            _tiny_network(3).run(0.01, workers=4)

    def test_run_sequential_rejects_sharding(self):
        with pytest.raises(ValueError,
                           match="parallel config.*run_sequential"):
            _tiny_network().run_sequential(0.01, workers=2)

    def test_simspec_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="parallel config.*>= 1"):
            SimSpec(app="Surge_Mica2", node_count=4, workers=0)

    def test_simspec_rejects_more_workers_than_nodes(self):
        with pytest.raises(ValueError,
                           match="parallel config.*exceed the node count"):
            SimSpec(app="Surge_Mica2", node_count=4, workers=8)

    def test_simspec_workers_do_not_change_the_content_key(self):
        sequential = SimSpec(app="Surge_Mica2", node_count=4, workers=1)
        sharded = SimSpec(app="Surge_Mica2", node_count=4, workers=4)
        assert sequential.content_key() == sharded.content_key()

    def test_simspec_workers_round_trip(self):
        spec = SimSpec(app="Surge_Mica2", node_count=4, workers=2)
        assert SimSpec.from_dict(spec.to_dict()) == spec
