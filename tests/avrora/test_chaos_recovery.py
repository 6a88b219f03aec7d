"""Chaos-driven recovery: killed workers, bit-identical results.

The tentpole property of the supervision layer in ``repro.avrora.shard``:
a sharded run whose workers are killed mid-protocol — early (before the
first checkpoint), mid-run and late, every worker index, workers 2 and 4
— recovers by checkpointed respawn and deterministic replay, and its
delivery log and per-node statement counts stay bit-equal to the
unsharded run.  Plus the failure modes that must *not* hang: recovery
disabled (checkpoint cadence 0) raises a labelled
:class:`ShardWorkerError` instead of blocking forever.
"""

from __future__ import annotations

import json

import pytest

from repro.api.specs import SimSpec
from repro.api.workbench import Workbench, run_network
from repro.avrora.chaos import ChaosPolicy
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.avrora.shard import ShardWorkerError
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


SECONDS = 1.0
NODE_COUNT = 9
CHANNEL = dict(topology="grid", grid_width=3, loss=0.1, seed=3)

#: A small cadence so even the short calibration runs ship checkpoints
#: and mid/late kills restore from one instead of replaying from round 0.
CADENCE = "40"


@pytest.fixture(scope="module")
def surge_program():
    return Workbench().build_result("Surge_Mica2", BASELINE).program


def _fingerprint(network: Network) -> dict:
    """Everything recovery promises to keep bit-identical."""
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


def _simulate(program, workers: int, chaos=None) -> Network:
    return run_network(
        program, seconds=SECONDS, node_count=NODE_COUNT,
        traffic=duty_cycle_context("Surge_Mica2"),
        channel=Channel(**CHANNEL), workers=workers, chaos=chaos)


@pytest.fixture(scope="module")
def baseline(surge_program):
    """The unsharded run every chaos run must reproduce bit for bit."""
    return _fingerprint(_simulate(surge_program, workers=1))


@pytest.fixture(scope="module")
def round_counts(surge_program, baseline):
    """Window rounds each worker count actually grants (for kill timing).

    The calibration runs double as the fault-free differential check —
    and they pin the small checkpoint cadence for the whole module so
    chaos runs restore from real checkpoints.
    """
    counts = {}
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_SHARD_CHECKPOINT_EVERY", CADENCE)
    yield_value = counts
    for workers in (2, 4):
        network = _simulate(surge_program, workers=workers)
        assert _fingerprint(network) == baseline, \
            f"fault-free workers={workers} diverged"
        assert network.recovery_stats["respawns"] == 0
        assert network.recovery_stats["checkpoints"] > 0
        counts[workers] = min(s["rounds"] for s in network.shard_stats)
    try:
        yield yield_value
    finally:
        mp.undo()


class TestChaosMatrix:
    """Kill every worker index at early/mid/late rounds; expect no trace."""

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("phase", ("early", "mid", "late"))
    def test_kills_leave_results_bit_identical(self, surge_program, baseline,
                                               round_counts, workers, phase):
        rounds = round_counts[workers]
        # "late" stays well short of the calibrated total: grant counts
        # are timing-dependent (window batching under load), so a kill
        # placed at the very last calibrated round may never fire.
        base = {"early": 2, "mid": rounds // 2,
                "late": max(2, (rounds * 2) // 3)}[phase]
        # One kill per worker index, staggered so respawns overlap the
        # other shards' normal progress (and each other, at round 2).
        chaos = ChaosPolicy(kills=tuple(
            (w, base + w) for w in range(workers)))
        network = _simulate(surge_program, workers, chaos=chaos)
        assert _fingerprint(network) == baseline, \
            f"workers={workers} {phase} kills diverged from the " \
            f"unsharded run"
        recovery = network.recovery_stats
        assert recovery["respawns"] >= workers
        assert recovery["chaos_kills"] == workers
        assert recovery["replayed_rounds"] >= 0
        if phase != "early":
            # Mid/late kills land after the first checkpoint, so the
            # respawn restored state rather than replaying from round 0.
            assert recovery["checkpoints"] > 0
            assert recovery["checkpoint_bytes"] > 0

    def test_double_kill_of_one_worker(self, surge_program, baseline,
                                       round_counts):
        rounds = round_counts[2]
        chaos = ChaosPolicy(kills=((1, 3), (1, rounds // 2)))
        network = _simulate(surge_program, 2, chaos=chaos)
        assert _fingerprint(network) == baseline
        assert network.recovery_stats["respawns"] == 2
        assert network.recovery_stats["chaos_kills"] == 2


class TestFailureModes:
    def test_disabled_recovery_raises_labelled_error(self, surge_program,
                                                     monkeypatch):
        """Cadence 0: a dead worker is an error, never a hang."""
        monkeypatch.setenv("REPRO_SHARD_CHECKPOINT_EVERY", "0")
        with pytest.raises(ShardWorkerError,
                           match=r"shard worker 1 died .* at round \d+") \
                as info:
            _simulate(surge_program, 2, chaos=ChaosPolicy(kills=((1, 2),)))
        assert info.value.worker_index == 1
        assert info.value.round_number >= 2
        assert info.value.heartbeat_age_s >= 0.0

    def test_out_of_range_kills_never_fire(self, surge_program, baseline,
                                           round_counts):
        """A policy written for more workers is harmless under fewer."""
        chaos = ChaosPolicy(kills=((7, 2), (0, 10 ** 9)))
        network = _simulate(surge_program, 2, chaos=chaos)
        assert _fingerprint(network) == baseline
        assert network.recovery_stats["respawns"] == 0
        assert network.recovery_stats["chaos_kills"] == 0


IDLE = "__spontaneous void main(void) { __sleep(); }"


def test_single_process_runs_ignore_chaos():
    """workers=1 has no worker processes to kill; chaos is inert."""
    program = make_program(IDLE)
    network = Network(channel=Channel(topology="chain"))
    for node_id in range(2):
        node = Node(program, node_id=node_id)
        node.boot()
        network.add_node(node)
    network.chaos = ChaosPolicy(kills=((0, 1),))
    network.run(0.01)
    assert network.recovery_stats == {}


# ---------------------------------------------------------------------------
# ChaosPolicy: the data model
# ---------------------------------------------------------------------------


class TestChaosPolicy:
    def test_round_trips_through_json(self):
        policy = ChaosPolicy(kills=((1, 3), (0, 7)), seed=9)
        data = json.loads(json.dumps(policy.to_dict()))
        assert ChaosPolicy.from_dict(data) == policy

    def test_kills_canonicalize(self):
        assert ChaosPolicy(kills=((1, 3), (0, 7), (1, 3))) \
            == ChaosPolicy(kills=((0, 7), (1, 3)))

    def test_kill_rounds_by_worker(self):
        policy = ChaosPolicy(kills=((1, 3), (1, 9), (0, 7)))
        assert policy.kill_rounds(1) == frozenset({3, 9})
        assert policy.kill_rounds(2) == frozenset()

    def test_label(self):
        assert ChaosPolicy().label() == "chaos: none"
        assert ChaosPolicy(kills=((1, 3),)).label() == "chaos: kill 1@3"

    @pytest.mark.parametrize("kills", [((-1, 3),), ((0, 0),), ((True, 2),),
                                       ((0, 1.5),), ("0@3",)])
    def test_rejects_malformed_kills(self, kills):
        with pytest.raises(ValueError, match="chaos"):
            ChaosPolicy(kills=kills)

    def test_parse_compact_and_json(self):
        assert ChaosPolicy.parse("1@3,0@7") \
            == ChaosPolicy(kills=((0, 7), (1, 3)))
        assert ChaosPolicy.parse('{"kills": [[1, 3]], "seed": 2}') \
            == ChaosPolicy(kills=((1, 3),), seed=2)
        assert ChaosPolicy.parse("   ") is None

    @pytest.mark.parametrize("text", ["1-3", "1@x", "{not json"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError, match="chaos"):
            ChaosPolicy.parse(text)

    def test_sampled_is_deterministic(self):
        first = ChaosPolicy.sampled(4, kills=3, max_round=10, seed=11)
        again = ChaosPolicy.sampled(4, kills=3, max_round=10, seed=11)
        other = ChaosPolicy.sampled(4, kills=3, max_round=10, seed=12)
        assert first == again
        assert first != other
        assert len(first.kills) == 3
        for worker, round_number in first.kills:
            assert 0 <= worker < 4
            assert 1 <= round_number <= 10


class TestSimSpecChaos:
    def test_round_trips(self):
        spec = SimSpec(app="Surge_Mica2", node_count=4, workers=2,
                       chaos=ChaosPolicy(kills=((0, 3),)))
        data = json.loads(json.dumps(spec.to_dict()))
        assert SimSpec.from_dict(data) == spec

    def test_chaos_is_not_part_of_the_content_key(self):
        plain = SimSpec(app="Surge_Mica2", node_count=4)
        chaotic = SimSpec(app="Surge_Mica2", node_count=4, workers=2,
                          chaos=ChaosPolicy(kills=((0, 3),)))
        assert plain.content_key() == chaotic.content_key()

    def test_coerces_dict_form(self):
        spec = SimSpec(app="Surge_Mica2", node_count=4,
                       chaos={"kills": [[0, 3]], "seed": 0})
        assert spec.chaos == ChaosPolicy(kills=((0, 3),))

    def test_rejects_non_policy(self):
        with pytest.raises(TypeError, match="chaos"):
            SimSpec(app="Surge_Mica2", chaos="1@3")
