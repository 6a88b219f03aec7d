"""The lockstep network kernel: topologies, causality, reproducibility.

Covers the discrete-event scheduler (resumable ``run_until`` slices must
not change what a node computes, and neither may a tighter grant
schedule across a whole network), the causality check that turns an
unsound lookahead into an error, the channel model (topology wiring,
seeded loss), and the acceptance scenario: a packet originated at a leaf
Surge mote reaching the base station through an intermediate hop in a
``chain`` topology with causally ordered delivery timestamps.
"""

from __future__ import annotations

import random

import pytest

from repro.api.workbench import Workbench, run_network
from repro.avrora.memory import Pointer
from repro.avrora.network import Channel, Network
from repro.avrora.node import _DELIVERY_SEQ_BASE, CausalityError, Node
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw
from repro.tinyos import messages as msgs
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import BASELINE

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


# ---------------------------------------------------------------------------
# Channel model
# ---------------------------------------------------------------------------


class TestChannel:
    def test_broadcast_connects_every_pair(self):
        channel = Channel(topology="broadcast")
        assert channel.neighbors(1, 4) == [0, 2, 3]

    def test_chain_connects_adjacent_positions(self):
        channel = Channel(topology="chain")
        assert channel.neighbors(0, 4) == [1]
        assert channel.neighbors(2, 4) == [1, 3]
        assert channel.neighbors(3, 4) == [2]

    def test_star_routes_through_the_hub(self):
        channel = Channel(topology="star")
        assert channel.neighbors(0, 4) == [1, 2, 3]
        assert channel.neighbors(3, 4) == [0]

    def test_grid_connects_four_neighbors(self):
        channel = Channel(topology="grid", grid_width=3)
        # 3x3 grid: position 4 is the centre.
        assert sorted(channel.neighbors(4, 9)) == [1, 3, 5, 7]
        assert sorted(channel.neighbors(0, 9)) == [1, 3]
        # Ragged last row: position 7 of 8 has no south neighbour.
        assert sorted(channel.neighbors(7, 8)) == [4, 6]

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            Channel(topology="ring")
        with pytest.raises(ValueError, match="loss"):
            Channel(loss=1.0)
        with pytest.raises(ValueError, match="latency"):
            Channel(latency_us=0)

    def test_simulate_numbers_non_broadcast_topologies_from_zero(self):
        """The first node of a routed topology must be the base station
        (``TOS_LOCAL_ADDRESS == 0``), or multihop collection never forms."""
        program = make_program(
            "__spontaneous void main(void) { __sleep(); }")
        chained = run_network(program, seconds=0.05, node_count=2,
                              channel=Channel(topology="chain")).nodes
        assert [node.node_id for node in chained] == [0, 1]
        broadcast = run_network(program, seconds=0.05, node_count=2).nodes
        assert [node.node_id for node in broadcast] == [1, 2]

    def test_link_latency_jitter_is_deterministic_and_per_link(self):
        channel = Channel(jitter_us=500, seed=3)
        first = channel.link_latency_us(0, 1)
        assert first == channel.link_latency_us(0, 1)
        assert channel.latency_us <= first <= channel.latency_us + 500
        spread = {channel.link_latency_us(a, b)
                  for a in range(4) for b in range(4) if a != b}
        assert len(spread) > 1


# ---------------------------------------------------------------------------
# Resumable execution (run_until)
# ---------------------------------------------------------------------------


BLINKY = """
uint8_t leds_on = 0;
uint16_t ticks = 0;

__interrupt("TIMER1_COMPA") void fired(void) {
  ticks = ticks + 1;
  leds_on = (uint8_t)(leds_on ^ 1);
  __hw_write8(%d, leds_on);
}

__spontaneous void main(void) {
  __hw_write16(%d, 64);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    __sleep();
  }
}
""" % (hw.LED_PORT, hw.TIMER_RATE, hw.TIMER_CTRL)


def _observe_node(node: Node) -> dict:
    return {
        "time": node.time_cycles,
        "busy": node.busy_cycles,
        "sleep": node.sleep_cycles,
        "duty_cycle": node.duty_cycle(),
        "statements": node.interpreter.statements_executed,
        "interrupts": node.interrupts_delivered,
        "led_changes": node.leds.state.changes,
        "packets_sent": node.radio.packets_sent,
        "packets_received": node.radio.packets_received,
        "packets_dropped": node.radio.packets_dropped,
    }


def _fingerprint(network: Network) -> dict:
    """Everything a network run exposes that must reproduce exactly."""
    return {
        "nodes": [_observe_node(node) for node in network.nodes],
        "deliveries": [(r.sender_id, r.receiver_id, r.sent_cycles,
                        r.received_cycles, r.accepted, r.payload)
                       for r in network.deliveries],
        "delivered": network.delivered_packets,
        "lost": network.lost_packets,
    }


class TestRunUntil:
    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_sliced_execution_is_byte_identical_to_one_run(self, engine):
        """Arbitrary pause horizons must not change what the node computes."""
        program = make_program(BLINKY)
        program.interrupt_vectors["TIMER1_COMPA"] = "fired"

        reference = Node(program, engine=engine)
        reference.boot()
        reference.run(1.0)

        sliced = Node(program, engine=engine)
        sliced.boot()
        sliced.begin_run(1.0)
        # Deliberately awkward horizon steps: prime-sized, far smaller than
        # the timer period, so the node pauses both mid-sleep and mid-run.
        horizon = 0
        status = "paused"
        while status == "paused":
            horizon += 104729
            status = sliced.run_until(horizon)
        assert status == "finished"
        assert _observe_node(sliced) == _observe_node(reference)

    def test_run_until_reports_pause_and_finish(self):
        program = make_program(BLINKY)
        program.interrupt_vectors["TIMER1_COMPA"] = "fired"
        node = Node(program)
        node.boot()
        node.begin_run(0.5)
        assert node.run_until(node.clock_hz // 10) == "paused"
        assert node.time_cycles < node.end_cycles
        assert node.run_until(node.end_cycles) == "finished"
        assert node.run_until(node.end_cycles + 1) == "finished"


# ---------------------------------------------------------------------------
# Lockstep causality and the multi-hop acceptance scenario
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def surge_program():
    return Workbench().build_result("Surge_Mica2", BASELINE).program


def _chain_network(program, node_count: int, **channel_kwargs) -> Network:
    network = Network(channel=Channel(topology="chain", **channel_kwargs))
    for node_id in range(node_count):
        node = Node(program, node_id=node_id)
        node.boot()
        network.add_node(node)
    return network


_multihop_header = msgs.decode_multihop_header


class TestMultiHop:
    SIM_SECONDS = 45.0

    def test_leaf_packet_reaches_base_via_intermediate_hop(
            self, surge_program):
        """The acceptance scenario: 0 (base) <- 1 <- 2 (leaf), with the
        leaf's reading forwarded by mote 1 and causally ordered
        cross-node delivery timestamps."""
        network = _chain_network(surge_program, 3)
        network.run(self.SIM_SECONDS)

        # Every delivery is causal: latency is positive and a receiver
        # never processes a packet before it was sent.
        assert network.deliveries
        for record in network.deliveries:
            assert record.received_cycles > record.sent_cycles

        # The leaf's readings were forwarded: the base accepted multihop
        # data packets whose origin is mote 2 but whose last hop is mote 1.
        forwarded = [
            record for record in network.deliveries
            if record.receiver_id == 0 and record.accepted
            and _multihop_header(record.payload) == (msgs.AM_MULTIHOP, 1, 2)
        ]
        assert forwarded, "no leaf reading was forwarded to the base"

        # Each forwarded reading was seen hopping: a matching origin-2
        # delivery from the leaf to mote 1 strictly precedes the base's
        # reception of the forwarded copy — monotone along the path.
        leaf_to_relay = [
            record for record in network.deliveries
            if record.sender_id == 2 and record.receiver_id == 1
            and record.accepted
            and _multihop_header(record.payload) == (msgs.AM_MULTIHOP, 2, 2)
        ]
        assert leaf_to_relay
        first_hop = min(r.received_cycles for r in leaf_to_relay)
        for record in forwarded:
            assert record.received_cycles > first_hop

        # The relay really did the forwarding work.
        relay = network.nodes[1]
        obj = relay.memory.global_object("MultiHopRouterM__route_forwarded")
        forwarded_count = relay.memory.read(Pointer(obj, 0), ty.UINT16)
        assert forwarded_count >= len(forwarded)

    def test_chain_wiring_prevents_direct_leaf_to_base_delivery(
            self, surge_program):
        network = _chain_network(surge_program, 3)
        network.run(20.0)
        assert not any(record.sender_id == 2 and record.receiver_id == 0
                       for record in network.deliveries)
        assert any(record.sender_id == 2 and record.receiver_id == 1
                   for record in network.deliveries)

    def test_lockstep_nodes_finish_at_their_own_end_times(
            self, surge_program):
        network = _chain_network(surge_program, 3)
        network.run(5.0)
        for node in network.nodes:
            assert node.time_cycles >= node.end_cycles


class TestReproducibility:
    def _run(self, program, seed: int):
        network = _chain_network(program, 3, loss=0.25, seed=seed)
        network.run(20.0)
        return _fingerprint(network)

    def test_seeded_lossy_runs_are_bit_reproducible(self, surge_program):
        first = self._run(surge_program, seed=11)
        second = self._run(surge_program, seed=11)
        assert first == second
        assert first["lost"] > 0, "the lossy channel never dropped a packet"

    def test_different_seeds_diverge(self, surge_program):
        first = self._run(surge_program, seed=11)
        other = self._run(surge_program, seed=12)
        assert first["deliveries"] != other["deliveries"]


# ---------------------------------------------------------------------------
# Grant-schedule invariance
# ---------------------------------------------------------------------------


#: A cap on how far past a peer's clock any grant may reach.  The kernel's
#: own bound is at least one minimum air time plus one link latency
#: (3066 cycles on a Mica2), so this cap moves nearly every horizon, and it
#: stays conservative: a smaller horizon never lets a node outrun a packet.
TIGHT_WINDOW_CYCLES = 2503

#: Seed of the random grant cut, per engine: two different cut sequences.
CUT_SEEDS = {"compiled": 1, "tree": 2}


@pytest.fixture(scope="module")
def cnt_program():
    return Workbench().build_result("CntToLedsAndRfm_Mica2",
                                    BASELINE).program


#: (application, simulated seconds, node count, channel, schedules) per
#: field.  Surge's first beacons go out just after 2 s, hence 2.5 simulated
#: seconds.  Only Surge transmits in reaction to the packets it receives,
#: so its fields are the ones an unsound lookahead can reorder.  The
#: capped schedule would cost the grid field ~37k more grants, nearly all
#: in Surge's quiet first two seconds, so that field runs only the cut one.
FIELDS = {
    "surge_lossy_chain": ("Surge_Mica2", 2.5, 8,
                          dict(topology="chain", loss=0.15, seed=5,
                               jitter_us=40), ("tight", "cut")),
    "surge_lossy_grid": ("Surge_Mica2", 2.5, 6,
                         dict(topology="grid", grid_width=3, loss=0.1,
                              seed=7), ("cut",)),
    "cnt_to_rfm_grid": ("CntToLedsAndRfm_Mica2", 1.0, 6,
                        dict(topology="grid", grid_width=3, loss=0.1,
                             seed=11), ("tight", "cut")),
}


def _app_network(program, app, node_count, channel, engine) -> Network:
    network = Network(traffic=duty_cycle_context(app),
                      channel=Channel(**channel))
    for node_id in range(node_count):
        node = Node(program, node_id=node_id, engine=engine)
        node.boot()
        network.add_node(node)
    return network


def _random_cut(seed: int):
    """A seeded grant cut: lowers each horizon to a random safe point.

    Each grant becomes a uniform point in ``[clock + 1, bound]``, the cycle
    of a delivery already queued on the node, or the bound itself.  Any
    horizon at or below the kernel's bound is conservative.
    """
    rng = random.Random(seed)

    def cut(node: Node, bound: int) -> int:
        low = node.time_cycles + 1
        if bound <= low:
            return bound
        pick = rng.randrange(3)
        if pick == 0:
            return rng.randint(low, bound)
        if pick == 1:
            arrivals = [when for when, seq, _ in node._event_queue
                        if seq >= _DELIVERY_SEQ_BASE and low <= when <= bound]
            if arrivals:
                return rng.choice(arrivals)
        return bound

    return cut


#: A sender that transmits one full TOS-sized frame every 13 jiffies.
LATE_SENDER = """
uint8_t i = 0;

__interrupt("TIMER1_COMPA") void tick(void) {
  i = 0;
  while (i < 36) {
    __hw_write8(%d, i);
    i = i + 1;
  }
  __hw_write8(%d, 36);
}

__spontaneous void main(void) {
  __hw_write16(%d, 13);
  __hw_write8(%d, 1);
  __enable_interrupts();
  while (1) {
    __sleep();
  }
}
""" % (hw.RADIO_TXBUF, hw.RADIO_TXGO, hw.TIMER_RATE, hw.TIMER_CTRL)

#: A receiver that never sleeps: each loop iteration writes a UART byte,
#: whose completion event falls ~1,250 cycles later, inside the iteration's
#: ~2,000-cycle division statement.  A grant cut lands mid-statement, so
#: the node overshoots it.  Whether a packet is handled before or after a
#: UART event decides the LED toggles, so a delivery that misses the batch
#: it was due in shows in the fingerprint.
LATE_RECEIVER = """
uint32_t a = 4000000000;
uint32_t b = 3;
uint32_t x = 0;
uint16_t ticks = 0;
uint8_t leds = 0;

__interrupt("RADIO_RX") void received(void) {
  uint8_t n = __hw_read8(%d);
  while (n > 0) {
    __hw_read8(%d);
    n = n - 1;
  }
  if (ticks & 1) {
    leds = leds ^ 1;
    __hw_write8(%d, leds);
  }
}

__interrupt("UART_TX") void uart_done(void) {
  ticks = ticks + 1;
}

__spontaneous void main(void) {
  __hw_write8(%d, 3);
  __enable_interrupts();
  while (1) {
    __hw_write8(%d, 0);
    x = a / b / b / b / b / b / b / b / b / b / b / b / b;
  }
}
""" % (hw.RADIO_RXLEN, hw.RADIO_RXBUF, hw.LED_PORT, hw.RADIO_CTRL,
       hw.UART_DATA)


@pytest.fixture(scope="module")
def late_delivery_programs():
    sender = make_program(LATE_SENDER)
    sender.interrupt_vectors["TIMER1_COMPA"] = "tick"
    receiver = make_program(LATE_RECEIVER)
    receiver.interrupt_vectors["RADIO_RX"] = "received"
    receiver.interrupt_vectors["UART_TX"] = "uart_done"
    return sender, receiver


class TestGrantScheduleInvariance:
    """A different conservative grant schedule moves where nodes pause,
    nothing else.

    Each seeded field runs once under the kernel's own lookahead (compiled
    engine), then once per engine under each of its other schedules:
    ``"tight"`` caps ``Network._earliest_effect`` at
    :data:`TIGHT_WINDOW_CYCLES` past each peer's clock, and ``"cut"``
    lowers every grant with :func:`_random_cut`.  The delivery log, per-node statements, cycles,
    duty cycles and packet counts must be byte-equal — what
    ``Channel.packet_fate``'s hash, the delivery sequence band and
    park-before-batch guarantee.  Grant counts depend on the schedule
    only, not on the engine, so the tree engine's runs are held to the
    same reference.
    """

    @staticmethod
    def _run(make_network, seconds, engine, monkeypatch,
             schedule: str) -> tuple[dict, int]:
        grants = 0
        run_until = Node.run_until
        cut = _random_cut(CUT_SEEDS[engine]) if schedule == "cut" else None

        def counting_run_until(node, horizon_cycles):
            nonlocal grants
            grants += 1
            if cut is not None:
                horizon_cycles = cut(node, horizon_cycles)
            return run_until(node, horizon_cycles)

        with monkeypatch.context() as patch:
            patch.setattr(Node, "run_until", counting_run_until)
            if schedule == "tight":
                natural = Network._earliest_effect
                patch.setattr(
                    Network, "_earliest_effect",
                    lambda network, peer: min(
                        natural(network, peer),
                        peer.time_cycles + TIGHT_WINDOW_CYCLES))
            network = make_network(engine)
            network.run(seconds)
        return _fingerprint(network), grants

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    def test_tighter_lookahead_is_byte_identical(
            self, field_name, surge_program, cnt_program, monkeypatch):
        app, seconds, node_count, channel, schedules = FIELDS[field_name]
        program = surge_program if app == "Surge_Mica2" else cnt_program

        def make_network(engine):
            return _app_network(program, app, node_count, channel, engine)

        natural, natural_grants = self._run(
            make_network, seconds, "compiled", monkeypatch, "natural")
        # The field must exchange packets (and lose some) for the
        # comparison to mean anything.
        assert natural["deliveries"] and natural["lost"]
        for engine in ("compiled", "tree"):
            for schedule in schedules:
                other, grants = self._run(
                    make_network, seconds, engine, monkeypatch, schedule)
                if schedule == "tight":
                    # The kernel's own grants reach a sleeper's next real
                    # event, so the capped schedule needs far more.
                    assert grants >= 20 * natural_grants, engine
                else:
                    assert grants > natural_grants, engine
                assert other == natural, (engine, schedule)

    def test_late_delivery_joins_the_overshot_batch(
            self, late_delivery_programs, monkeypatch):
        """The kernel grants the receiver up to the exact cycle a packet
        lands, and the receiver overshoots that cycle mid-statement
        before the sender has even transmitted.  The packet must still
        join the batch due at the overshot clock, ahead of any later
        local event in it; opening ``poll``'s batch before its gate
        breaks that only under some schedules, so they must all agree.
        """
        def make_network(engine):
            network = Network(channel=Channel(topology="chain"))
            for node_id, program in enumerate(late_delivery_programs):
                node = Node(program, node_id=node_id, engine=engine)
                node.boot()
                network.add_node(node)
            return network

        natural, _ = self._run(
            make_network, 0.5, "compiled", monkeypatch, "natural")
        receiver = natural["nodes"][1]
        assert receiver["packets_received"] and receiver["led_changes"]
        for engine in ("compiled", "tree"):
            for schedule in ("tight", "cut"):
                other, _ = self._run(
                    make_network, 0.5, engine, monkeypatch, schedule)
                assert other == natural, (engine, schedule)


class TestCausalityCheck:
    def test_an_outrun_reply_raises_a_labelled_error(
            self, surge_program, monkeypatch):
        """Without ``shrink_pause`` a transmitting node outruns its peers'
        replies under the kernel's own lookahead; the receiver-side check
        turns the reordered packet into an error naming both nodes."""
        app, seconds, node_count, channel, _ = FIELDS["surge_lossy_grid"]
        monkeypatch.setattr(Node, "shrink_pause",
                            lambda node, horizon_cycles: None)
        network = _app_network(surge_program, app, node_count, channel,
                               "compiled")
        with pytest.raises(CausalityError,
                           match=r"packet from node \d+ would land on node "
                                 r"\d+ at cycle \d+, below the horizon "
                                 r"\d+ it is parked at"):
            network.run(seconds)
