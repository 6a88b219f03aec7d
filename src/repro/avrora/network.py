"""Multi-node simulation: the lockstep discrete-event network kernel.

The paper runs each application "in a reasonable sensor network context":
applications that listen need peers that transmit, base stations need serial
traffic, and multihop motes need neighbours.  ``TrafficGenerator`` plays the
role of synthetic peers; ``Network`` connects *real* nodes over a modelled
radio channel.

Nodes advance in lockstep, Avrora-style: a global virtual-time scheduler
always resumes the node with the smallest local clock and lets it run only
as far as its peers provably cannot affect it (conservative lookahead
derived from radio air time and link latency).  Cross-node packets are
therefore delivered in causal order — a packet transmitted at sender time
``t`` arrives on the receiver's event queue at ``t + link latency``, never
in the receiver's past — which is what makes true multi-hop workloads
(Surge routing through an intermediate mote) reproducible.

The channel is modelled per link: a :class:`Channel` names a topology
(``broadcast``, ``chain``, ``star``, ``grid``), a per-link latency (with an
optional deterministic per-link jitter) and a loss probability decided by a
seeded per-packet hash, so lossy runs are bit-reproducible.  Node execution
itself is resumable via :meth:`~repro.avrora.node.Node.run_until`; see
``ARCHITECTURE.md`` ("The lockstep network kernel") for the full design.

Results are *grant-schedule invariant*: how far each grant lets a node
run decides where execution pauses, never what it computes.  Each
packet's loss and jitter are a pure hash of ``(seed, src, dst, per-link
sequence)`` (:meth:`Channel.packet_fate`), not a draw from a shared RNG
stream, so a fate cannot depend on how different nodes' transmissions
interleave; same-cycle deliveries are ordered by the packet
(:meth:`~repro.avrora.node.Node.schedule_delivery`), and a node parks
before opening a due-event batch.  A tighter lookahead therefore yields a
byte-identical run, which is what lets the scheduler's windows be
re-derived without moving any recorded result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.avrora.devices import Radio
from repro.avrora.node import Node
from repro.tinyos import messages as msgs


def encode_tos_msg(dest: int, am_type: int, payload: bytes,
                   group: int = msgs.TOS_DEFAULT_GROUP) -> bytes:
    """Serialize a TOS message the way ``RadioCRCPacketC`` lays it out."""
    if len(payload) > msgs.TOSH_DATA_LENGTH:
        raise ValueError(
            f"encode_tos_msg: payload of {len(payload)} bytes does not fit "
            f"in a TOS message (TOSH_DATA_LENGTH is "
            f"{msgs.TOSH_DATA_LENGTH})")
    data = bytearray(msgs.TOS_MSG_WIRE_LENGTH)
    data[0] = dest & 0xFF
    data[1] = (dest >> 8) & 0xFF
    data[2] = am_type & 0xFF
    data[3] = group & 0xFF
    data[4] = len(payload)
    data[5:5 + len(payload)] = payload
    crc = crc16(bytes(data[:msgs.TOS_MSG_WIRE_LENGTH - 2]))
    data[-2] = crc & 0xFF
    data[-1] = (crc >> 8) & 0xFF
    return bytes(data)


def crc16(packet: bytes) -> int:
    """The same CRC the CMinor radio driver computes (CCITT, shift-by-bit)."""
    crc = 0
    for byte in packet:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 4129) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


@dataclass
class TrafficGenerator:
    """Schedules synthetic traffic on a node's own event queue.

    The network installs a fresh *copy* per node (see
    :meth:`Network.add_node`), so the ``injected_radio``/``injected_uart``
    counters are per-node statistics; the generator handed to the network
    is a template and its own counters stay untouched.

    Attributes:
        radio_period_s: Seconds between injected radio packets (0 disables).
        uart_period_s: Seconds between injected UART frames (0 disables).
        am_type: Active-message type of injected radio packets.
        payload: Payload bytes of injected packets.
        dest: Destination address (broadcast by default).
    """

    radio_period_s: float = 0.0
    uart_period_s: float = 0.0
    am_type: int = msgs.AM_INT_MSG
    payload: bytes = bytes([1, 0, 0, 0])
    dest: int = msgs.TOS_BCAST_ADDR
    group: int = msgs.TOS_DEFAULT_GROUP
    injected_radio: int = 0
    injected_uart: int = 0

    def packet(self) -> bytes:
        return encode_tos_msg(self.dest, self.am_type, self.payload, self.group)

    def copy(self) -> "TrafficGenerator":
        """A fresh generator with the same schedule and zeroed counters."""
        return replace(self, injected_radio=0, injected_uart=0)

    # -- installation -----------------------------------------------------------

    def install(self, node: Node) -> None:
        """Arrange periodic injections on ``node``'s event queue."""
        if self.radio_period_s > 0:
            radio_delay = int(self.radio_period_s * node.clock_hz)
            node.schedule(radio_delay,
                          lambda: self._inject_radio(node, radio_delay))
        if self.uart_period_s > 0:
            uart_delay = int(self.uart_period_s * node.clock_hz)
            node.schedule(uart_delay,
                          lambda: self._inject_uart(node, uart_delay))

    def _inject_radio(self, node: Node, delay: int) -> None:
        node.radio.deliver(self.packet())
        self.injected_radio += 1
        node.schedule(delay, lambda: self._inject_radio(node, delay))

    def _inject_uart(self, node: Node, delay: int) -> None:
        node.uart.inject_frame(self.packet())
        self.injected_uart += 1
        node.schedule(delay, lambda: self._inject_uart(node, delay))


# ---------------------------------------------------------------------------
# The radio channel model
# ---------------------------------------------------------------------------

#: Topologies a :class:`Channel` can wire (by node *position* in the
#: network, not node id): every pair, a line, a hub-and-spokes with node 0
#: as the hub, or a 4-neighbour grid.
TOPOLOGIES = ("broadcast", "chain", "star", "grid")

#: Default per-link latency: one byte time at 38.4 kbaud Manchester.
DEFAULT_LATENCY_US = Radio.US_PER_BYTE

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, src: int, dst: int, sequence: int) -> int:
    """A splitmix64-style avalanche of (seed, src, dst, sequence).

    Packet fates use this explicit integer mix rather than Python's
    built-in ``hash``: the same inputs give the same 64-bit output in
    every process and on every Python version, so recorded loss and
    jitter decisions reproduce wherever a run is repeated.
    """
    x = (seed * 0x9E3779B97F4A7C15 + src * 0xBF58476D1CE4E5B9
         + dst * 0x94D049BB133111EB + sequence * 0xD6E8FEB86659FD93
         + 0x2545F4914F6CDD1D) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class Channel:
    """Topology and per-link latency/loss of the shared radio medium.

    Attributes:
        topology: One of :data:`TOPOLOGIES`.
        latency_us: Base one-way link latency in microseconds (>= 1); also
            the kernel's conservative lookahead floor.
        jitter_us: Optional deterministic per-packet latency spread: the
            ``n``-th packet on link (a, b) adds
            ``mix(seed, a, b, n) % (jitter_us + 1)`` microseconds, making
            links and packets distinguishable without run-time randomness.
        loss: Per-link, per-packet drop probability in [0, 1).
        seed: Seed of the loss/jitter hash; equal seeds give bit-identical
            simulations.  Each packet's fate is a pure function of
            ``(seed, src, dst, sequence)`` — see :meth:`packet_fate` — so
            outcomes cannot depend on how transmissions from different
            nodes interleave (grant-schedule invariance).
        grid_width: Columns of the ``grid`` topology (0 = square-ish).
    """

    topology: str = "broadcast"
    latency_us: int = DEFAULT_LATENCY_US
    jitter_us: int = 0
    loss: float = 0.0
    seed: int = 0
    grid_width: int = 0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"known: {TOPOLOGIES}")
        if self.latency_us < 1:
            raise ValueError(f"latency_us must be >= 1, got {self.latency_us}")
        if self.jitter_us < 0:
            raise ValueError(f"jitter_us must be >= 0, got {self.jitter_us}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.grid_width < 0:
            raise ValueError(f"grid_width must be >= 0, "
                             f"got {self.grid_width}")

    def neighbors(self, index: int, count: int) -> list[int]:
        """Receiver positions reachable from the node at ``index``."""
        if self.topology == "chain":
            return [j for j in (index - 1, index + 1) if 0 <= j < count]
        if self.topology == "star":
            if index == 0:
                return list(range(1, count))
            return [0] if count > 0 else []
        if self.topology == "grid":
            width = self.grid_width or max(1, math.isqrt(max(count - 1, 0)) + 1)
            row, col = divmod(index, width)
            out = []
            for r, c in ((row - 1, col), (row + 1, col),
                         (row, col - 1), (row, col + 1)):
                j = r * width + c
                if r >= 0 and 0 <= c < width and j < count:
                    out.append(j)
            return out
        return [j for j in range(count) if j != index]

    def link_latency_us(self, src: int, dst: int, sequence: int = 0) -> int:
        """One-way latency of the ``sequence``-th (src, dst) packet."""
        if not self.jitter_us:
            return self.latency_us
        mix = _mix64(self.seed, src, dst, sequence)
        return self.latency_us + (mix & 0xFFFFFFFF) % (self.jitter_us + 1)

    def packet_fate(self, src: int, dst: int, sequence: int) -> tuple[bool, int]:
        """(dropped, latency_us) of the ``sequence``-th packet src → dst.

        A pure function of ``(seed, src, dst, sequence)``: the loss draw
        uses the top 53 bits of the mix as a uniform in [0, 1), the jitter
        the bottom 32 — one hash decides both.  Because the sequence number
        counts *this link's* transmissions only, any scheduler that feeds a
        link its packets in sender order (which causality guarantees)
        computes identical fates, however its grants were cut.
        """
        mix = _mix64(self.seed, src, dst, sequence)
        dropped = self.loss > 0.0 and (mix >> 11) * (2.0 ** -53) < self.loss
        return dropped, self.link_latency_us(src, dst, sequence)


@dataclass(frozen=True)
class DeliveryRecord:
    """One packet handed across the air, as the receiver observed it."""

    sender_id: int
    receiver_id: int
    sent_cycles: int
    received_cycles: int
    accepted: bool
    payload: bytes


# ---------------------------------------------------------------------------
# The network
# ---------------------------------------------------------------------------


@dataclass
class Network:
    """A set of nodes co-simulated in lockstep over one radio channel."""

    nodes: list[Node] = field(default_factory=list)
    traffic: Optional[TrafficGenerator] = None
    channel: Channel = field(default_factory=Channel)
    delivered_packets: int = 0
    lost_packets: int = 0
    #: Cross-node deliveries in canonical order after :meth:`run` — sorted
    #: by (received_cycles, receiver_id), with each receiver's processing
    #: order preserved among ties — so the log is identical whatever
    #: order the scheduler resumed the receivers in.
    deliveries: list[DeliveryRecord] = field(default_factory=list)

    def __post_init__(self):
        #: Optional payload-corruption hook installed by a fault-injection
        #: layer (``repro.scenarios``): ``corruptor(src, dst, sequence,
        #: payload) -> Optional[bytes]`` runs after :meth:`Channel.packet_fate`
        #: on every surviving packet and may return a replacement payload
        #: (``None`` keeps the original).  To stay grant-schedule invariant
        #: it must be a pure function of its arguments.  ``None`` (the
        #: default) costs one attribute test per transmission — nothing on
        #: the statement-execution hot path.
        self.corruptor = None
        self._active: list[Node] = []
        self._index: dict[int, int] = {}
        #: Per-directed-link packet sequence counters feeding
        #: :meth:`Channel.packet_fate`; reset at the start of every run.
        self._pair_seq: dict[tuple[int, int], int] = {}
        self._lat_min = 1
        self._air_min = 1

    # -- membership -------------------------------------------------------------

    def add_node(self, node: Node, traffic: bool = True) -> None:
        """Attach ``node`` to the channel (and install per-node traffic).

        ``traffic=False`` skips the synthetic traffic generator for this
        node — used e.g. to stimulate only a base station.
        """
        index = len(self.nodes)
        self._index[id(node)] = index
        node.radio.on_transmit = lambda payload, sender=node, src=index: \
            self._transmit(sender, src, payload)
        if self.traffic is not None and traffic:
            generator = self.traffic.copy()
            node.traffic_generator = generator
            generator.install(node)
        self.nodes.append(node)

    # -- the channel ------------------------------------------------------------

    def _transmit(self, sender: Node, src: int, payload: bytes) -> None:
        """Route one completed transmission to the sender's neighbours."""
        sent_at = sender.time_cycles
        earliest = None
        for dst in self.channel.neighbors(src, len(self.nodes)):
            receiver = self.nodes[dst]
            if receiver is sender:
                continue
            sequence = self._pair_seq.get((src, dst), 0)
            self._pair_seq[(src, dst)] = sequence + 1
            dropped, latency_us = self.channel.packet_fate(src, dst, sequence)
            if dropped:
                self.lost_packets += 1
                continue
            delivered = payload
            if self.corruptor is not None:
                mutated = self.corruptor(src, dst, sequence, payload)
                if mutated is not None:
                    delivered = mutated
            when = sent_at + max(1, sender.cycles_for_us(latency_us))
            receiver.schedule_delivery(
                when, sent_at, sender.node_id,
                self._delivery(sender.node_id, receiver, delivered, sent_at))
            if earliest is None or when < earliest:
                earliest = when
        if earliest is not None and len(self._active) > 1:
            # A peer may now react to this packet: the earliest possible
            # response transmission completes one minimum air time after
            # the delivery and lands one minimum latency later.  Pull the
            # sender's pause horizon in so it does not outrun the answer:
            # its grant assumed the receiver's next wake-up, which this
            # packet may precede by far.
            sender.shrink_pause(earliest + self._air_min + self._lat_min)

    def _delivery(self, sender_id: int, receiver: Node, payload: bytes,
                  sent_at: int) -> Callable[[], None]:
        def deliver() -> None:
            accepted = receiver.radio.deliver(payload)
            if accepted:
                self.delivered_packets += 1
            self.deliveries.append(DeliveryRecord(
                sender_id=sender_id, receiver_id=receiver.node_id,
                sent_cycles=sent_at, received_cycles=receiver.time_cycles,
                accepted=accepted, payload=payload))

        return deliver

    @staticmethod
    def canonical_delivery_order(record: DeliveryRecord) -> tuple:
        """Grant-schedule invariant sort key for the delivery log."""
        return (record.received_cycles, record.receiver_id,
                record.sent_cycles, record.sender_id)

    # -- the lockstep scheduler -------------------------------------------------

    def run(self, seconds: float) -> None:
        """Co-simulate every node for ``seconds`` of virtual time, lockstep.

        The scheduler repeatedly resumes the node with the smallest local
        clock and grants it a horizon no peer can beat: the earliest
        instant any *other* node could land a packet on it
        (:meth:`_earliest_effect`).  A sleeping peer bounds it only at its
        next real wake-up, so one grant can span many latency windows; a
        transmission mid-grant pulls the sender's horizon back in, and a
        packet that would still land in a parked receiver's past raises
        :class:`~repro.avrora.node.CausalityError` here.  With a single
        node the horizon is the end of the simulation, making the run
        byte-identical to the thread-free :meth:`Node.run`.
        """
        if not self.nodes:
            return
        self._pair_seq.clear()
        self._lat_min = max(1, min(
            node.cycles_for_us(self.channel.latency_us)
            for node in self.nodes))
        self._air_min = max(1, min(
            node.cycles_for_us(Radio.US_PER_BYTE) for node in self.nodes))
        for node in self.nodes:
            node.begin_run(seconds)
        active = list(self.nodes)
        self._active = active
        try:
            while active:
                current = min(
                    active,
                    key=lambda n: (n.time_cycles, self._index[id(n)]))
                horizon = current.end_cycles
                if len(active) > 1:
                    bound = min(self._earliest_effect(peer)
                                for peer in active if peer is not current)
                    horizon = min(horizon, bound)
                status = current.run_until(int(horizon))
                if status != "paused":
                    active.remove(current)
        finally:
            self._active = []
            for node in self.nodes:
                node.abort_run()
        self.deliveries.sort(key=self.canonical_delivery_order)

    def _earliest_effect(self, peer: Node) -> float:
        """Earliest instant ``peer`` could land a packet on another node.

        A transmission in flight lands one minimum latency after it
        completes.  Otherwise the peer must first act — at its earliest
        real event if it is parked asleep (a timer or a queued delivery,
        :meth:`Node.next_action_cycles`), at once if it is mid-computation
        — and then send at least one byte: one minimum air time plus one
        minimum latency later.
        """
        bound = math.inf
        radio = peer.radio
        if radio.transmitting:
            bound = radio.tx_done_at + self._lat_min
        action = peer.next_action_cycles()
        if action is not None:
            bound = min(bound, action + self._air_min + self._lat_min)
        return bound

    # -- statistics -------------------------------------------------------------

    def duty_cycles(self) -> list[float]:
        return [node.duty_cycle() for node in self.nodes]

    def superblock_stats(self) -> dict:
        """Statements the network's nodes executed, for throughput figures.

        ``statements_total`` sums every node's executed statements.  The
        compiled engine has one lowering, so ``fused_statements`` is always
        0; the two keys keep the shape that simulation records and the
        end-to-end benchmark read.
        """
        executed = sum(node.interpreter.statements_executed
                       for node in self.nodes)
        return {"statements_total": executed, "fused_statements": 0}

    def node_stats(self) -> list[dict]:
        """Per-node packet and duty-cycle statistics, in node order."""
        stats = []
        for node in self.nodes:
            generator = node.traffic_generator
            stats.append({
                "node_id": node.node_id,
                "duty_cycle": node.duty_cycle(),
                "packets_sent": len(node.radio.packets_sent),
                "packets_received": node.radio.packets_received,
                "packets_dropped": node.radio.packets_dropped,
                "injected_radio":
                    generator.injected_radio if generator else 0,
                "injected_uart":
                    generator.injected_uart if generator else 0,
                "failures": len(node.failures),
                "halted": node.halted,
            })
        return stats

