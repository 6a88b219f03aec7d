"""Arming faults against a live network: the injection layer.

A :class:`ScenarioInjector` takes one :class:`~repro.scenarios.faults.Fault`
(plus the plan seed) and wires it into a booted, not-yet-run
:class:`~repro.avrora.network.Network`:

* Scheduled faults (bit flips, crafted packets, kills, checkpoints and
  reboots) become ordinary node events at absolute virtual cycles, so
  they fire at the same simulated instant whatever the grant schedule.
* Payload corruption installs ``Network.corruptor``, whose per-packet
  decision is a pure hash of ``(scenario seed, src, dst, sequence)`` —
  the same grant-schedule invariance contract the channel's
  ``packet_fate`` honours.

When no fault is armed the simulator pays nothing: the corruptor hook is
a ``None`` check off the statement-execution hot path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.avrora.network import Network, _mix64, crc16, encode_tos_msg
from repro.avrora.node import Node, NodeHalted
from repro.scenarios.faults import (
    KILL_HALT_CODE,
    BitFlipFault,
    Fault,
    NodeKillFault,
    NodeRebootFault,
    PacketInjectFault,
    PayloadCorruptFault,
)
from repro.tinyos import messages as msgs

#: Seed-domain separator: the corruptor's hash stream must never collide
#: with the channel's ``packet_fate`` stream even when both use seed 0.
_CORRUPT_SALT = 0x5CE11A71


def craft_packet(fault: PacketInjectFault) -> bytes:
    """The malformed wire frame a :class:`PacketInjectFault` delivers.

    A full-size TOS message whose length field claims
    ``fault.claimed_length`` bytes of payload, CRC valid over the lie —
    the classic crafted-header attack: every byte is within the frame,
    only the metadata is hostile.
    """
    frame = bytearray(encode_tos_msg(fault.dest, fault.am_type,
                                     bytes(range(1, msgs.TOSH_DATA_LENGTH + 1)),
                                     group=msgs.TOS_DEFAULT_GROUP))
    frame[4] = fault.claimed_length & 0xFF
    crc = crc16(bytes(frame[:msgs.TOS_MSG_WIRE_LENGTH - 2]))
    frame[-2] = crc & 0xFF
    frame[-1] = (crc >> 8) & 0xFF
    return bytes(frame)


class ScenarioInjector:
    """Arms one fault against a network; tracks what it induced.

    One injector serves one simulation run.  ``arm`` must be called after
    the nodes are booted and added but before ``Network.run``; the
    injector then lives as long as the network.
    """

    def __init__(self, fault: Fault, seed: int = 0):
        self.fault = fault
        self.seed = seed
        #: Log of injections that actually fired: (kind, node_position,
        #: cycles, description).
        self.fired: list[tuple] = []
        #: Packets the corruptor mutated.
        self.corrupted_packets = 0
        self._checkpoints: dict[int, dict] = {}

    # -- arming ----------------------------------------------------------------

    def arm(self, network: Network) -> None:
        fault = self.fault
        if isinstance(fault, PayloadCorruptFault):
            network.corruptor = self._corruptor(fault)
            return
        position = fault.node  # type: ignore[attr-defined]
        if not 0 <= position < len(network.nodes):
            raise ValueError(
                f"{fault.label()}: node position {position} outside the "
                f"network ({len(network.nodes)} node(s))")
        node = network.nodes[position]
        if isinstance(fault, BitFlipFault):
            self._schedule(node, self._ms_to_cycles(node, fault.at_ms),
                           self._flip_callback(node, position))
        elif isinstance(fault, PacketInjectFault):
            self._schedule(node, self._ms_to_cycles(node, fault.at_ms),
                           self._inject_callback(node, position))
        elif isinstance(fault, NodeKillFault):
            self._schedule(node, self._ms_to_cycles(node, fault.at_ms),
                           self._kill_callback(node, position))
        elif isinstance(fault, NodeRebootFault):
            self._schedule(node,
                           self._ms_to_cycles(node, fault.checkpoint_ms),
                           self._checkpoint_callback(node, position))
            self._schedule(node, self._ms_to_cycles(node, fault.at_ms),
                           self._reboot_callback(node, position))
        else:
            raise TypeError(f"cannot arm fault {fault!r}")

    @staticmethod
    def _ms_to_cycles(node: Node, at_ms: int) -> int:
        return (node.clock_hz * at_ms) // 1000

    @staticmethod
    def _schedule(node: Node, when_cycles: int,
                  callback: Callable[[], None]) -> None:
        node.schedule_at(max(when_cycles, node.time_cycles + 1), callback)

    # -- event callbacks --------------------------------------------------------

    def _flip_callback(self, node: Node, position: int) -> Callable[[], None]:
        fault = self.fault

        def flip() -> None:
            what = node.memory.flip_bit(fault.object, fault.offset,
                                        fault.bit)
            self.fired.append(("bit_flip", position, node.time_cycles, what))

        return flip

    def _inject_callback(self, node: Node, position: int) -> Callable[[], None]:
        fault = self.fault
        frame = craft_packet(fault)

        def inject() -> None:
            if fault.via == "uart":
                node.uart.inject_frame(frame)
            else:
                node.radio.deliver(frame)
            self.fired.append(("packet_inject", position, node.time_cycles,
                               f"{len(frame)}B via {fault.via}, length "
                               f"field {fault.claimed_length}"))

        return inject

    def _kill_callback(self, node: Node, position: int) -> Callable[[], None]:
        def kill() -> None:
            self.fired.append(("node_kill", position, node.time_cycles,
                               "fail-stop"))
            raise NodeHalted(KILL_HALT_CODE, "induced node kill")

        return kill

    def _checkpoint_callback(self, node: Node,
                             position: int) -> Callable[[], None]:
        def checkpoint() -> None:
            self._checkpoints[position] = {
                "memory": node.memory.snapshot(),
                "devices": node.bus.snapshot(),
            }
            self.fired.append(("checkpoint", position, node.time_cycles,
                               "state captured"))

        return checkpoint

    def _reboot_callback(self, node: Node, position: int) -> Callable[[], None]:
        def reboot() -> None:
            saved = self._checkpoints.get(position)
            if saved is None:  # checkpoint event lost (should not happen)
                raise NodeHalted(KILL_HALT_CODE,
                                 "reboot without checkpoint")
            node.memory.restore(saved["memory"])
            node.bus.restore(saved["devices"])
            # Volatile inputs do not survive a reboot: undelivered
            # interrupts and half-received bytes are gone.  The event
            # queue deliberately survives — armed timers keep firing, so
            # the node genuinely *rejoins* rather than going comatose.
            node.pending_interrupts.clear()
            node.uart.pending_rx.clear()
            self.fired.append(("node_reboot", position, node.time_cycles,
                               "rolled back to checkpoint"))

        return reboot

    # -- payload corruption ----------------------------------------------------

    def _corruptor(self, fault: PayloadCorruptFault) -> Callable[
            [int, int, int, bytes], Optional[bytes]]:
        seed = (self.seed ^ _CORRUPT_SALT) & ((1 << 64) - 1)
        probability = fault.probability
        flips = fault.flips
        fix_crc = fault.fix_crc
        data_len = msgs.TOSH_DATA_LENGTH
        wire_len = msgs.TOS_MSG_WIRE_LENGTH

        def corrupt(src: int, dst: int, sequence: int,
                    payload: bytes) -> Optional[bytes]:
            mix = _mix64(seed, src, dst, sequence)
            if probability < 1.0 and (mix >> 11) * (2.0 ** -53) >= probability:
                return None
            if len(payload) < wire_len:
                return None
            frame = bytearray(payload)
            for flip in range(flips):
                submix = _mix64(seed, src ^ 0x100, dst, sequence * 31 + flip)
                index = 5 + submix % data_len  # a payload byte, not header
                frame[index] ^= 1 << ((submix >> 32) & 7)
            if fix_crc:
                crc = crc16(bytes(frame[:wire_len - 2]))
                frame[wire_len - 2] = crc & 0xFF
                frame[wire_len - 1] = (crc >> 8) & 0xFF
            self.corrupted_packets += 1
            return bytes(frame)

        return corrupt
