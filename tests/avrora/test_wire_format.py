"""TOS wire format: CRC parity with the CMinor driver, traffic injection.

``encode_tos_msg``/``crc16`` (Python) and ``RadioCRCPacketC``'s
``calc_crc`` (CMinor, executed in the simulator) must agree bit for bit —
otherwise injected traffic is rejected at the driver's CRC check and every
"listening" benchmark silently measures an idle node.  Also covers the
``TrafficGenerator`` UART injection path, which feeds frames byte-by-byte
through the UART receive interrupt.
"""

from __future__ import annotations

import pytest

from repro.api.workbench import run_network
from repro.avrora.memory import Pointer
from repro.avrora.network import TrafficGenerator, crc16, encode_tos_msg
from repro.avrora.node import Node
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw
from repro.tinyos import messages as msgs

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program

#: The CMinor radio driver's CRC routine, verbatim from
#: ``repro.tinyos.lib.radio.radio_crc_packet_c`` — kept in sync by the
#: differential test below, which would fail on any drift.
DRIVER_CRC_SOURCE = """
uint8_t crc_input[%d];
uint16_t crc_output = 0;

uint16_t calc_crc(uint8_t* packet, uint8_t count) {
  uint16_t crc = 0;
  uint8_t i;
  uint8_t b;
  for (i = 0; i < count; i++) {
    b = packet[i];
    crc = crc ^ ((uint16_t)b << 8);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
    crc = (crc << 1) ^ (crc & 32768 ? 4129 : 0);
  }
  return crc;
}

__spontaneous void main(void) {
  crc_output = calc_crc(crc_input, %d);
  __sleep();
}
""" % (msgs.TOS_MSG_WIRE_LENGTH, msgs.TOS_MSG_WIRE_LENGTH - 2)


def _driver_crc(frame: bytes) -> int:
    """Run the CMinor driver's calc_crc over ``frame`` in the simulator."""
    program = make_program(DRIVER_CRC_SOURCE)
    node = Node(program)
    node.boot()
    buffer = node.memory.global_object("crc_input")
    buffer.data[0:len(frame)] = frame
    node.run(0.05)
    out = node.memory.global_object("crc_output")
    return node.memory.read(Pointer(out, 0), ty.UINT16)


class TestCrcParity:
    @pytest.mark.parametrize("payload", [
        bytes(),
        bytes([1, 0, 0, 0]),
        bytes([0xFF] * msgs.TOSH_DATA_LENGTH),
        bytes(range(17)),
    ])
    def test_python_crc_matches_the_cminor_driver(self, payload):
        frame = encode_tos_msg(msgs.TOS_BCAST_ADDR, msgs.AM_INT_MSG, payload)
        checked = frame[:msgs.TOS_MSG_WIRE_LENGTH - 2]
        assert crc16(checked) == _driver_crc(frame)

    def test_encoded_frame_carries_its_own_crc_little_endian(self):
        frame = encode_tos_msg(7, msgs.AM_COUNT, bytes([9, 0]))
        crc = crc16(frame[:msgs.TOS_MSG_WIRE_LENGTH - 2])
        assert frame[-2] == crc & 0xFF
        assert frame[-1] == (crc >> 8) & 0xFF


class TestWireLayout:
    def test_round_trip_through_the_tos_msg_layout(self):
        payload = bytes([3, 1, 4, 1, 5])
        frame = encode_tos_msg(0x1234, msgs.AM_OSCOPE, payload, group=0x42)
        assert len(frame) == msgs.TOS_MSG_WIRE_LENGTH
        assert frame[0] | (frame[1] << 8) == 0x1234      # addr
        assert frame[2] == msgs.AM_OSCOPE                # type
        assert frame[3] == 0x42                          # group
        assert frame[4] == len(payload)                  # length
        assert frame[5:5 + len(payload)] == payload      # data
        assert all(b == 0 for b in frame[5 + len(payload):-2])

    def test_full_payload_is_accepted(self):
        payload = bytes(range(msgs.TOSH_DATA_LENGTH))
        frame = encode_tos_msg(1, msgs.AM_INT_MSG, payload)
        assert frame[5:5 + msgs.TOSH_DATA_LENGTH] == payload

    def test_oversized_payload_raises_a_labelled_error(self):
        payload = bytes(msgs.TOSH_DATA_LENGTH + 1)
        with pytest.raises(ValueError, match="TOSH_DATA_LENGTH"):
            encode_tos_msg(1, msgs.AM_INT_MSG, payload)
        with pytest.raises(ValueError, match="30 bytes"):
            encode_tos_msg(1, msgs.AM_INT_MSG, payload)


UART_SINK = """
uint16_t uart_bytes = 0;
uint16_t uart_sum = 0;

__interrupt("UART_RX") void uart_rx(void) {
  uint8_t b;
  b = __hw_read8(%d);
  uart_bytes = uart_bytes + 1;
  uart_sum = uart_sum + b;
}

__spontaneous void main(void) {
  __enable_interrupts();
  while (1) {
    __sleep();
  }
}
""" % hw.UART_DATA


class TestUartInjection:
    def _run(self, seconds: float = 1.0) -> tuple[Node, TrafficGenerator]:
        program = make_program(UART_SINK)
        program.interrupt_vectors[hw.VECTOR_UART_RX] = "uart_rx"
        generator = TrafficGenerator(uart_period_s=0.3,
                                     payload=bytes([2, 0, 7]))
        nodes = run_network(program, seconds=seconds, traffic=generator).nodes
        return nodes[0], nodes[0].traffic_generator

    def test_injected_frames_reach_the_program_byte_by_byte(self):
        node, generator = self._run()
        assert generator.injected_uart == 3
        obj = node.memory.global_object("uart_bytes")
        received = node.memory.read(Pointer(obj, 0), ty.UINT16)
        assert received == generator.injected_uart * msgs.TOS_MSG_WIRE_LENGTH

    def test_injected_bytes_carry_the_encoded_frame(self):
        node, generator = self._run()
        frame = generator.packet()
        obj = node.memory.global_object("uart_sum")
        checksum = node.memory.read(Pointer(obj, 0), ty.UINT16)
        assert checksum == (sum(frame) * generator.injected_uart) & 0xFFFF
