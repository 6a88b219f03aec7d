"""Tests for the simulator's memory model and device models."""

import pytest
from hypothesis import given, strategies as st

from repro.avrora.devices import Adc, Clock, Leds, Radio, Uart
from repro.avrora.memory import MemoryError_, MemorySystem, Pointer
from repro.avrora.network import crc16, encode_tos_msg
from repro.avrora.node import Node
from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw
from repro.tinyos import messages as msgs

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


class TestMemorySystem:
    def setup_method(self):
        self.memory = MemorySystem()

    def test_allocate_and_rw_scalars(self):
        obj = self.memory.allocate("counter", 2)
        self.memory.write(Pointer(obj, 0), ty.UINT16, 0xBEEF)
        assert self.memory.read(Pointer(obj, 0), ty.UINT16) == 0xBEEF
        assert self.memory.read(Pointer(obj, 0), ty.UINT8) == 0xEF

    def test_signed_reads_sign_extend(self):
        obj = self.memory.allocate("v", 1)
        self.memory.write(Pointer(obj, 0), ty.UINT8, 0xFF)
        assert self.memory.read(Pointer(obj, 0), ty.INT8) == -1

    def test_out_of_bounds_access_raises(self):
        obj = self.memory.allocate("buf", 4)
        with pytest.raises(MemoryError_):
            self.memory.read(Pointer(obj, 3), ty.UINT16)
        with pytest.raises(MemoryError_):
            self.memory.write(Pointer(obj, -1), ty.UINT8, 0)

    def test_pointer_values_round_trip_through_memory(self):
        holder = self.memory.allocate("holder", 2)
        target = self.memory.allocate("target", 8)
        self.memory.write(Pointer(holder, 0), ty.PointerType(ty.UINT8),
                          Pointer(target, 3))
        loaded = self.memory.read(Pointer(holder, 0), ty.PointerType(ty.UINT8))
        assert isinstance(loaded, Pointer)
        assert loaded.obj is target and loaded.offset == 3

    def test_string_literals_are_interned(self):
        a = self.memory.string_literal("hello")
        b = self.memory.string_literal("hello")
        assert a is b
        assert self.memory.read_c_string(Pointer(a, 0)) == "hello"

    def test_global_initialization_from_ast(self):
        var = ast.GlobalVar("table", ty.ArrayType(ty.UINT16, 3),
                            ast.InitList([ast.IntLiteral(5), ast.IntLiteral(6)]))
        self.memory.initialize_globals([var], pointer_size=2)
        obj = self.memory.global_object("table")
        assert self.memory.read(Pointer(obj, 0), ty.UINT16) == 5
        assert self.memory.read(Pointer(obj, 2), ty.UINT16) == 6
        assert self.memory.read(Pointer(obj, 4), ty.UINT16) == 0

    @given(st.integers(0, 6), st.integers(1, 2))
    def test_in_bounds_predicate_matches_read_behaviour(self, offset, size):
        obj = self.memory.allocate("probe", 8)
        pointer = Pointer(obj, offset)
        ctype = ty.UINT8 if size == 1 else ty.UINT16
        assert pointer.in_bounds(size)
        self.memory.read(pointer, ctype)


def make_node(source="__spontaneous void main(void) { __sleep(); }"):
    program = make_program(source)
    node = Node(program)
    node.boot()
    return node


class TestDevices:
    def test_led_port_tracks_state_and_toggles(self):
        node = make_node()
        node.bus.write(hw.LED_PORT, 1, 0x5)
        node.bus.write(hw.LED_PORT, 1, 0x4)
        assert node.leds.state.value == 4
        assert node.leds.state.changes == 2
        assert node.leds.state.red_toggles == 2

    def test_clock_fires_periodically(self):
        node = make_node()
        node.bus.write(hw.TIMER_RATE, 2, 32)
        node.bus.write(hw.TIMER_CTRL, 1, 1)
        # Step virtual time one period at a time and let due events fire.
        for _ in range(16):
            node.time_cycles += node.cycles_per_jiffy * 32
            node._run_due_events()
        assert node.clock.ticks >= 10

    def test_adc_completes_a_conversion(self):
        node = make_node()
        node.bus.write(hw.ADC_CTRL, 1, 0x80 | hw.ADC_CHANNEL_PHOTO)
        assert node.adc.busy
        node.time_cycles += node.cycles_for_us(300)
        node._run_due_events()
        assert not node.adc.busy
        assert node.adc.conversions == 1
        assert 0 <= node.bus.read(hw.ADC_DATA, 2) <= 0x3FF

    def test_radio_transmit_and_deliver(self):
        node = make_node()
        sent = []
        node.radio.on_transmit = sent.append
        node.bus.write(hw.RADIO_CTRL, 1, 3)
        for byte in (1, 2, 3):
            node.bus.write(hw.RADIO_TXBUF, 1, byte)
        node.bus.write(hw.RADIO_TXGO, 1, 3)
        node.time_cycles += node.cycles_for_us(5000)
        node._run_due_events()
        assert sent == [bytes([1, 2, 3])]
        # Reception fills the FIFO and reports the length register.
        assert node.radio.deliver(bytes([9, 8, 7]))
        assert node.bus.read(hw.RADIO_RXLEN, 1) == 3
        assert [node.bus.read(hw.RADIO_RXBUF, 1) for _ in range(3)] == [9, 8, 7]

    def test_radio_drops_packets_when_disabled_or_busy(self):
        node = make_node()
        assert not node.radio.deliver(b"x")      # rx not enabled yet
        node.bus.write(hw.RADIO_CTRL, 1, 3)
        assert node.radio.deliver(b"ab")
        assert not node.radio.deliver(b"cd")     # previous frame not drained
        assert node.radio.packets_dropped == 2

    def test_uart_transmits_one_byte_per_interrupt(self):
        node = make_node()
        node.bus.write(hw.UART_DATA, 1, 0x41)
        assert node.uart.sent_bytes == [0x41]
        assert node.uart.tx_busy

    def test_jiffy_counter_follows_time(self):
        node = make_node()
        node.time_cycles = node.cycles_per_jiffy * 5
        assert node.bus.read(hw.JIFFY_COUNTER_LO, 2) == 5


class TestWireFormat:
    def test_crc_matches_the_cminor_drivers_algorithm(self):
        assert crc16(b"") == 0
        assert crc16(b"123456789") == crc16(b"123456789")
        assert crc16(b"a") != crc16(b"b")

    def test_encoded_message_has_valid_layout_and_crc(self):
        frame = encode_tos_msg(msgs.TOS_BCAST_ADDR, msgs.AM_INT_MSG, bytes([5, 0]))
        assert len(frame) == msgs.TOS_MSG_WIRE_LENGTH
        assert frame[2] == msgs.AM_INT_MSG
        assert frame[3] == msgs.TOS_DEFAULT_GROUP
        stored_crc = frame[-2] | (frame[-1] << 8)
        assert stored_crc == crc16(frame[:-2])
