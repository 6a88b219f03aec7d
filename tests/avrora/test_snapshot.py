"""Snapshot/restore round-trips: memory images and device state.

The reboot fault (``repro.scenarios``) checkpoints a node through
``MemorySystem.snapshot()`` and ``DeviceBus.snapshot()`` and rolls it back
in place later in the same run, so these round-trips are what makes a
rebooted mote rejoin from exactly the state it saved.
"""

from __future__ import annotations

import pickle

from repro.avrora.devices import Clock, DeviceBus, Leds, Radio, Uart
from repro.avrora.memory import MemorySystem, Pointer
from repro.avrora.node import Node
from repro.cminor import typesys as ty
from repro.tinyos import hardware as hw

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


# ---------------------------------------------------------------------------
# MemorySystem round-trips
# ---------------------------------------------------------------------------


class TestMemorySnapshot:
    def test_globals_round_trip_bytes(self):
        memory = MemorySystem()
        counter = memory.allocate("counter", 2)
        memory.write(Pointer(counter, 0), ty.UINT16, 0xBEEF)
        snapshot = memory.snapshot()

        memory.write(Pointer(counter, 0), ty.UINT16, 0)
        memory.restore(snapshot)
        assert memory.read(Pointer(counter, 0), ty.UINT16) == 0xBEEF
        # Restore mutates in place: the engine's baked references survive.
        assert memory.objects["counter"] is counter

    def test_snapshot_is_picklable_plain_data(self):
        memory = MemorySystem()
        holder = memory.allocate("holder", 2)
        target = memory.allocate("target", 4)
        memory.write(Pointer(holder, 0), ty.PointerType(ty.UINT8),
                     Pointer(target, 1))
        snapshot = memory.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_pointer_provenance_survives_into_fresh_system(self):
        memory = MemorySystem()
        holder = memory.allocate("holder", 2)
        target = memory.allocate("target", 4)
        memory.write(Pointer(target, 3), ty.UINT8, 42)
        memory.write(Pointer(holder, 0), ty.PointerType(ty.UINT8),
                     Pointer(target, 3))

        fresh = MemorySystem()
        fresh.restore(memory.snapshot())
        loaded = fresh.read(Pointer(fresh.objects["holder"], 0),
                            ty.PointerType(ty.UINT8))
        assert isinstance(loaded, Pointer)
        assert loaded.obj is fresh.objects["target"]
        assert loaded.offset == 3
        assert fresh.read(loaded, ty.UINT8) == 42

    def test_string_literals_round_trip(self):
        memory = MemorySystem()
        string = memory.string_literal("hello, motes")
        holder = memory.allocate("message", 2)
        memory.write(Pointer(holder, 0), ty.PointerType(ty.UINT8),
                     Pointer(string, 0))

        fresh = MemorySystem()
        fresh.restore(memory.snapshot())
        loaded = fresh.read(Pointer(fresh.objects["message"], 0),
                            ty.PointerType(ty.UINT8))
        assert fresh.read_c_string(loaded) == "hello, motes"
        # The literal is interned: a later request reuses the restored object.
        assert fresh.string_literal("hello, motes") is loaded.obj

    def test_heap_like_object_reachable_only_through_pointer(self):
        """An object with no global name must be rediscovered through the
        pointer shadow tables (the provenance walk), not lost."""
        memory = MemorySystem()
        anchor = memory.allocate("anchor", 2)
        orphan = memory.allocate("main.buffer", 8, kind="local")
        memory.write(Pointer(orphan, 5), ty.UINT8, 77)
        memory.write(Pointer(anchor, 0), ty.PointerType(ty.UINT8),
                     Pointer(orphan, 5))

        fresh = MemorySystem()
        fresh.restore(memory.snapshot())
        loaded = fresh.read(Pointer(fresh.objects["anchor"], 0),
                            ty.PointerType(ty.UINT8))
        assert loaded.obj.name == "main.buffer"
        assert loaded.obj.kind == "local"
        assert fresh.read(loaded, ty.UINT8) == 77


# ---------------------------------------------------------------------------
# DeviceBus round-trips
# ---------------------------------------------------------------------------


class TestDeviceBusSnapshot:
    def test_device_state_rolls_back_in_place(self):
        node = Node(make_program("__spontaneous void main(void) { }"))
        bus: DeviceBus = node.bus
        bus.write(hw.LED_PORT, 1, 0x5)
        bus.write(hw.TIMER_RATE, 2, 64)
        bus.write(hw.RADIO_CTRL, 1, 0x3)
        bus.write(hw.UART_DATA, 1, 0x42)
        snapshot = bus.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

        leds, clock = node.leds, node.clock
        bus.write(hw.LED_PORT, 1, 0x2)
        bus.write(hw.TIMER_RATE, 2, 8)
        bus.write(hw.RADIO_CTRL, 1, 0x0)
        bus.write(hw.UART_DATA, 1, 0x43)
        bus.restore(snapshot)
        assert bus.find(Leds) is leds and bus.find(Clock) is clock
        assert leds.state.value == 0x5
        assert leds.state.changes == 1
        assert clock.rate_jiffies == 64
        assert bus.find(Radio).rx_enabled and bus.find(Radio).powered
        assert bus.find(Uart).sent_bytes == [0x42]
