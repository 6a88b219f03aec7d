"""Memory-mapped peripheral models.

Each device watches a set of register addresses.  Register writes may change
device state and schedule future events on the owning node's event queue;
events typically raise an interrupt that the node delivers to the program.
The devices are deliberately packet/sample-level rather than bit-level — the
duty-cycle experiment needs the right amount of *work per event*, not an RF
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.tinyos import hardware as hw

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.avrora.node import Node


class Device:
    """Base class: a peripheral attached to a node's register bus."""

    #: Register addresses this device responds to.
    addresses: tuple[int, ...] = ()

    def attach(self, node: "Node") -> None:
        self.node = node

    def read(self, address: int, width: int) -> int:
        return 0

    def write(self, address: int, width: int, value: int) -> None:
        return None

    def start(self) -> None:
        """Called once when the simulation starts."""

    # -- snapshot / restore ---------------------------------------------------
    #
    # Devices serialize their register-visible state as plain dicts so the
    # reboot fault (``repro.scenarios``) can checkpoint a node's bus and
    # roll it back later in the same run.  Queued events are not part of
    # the snapshot: they stay on the node's event queue across a reboot.

    def snapshot(self) -> Optional[dict]:
        """Device state as plain data, or ``None`` for stateless devices."""
        return None

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` produced by the same device class."""


@dataclass
class LedState:
    """Observable LED history (used by tests and examples)."""

    value: int = 0
    changes: int = 0
    red_toggles: int = 0

    def update(self, new_value: int) -> None:
        if (new_value ^ self.value) & 1:
            self.red_toggles += 1
        if new_value != self.value:
            self.changes += 1
        self.value = new_value


class Leds(Device):
    """The three status LEDs behind ``LED_PORT``."""

    addresses = (hw.LED_PORT,)

    def __init__(self) -> None:
        self.state = LedState()

    def write(self, address: int, width: int, value: int) -> None:
        self.state.update(value & 0x7)

    def read(self, address: int, width: int) -> int:
        return self.state.value

    def snapshot(self) -> dict:
        return {"value": self.state.value, "changes": self.state.changes,
                "red_toggles": self.state.red_toggles}

    def restore(self, state: dict) -> None:
        self.state.value = state["value"]
        self.state.changes = state["changes"]
        self.state.red_toggles = state["red_toggles"]


class Clock(Device):
    """The 1024 Hz clock (Timer1 compare) driving the virtual timers."""

    addresses = (hw.TIMER_RATE, hw.TIMER_CTRL)

    def __init__(self) -> None:
        self.rate_jiffies = 0
        self.enabled = False
        self.ticks = 0

    def write(self, address: int, width: int, value: int) -> None:
        if address == hw.TIMER_RATE:
            self.rate_jiffies = max(1, value)
        elif address == hw.TIMER_CTRL:
            was_enabled = self.enabled
            self.enabled = bool(value & 1)
            if self.enabled and not was_enabled:
                self._schedule()

    def read(self, address: int, width: int) -> int:
        if address == hw.TIMER_RATE:
            return self.rate_jiffies
        return 1 if self.enabled else 0

    def _schedule(self) -> None:
        period_cycles = self.rate_jiffies * self.node.cycles_per_jiffy
        self.node.schedule(period_cycles, self._fire)

    def _fire(self) -> None:
        if not self.enabled:
            return
        self.ticks += 1
        self.node.raise_interrupt(hw.VECTOR_CLOCK)
        self._schedule()

    def snapshot(self) -> dict:
        return {"rate_jiffies": self.rate_jiffies, "enabled": self.enabled,
                "ticks": self.ticks}

    def restore(self, state: dict) -> None:
        self.rate_jiffies = state["rate_jiffies"]
        self.enabled = state["enabled"]
        self.ticks = state["ticks"]


class MicroTimer(Device):
    """The high-rate timer used by HighFrequencySampling."""

    addresses = (hw.MICROTIMER_RATE, hw.MICROTIMER_CTRL)

    def __init__(self) -> None:
        self.rate_jiffies = 0
        self.enabled = False
        self.ticks = 0

    def write(self, address: int, width: int, value: int) -> None:
        if address == hw.MICROTIMER_RATE:
            self.rate_jiffies = max(1, value)
        elif address == hw.MICROTIMER_CTRL:
            was_enabled = self.enabled
            self.enabled = bool(value & 1)
            if self.enabled and not was_enabled:
                self._schedule()

    def _schedule(self) -> None:
        period_cycles = self.rate_jiffies * self.node.cycles_per_jiffy
        self.node.schedule(period_cycles, self._fire)

    def _fire(self) -> None:
        if not self.enabled:
            return
        self.ticks += 1
        self.node.raise_interrupt(hw.VECTOR_MICROTIMER)
        self._schedule()

    def snapshot(self) -> dict:
        return {"rate_jiffies": self.rate_jiffies, "enabled": self.enabled,
                "ticks": self.ticks}

    def restore(self, state: dict) -> None:
        self.rate_jiffies = state["rate_jiffies"]
        self.enabled = state["enabled"]
        self.ticks = state["ticks"]


class Adc(Device):
    """The analog-to-digital converter with a deterministic sensor model."""

    addresses = (hw.ADC_CTRL, hw.ADC_DATA)

    #: Conversion latency in microseconds.
    CONVERSION_US = 200

    def __init__(self) -> None:
        self.busy = False
        self.channel = 0
        self.value = 0
        self.conversions = 0
        self._seed = 0x1234

    def write(self, address: int, width: int, value: int) -> None:
        if address == hw.ADC_CTRL and value & 0x80:
            self.channel = value & 0x0F
            if not self.busy:
                self.busy = True
                delay = self.node.cycles_for_us(self.CONVERSION_US)
                self.node.schedule(delay, self._complete)

    def read(self, address: int, width: int) -> int:
        if address == hw.ADC_DATA:
            return self.value
        return 0x80 if self.busy else 0

    def _sample(self) -> int:
        # A light-intensity-like waveform: deterministic, channel dependent.
        self._seed = (self._seed * 25173 + 13849) & 0xFFFF
        base = 0x200 + (self.channel * 0x40)
        return (base + (self._seed & 0xFF)) & 0x3FF

    def _complete(self) -> None:
        self.busy = False
        self.value = self._sample()
        self.conversions += 1
        self.node.raise_interrupt(hw.VECTOR_ADC)

    def snapshot(self) -> dict:
        return {"busy": self.busy, "channel": self.channel,
                "value": self.value, "conversions": self.conversions,
                "seed": self._seed}

    def restore(self, state: dict) -> None:
        self.busy = state["busy"]
        self.channel = state["channel"]
        self.value = state["value"]
        self.conversions = state["conversions"]
        self._seed = state["seed"]


class Radio(Device):
    """A packet-level CC1000-style radio."""

    addresses = (hw.RADIO_CTRL, hw.RADIO_TXBUF, hw.RADIO_RXBUF, hw.RADIO_RXLEN,
                 hw.RADIO_TXGO, hw.RADIO_STATUS, hw.RADIO_RSSI)

    #: Microseconds of air time per byte (38.4 kbaud Manchester ~ 208 us/byte).
    US_PER_BYTE = 208

    def __init__(self) -> None:
        self.rx_enabled = False
        self.powered = False
        self.tx_fifo: list[int] = []
        self.rx_fifo: list[int] = []
        self.rx_length = 0
        self.transmitting = False
        #: Local time at which the in-flight transmission completes
        #: (meaningful only while ``transmitting``); the lockstep network
        #: scheduler reads it to bound when this node can next affect a peer.
        self.tx_done_at = 0
        self.packets_sent: list[bytes] = []
        self.packets_received = 0
        self.packets_dropped = 0
        self.on_transmit: Optional[Callable[[bytes], None]] = None

    def write(self, address: int, width: int, value: int) -> None:
        if address == hw.RADIO_CTRL:
            self.rx_enabled = bool(value & 1)
            self.powered = bool(value & 2)
        elif address == hw.RADIO_TXBUF:
            self.tx_fifo.append(value & 0xFF)
        elif address == hw.RADIO_TXGO:
            self._transmit(value & 0xFF)

    def read(self, address: int, width: int) -> int:
        if address == hw.RADIO_RXBUF:
            if self.rx_fifo:
                return self.rx_fifo.pop(0)
            return 0
        if address == hw.RADIO_RXLEN:
            return self.rx_length
        if address == hw.RADIO_STATUS:
            return 1 if self.transmitting else 0
        if address == hw.RADIO_RSSI:
            return 0x0123
        return 0

    def _transmit(self, length: int) -> None:
        payload = bytes(self.tx_fifo[:length])
        self.tx_fifo = []
        self.transmitting = True
        airtime = self.node.cycles_for_us(self.US_PER_BYTE * max(len(payload), 1))
        self.tx_done_at = self.node.time_cycles + max(1, airtime)
        self.node.schedule(airtime, lambda: self._transmit_done(payload))

    def _transmit_done(self, payload: bytes) -> None:
        self.transmitting = False
        self.packets_sent.append(payload)
        if self.on_transmit is not None:
            self.on_transmit(payload)
        self.node.raise_interrupt(hw.VECTOR_RADIO_TXDONE)

    def deliver(self, payload: bytes) -> bool:
        """Called by the network when a packet arrives over the air."""
        if not self.rx_enabled:
            self.packets_dropped += 1
            return False
        if self.rx_fifo:
            # Receive buffer still draining: collision/overrun, drop.
            self.packets_dropped += 1
            return False
        self.rx_fifo = list(payload)
        self.rx_length = len(payload)
        self.packets_received += 1
        self.node.raise_interrupt(hw.VECTOR_RADIO_RX)
        return True

    def snapshot(self) -> dict:
        return {"rx_enabled": self.rx_enabled, "powered": self.powered,
                "tx_fifo": list(self.tx_fifo), "rx_fifo": list(self.rx_fifo),
                "rx_length": self.rx_length,
                "transmitting": self.transmitting,
                "tx_done_at": self.tx_done_at,
                "packets_sent": list(self.packets_sent),
                "packets_received": self.packets_received,
                "packets_dropped": self.packets_dropped}

    def restore(self, state: dict) -> None:
        self.rx_enabled = state["rx_enabled"]
        self.powered = state["powered"]
        self.tx_fifo = list(state["tx_fifo"])
        self.rx_fifo = list(state["rx_fifo"])
        self.rx_length = state["rx_length"]
        self.transmitting = state["transmitting"]
        self.tx_done_at = state["tx_done_at"]
        self.packets_sent = list(state["packets_sent"])
        self.packets_received = state["packets_received"]
        self.packets_dropped = state["packets_dropped"]


class Uart(Device):
    """The serial port, byte-interrupt driven."""

    addresses = (hw.UART_DATA, hw.UART_STATUS)

    #: Microseconds per byte at 57.6 kbaud.
    US_PER_BYTE = 170

    def __init__(self) -> None:
        self.sent_bytes: list[int] = []
        self.pending_rx: list[int] = []
        self.current_rx_byte = 0
        self.tx_busy = False

    def write(self, address: int, width: int, value: int) -> None:
        if address == hw.UART_DATA:
            self.sent_bytes.append(value & 0xFF)
            self.tx_busy = True
            delay = self.node.cycles_for_us(self.US_PER_BYTE)
            self.node.schedule(delay, self._tx_done)

    def read(self, address: int, width: int) -> int:
        if address == hw.UART_DATA:
            return self.current_rx_byte
        if address == hw.UART_STATUS:
            return 0 if self.tx_busy else 1
        return 0

    def _tx_done(self) -> None:
        self.tx_busy = False
        self.node.raise_interrupt(hw.VECTOR_UART_TX)

    #: Largest frame the serial bridge accepts in one injection: one TOS
    #: wire message (header + payload + crc).  Matches
    #: ``repro.tinyos.messages.TOS_MSG_WIRE_LENGTH``, restated here so the
    #: device layer does not import the TinyOS library layer.
    MAX_FRAME_LENGTH = 36

    def inject_frame(self, payload: bytes) -> None:
        """Queue a frame to be fed to the program one byte at a time.

        Frames longer than one TOS wire message are rejected up front
        (mirroring ``encode_tos_msg``): a silently accepted oversized
        frame would smear into the next one on the byte-serial link and
        make scenario injections ambiguous.  Malformed *content* — bad
        length fields, wrong CRCs — passes through untouched; that is
        the program's problem to survive.
        """
        if len(payload) > self.MAX_FRAME_LENGTH:
            raise ValueError(
                f"inject_frame: frame of {len(payload)} bytes does not fit "
                f"one TOS wire message (MAX_FRAME_LENGTH is "
                f"{self.MAX_FRAME_LENGTH})")
        self.pending_rx.extend(payload)
        self.node.schedule(self.node.cycles_for_us(self.US_PER_BYTE),
                           self._rx_next)

    def _rx_next(self) -> None:
        if not self.pending_rx:
            return
        self.current_rx_byte = self.pending_rx.pop(0)
        self.node.raise_interrupt(hw.VECTOR_UART_RX)
        if self.pending_rx:
            self.node.schedule(self.node.cycles_for_us(self.US_PER_BYTE),
                               self._rx_next)

    def snapshot(self) -> dict:
        return {"sent_bytes": list(self.sent_bytes),
                "pending_rx": list(self.pending_rx),
                "current_rx_byte": self.current_rx_byte,
                "tx_busy": self.tx_busy}

    def restore(self, state: dict) -> None:
        self.sent_bytes = list(state["sent_bytes"])
        self.pending_rx = list(state["pending_rx"])
        self.current_rx_byte = state["current_rx_byte"]
        self.tx_busy = state["tx_busy"]


class JiffyCounter(Device):
    """The free-running 32-bit jiffy counter read by TimeStampingC."""

    addresses = (hw.JIFFY_COUNTER_LO, hw.JIFFY_COUNTER_HI)

    def read(self, address: int, width: int) -> int:
        jiffies = self.node.current_jiffies()
        if address == hw.JIFFY_COUNTER_LO:
            return jiffies & 0xFFFF
        return (jiffies >> 16) & 0xFFFF


@dataclass
class DeviceBus:
    """Routes register reads and writes to the owning device."""

    devices: list[Device] = field(default_factory=list)
    _by_address: dict[int, Device] = field(default_factory=dict)

    def attach(self, node: "Node", device: Device) -> None:
        device.attach(node)
        self.devices.append(device)
        for address in device.addresses:
            self._by_address[address] = device

    def read(self, address: int, width: int) -> int:
        device = self._by_address.get(address)
        if device is None:
            return 0
        return device.read(address, width)

    def write(self, address: int, width: int, value: int) -> None:
        device = self._by_address.get(address)
        if device is not None:
            device.write(address, width, value)

    def find(self, device_type: type) -> Optional[Device]:
        for device in self.devices:
            if isinstance(device, device_type):
                return device
        return None

    def snapshot(self) -> dict:
        """Per-device state keyed by device class name."""
        out: dict = {}
        for device in self.devices:
            state = device.snapshot()
            if state is not None:
                out[type(device).__name__] = state
        return out

    def restore(self, states: dict) -> None:
        for device in self.devices:
            state = states.get(type(device).__name__)
            if state is not None:
                device.restore(state)


def standard_devices() -> list[Device]:
    """The peripheral set of a Mica2/TelosB node in this model."""
    return [Leds(), Clock(), MicroTimer(), Adc(), Radio(), Uart(), JiffyCounter()]
