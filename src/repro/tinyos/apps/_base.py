"""Shared plumbing for application definitions.

Applications differ in their top-level component and wiring but share the
interface definitions, the common message declarations, and a few standard
component stacks (timer stack, radio stack).  The helpers here keep each
application module focused on what is unique about it.
"""

from __future__ import annotations

from repro.nesc.application import Application
from repro.nesc.component import Component
from repro.nesc.interface import Interface, standard_interfaces
from repro.tinyos import messages as msgs
from repro.tinyos.lib import (
    adc_c,
    am_standard,
    hpl_clock,
    leds_c,
    micro_timer_c,
    multi_hop_router,
    radio_crc_packet_c,
    random_lfsr,
    time_stamping_c,
    timer_c,
    uart_framed_packet_c,
)


def interfaces() -> dict[str, Interface]:
    """The standard interface set, built against ``struct TOS_Msg``."""
    return standard_interfaces(msgs.tos_msg_type())


def new_application(name: str, platform: str = "mica2",
                    description: str = "") -> Application:
    """Create an empty application with the shared common source."""
    return Application(name=name, platform=platform,
                       common_source=msgs.COMMON_SOURCE,
                       description=description)


def add_timer_stack(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add ``HPLClock`` and ``TimerC`` and wire the clock."""
    app.add_component(hpl_clock(ifaces))
    app.add_component(timer_c(ifaces))
    app.wire("TimerC", "Clock", "HPLClock", "Clock")
    app.boot.append(("TimerC", "Control"))


def add_leds(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add ``LedsC`` and put it in the boot sequence."""
    app.add_component(leds_c(ifaces))
    app.boot.append(("LedsC", "Control"))


def add_adc(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add ``ADCC`` and put it in the boot sequence."""
    app.add_component(adc_c(ifaces))
    app.boot.append(("ADCC", "Control"))


def add_radio_stack(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add ``RadioCRCPacketC`` + ``AMStandard`` and wire them together."""
    app.add_component(radio_crc_packet_c(ifaces))
    app.add_component(am_standard(ifaces))
    app.wire("AMStandard", "RadioSend", "RadioCRCPacketC", "Send")
    app.wire("AMStandard", "RadioReceive", "RadioCRCPacketC", "Receive")
    app.boot.append(("RadioCRCPacketC", "Control"))
    app.boot.append(("AMStandard", "Control"))


def add_uart_stack(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add ``UARTFramedPacketC`` and put it in the boot sequence."""
    app.add_component(uart_framed_packet_c(ifaces))
    app.boot.append(("UARTFramedPacketC", "Control"))


def add_time_stamping(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add the time-stamping service."""
    app.add_component(time_stamping_c(ifaces))


def add_micro_timer(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add the high-rate micro timer."""
    app.add_component(micro_timer_c(ifaces))
    app.boot.append(("MicroTimerC", "Control"))


def add_multihop(app: Application, ifaces: dict[str, Interface]) -> None:
    """Add the multihop router (wired onto AMStandard, TimerC.Timer1, Random)."""
    app.add_component(multi_hop_router(ifaces))
    app.add_component(random_lfsr(ifaces))
    app.wire("MultiHopRouterM", "SendMsg", "AMStandard", "SendMsg")
    app.wire("MultiHopRouterM", "ReceiveMsg", "AMStandard", "ReceiveMsg")
    app.wire("MultiHopRouterM", "Random", "RandomLFSR", "Random")
    app.wire("MultiHopRouterM", "RouteTimer", "TimerC", "Timer1")
    app.boot.append(("MultiHopRouterM", "Control"))
