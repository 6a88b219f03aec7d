"""The sensor-network simulator (the role Avrora plays in the paper).

The paper measures processor duty cycle by running each application for
three simulated minutes in Avrora, a cycle-accurate simulator for networks
of Mica2 motes.  This package provides the equivalent for CMinor images:

* :mod:`repro.avrora.memory` — the byte-addressed memory-object model used
  for globals, locals, and string literals (and for evaluating CCured's
  bounds checks concretely),
* :mod:`repro.avrora.devices` — memory-mapped peripherals: LEDs, the 1024 Hz
  clock, the micro timer, the ADC, the packet radio and the UART,
* :mod:`repro.avrora.interp` — the execution facade: a reference
  tree-walking interpreter plus the engine selection logic,
* :mod:`repro.avrora.engine` — the compile-to-closures execution engine
  (the default): each function is lowered once into a flat op stream and
  re-executed many times, like a dynamic binary translator's code cache,
* :mod:`repro.avrora.node` — one mote: program + devices + interrupt
  delivery + sleep/wake accounting,
* :mod:`repro.avrora.network` — the lockstep discrete-event network kernel:
  a global virtual-time scheduler with conservative lookahead, a per-link
  latency/loss channel model and topology wiring (broadcast, chain, star,
  grid), plus synthetic traffic generation.

Absolute cycle counts differ from real AVR silicon, but the quantity the
paper reports — the *duty cycle*, busy cycles over total cycles, compared
across build variants of the same application — is preserved.
"""

from repro.avrora.node import Node, NodeHalted, SafetyFault
from repro.avrora.network import (
    Channel,
    DeliveryRecord,
    Network,
    TOPOLOGIES,
    TrafficGenerator,
)

__all__ = [
    "Node",
    "NodeHalted",
    "SafetyFault",
    "Channel",
    "DeliveryRecord",
    "Network",
    "TOPOLOGIES",
    "TrafficGenerator",
]
