"""Fault specifications: what to inject, where, and when.

A :class:`FaultPlan` is *data* in the same sense the ``repro.api`` specs
are: frozen dataclasses of numbers and strings, JSON-round-trippable
(``fault_from_dict(fault.to_dict()) == fault``), seeded, and canonically
serializable so scenario specs can derive stable content keys from them.
The plan describes injections; arming them against a live network is the
:class:`~repro.scenarios.injector.ScenarioInjector`'s job.

The five fault kinds map to the ROADMAP's adversarial-scenario taxonomy:

* :class:`BitFlipFault` — an SEU-style single-bit upset in a node's global
  memory at a scheduled virtual time (pointer-slot aware; see
  :meth:`~repro.avrora.memory.MemorySystem.flip_bit`).
* :class:`PayloadCorruptFault` — on-air payload corruption applied after
  :meth:`~repro.avrora.network.Channel.packet_fate` with the CRC refreshed,
  so the corruption sails *past* the receiver's CRC check.
* :class:`PacketInjectFault` — a crafted, malformed packet (oversized
  length field under a valid CRC) delivered through the radio or the UART
  ``inject_frame`` path.
* :class:`NodeKillFault` — fail-stop node churn: the node halts at a
  scheduled time and stays down.
* :class:`NodeRebootFault` — reboot-and-rejoin churn: the node's memory
  and device state roll back to a checkpoint taken earlier in the same
  run (``MemorySystem``/``DeviceBus`` snapshots, applied mid-run), losing
  everything since — pending interrupts and half-received frames included.

Every scheduled time is an absolute virtual millisecond, so injections are
bit-identical across runs and grant schedules by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

#: One TOS wire message: header (5) + payload (29) + crc (2).  Restated
#: from ``repro.tinyos.messages`` so this spec layer stays import-light
#: (the injector, which builds real frames, imports the proper constants).
_WIRE_LENGTH = 36

#: Halt code of an induced :class:`NodeKillFault` — distinguishable from
#: program-initiated halts (``__ccured_fail`` exits with code 1) so the
#: verdict classifier never counts an injected kill as a crash.
KILL_HALT_CODE = 0xDEAD


def _check_ms(name: str, value: int) -> None:
    if not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name} must be a positive integer millisecond, "
                         f"got {value!r}")


@dataclass(frozen=True)
class Fault:
    """Base class: one injection, serializable and content-addressable."""

    kind: ClassVar[str] = ""

    #: Whether this fault changes what the network *does* rather than what
    #: its nodes *hold*.  Input faults (crafted packets, node churn) alter
    #: the traffic pattern by design, so any node's behaviour legitimately
    #: diverges from the fault-free golden run — the classifier judges them
    #: only by detected failures, unexpected crashes and silently absorbed
    #: memory violations.  State faults (bit flips, in-flight payload
    #: corruption) leave the input schedule untouched, so full behavioural
    #: fingerprints are compared.
    perturbs_inputs: ClassVar[bool] = False

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        for spec_field in fields(self):
            data[spec_field.name] = getattr(self, spec_field.name)
        return data

    def label(self) -> str:
        """Row label in verdict matrices; unique within typical plans."""
        return self.kind

    #: Node positions whose *own* divergence this fault induces by design
    #: (churn targets; crafted-packet targets, which receive an input the
    #: golden run never saw).  The classifier skips full fingerprint
    #: comparison for these nodes but still screens them for silently
    #: absorbed memory violations.
    def induced_nodes(self) -> tuple[int, ...]:
        return ()


@dataclass(frozen=True)
class BitFlipFault(Fault):
    """Flip one bit of a global object on one node at ``at_ms``.

    Attributes:
        node: Node *position* in the network (0-based), not its address.
        object: Name of the global :class:`~repro.avrora.memory.MemoryObject`.
        offset: Byte offset within the object.
        bit: Bit to flip.  For offsets holding pointers the stored pointer
            is advanced by ``1 << bit`` bytes (an address-register upset);
            for plain bytes, bits 0-7 XOR the byte.
        at_ms: Virtual milliseconds into the run.
    """

    kind: ClassVar[str] = "bit_flip"

    node: int = 0
    object: str = "RadioCRCPacketC__radio_rx_ptr"
    offset: int = 0
    bit: int = 5
    at_ms: int = 300

    def __post_init__(self):
        _check_ms("bit_flip.at_ms", self.at_ms)
        if self.offset < 0:
            raise ValueError(f"bit_flip.offset must be >= 0, "
                             f"got {self.offset}")
        if self.bit < 0:
            raise ValueError(f"bit_flip.bit must be >= 0, got {self.bit}")

    def label(self) -> str:
        return f"bit-flip@{self.object}"


@dataclass(frozen=True)
class PayloadCorruptFault(Fault):
    """Corrupt cross-node radio payloads on the air, past the CRC.

    Each surviving packet's corruption decision is a pure hash of the
    scenario seed and the packet's ``(src, dst, sequence)`` link identity
    — the same grant-schedule invariance contract as
    :meth:`~repro.avrora.network.Channel.packet_fate` — so reruns
    corrupt byte-identically.

    Attributes:
        probability: Fraction of surviving packets corrupted, in (0, 1].
        flips: Payload bytes XOR-ed per corrupted packet (>= 1).
        fix_crc: Recompute the wire CRC after corrupting, so the packet
            passes the receiver's CRC check and the corruption reaches the
            application (the attack the paper's safety checks are the last
            line of defence against).  ``False`` models plain channel
            noise, which the CRC is expected to catch.
    """

    kind: ClassVar[str] = "payload_corrupt"

    probability: float = 1.0
    flips: int = 1
    fix_crc: bool = True

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"payload_corrupt.probability must be in "
                             f"(0, 1], got {self.probability}")
        if self.flips < 1:
            raise ValueError(f"payload_corrupt.flips must be >= 1, "
                             f"got {self.flips}")

    def label(self) -> str:
        return "payload-corrupt" if self.fix_crc else "payload-noise"


@dataclass(frozen=True)
class PacketInjectFault(Fault):
    """Deliver one crafted, malformed packet to a node at ``at_ms``.

    The frame is a full TOS wire message whose *length field* claims
    ``claimed_length`` payload bytes — far beyond the 29 the struct holds
    — under a freshly computed, valid CRC.  Defensive receive paths clamp
    or reject it; a receive path that trusts the header walks off the end
    of the message buffer.

    Attributes:
        node: Target node position.
        via: ``"radio"`` (over-the-air delivery) or ``"uart"`` (the serial
            ``inject_frame`` path).
        at_ms: Virtual milliseconds into the run.
        am_type: Active-message type of the crafted packet.
        claimed_length: Value of the length header field (0-255).
        dest: Destination address (broadcast by default, so group/address
            filters pass).
    """

    kind: ClassVar[str] = "packet_inject"
    perturbs_inputs: ClassVar[bool] = True

    node: int = 0
    via: str = "radio"
    at_ms: int = 400
    am_type: int = 250
    claimed_length: int = 255
    dest: int = 0xFFFF

    def __post_init__(self):
        _check_ms("packet_inject.at_ms", self.at_ms)
        if self.via not in ("radio", "uart"):
            raise ValueError(f"packet_inject.via must be 'radio' or "
                             f"'uart', got {self.via!r}")
        if not 0 <= self.claimed_length <= 0xFF:
            raise ValueError(f"packet_inject.claimed_length must fit one "
                             f"byte, got {self.claimed_length}")

    def label(self) -> str:
        return f"packet-inject@{self.via}"

    def induced_nodes(self) -> tuple[int, ...]:
        # The target's raw fingerprint always diverges (it received an
        # extra input); only absorbed violations, checks or crashes there
        # say anything about safety.
        return (self.node,)


@dataclass(frozen=True)
class NodeKillFault(Fault):
    """Fail-stop one node at ``at_ms``; it stays down for the rest."""

    kind: ClassVar[str] = "node_kill"
    perturbs_inputs: ClassVar[bool] = True

    node: int = 0
    at_ms: int = 500

    def __post_init__(self):
        _check_ms("node_kill.at_ms", self.at_ms)

    def label(self) -> str:
        return f"kill@n{self.node}"

    def induced_nodes(self) -> tuple[int, ...]:
        return (self.node,)


@dataclass(frozen=True)
class NodeRebootFault(Fault):
    """Roll one node back to a mid-run checkpoint: reboot-and-rejoin.

    At ``checkpoint_ms`` the node's memory image and device state are
    captured (in-run, via ``MemorySystem``/``DeviceBus.snapshot``); at
    ``at_ms`` they are restored in place and volatile inputs — pending
    interrupts, the radio receive FIFO, half-received UART bytes — are
    cleared.  The node loses everything between the two instants and
    rejoins the network from its checkpointed state, timers still armed.
    """

    kind: ClassVar[str] = "node_reboot"
    perturbs_inputs: ClassVar[bool] = True

    node: int = 0
    checkpoint_ms: int = 300
    at_ms: int = 800

    def __post_init__(self):
        _check_ms("node_reboot.checkpoint_ms", self.checkpoint_ms)
        _check_ms("node_reboot.at_ms", self.at_ms)
        if self.at_ms <= self.checkpoint_ms:
            raise ValueError(
                f"node_reboot: at_ms ({self.at_ms}) must be after "
                f"checkpoint_ms ({self.checkpoint_ms})")

    def label(self) -> str:
        return f"reboot@n{self.node}"

    def induced_nodes(self) -> tuple[int, ...]:
        return (self.node,)


#: Registry: serialized ``kind`` tag → fault class.
FAULT_KINDS: dict[str, type] = {
    cls.kind: cls for cls in (BitFlipFault, PayloadCorruptFault,
                              PacketInjectFault, NodeKillFault,
                              NodeRebootFault)
}


def fault_from_dict(data: dict) -> Fault:
    """Rebuild one fault from its :meth:`Fault.to_dict` form."""
    kind = data.get("kind")
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise KeyError(f"unknown fault kind {kind!r}; known: "
                       f"{sorted(FAULT_KINDS)}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of injections, evaluated one fault per run.

    Attributes:
        faults: The injections.  The runner executes each fault in its own
            simulation, so verdicts are attributable per fault.
        seed: Seed of every stochastic injection decision (currently the
            payload corruptor's per-packet hash).  Independent of the
            channel seed: the same network trajectory can be attacked
            differently.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.faults:
            raise ValueError("FaultPlan needs at least one fault")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"FaultPlan.seed must be a non-negative "
                             f"integer, got {self.seed!r}")
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ValueError(f"FaultPlan.faults must hold Fault "
                                 f"objects, got {fault!r}")

    def labels(self) -> list[str]:
        """Per-fault row labels, disambiguated when a label repeats."""
        seen: dict[str, int] = {}
        out = []
        for fault in self.faults:
            label = fault.label()
            count = seen.get(label, 0)
            seen[label] = count + 1
            out.append(f"{label}#{count + 1}" if count else label)
        return out

    def max_node(self) -> int:
        """Largest node position any fault targets (-1 if none targeted)."""
        positions = [getattr(fault, "node") for fault in self.faults
                     if hasattr(fault, "node")]
        return max(positions) if positions else -1

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(faults=tuple(fault_from_dict(entry)
                                for entry in data["faults"]),
                   seed=data.get("seed", 0))


#: ``--faults`` shorthand names accepted by the CLI and ``default_fault``.
DEFAULT_FAULT_NAMES = ("bit-flip", "payload", "packet", "kill", "reboot")


def default_fault(name: str, node_count: int = 2):
    """The canonical instance of one named fault kind.

    The defaults target the receive path of node 0 (the base station of
    non-broadcast topologies) for corruption faults and the last node for
    churn, which is what the headline Surge scenario wants; bespoke plans
    construct the dataclasses directly.
    """
    last = max(0, node_count - 1)
    if name == "bit-flip":
        return BitFlipFault(node=0, object="RadioCRCPacketC__radio_rx_ptr",
                            offset=0, bit=5, at_ms=300)
    if name == "payload":
        return PayloadCorruptFault(probability=1.0, flips=1, fix_crc=True)
    if name == "packet":
        return PacketInjectFault(node=0, via="radio", at_ms=400,
                                 am_type=250, claimed_length=255)
    if name == "kill":
        return NodeKillFault(node=last, at_ms=500)
    if name == "reboot":
        return NodeRebootFault(node=last, checkpoint_ms=300, at_ms=800)
    raise KeyError(f"unknown fault name {name!r}; known: "
                   f"{DEFAULT_FAULT_NAMES}")
