"""One simulated sensor node.

A node owns a program image (the final, optimized CMinor program), the
memory objects for its globals, its peripherals, an event queue, and the
cycle accounting that the duty-cycle experiment reads out at the end:

* ``busy_cycles`` — cycles spent executing code (including interrupt
  handlers and safety checks),
* ``sleep_cycles`` — cycles spent in the sleep state waiting for the next
  event.

The duty cycle is ``busy / (busy + sleep)`` — exactly the quantity Figure
3(c) reports.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cminor import typesys as ty
from repro.cminor.program import Program
from repro.backend.target import cost_model_for
from repro.avrora.devices import Adc, Clock, DeviceBus, Leds, Radio, Uart, \
    standard_devices
from repro.avrora.interp import Interpreter
from repro.avrora.memory import MemoryError_, MemorySystem, Pointer, RuntimeValue, \
    is_null
from repro.tinyos.hardware import JIFFIES_PER_SECOND


#: Sequence band for cross-node packet deliveries: far above anything the
#: node's own ``_event_seq`` counter can reach, so delivery order within a
#: cycle is decided by the packet, not by queue-insertion history.
_DELIVERY_SEQ_BASE = 1 << 60
#: Node ids are TinyOS 16-bit addresses; one sender transmits at most one
#: packet per (link, cycle), so (sent_cycles, sender_id) is unique.
_DELIVERY_SENDER_SPAN = 1 << 16


class NodeHalted(Exception):
    """The program executed ``__halt`` (normally via ``__ccured_fail``)."""

    def __init__(self, code: int, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"node halted with code {code}: {message}")


class SafetyFault(Exception):
    """An unchecked memory error occurred (only possible in unsafe builds)."""


class CausalityError(RuntimeError):
    """A packet would land in the past of a receiver parked at its horizon.

    Raised by :meth:`Node.schedule_delivery`: the lockstep scheduler granted
    some node a horizon past the instant a peer could still reach it, so
    the receiver already ran beyond the delivery.  The run is wrong from
    that point on; this is a kernel bug, not a program failure.
    """


class _SimulationFinished(Exception):
    """Internal: the simulation time limit was reached."""


@dataclass
class FailureRecord:
    """A run-time safety-check failure reported by the program."""

    message: str
    flid: Optional[int]
    time_cycles: int


class Node:
    """One mote running one program image."""

    def __init__(self, program: Program, node_id: int = 1,
                 engine: Optional[str] = None, code_cache=None):
        """``engine`` picks the simulator engine (see
        :class:`~repro.avrora.interp.Interpreter`); ``code_cache`` is the
        :class:`~repro.avrora.engine.CodeCache` whose lowerings the
        compiled engine runs, shared with the other nodes of its scope
        (a network, a scenario variant), or a cache of its own if None.
        """
        self.program = program
        self.node_id = node_id
        self.costs = cost_model_for(program.platform)
        self.clock_hz = self.costs.platform.clock_hz
        self.cycles_per_jiffy = max(1, self.clock_hz // JIFFIES_PER_SECOND)

        self.memory = MemorySystem(self.costs.platform.pointer_bytes)
        self.bus = DeviceBus()
        for device in standard_devices():
            self.bus.attach(self, device)

        self.time_cycles = 0
        self.sleep_cycles = 0
        self.end_cycles = 0
        self.atomic_depth = 0
        self.interrupts_enabled = False
        self.in_interrupt = False
        #: FIFO of raised-but-undelivered interrupt vectors.  A deque: the
        #: delivery loop pops from the left, and ``list.pop(0)`` is O(n).
        #: The compiled engine holds the container and tests its truthiness
        #: on the hot path, so it is mutated in place and never reassigned.
        self.pending_interrupts: deque[str] = deque()
        self.interrupts_delivered = 0
        self.failures: list[FailureRecord] = []
        self.halted = False
        self.halt_code: Optional[int] = None
        #: Out-of-bounds accesses absorbed by the lenient memory model (an
        #: unsafe build silently corrupting memory shows up here).
        self.memory_violations = 0

        self._event_queue: list[tuple[int, int, Callable[[], None]]] = []
        #: Event sequence numbers (heap tie-break), in insertion order.
        self._event_seq = itertools.count()

        #: Per-node traffic generator installed by the network (if any).
        self.traffic_generator = None

        # -- resumable execution (run_until) ---------------------------------
        #: Local time at which the node must pause (0 = run to end_cycles).
        self.pause_cycles = 0
        #: True while the node is blocked inside the sleep loop (it cannot
        #: initiate anything before its next event or an external input).
        self._paused_in_sleep = False
        self._exec_thread: Optional[threading.Thread] = None
        # Two plain locks as binary semaphores, both held between grants:
        # the scheduler releases ``_resume`` to grant a horizon and the
        # execution thread releases ``_paused`` when it parks or ends, so
        # each side blocks in ``acquire`` until the other hands over.
        self._resume = threading.Lock()
        self._resume.acquire()
        self._paused = threading.Lock()
        self._paused.acquire()
        #: "idle" | "running" | "paused" | "finished" | "returned" | "error"
        self._status = "idle"
        self._run_error: Optional[BaseException] = None
        self._abort = False

        #: ``"compiled"`` (default) or ``"tree"``; see repro.avrora.interp.
        self.interpreter = Interpreter(self, engine=engine,
                                       code_cache=code_cache)

    # -- devices ------------------------------------------------------------------

    @property
    def leds(self) -> Leds:
        return self.bus.find(Leds)  # type: ignore[return-value]

    @property
    def radio(self) -> Radio:
        return self.bus.find(Radio)  # type: ignore[return-value]

    @property
    def uart(self) -> Uart:
        return self.bus.find(Uart)  # type: ignore[return-value]

    @property
    def adc(self) -> Adc:
        return self.bus.find(Adc)  # type: ignore[return-value]

    @property
    def clock(self) -> Clock:
        return self.bus.find(Clock)  # type: ignore[return-value]

    # -- time ---------------------------------------------------------------------

    def cycles_for_us(self, microseconds: int) -> int:
        return max(1, (self.clock_hz * microseconds) // 1_000_000)

    def current_jiffies(self) -> int:
        return self.time_cycles // self.cycles_per_jiffy

    @property
    def busy_cycles(self) -> int:
        """Cycles spent executing code.

        Derived from the invariant ``time = busy + sleep``: execution only
        advances time through :meth:`consume` (busy) or the sleep paths
        (sleep), so storing busy separately would just add a counter update
        to the hottest loop in the simulator.
        """
        return self.time_cycles - self.sleep_cycles

    def duty_cycle(self) -> float:
        total = self.time_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles / total

    # -- event queue ------------------------------------------------------------------

    def schedule(self, delay_cycles: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay_cycles`` from now."""
        when = self.time_cycles + max(1, delay_cycles)
        heapq.heappush(self._event_queue,
                       (when, next(self._event_seq), callback))

    def schedule_at(self, when_cycles: int,
                    callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute local time.

        The caller keeps ``when_cycles`` out of this node's past (the fault
        injector clamps it to the next cycle).  Cross-node packets go
        through :meth:`schedule_delivery` instead, which enforces the same
        rule against a lockstep scheduler that would break it.
        """
        heapq.heappush(self._event_queue,
                       (when_cycles, next(self._event_seq), callback))

    def schedule_delivery(self, when_cycles: int, sent_cycles: int,
                          sender_id: int,
                          callback: Callable[[], None]) -> None:
        """Schedule a cross-node packet delivery at an absolute local time.

        Deliveries get their own sequence band, *above* every locally
        allocated sequence number: ties at the same arrival cycle resolve
        local events first, then deliveries in ``(sent_cycles, sender_id)``
        order.  The tie-break is a pure function of the packet — not of
        when this queue learned about it — which keeps event order
        identical however the scheduler's grants interleave the sender
        and the receiver (grant-schedule invariance).

        A delivery below the horizon of a receiver parked at its pause gate
        would land in its past.  Only an unsound lookahead causes that, and
        it raises :class:`CausalityError`, which :meth:`run_until`
        re-raises on the scheduler.  A delivery at the horizon or above is
        legal: it joins the unopened batch there.
        """
        if self._status == "paused" and when_cycles < self.pause_cycles:
            raise CausalityError(
                f"packet from node {sender_id} would land on node "
                f"{self.node_id} at cycle {when_cycles}, below the horizon "
                f"{self.pause_cycles} it is parked at")
        heapq.heappush(
            self._event_queue,
            (when_cycles,
             _DELIVERY_SEQ_BASE + sent_cycles * _DELIVERY_SENDER_SPAN
             + sender_id,
             callback))

    def _run_due_events(self) -> None:
        while self._event_queue and self._event_queue[0][0] <= self.time_cycles:
            _when, _seq, callback = heapq.heappop(self._event_queue)
            callback()

    # -- cycle accounting ----------------------------------------------------------------

    def consume(self, cycles: int) -> None:
        """Charge busy cycles for executing code."""
        self.time_cycles += cycles
        if self.end_cycles and self.time_cycles >= self.end_cycles:
            raise _SimulationFinished()

    def sleep_until_next_event(self) -> None:
        """Advance time to the next event, accounting the gap as sleep.

        When a pause horizon is set (lockstep co-simulation), the sleep is
        segmented: the node dozes up to the horizon, parks at the pause
        gate, and — once the scheduler grants a new horizon — *continues
        sleeping* without returning to the program, so intermediate
        horizons never change what the program executes or is charged.
        With no horizon set (``pause_cycles == 0``) this is exactly the
        thread-free :meth:`run` behaviour.
        """
        while True:
            # Single batch-processing site: every due event — scheduled
            # locally or inserted by a peer while the node was parked at
            # the gate — is opened here in heap (band) order, and the
            # program wakes only once an interrupt is actually delivered.
            # Waking on "some event ran" would make the wake count depend
            # on how pause horizons interleaved with event times, which
            # differs between grant schedules.
            self._run_due_events()
            if self.pending_interrupts and self._can_deliver():
                self._deliver_interrupts()
                return
            if not self._event_queue:
                if self.pause_cycles:
                    # Nothing local will wake the node, but a peer still
                    # can: doze up to the horizon and wait for a grant.
                    if self.pause_cycles > self.time_cycles:
                        self.sleep_cycles += \
                            self.pause_cycles - self.time_cycles
                        self.time_cycles = self.pause_cycles
                    self._sleep_gate()
                    continue
                # Nothing will ever wake the node again: sleep to the end.
                target = self.end_cycles or self.time_cycles + self.clock_hz
                self.sleep_cycles += max(0, target - self.time_cycles)
                self.time_cycles = target
                raise _SimulationFinished()
            next_time = self._event_queue[0][0]
            if self.pause_cycles and self.pause_cycles <= next_time:
                # Park *before* opening the batch at the horizon cycle.  A
                # peer may still hand over a delivery landing exactly on
                # that cycle; it must join the batch before the batch is
                # processed, or same-cycle collision winners would depend
                # on the grant schedule rather than on the band order.
                if self.pause_cycles > self.time_cycles:
                    self.sleep_cycles += self.pause_cycles - self.time_cycles
                    self.time_cycles = self.pause_cycles
                if self.end_cycles and self.time_cycles >= self.end_cycles:
                    raise _SimulationFinished()
                self._sleep_gate()
                continue
            if next_time > self.time_cycles:
                self.sleep_cycles += next_time - self.time_cycles
                self.time_cycles = next_time
            if self.end_cycles and self.time_cycles >= self.end_cycles:
                raise _SimulationFinished()

    def _sleep_gate(self) -> None:
        """Park at the pause gate while flagged as idle (asleep).

        Drops the horizon sentinels at the head of the queue first, so the
        head is the node's earliest real event (a timer or a queued
        delivery) for :meth:`next_action_cycles`.  Every sentinel queued
        on a node parked asleep is spent: the one at its clock was reached,
        and a later one belongs to a horizon that :meth:`shrink_pause`
        superseded.  Each sentinel is pushed once and popped at most once,
        so this costs amortised O(1) per grant.
        """
        queue = self._event_queue
        while queue and queue[0][2] is _noop:
            heapq.heappop(queue)
        self._paused_in_sleep = True
        try:
            self._pause_gate()
        finally:
            self._paused_in_sleep = False

    # -- interrupts ----------------------------------------------------------------------

    def raise_interrupt(self, vector: str) -> None:
        if vector not in self.program.interrupt_vectors:
            return
        if vector not in self.pending_interrupts:
            self.pending_interrupts.append(vector)

    def _can_deliver(self) -> bool:
        return (self.interrupts_enabled and not self.in_interrupt
                and self.atomic_depth == 0)

    def _deliver_interrupts(self) -> None:
        while self.pending_interrupts and self._can_deliver():
            vector = self.pending_interrupts.popleft()
            handler = self.program.interrupt_vectors.get(vector)
            if handler is None:
                continue
            self.in_interrupt = True
            self.interrupts_delivered += 1
            self.consume(self.costs.interrupt_overhead_cycles())
            try:
                self.interpreter.call(handler, [])
            finally:
                self.in_interrupt = False

    def poll(self) -> None:
        """Between-statement housekeeping: fire due events, deliver interrupts.

        Poll points are also the engine-agnostic pause points: when a
        horizon is set, a sentinel event at the horizon makes the engines'
        events-due fast path call :meth:`poll` even in a compute loop, and
        the gate below parks the execution thread until the lockstep
        scheduler grants a new horizon.
        """
        if self.pause_cycles and self.time_cycles >= self.pause_cycles:
            # Park *before* opening the due-event batch (the sleep loop
            # does the same).  Execution overshoots the horizon by part of
            # one statement, and a peer may still insert a delivery due at
            # or below the overshot clock; gating first lets every such
            # arrival join the batch, which then runs below in band order
            # — the identical batch however the grants were cut.
            self._pause_gate()
        if self._event_queue and self._event_queue[0][0] <= self.time_cycles:
            self._run_due_events()
        if self.pending_interrupts and self._can_deliver():
            self._deliver_interrupts()

    # -- builtins -------------------------------------------------------------------------

    def call_builtin(self, name: str, args: list[RuntimeValue]) -> RuntimeValue:
        builtin = self.program.lookup_builtin(name)
        if builtin is not None:
            self.consume(builtin.cycles)
        if name == "__hw_read8":
            return self.bus.read(int(args[0]), 1) & 0xFF
        if name == "__hw_read16":
            return self.bus.read(int(args[0]), 2) & 0xFFFF
        if name == "__hw_write8":
            self.bus.write(int(args[0]), 1, int(args[1]) & 0xFF)
            return 0
        if name == "__hw_write16":
            self.bus.write(int(args[0]), 2, int(args[1]) & 0xFFFF)
            return 0
        if name == "__sleep":
            self.sleep_until_next_event()
            return 0
        if name == "__enable_interrupts":
            self.interrupts_enabled = True
            return 0
        if name == "__disable_interrupts":
            self.interrupts_enabled = False
            return 0
        if name == "__irq_save":
            state = 1 if self.interrupts_enabled else 0
            self.interrupts_enabled = False
            return state
        if name == "__irq_restore":
            self.interrupts_enabled = bool(int(args[0]))
            return 0
        if name == "__halt":
            code = int(args[0]) if args else 0
            raise NodeHalted(code, self.failures[-1].message if self.failures else "")
        if name == "__bounds_ok":
            pointer = args[0]
            size = int(args[1])
            if is_null(pointer) or not isinstance(pointer, Pointer):
                return 0
            return 1 if pointer.in_bounds(size) else 0
        if name == "__align_ok":
            return 1
        if name == "__error_report":
            message = ""
            if isinstance(args[0], Pointer):
                message = self.memory.read_c_string(args[0])
            self.failures.append(FailureRecord(message, None, self.time_cycles))
            return 0
        if name == "__error_report_id":
            flid = int(args[0])
            self.failures.append(FailureRecord(f"flid {flid}", flid, self.time_cycles))
            return 0
        raise KeyError(f"unknown builtin {name!r}")

    # -- running --------------------------------------------------------------------------

    def boot(self) -> None:
        """Allocate and initialize global memory (done once before running)."""
        self.memory.initialize_globals(self.program.iter_globals(),
                                       self.costs.platform.pointer_bytes)
        local_address = self.memory.global_object("TOS_LOCAL_ADDRESS")
        if local_address is not None:
            self.memory.write(Pointer(local_address, 0), ty.UINT16, self.node_id)

    def run(self, seconds: float = 1.0) -> None:
        """Run the node to completion on the calling thread.

        The thread-free single-node reference: no horizon is ever set, so
        a lone node under :meth:`~repro.avrora.network.Network.run` must
        match it byte for byte.
        """
        self.pause_cycles = 0
        self.end_cycles = self.time_cycles + int(seconds * self.clock_hz)
        if not self.memory.objects:
            self.boot()
        try:
            self.interpreter.call(self.program.entry, [])
        except _SimulationFinished:
            return
        except NodeHalted as halt:
            self.halted = True
            self.halt_code = halt.code
            # A halted node idles (asleep) for the rest of the simulation.
            if self.end_cycles > self.time_cycles:
                self.sleep_cycles += self.end_cycles - self.time_cycles
                self.time_cycles = self.end_cycles
            return
        except MemoryError_ as fault:
            raise SafetyFault(str(fault)) from fault

    # -- resumable execution (lockstep co-simulation) -----------------------------

    def begin_run(self, seconds: float) -> None:
        """Arm the node for a resumable run of ``seconds`` simulated time."""
        self.end_cycles = self.time_cycles + int(seconds * self.clock_hz)
        if not self.memory.objects:
            self.boot()
        if self._exec_thread is None or not self._exec_thread.is_alive():
            # A fresh run (or a re-run after a completed one, which
            # re-enters the program's entry point like :meth:`run`).
            self._exec_thread = None
            self._status = "idle"
        self.pause_cycles = 0

    def run_until(self, horizon_cycles: int) -> str:
        """Advance the node until its local clock reaches ``horizon_cycles``.

        The program runs on a dedicated execution thread in strict
        ping-pong with the caller: exactly one of the two is ever runnable,
        so node state needs no locking.  The thread parks at poll points
        (and inside segmented sleeps) once the horizon is reached, keeping
        its full execution state — machine frames, interrupt context,
        half-run handlers — alive for the next grant.

        Returns the node's status: ``"paused"`` (horizon reached),
        ``"finished"`` (simulated time exhausted, or the node halted),
        or ``"returned"`` (the program's entry returned).  Errors raised
        on the execution thread (e.g. :class:`SafetyFault` for a null
        dereference) re-raise here, on the caller.
        """
        if self._status in ("finished", "returned", "error"):
            return self._status
        horizon = max(int(horizon_cycles), self.time_cycles + 1)
        if horizon >= self.end_cycles:
            self.pause_cycles = 0
        else:
            self.pause_cycles = horizon
            heapq.heappush(self._event_queue,
                           (horizon, next(self._event_seq), _noop))
        self._status = "running"
        if self._exec_thread is None:
            self._exec_thread = threading.Thread(
                target=self._exec_main, daemon=True,
                name=f"avrora-node-{self.node_id}")
            self._exec_thread.start()
        else:
            self._resume.release()
        self._paused.acquire()
        if self._run_error is not None:
            error, self._run_error = self._run_error, None
            self._status = "error"
            raise error
        return self._status

    def abort_run(self) -> None:
        """Tear down a paused execution thread (e.g. after a peer failed)."""
        thread = self._exec_thread
        if thread is None or not thread.is_alive():
            return
        self._abort = True
        try:
            self._resume.release()
            self._paused.acquire(timeout=10.0)
        finally:
            self._abort = False
        self._run_error = None

    def next_action_cycles(self) -> Optional[int]:
        """Earliest local time at which this node could *initiate* anything.

        The lockstep scheduler uses this for lookahead: a node parked in
        its sleep loop cannot act before its next real event (or an
        undelivered interrupt), while a node paused mid-computation can
        act as soon as it resumes.  :meth:`_sleep_gate` dropped the spent
        horizon sentinels before parking, so the queue head *is* that
        event — a local timer or a queued delivery — and the probe stays
        O(1).  ``None`` means the node is idle with an empty queue — only
        external input can ever wake it.
        """
        if self._paused_in_sleep and not self.pending_interrupts:
            if self._event_queue:
                return max(self.time_cycles, self._event_queue[0][0])
            return None
        return self.time_cycles

    def shrink_pause(self, horizon_cycles: int) -> None:
        """Pull the pause horizon in (called on the execution thread).

        The network invokes this when a transmission during the current
        slice makes an earlier peer reaction possible than the horizon
        assumed: the grant may reach a sleeping receiver's next wake-up,
        long past its reply to this packet.  Runs on the node's own
        execution thread, so mutating the queue and horizon is race-free.
        """
        horizon = max(int(horizon_cycles), self.time_cycles + 1)
        if horizon >= self.end_cycles:
            return
        if self.pause_cycles and self.pause_cycles <= horizon:
            return
        self.pause_cycles = horizon
        heapq.heappush(self._event_queue,
                       (horizon, next(self._event_seq), _noop))

    def _pause_gate(self) -> None:
        """Park the execution thread until the scheduler grants a horizon."""
        while (self.pause_cycles and self.time_cycles >= self.pause_cycles
               and not self._abort):
            self._status = "paused"
            self._paused.release()
            self._resume.acquire()
        if self._abort:
            raise _SimulationFinished()

    def _exec_main(self) -> None:
        """Execution-thread body: the :meth:`run` epilogue, resumable."""
        try:
            self.interpreter.call(self.program.entry, [])
            self._status = "returned"
        except _SimulationFinished:
            self._status = "finished"
        except NodeHalted as halt:
            self.halted = True
            self.halt_code = halt.code
            if self.end_cycles > self.time_cycles:
                self.sleep_cycles += self.end_cycles - self.time_cycles
                self.time_cycles = self.end_cycles
            self._status = "finished"
        except MemoryError_ as fault:
            self._run_error = SafetyFault(str(fault))
        except BaseException as error:  # e.g. CausalityError
            self._run_error = error
        finally:
            self._paused.release()


def _noop() -> None:
    """Horizon sentinel callback: wakes the poll fast path, does nothing."""
