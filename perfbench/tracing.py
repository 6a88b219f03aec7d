"""Outside-in per-layer tracing: timed wrappers around public entry points.

The benchmark never edits the program to trace it.  For one traced run it
replaces a fixed list of entry points (:func:`entry_points`) with wrappers
that open a span around the original call, and restores every original
afterwards.  Spans nest: a layer's *self time* is its span's duration minus
the time its child spans cover.

Node programs run on their own execution threads in strict ping-pong with
the scheduler thread (``Node.run_until``), so a span opened on a thread with
no open span of its own (a lazy ``CodeCache.plan_for`` inside a grant, a
reboot fault's memory restore) is the child of the span the driving
thread is blocked in.  That is how lowering is subtracted from execution
even though the two happen on different threads.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Build passes by registry name, and the layer each one reports as.
PASS_LAYERS = {
    "nesc.flatten": "nesc.flatten",
    "nesc.hwrefactor": "nesc.hwrefactor",
    "ccured.cure": "ccured.cure",
    "ccured.optimize": "ccured.optimize",
    "inline": "cxprop.inline",
    "cxprop": "cxprop",
    "cxprop.facts": "cxprop.facts",
    "cxprop.fold": "cxprop.fold",
    "cxprop.copyprop": "cxprop.copyprop",
    "cxprop.atomic": "cxprop.atomic",
    "cxprop.dce": "cxprop.dce",
    "gcc": "backend.gcc",
    "image": "backend.image",
}

#: Name of the root span of a traced iteration; its self time is the part
#: of the iteration no named layer accounts for.
ROOT = "unattributed"


class _Frame:
    __slots__ = ("name", "start", "children", "parent")

    def __init__(self, name: str, parent: Optional["_Frame"]):
        self.name = name
        self.parent = parent
        self.children = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Collects per-layer self time, call counts and layer counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: Span stack of the thread that installed the wrappers.
        self._driving: Optional[list] = None
        self._installed: list[tuple[object, str, object]] = []
        #: layer name -> {"s": self seconds, "calls": n, <counter>: n}
        self.layers: dict[str, dict[str, float]] = {}

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._driving:
            parent = self._driving[-1]
        else:
            parent = None
        frame = _Frame(name, parent)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        elapsed = time.perf_counter() - frame.start
        self._stack().pop()
        if frame.parent is not None:
            frame.parent.children += elapsed
        layer = self.layer(frame.name)
        layer["s"] += elapsed - frame.children
        layer["calls"] += 1
        return elapsed

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield frame
        finally:
            self.end(frame)

    def layer(self, name: str) -> dict[str, float]:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = {"s": 0.0, "calls": 0}
        return layer

    def count(self, name: str, key: str, n: float = 1) -> None:
        layer = self.layer(name)
        layer[key] = layer.get(key, 0) + n

    def reset(self) -> None:
        self.layers = {}

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, point: "EntryPoint") -> None:
        owner = point.resolve()
        original = owner.__dict__[point.attr]
        tracer = self
        layer_of, before, after = point.layer, point.before, point.after

        def traced(*args, **kwargs):
            name = layer_of(args) if callable(layer_of) else layer_of
            if name is None:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                after(tracer, name, args, result, state)
            return result

        traced.__wrapped__ = original
        setattr(owner, point.attr, traced)
        self._installed.append((owner, point.attr, original))

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block.

        The thread entering the block becomes the driving thread whose open
        span adopts spans started on node execution threads.
        """
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        self._driving = self._stack()
        try:
            for point in entry_points():
                self._wrap(point)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)
            self._driving = None


class EntryPoint:
    """One wrapped callable: ``module:Class.attr`` or ``module:attr``.

    ``layer`` is the span name, or a function of the call's positional
    arguments returning the name (None calls straight through, untraced).
    ``before(args)`` captures state ahead of the call; ``after(tracer,
    layer, args, result, state)`` records counters once the span closed.
    """

    def __init__(self, target: str, layer, before: Optional[Callable] = None,
                 after: Optional[Callable] = None, owner=None):
        self.target = target
        module, _, path = target.partition(":")
        self.module = module
        self.owner_path, _, self.attr = path.rpartition(".")
        self.layer = layer
        self.before = before
        self.after = after
        self._owner = owner

    def resolve(self):
        """The class or module whose ``__dict__`` holds the attribute.

        Raises ``LookupError`` naming the target when it has gone, so a
        rename upstream fails loudly instead of dropping a layer.
        """
        owner = self._owner
        if owner is None:
            owner = importlib.import_module(self.module)
            for part in filter(None, self.owner_path.split(".")):
                owner = getattr(owner, part, None)
                if owner is None:
                    break
        if owner is None or self.attr not in vars(owner):
            raise LookupError(f"traced entry point {self.target} is missing")
        return owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EntryPoint {self.target} -> {self.layer}>"


# -- counters -------------------------------------------------------------------


def _pass_changed(tracer, layer, args, outcome, state):
    if outcome.changed:
        tracer.count(layer, "changed")
    if layer == "cxprop":
        tracer.count(layer, "rounds", outcome.detail.rounds)


def _cache_counts(args):
    cache = args[0]
    return cache.lowerings, cache.plan_hits


def _plan_for_after(tracer, layer, args, plan, state):
    cache = args[0]
    tracer.count(layer, "lowerings", cache.lowerings - state[0])
    tracer.count(layer, "plan_hits", cache.plan_hits - state[1])


def _statements(args):
    return args[0].interpreter.statements_executed


def _run_until_after(tracer, layer, args, status, before):
    tracer.count(layer, "statements",
                 args[0].interpreter.statements_executed - before)


def _network_after(tracer, layer, args, result, state):
    stats = args[0].superblock_stats()
    tracer.count(layer, "fused_statements", stats["fused_statements"])
    tracer.count(layer, "statements_total", stats["statements_total"])


def _golden_counts(args):
    runner = args[0]
    return runner.golden_runs, runner.golden_hits


def _golden_after(tracer, layer, args, result, state):
    runner = args[0]
    tracer.count(layer, "runs", runner.golden_runs - state[0])
    tracer.count(layer, "hits", runner.golden_hits - state[1])


def _scenario_run_layer(args):
    # ``ScenarioRunner._run(spec, program, injector)``: fault-free runs
    # belong to the golden layer that called them.
    injector = args[3] if len(args) > 3 else None
    return None if injector is None else "scenarios.faulted"


def _pass_entry_points() -> list[EntryPoint]:
    import repro.toolchain.lower  # noqa: F401  (registers every pass)
    from repro.toolchain.passes import PASS_REGISTRY

    points = []
    for name, layer in PASS_LAYERS.items():
        factory = PASS_REGISTRY.get(name)
        if factory is None:
            raise LookupError(f"build pass {name!r} is no longer registered")
        points.append(EntryPoint(f"{factory.__module__}:{factory.__name__}.run",
                                 layer, after=_pass_changed, owner=factory))
    return points


def entry_points() -> list[EntryPoint]:
    """Every wrapped entry point, in installation order."""
    return _pass_entry_points() + [
        EntryPoint("repro.cminor.program:Program.clone", "cminor.clone"),
        EntryPoint("repro.toolchain.sweep:SweepRunner.run",
                   "toolchain.sweep.other"),
        EntryPoint("repro.api.workbench:Workbench.build",
                   "api.workbench.build"),
        EntryPoint("repro.api.workbench:Workbench.build_result",
                   "api.workbench.build"),
        EntryPoint("repro.api.workbench:Workbench.simulate",
                   "api.workbench.simulate"),
        EntryPoint("repro.avrora.engine:CodeCache.plan_for", "avrora.lower",
                   before=_cache_counts, after=_plan_for_after),
        EntryPoint("repro.avrora.node:Node.run_until", "avrora.exec",
                   before=_statements, after=_run_until_after),
        EntryPoint("repro.avrora.network:Network.run", "avrora.kernel",
                   after=_network_after),
        EntryPoint("repro.avrora.node:Node.boot", "avrora.node.boot"),
        # A node's state is its memory plus its device bus; the reboot
        # fault checkpoints and rolls back both directly.
        EntryPoint("repro.avrora.memory:MemorySystem.snapshot",
                   "avrora.node.snapshot"),
        EntryPoint("repro.avrora.devices:DeviceBus.snapshot",
                   "avrora.node.snapshot"),
        EntryPoint("repro.avrora.memory:MemorySystem.restore",
                   "avrora.node.restore"),
        EntryPoint("repro.avrora.devices:DeviceBus.restore",
                   "avrora.node.restore"),
        EntryPoint("repro.scenarios.runner:ScenarioRunner.run",
                   "scenarios.run"),
        EntryPoint("repro.scenarios.runner:ScenarioRunner.golden_fingerprints",
                   "scenarios.golden", before=_golden_counts,
                   after=_golden_after),
        EntryPoint("repro.scenarios.runner:ScenarioRunner._run",
                   _scenario_run_layer),
        EntryPoint("repro.scenarios.injector:ScenarioInjector.arm",
                   "scenarios.arm"),
        EntryPoint("repro.scenarios.runner:classify", "scenarios.classify"),
    ]
