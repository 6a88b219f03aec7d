"""The pass-manager layer: Figure 1 as declarative pass lists.

The paper's evaluation is dozens of builds — every figure is an N-app ×
M-variant sweep through the toolchain — so the stages are organized the way
LLVM-style compilers organize transformations: each stage is a :class:`Pass`
with a name, and a :class:`PassManager` executes a pass list, recording each
pass's wall time and change count in a :class:`BuildTrace`.

Layer modules register their passes here:

* ``repro.nesc.passes`` — ``nesc.flatten``, ``nesc.hwrefactor``
* ``repro.ccured.passes`` — ``ccured.cure``, ``ccured.optimize``
* ``repro.cxprop.passes`` — ``inline``, ``cxprop`` (a :class:`FixpointPass`
  over ``cxprop.facts``/``cxprop.fold``/``cxprop.copyprop``/
  ``cxprop.atomic``/``cxprop.dce``)
* ``repro.backend.passes`` — ``gcc``, ``image``

``repro.toolchain.lower`` compiles a :class:`BuildVariant` into a pass list;
``repro.toolchain.sweep`` runs pass lists for N×M builds over shared
front-end programs, and ``repro.toolchain.pipeline`` packages each executed
context as a build result.

The manager does no analysis invalidation of its own.  Each stage function
reports each function whose body it changed, as it changes it, through
``program.invalidate_analysis(name)`` (:mod:`repro.cminor.analysis_cache`),
so a stage behaves the same inside a manager and called directly, and every
other function keeps its memoized facts and its type-check record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.cminor.program import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.image import MemoryImage
    from repro.toolchain.config import BuildVariant

# ---------------------------------------------------------------------------
# Pass protocol and outcomes
# ---------------------------------------------------------------------------


@dataclass
class PassOutcome:
    """What one pass execution produced.

    Attributes:
        changed: Number of changes the pass made (0 = program untouched).
        detail: The pass's own report object (stage-specific, stored in the
            context's ``reports`` and in the :class:`BuildTrace`).
        program: Set when the pass *produced* a program (the nesC front end)
            rather than transforming the context's current one.
    """

    changed: int = 0
    detail: object = None
    program: Optional[Program] = None


class Pass:
    """One stage of the build pipeline.

    Subclasses set :attr:`name` (the registry/report identifier) and
    implement :meth:`run`, reporting each function they change to
    ``program.invalidate_analysis``.

    Attributes:
        name: Stable identifier used in traces, reports and the registry.
    """

    name: str = "pass"

    def run(self, program: Optional[Program], ctx: "PassContext") -> PassOutcome:
        raise NotImplementedError

    def cache_key(self, variant: Optional["BuildVariant"] = None) -> str:
        """Identity of this pass's effect for prefix sharing.

        Two pass-list prefixes with equal key sequences produce identical
        programs from the same input, so the sweep runner may build one and
        clone it for the others.  Passes whose behaviour depends on their
        configuration (or on the build variant) must fold those knobs into
        the key; the default is the bare pass name.
        """
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Pass registry
# ---------------------------------------------------------------------------

#: Registered pass factories by name.  Layer modules populate this via
#: :func:`register_pass`; ``repro.toolchain.lower`` imports the layer modules
#: so looking at ``registered_passes()`` after importing it shows the full
#: toolchain.
PASS_REGISTRY: dict[str, Callable[..., Pass]] = {}


def register_pass(name: str):
    """Class decorator registering a pass factory under ``name``."""

    def decorate(factory: Callable[..., Pass]) -> Callable[..., Pass]:
        if name in PASS_REGISTRY:
            raise ValueError(f"pass {name!r} registered twice")
        PASS_REGISTRY[name] = factory
        return factory

    return decorate


def create_pass(name: str, **kwargs) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        factory = PASS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown pass {name!r}; known: {registered_passes()}") \
            from None
    return factory(**kwargs)


def registered_passes() -> list[str]:
    return sorted(PASS_REGISTRY)


# ---------------------------------------------------------------------------
# Context and trace
# ---------------------------------------------------------------------------


@dataclass
class PassContext:
    """Shared state threaded through one build's pass list.

    Attributes:
        variant: The build variant being lowered (None for ad-hoc runs).
        application: The wired nesC application (input of the front end).
        label: Figure label for reports (defaults to the application name).
        program: The current whole program (None until the front end ran).
        image: The memory image (set by the ``image`` pass).
        reports: Per-pass detail reports keyed by pass name.
        artifacts: Scratch space for passes that communicate within a pass
            list (e.g. the cXprop round facts).
    """

    variant: Optional["BuildVariant"] = None
    application: Optional[object] = None
    label: str = ""
    program: Optional[Program] = None
    image: Optional["MemoryImage"] = None
    reports: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, object] = field(default_factory=dict)


@dataclass
class PassReport:
    """Uniform instrumentation record for one executed pass."""

    name: str
    changed: int
    wall_time_s: float
    detail: object = None


@dataclass
class BuildTrace:
    """Structured record of one trip through a pass list."""

    passes: list[PassReport] = field(default_factory=list)
    wall_time_s: float = 0.0

    def pass_names(self) -> list[str]:
        return [entry.name for entry in self.passes]


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

#: Process-wide count of passes *actually executed* by any PassManager.
#: Passes replayed from a prefix snapshot never run, so they never count —
#: which is what makes this the honest "did the store/front-end cache do
#: its job" probe behind ``Workbench.stats()["passes_executed"]``.
_EXECUTED_PASSES = 0


def executed_pass_count() -> int:
    """Total passes executed in this process (monotonic; compare deltas)."""
    return _EXECUTED_PASSES


class PassManager:
    """Executes a pass list, in order, over a :class:`PassContext`."""

    def __init__(self, passes: Sequence[Pass]):
        self.passes = list(passes)

    def run(self, ctx: PassContext) -> BuildTrace:
        global _EXECUTED_PASSES
        trace = BuildTrace()
        started = time.perf_counter()
        for pass_ in self.passes:
            _EXECUTED_PASSES += 1
            t0 = time.perf_counter()
            outcome = pass_.run(ctx.program, ctx)
            if outcome.program is not None:
                ctx.program = outcome.program
            trace.passes.append(PassReport(
                name=pass_.name, changed=outcome.changed,
                wall_time_s=time.perf_counter() - t0, detail=outcome.detail))
            ctx.reports[pass_.name] = outcome.detail
        trace.wall_time_s = time.perf_counter() - started
        return trace


# ---------------------------------------------------------------------------
# Fixpoint combinator
# ---------------------------------------------------------------------------


class FixpointPass(Pass):
    """Iterates a body of passes until a round changes nothing.

    This is the cXprop driver loop expressed as a combinator: each round
    runs the body passes in order, summing their change counts; iteration
    stops when a round reports zero changes or ``max_rounds`` is reached.

    Subclasses override :meth:`summarize` to aggregate the per-round details
    into a stage report (see ``repro.cxprop.passes.CxpropPass``).
    """

    def __init__(self, name: str, body: Sequence[Pass], max_rounds: int = 3):
        self.name = name
        self.body = list(body)
        self.max_rounds = max_rounds

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, f"{self.name}: no program to iterate on"
        rounds = 0
        total_changed = 0
        round_details: list[dict[str, object]] = []
        while rounds < self.max_rounds:
            changed = 0
            details: dict[str, object] = {}
            for pass_ in self.body:
                outcome = pass_.run(program, ctx)
                changed += outcome.changed
                details[pass_.name] = outcome.detail
            rounds += 1
            total_changed += changed
            round_details.append(details)
            if changed == 0:
                break
        return PassOutcome(changed=total_changed,
                           detail=self.summarize(rounds, round_details))

    def summarize(self, rounds: int,
                  round_details: list[dict[str, object]]) -> object:
        return {"rounds": rounds, "round_details": round_details}
