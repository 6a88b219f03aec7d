"""The result of one build through the pipeline (Figure 1 of the paper).

A :class:`~repro.toolchain.config.BuildVariant` lowers to a pass list
(:mod:`repro.toolchain.lower`) that a
:class:`~repro.toolchain.passes.PassManager` executes in the paper's order:

1. the nesC compiler (flattening + concurrency analysis),
2. hardware-register access refactoring,
3. CCured (kind inference, check insertion, locks, runtime, messages/FLIDs),
4. CCured's own check optimizer,
5. the source-to-source inliner,
6. cXprop (a fixpoint pass over facts/fold/copyprop/atomic/dce),
7. the GCC-strength backend and image accounting.

:func:`result_from_context` repackages an executed pass context into the
:class:`BuildResult` the figures and benchmarks consume.  Builds run
through :class:`~repro.toolchain.sweep.SweepRunner`, which shares one
front-end program per application across variants; the build API on top
of it is :class:`repro.api.Workbench`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.backend.gcc_opt import GccOptReport
from repro.backend.image import MemoryImage
from repro.ccured.instrument import CCuredResult
from repro.ccured.runtime import RUNTIME_UNIT
from repro.cminor.program import Program
from repro.cxprop.driver import CxpropReport
from repro.cxprop.inline import InlineReport
from repro.nesc.hwrefactor import HwRefactorReport
from repro.toolchain.config import BuildVariant
from repro.toolchain.passes import BuildTrace, PassContext


@dataclass
class BuildResult:
    """Everything produced by building one application with one variant."""

    application: str
    variant: BuildVariant
    program: Program
    image: MemoryImage
    hw_refactor: Optional[HwRefactorReport] = None
    ccured: Optional[CCuredResult] = None
    ccured_optimizer_removed: int = 0
    inline: Optional[InlineReport] = None
    cxprop: Optional[CxpropReport] = None
    gcc: Optional[GccOptReport] = None
    trace: Optional[BuildTrace] = None

    @property
    def checks_inserted(self) -> int:
        return self.ccured.checks_inserted if self.ccured is not None else 0

    @property
    def checks_surviving(self) -> int:
        return len(self.image.surviving_checks)

    @property
    def checks_removed_fraction(self) -> float:
        """Fraction of CCured's checks eliminated by the build (Figure 2)."""
        inserted = self.checks_inserted
        if inserted == 0:
            return 0.0
        return (inserted - self.checks_surviving) / inserted

    def runtime_footprint(self) -> tuple[int, int]:
        """(ROM, RAM) bytes attributable to the CCured runtime library."""
        runtime_functions = {f.name for f in self.program.iter_functions()
                             if f.origin == RUNTIME_UNIT}
        runtime_globals = {v.name for v in self.program.iter_globals()
                           if v.origin == RUNTIME_UNIT}
        return self.image.footprint_of(runtime_functions, runtime_globals)

    def summary(self) -> dict[str, object]:
        return {
            "application": self.application,
            "variant": self.variant.name,
            "code_bytes": self.image.code_bytes,
            "ram_bytes": self.image.ram_bytes,
            "checks_inserted": self.checks_inserted,
            "checks_surviving": self.checks_surviving,
        }


def result_from_context(ctx: PassContext,
                        trace: Optional[BuildTrace] = None) -> BuildResult:
    """Assemble a :class:`BuildResult` from an executed pass context."""
    assert ctx.program is not None and ctx.image is not None, \
        "the pass list did not produce a program and an image"
    assert ctx.variant is not None
    ccured = ctx.reports.get("ccured.cure")
    if ccured is not None and ccured.program is not ctx.program:
        # The CCured stage ran on a shared prefix program (sweep runner):
        # re-point the report at this build's own program so the historical
        # ``result.ccured.program is result.program`` invariant holds.
        ccured = replace(ccured, program=ctx.program)
    # A finished program is held for as long as its session, and no pass
    # reads its memo again: drop it.
    ctx.program.invalidate_analysis()
    return BuildResult(
        application=ctx.label or ctx.program.name,
        variant=ctx.variant,
        program=ctx.program,
        image=ctx.image,
        hw_refactor=ctx.reports.get("nesc.hwrefactor"),
        ccured=ccured,
        ccured_optimizer_removed=ctx.reports.get("ccured.optimize", 0),
        inline=ctx.reports.get("inline"),
        cxprop=ctx.reports.get("cxprop"),
        gcc=ctx.reports.get("gcc"),
        trace=trace,
    )
