"""The backend layer's registered pipeline passes."""

from __future__ import annotations

from typing import Optional

from repro.backend.gcc_opt import gcc_optimize
from repro.backend.image import build_image
from repro.backend.target import cost_model_for
from repro.cminor.program import Program
from repro.toolchain.passes import Pass, PassContext, PassOutcome, register_pass


@register_pass("gcc")
class GccOptimizePass(Pass):
    """The GCC-strength backend optimizations (last transformation stage)."""

    name = "gcc"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "gcc needs a program"
        report = gcc_optimize(program)
        changed = (report.constants_folded + report.checks_removed +
                   report.branches_folded + report.functions_removed)
        return PassOutcome(changed=changed, detail=report)


@register_pass("image")
class BuildImagePass(Pass):
    """Lower the program to a memory image via the platform cost model.

    The image is stored on the context (``ctx.image``) and is also the
    pass's detail report, so it lands in the build trace.
    """

    name = "image"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "image needs a program"
        image = build_image(program, cost_model_for(program.platform))
        ctx.image = image
        return PassOutcome(changed=0, detail=image)
