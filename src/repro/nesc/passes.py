"""The nesC layer's registered pipeline passes (front end of Figure 1)."""

from __future__ import annotations

from typing import Optional

from repro.cminor.program import Program
from repro.nesc.application import Application
from repro.nesc.flatten import flatten_application
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.toolchain.passes import Pass, PassContext, PassOutcome, register_pass


@register_pass("nesc.flatten")
class FlattenPass(Pass):
    """Run the nesC compiler: flatten the wired application into a program.

    This pass *produces* the context's program (``outcome.program``); it is
    always the first pass of a pipeline.  The type checker and the nesC
    concurrency analysis run inside flattening, exactly as in the original
    toolchain; the CIL-style loop normalization already happened in the
    parser.
    """

    name = "nesc.flatten"

    def __init__(self, suppress_norace: bool = True):
        self.suppress_norace = suppress_norace

    def cache_key(self, variant=None) -> str:
        return f"{self.name}[norace={int(self.suppress_norace)}]"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        app = ctx.application
        assert isinstance(app, Application), \
            "nesc.flatten needs ctx.application (a wired Application)"
        produced = flatten_application(app, suppress_norace=self.suppress_norace)
        return PassOutcome(changed=len(produced.functions),
                           detail=produced.summary(), program=produced)


@register_pass("nesc.hwrefactor")
class HwRefactorPass(Pass):
    """Rewrite constant-address hardware register accesses into helper calls."""

    name = "nesc.hwrefactor"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "nesc.hwrefactor needs a flattened program"
        report = refactor_hardware_accesses(program)
        return PassOutcome(changed=report.total, detail=report)
