"""The cXprop layer's registered pipeline passes.

The historical cXprop driver loop — recompute whole-program facts, fold,
propagate copies, optimize atomic sections, eliminate dead code, repeat to a
fixpoint — is decomposed into one pass per transformation plus a facts pass,
combined by :class:`CxpropPass` (a ``FixpointPass``).  The facts computed at
the top of each round are shared by the round's passes through the context's
artifacts, preserving the original driver's semantics exactly (fold and
copy propagation of one round both see the facts computed *before* the
round's mutations).

The source-to-source inliner is registered here too (it lives in this
package), but remains a separate pipeline stage, as in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.cminor.program import Program
from repro.cminor.typecheck import check_program
from repro.cxprop.atomic_opt import optimize_atomic_sections
from repro.cxprop.copyprop import propagate_copies
from repro.cxprop.dce import eliminate_dead_code
from repro.cxprop.domains import make_domain
from repro.cxprop.driver import CxpropConfig, CxpropReport, resolve_pointer_size
from repro.cxprop.fold import fold_program
from repro.cxprop.inline import InlineConfig, inline_program
from repro.cxprop.interproc import compute_whole_program_facts
from repro.toolchain.passes import (
    FixpointPass,
    Pass,
    PassContext,
    PassOutcome,
    register_pass,
)

#: Context artifact key under which the round's whole-program facts live.
FACTS_KEY = "cxprop.facts"


@register_pass("inline")
class InlinePass(Pass):
    """The source-to-source function inliner (separate stage, Section 2.1)."""

    name = "inline"

    def __init__(self, config: Optional[InlineConfig] = None):
        self.config = config

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "inline needs a program"
        report = inline_program(program, self.config)
        changed = (report.calls_inlined + report.calls_hoisted +
                   report.functions_removed)
        return PassOutcome(changed=changed, detail=report)

    def cache_key(self, variant=None) -> str:
        if self.config is None:
            return f"{self.name}[default]"
        return f"{self.name}[{self.config.size_limit}," \
               f"{self.config.caller_limit}," \
               f"{int(self.config.inline_single_call_site)}]"


@register_pass("cxprop.facts")
class CxpropFactsPass(Pass):
    """Recompute the whole-program facts consumed by the round's passes."""

    name = "cxprop.facts"

    def __init__(self, config: Optional[CxpropConfig] = None):
        self.config = config or CxpropConfig()

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "cxprop.facts needs a program"
        pointer_size = resolve_pointer_size(program, self.config)
        facts = compute_whole_program_facts(program, pointer_size)
        ctx.artifacts[FACTS_KEY] = facts
        return PassOutcome(changed=0, detail=None)


@register_pass("cxprop.fold")
class FoldPass(Pass):
    """Constant propagation and branch folding over the round's facts."""

    name = "cxprop.fold"

    def __init__(self, config: Optional[CxpropConfig] = None):
        self.config = config or CxpropConfig()
        self.domain = make_domain(self.config.domain)

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "cxprop.fold needs a program"
        facts = ctx.artifacts[FACTS_KEY]
        report = fold_program(program, facts, self.domain)
        return PassOutcome(changed=report.total, detail=report)


@register_pass("cxprop.copyprop")
class CopyPropPass(Pass):
    """Copy propagation (skipping address-taken locals from the facts)."""

    name = "cxprop.copyprop"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "cxprop.copyprop needs a program"
        facts = ctx.artifacts[FACTS_KEY]
        report = propagate_copies(program, facts.address_taken_locals)
        return PassOutcome(changed=report.copies_propagated, detail=report)


@register_pass("cxprop.atomic")
class AtomicOptPass(Pass):
    """Atomic-section optimization (nesting removal, IRQ-save avoidance)."""

    name = "cxprop.atomic"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "cxprop.atomic needs a program"
        report = optimize_atomic_sections(program)
        return PassOutcome(changed=report.nested_removed, detail=report)


@register_pass("cxprop.dce")
class DcePass(Pass):
    """Aggressive dead code and dead data elimination."""

    name = "cxprop.dce"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        assert program is not None, "cxprop.dce needs a program"
        report = eliminate_dead_code(program)
        return PassOutcome(changed=report.total, detail=report)


@register_pass("cxprop")
class CxpropPass(FixpointPass):
    """The whole cXprop stage: the round passes iterated to a fixpoint."""

    def __init__(self, config: Optional[CxpropConfig] = None):
        self.config = config or CxpropConfig()
        body: list[Pass] = [CxpropFactsPass(self.config)]
        if self.config.enable_fold:
            body.append(FoldPass(self.config))
        if self.config.enable_copyprop:
            body.append(CopyPropPass())
        if self.config.enable_atomic_opt:
            body.append(AtomicOptPass())
        if self.config.enable_dce:
            body.append(DcePass())
        super().__init__("cxprop", body, max_rounds=self.config.max_rounds)

    def cache_key(self, variant=None) -> str:
        config = self.config
        enables = "".join(str(int(flag)) for flag in
                          (config.enable_fold, config.enable_copyprop,
                           config.enable_atomic_opt, config.enable_dce))
        return f"{self.name}[{config.domain},rounds={config.max_rounds}," \
               f"enables={enables},ptr={config.pointer_size}]"

    def run(self, program: Optional[Program], ctx: PassContext) -> PassOutcome:
        outcome = super().run(program, ctx)
        ctx.artifacts.pop(FACTS_KEY, None)
        check_program(program)
        return outcome

    def summarize(self, rounds: int,
                  round_details: list[dict[str, object]]) -> CxpropReport:
        report = CxpropReport(rounds=rounds)
        for details in round_details:
            fold = details.get("cxprop.fold")
            if fold is not None:
                report.fold.merge(fold)
            copyprop = details.get("cxprop.copyprop")
            if copyprop is not None:
                report.copyprop.copies_propagated += copyprop.copies_propagated
                report.copyprop.functions_touched += copyprop.functions_touched
            atomic = details.get("cxprop.atomic")
            if atomic is not None:
                report.atomic.nested_removed += atomic.nested_removed
                report.atomic.irq_saves_avoided += atomic.irq_saves_avoided
                report.atomic.always_atomic_functions |= \
                    atomic.always_atomic_functions
            dce = details.get("cxprop.dce")
            if dce is not None:
                report.dce.functions_removed += dce.functions_removed
                report.dce.globals_removed += dce.globals_removed
                report.dce.dead_stores_removed += dce.dead_stores_removed
                report.dce.locals_removed += dce.locals_removed
                report.dce.statements_removed += dce.statements_removed
        return report
