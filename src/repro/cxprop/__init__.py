"""cXprop: the whole-program dataflow analyzer and optimizer.

cXprop is the aggressive, concurrency-aware, whole-program optimizer the
paper uses to claw back the costs CCured introduces.  The reproduction has
the same architecture as the original:

* pluggable abstract domains for integer values
  (:mod:`repro.cxprop.domains`),
* a flow-sensitive abstract interpreter over each function
  (:mod:`repro.cxprop.dataflow`) on top of whole-program facts — global
  invariants, mod-sets, and the set of interrupt-shared variables, which
  follows pointers where nesC's race analysis does not
  (:mod:`repro.cxprop.interproc`),
* a source-to-source function inliner (:mod:`repro.cxprop.inline`),
* transformation passes: constant/branch folding (:mod:`repro.cxprop.fold`),
  copy propagation (:mod:`repro.cxprop.copyprop`), aggressive dead code and
  dead data elimination (:mod:`repro.cxprop.dce`), and atomic-section
  optimization (:mod:`repro.cxprop.atomic_opt`),
* a driver that iterates the passes to a fixpoint
  (:mod:`repro.cxprop.driver`).
"""

from repro.cxprop.driver import CxpropConfig, CxpropReport, optimize_program
from repro.cxprop.inline import InlineReport, inline_program
from repro.cxprop.dce import DceReport, eliminate_dead_code

__all__ = [
    "CxpropConfig",
    "CxpropReport",
    "optimize_program",
    "InlineReport",
    "inline_program",
    "DceReport",
    "eliminate_dead_code",
]
