"""The Safe TinyOS toolchain: Figure 1 of the paper as a library.

The stages — nesC flattening, hardware register refactoring, CCured, the
inliner, cXprop, and the GCC-strength backend — are registered passes
(:mod:`repro.toolchain.passes`); a
:class:`~repro.toolchain.config.BuildVariant` lowers to a pass list
(:mod:`repro.toolchain.lower`), and ``SweepRunner`` runs N-app ×
M-variant builds with front-end sharing (:class:`repro.api.Workbench`,
the build API, routes every build through it).  The predefined variants in
:mod:`repro.toolchain.variants` correspond to the bars of Figures 2 and 3.
"""

from repro.toolchain.config import BuildVariant
from repro.toolchain.passes import (
    BuildTrace,
    FixpointPass,
    Pass,
    PassContext,
    PassManager,
    PassOutcome,
    PassReport,
    create_pass,
    register_pass,
    registered_passes,
)
from repro.toolchain.lower import (
    back_end_passes,
    front_end_passes,
    variant_pass_names,
    variant_passes,
)
from repro.toolchain.pipeline import BuildResult
from repro.toolchain.sweep import SweepBuild, SweepResult, SweepRunner
from repro.toolchain.variants import (
    BASELINE,
    FIGURE2_STRATEGIES,
    FIGURE3_VARIANTS,
    SAFE_OPTIMIZED,
    UNSAFE_OPTIMIZED,
    variant_by_name,
)
from repro.toolchain.contexts import duty_cycle_context

__all__ = [
    "BuildVariant",
    "BuildResult",
    "BuildTrace",
    "Pass",
    "PassContext",
    "PassManager",
    "PassOutcome",
    "PassReport",
    "FixpointPass",
    "register_pass",
    "registered_passes",
    "create_pass",
    "front_end_passes",
    "back_end_passes",
    "variant_passes",
    "variant_pass_names",
    "SweepRunner",
    "SweepResult",
    "SweepBuild",
    "BASELINE",
    "SAFE_OPTIMIZED",
    "UNSAFE_OPTIMIZED",
    "FIGURE2_STRATEGIES",
    "FIGURE3_VARIANTS",
    "variant_by_name",
    "duty_cycle_context",
]
