"""The predefined build variants used by the paper's evaluation.

``FIGURE3_VARIANTS`` are the seven bars of Figures 3(a)/3(b), in order, plus
the unsafe/unoptimized baseline they are measured against.
``FIGURE2_STRATEGIES`` are the four optimizer combinations of Figure 2; its
bars 2-4 are bars 4-6 of Figure 3, the same variants.

Each pass list has one registered name, so a session that builds several
figures builds each configuration once.
"""

from __future__ import annotations

from repro.ccured.config import MessageStrategy, RuntimeMode
from repro.toolchain.config import BuildVariant

#: The measurement baseline of every figure: the original, unsafe,
#: unoptimized TinyOS application, compiled by the stock toolchain.
BASELINE = BuildVariant(
    name="baseline",
    description="Unsafe, unoptimized (original TinyOS toolchain)",
    safe=False,
    run_ccured_optimizer=False,
)

#: Figure 3 bar 1: CCured with full file/line/function failure messages.
SAFE_VERBOSE = BuildVariant(
    name="safe-verbose",
    description="Safe, verbose error messages",
    message_strategy=MessageStrategy.VERBOSE,
)

#: Figure 3 bar 2: the same strings, explicitly placed in flash.
SAFE_VERBOSE_ROM = BuildVariant(
    name="safe-verbose-rom",
    description="Safe, verbose error messages in ROM",
    message_strategy=MessageStrategy.VERBOSE_ROM,
)

#: Figure 3 bar 3: CCured's --terse messages (source locations stripped).
SAFE_TERSE = BuildVariant(
    name="safe-terse",
    description="Safe, terse error messages",
    message_strategy=MessageStrategy.TERSE,
)

#: Figure 3 bar 4: failure messages compressed to 16-bit FLIDs.
SAFE_FLID = BuildVariant(
    name="safe-flid",
    description="Safe, error messages compressed as FLIDs",
    message_strategy=MessageStrategy.FLID,
)

#: Figure 3 bar 5: FLIDs plus cXprop (no separate inlining pass).
SAFE_FLID_CXPROP = BuildVariant(
    name="safe-flid-cxprop",
    description="Safe, FLIDs, optimized by cXprop",
    message_strategy=MessageStrategy.FLID,
    run_cxprop=True,
)

#: Figure 3 bar 6: FLIDs, inlined, then optimized by cXprop — the headline
#: Safe TinyOS configuration.
SAFE_OPTIMIZED = BuildVariant(
    name="safe-optimized",
    description="Safe, FLIDs, inlined and then optimized by cXprop",
    message_strategy=MessageStrategy.FLID,
    run_inliner=True,
    run_cxprop=True,
)

#: Figure 3 bar 7: the unsafe program given the same optimization budget.
UNSAFE_OPTIMIZED = BuildVariant(
    name="unsafe-optimized",
    description="Unsafe, inlined and then optimized by cXprop",
    safe=False,
    run_inliner=True,
    run_cxprop=True,
)

#: Section 2.3: the naive port of the desktop CCured runtime.
SAFE_FULL_RUNTIME = BuildVariant(
    name="safe-full-runtime",
    description="Safe, verbose messages, naive (desktop) runtime port",
    message_strategy=MessageStrategy.VERBOSE,
    runtime_mode=RuntimeMode.FULL,
)

#: The seven safe/optimized bars of Figures 3(a) and 3(b), in figure order.
FIGURE3_VARIANTS: list[BuildVariant] = [
    SAFE_VERBOSE,
    SAFE_VERBOSE_ROM,
    SAFE_TERSE,
    SAFE_FLID,
    SAFE_FLID_CXPROP,
    SAFE_OPTIMIZED,
    UNSAFE_OPTIMIZED,
]

# ---------------------------------------------------------------------------
# Figure 2: which optimizers get to remove CCured's checks.
# Every bar counts what was removed from the raw CCured instrumentation,
# matching the check counts printed above the figure.  Bar 1 lets gcc alone
# remove checks.  Bars 2-4 are bars 4-6 of Figure 3 (the same variants): the
# CCured optimizer, then cXprop, then inlining and cXprop, each before gcc.
# ---------------------------------------------------------------------------

FIG2_GCC_ONLY = BuildVariant(
    name="fig2-gcc",
    description="gcc",
    message_strategy=MessageStrategy.FLID,
    run_ccured_optimizer=False,
)

#: The four strategies of Figure 2, in figure order.
FIGURE2_STRATEGIES: list[BuildVariant] = [
    FIG2_GCC_ONLY,
    SAFE_FLID,
    SAFE_FLID_CXPROP,
    SAFE_OPTIMIZED,
]

_ALL_VARIANTS = {
    variant.name: variant
    for variant in [BASELINE, SAFE_FULL_RUNTIME, *FIGURE3_VARIANTS,
                    *FIGURE2_STRATEGIES]
}


def variant_by_name(name: str) -> BuildVariant:
    """Look up any predefined variant by its short name."""
    try:
        return _ALL_VARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown build variant {name!r}; known: "
                       f"{sorted(_ALL_VARIANTS)}") from None


def all_variant_names() -> list[str]:
    return sorted(_ALL_VARIANTS)
