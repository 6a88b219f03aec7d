"""Safe TinyOS reproduction.

A from-scratch Python implementation of the toolchain, substrates and
evaluation of *"Efficient Type and Memory Safety for Tiny Embedded Systems"*
(Regehr, Cooprider, Archer, Eide — 2006): a C-subset front end, the nesC
component model and a TinyOS 1.x component library, a CCured-style safety
transformer, the cXprop whole-program optimizer with pluggable abstract
domains, a GCC-strength backend with AVR/MSP430 cost models, and an
Avrora-style sensor-network simulator.

Start with :class:`repro.api.Workbench`, the one build API: it builds
applications under the paper's variants (``build``, ``build_result``,
``sweep``, ``build_unregistered``) on the caller's thread, simulates and
runs fault scenarios from declarative specs, and backs the
``python -m repro`` CLI.
"""

from repro.api import (
    BuildRecord,
    BuildSpec,
    FaultPlan,
    ScenarioRecord,
    ScenarioSpec,
    SimRecord,
    SimSpec,
    SweepSpec,
    Workbench,
)

__version__ = "1.2.0"

__all__ = [
    "Workbench",
    "BuildSpec",
    "SweepSpec",
    "SimSpec",
    "ScenarioSpec",
    "FaultPlan",
    "BuildRecord",
    "SimRecord",
    "ScenarioRecord",
    "__version__",
]
