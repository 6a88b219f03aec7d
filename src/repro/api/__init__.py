"""``repro.api`` v1 — the declarative, cache-routed Workbench API.

The paper's whole evaluation is "N apps × M variants, build, then measure";
this package makes that the shape of the public surface:

* **Specs** (:mod:`repro.api.specs`) — frozen, JSON-round-trippable request
  dataclasses (:class:`BuildSpec`, :class:`SweepSpec`, :class:`SimSpec`)
  with stable content keys derived from the pass list's cache keys.
* **Workbench** (:mod:`repro.api.workbench`) — the single execution engine:
  every build routes through the sweep runner's prefix-sharing front-end
  cache, results are memoized by content key for the session, and
  ``sweep(..., processes=N)`` spreads a sweep over N worker processes.
* **Records** (:mod:`repro.api.records`) — typed results
  (:class:`BuildRecord`, :class:`SimRecord`) with ``to_dict``/``from_dict``
  so they survive process boundaries and can be written to disk.
* **CLI** (:mod:`repro.api.cli`) — ``python -m repro`` with ``list``,
  ``build``, ``sweep``, ``simulate``, ``scenarios``, ``figures`` and
  ``gc`` subcommands emitting JSON or aligned tables.
* **Store** (:mod:`repro.store`) — a persistent content-addressed
  :class:`ArtifactStore` the workbench routes through (``--store DIR``):
  identical specs are served from disk in microseconds, with zero passes
  executed.

Example::

    from repro.api import BuildSpec, SweepSpec, Workbench

    bench = Workbench()
    record = bench.build(BuildSpec(app="BlinkTask_Mica2",
                                   variant="safe-optimized"))
    print(record.code_bytes, record.checks_removed)
    sweep = bench.sweep(SweepSpec(apps=("Surge_Mica2", "Ident_Mica2"),
                                  variants=("baseline", "safe-optimized")))
"""

from repro.api.records import BuildRecord, ScenarioRecord, SimRecord
from repro.api.specs import (
    SCHEMA_VERSION,
    BuildSpec,
    ScenarioSpec,
    SimSpec,
    SweepSpec,
)
from repro.api.workbench import Workbench, run_network
from repro.scenarios.faults import FaultPlan
from repro.store import ArtifactStore

__all__ = [
    "BuildSpec",
    "SweepSpec",
    "SimSpec",
    "ScenarioSpec",
    "FaultPlan",
    "BuildRecord",
    "SimRecord",
    "ScenarioRecord",
    "Workbench",
    "run_network",
    "SCHEMA_VERSION",
    "ArtifactStore",
]
