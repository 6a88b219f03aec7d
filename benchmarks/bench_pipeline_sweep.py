"""Batched build-sweep benchmark: front-end sharing vs. independent builds.

Runs the full Figure-3 sweep (every figure application × the unsafe
baseline + the seven figure variants) twice through the
:class:`~repro.toolchain.sweep.SweepRunner`:

* **unshared** — every (app, variant) build runs its complete pass list
  independently, in one pass manager with no snapshots,
* **shared** — one nesC front end per application, every variant built
  from a fast ``Program.clone()`` of the shared program.

Both sweeps must produce identical build summaries — the speedup has to
come for free.  Results are recorded in ``BENCH_pipeline.json`` at the
repository root (CI uploads it as an artifact); run this module directly
for a standalone measurement.

A second section, ``figures_session``, assembles Figures 2 and 3(a) in one
:class:`~repro.api.workbench.Workbench`, as ``repro figures`` does, and
records the builds it executed, the passes each stage ran, the programs it
cloned, the prefix snapshots it still holds at the end, how many functions
the type checks and call-graph builds walked against how many were present,
and its wall time.
Figure 2's last three bars are Figure 3's ``safe-flid``,
``safe-flid-cxprop`` and ``safe-optimized``, so the session must execute 9
builds per application (4 for Figure 2, then 5 new for Figure 3(a)).  It
snapshots each application where the registered variants diverge (the
front end, ``ccured.cure[flid]`` and that plus ``ccured.optimize``) and
resumes the other 8 builds from those snapshots: 11 clones per
application.  At the end it holds at most the front end, kept for
``safe-full-runtime``.  A function is checked again, or its callees walked
again, only if it changed since (:mod:`repro.cminor.analysis_cache`), so at
most ``MAX_REWALK_RATIO`` of the functions present at each type check and
each call-graph build may be walked.  These counts are asserted, the time
is not.  The
file's ``perfbench`` section holds parent/change medians measured with
``perfbench/run.py``; this module keeps it as it finds it.

Both sweep modes are timed best-of-``REPETITIONS`` (shared CI runners are
noisy; the minimum is the least-perturbed run).  Set ``REPRO_BENCH_SMOKE=1``
to sweep a three-app subset with one repetition (CI smoke mode) and
``REPRO_BENCH_MIN_SWEEP_SPEEDUP`` to tune the asserted floor (the default
is conservative so a loaded CI machine does not flake; an idle machine
shows ~1.6x on the full sweep).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

from repro.api.figures import figure2_table, figure3a_table
from repro.api.workbench import Workbench
from repro.cminor import callgraph
from repro.cminor.analysis_cache import ProgramAnalysisCache
from repro.cminor.program import Program
from repro.cminor.typecheck import TypeChecker
from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain.sweep import SweepRunner
from repro.toolchain.variants import (
    BASELINE,
    FIGURE2_STRATEGIES,
    FIGURE3_VARIANTS,
)

#: Asserted sweep speedup floor from front-end sharing.  The acceptance
#: target for an idle machine is 1.3x; the default stays below it so a
#: noisy CI machine does not flake, and the committed JSON carries the
#: full-run number.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SWEEP_SPEEDUP", "1.15"))

SMOKE_APPS = 3

#: Timed repetitions per sweep mode (best-of-N); 1 in smoke mode.
REPETITIONS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: Builds one session executes per application for Figures 2 and 3(a).
FIGURES_SESSION_BUILDS_PER_APP = 9

#: Programs that session clones per application: 3 prefix snapshots, and
#: 8 builds resumed from them.
FIGURES_SESSION_CLONES_PER_APP = 11

#: Prefix snapshots that session may still hold per application at its
#: end: the front end, which ``safe-full-runtime`` could resume from.
FIGURES_SESSION_SNAPSHOTS_PER_APP = 1

#: The stages whose executed passes ``figures_session`` reports.
FIGURES_SESSION_STAGES = ("ccured.cure", "inline", "cxprop", "gcc", "image")

#: Largest share of the functions present at the session's type checks
#: (and at its call-graph builds) that may be checked (have their callees
#: walked) again; re-checking every function gives 1.0.
MAX_REWALK_RATIO = 0.40


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _apps() -> list[str]:
    return FIGURE_APPS[:SMOKE_APPS] if _smoke() else list(FIGURE_APPS)


def _timed_sweep(apps: list[str], share_front_end: bool):
    runner = SweepRunner(apps, [BASELINE] + FIGURE3_VARIANTS,
                         share_front_end=share_front_end)
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start


def measure_figures_session(apps: list[str]) -> dict:
    """Figures 2 and 3(a) from one fresh Workbench: builds, passes, clones,
    held snapshots, functions checked and callees walked, time."""
    workbench = Workbench()
    counts = Counter()
    clone = Program.clone
    check, check_function = TypeChecker.check, TypeChecker.check_function
    fact, function_callees = ProgramAnalysisCache.fact, \
        callgraph.function_callees

    def counted_clone(program: Program) -> Program:
        counts["clones"] += 1
        return clone(program)

    def counted_check(checker: TypeChecker) -> None:
        counts["functions_at_checks"] += len(checker.program.functions)
        check(checker)

    def counted_check_function(checker: TypeChecker, func) -> None:
        counts["functions_checked"] += 1
        check_function(checker, func)

    def counted_fact(cache: ProgramAnalysisCache, compute, func):
        # Only ``build_call_graph`` asks for callees: one request per
        # function present at a call-graph build.
        if compute is counted_callees:
            counts["functions_at_call_graphs"] += 1
        return fact(cache, compute, func)

    def counted_callees(func):
        counts["callee_walks"] += 1
        return function_callees(func)

    Program.clone = counted_clone
    TypeChecker.check = counted_check
    TypeChecker.check_function = counted_check_function
    ProgramAnalysisCache.fact = counted_fact
    callgraph.function_callees = counted_callees
    try:
        start = time.perf_counter()
        figure2_table(workbench, apps)
        figure3a_table(workbench, apps)
        wall_s = time.perf_counter() - start
    finally:
        Program.clone = clone
        TypeChecker.check, TypeChecker.check_function = check, check_function
        ProgramAnalysisCache.fact = fact
        callgraph.function_callees = function_callees
    # A build resumed from a shared prefix carries that prefix's report
    # objects in its trace, so each distinct report is one executed pass.
    executed = Counter({
        id(report): report.name
        for app in apps
        for variant in [*FIGURE2_STRATEGIES, BASELINE, *FIGURE3_VARIANTS]
        for report in workbench.build_result(app, variant).trace.passes
    }.values())
    stats = workbench.stats()
    return {
        "applications": len(apps),
        "builds_executed": stats["builds_executed"],
        "passes_executed": stats["passes_executed"],
        "stage_passes_executed": {stage: executed[stage]
                                  for stage in FIGURES_SESSION_STAGES},
        "program_clones": counts["clones"],
        "snapshots_held": sum(
            len(snapshots) for snapshots in workbench._snapshots.values()),
        "functions_checked": counts["functions_checked"],
        "functions_at_checks": counts["functions_at_checks"],
        "callee_walks": counts["callee_walks"],
        "functions_at_call_graphs": counts["functions_at_call_graphs"],
        "wall_seconds": round(wall_s, 3),
    }


def measure() -> dict:
    """Run the sweep both ways (best-of-N, alternating) and return the table."""
    apps = _apps()
    variants = [BASELINE] + FIGURE3_VARIANTS
    repetitions = 1 if _smoke() else REPETITIONS

    # Warm up caches (imports, interned values, parser tables) so the first
    # measured sweep is not penalized.
    SweepRunner(apps[:1], variants[:2]).run()

    shared_times: list[float] = []
    unshared_times: list[float] = []
    shared = unshared = None
    for _ in range(repetitions):
        unshared, unshared_s = _timed_sweep(apps, share_front_end=False)
        unshared_times.append(unshared_s)
        shared, shared_s = _timed_sweep(apps, share_front_end=True)
        shared_times.append(shared_s)

    assert shared.summaries() == unshared.summaries(), \
        "front-end sharing changed build results"

    unshared_s = min(unshared_times)
    shared_s = min(shared_times)
    return {
        "applications": apps,
        "variants": [v.name for v in variants],
        "builds": len(shared),
        "repetitions": repetitions,
        "min_speedup_asserted": MIN_SPEEDUP,
        "unshared_seconds": round(unshared_s, 3),
        "shared_seconds": round(shared_s, 3),
        "unshared_seconds_all": [round(t, 3) for t in unshared_times],
        "shared_seconds_all": [round(t, 3) for t in shared_times],
        "speedup": round(unshared_s / shared_s, 3),
        "summaries_identical": True,
        "figures_session": measure_figures_session(apps),
    }


def _record(results: dict) -> None:
    if RESULT_PATH.exists():
        previous = json.loads(RESULT_PATH.read_text())
        if "perfbench" in previous:
            results = {**results, "perfbench": previous["perfbench"]}
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _check_figures_session(results: dict) -> None:
    session = results["figures_session"]
    apps = session["applications"]
    expected = FIGURES_SESSION_BUILDS_PER_APP * apps
    assert session["builds_executed"] == expected, \
        f"Figures 2 and 3(a) executed {session['builds_executed']} builds, " \
        f"not {expected}"
    expected = FIGURES_SESSION_CLONES_PER_APP * apps
    assert session["program_clones"] == expected, \
        f"Figures 2 and 3(a) cloned {session['program_clones']} programs, " \
        f"not {expected}"
    held = FIGURES_SESSION_SNAPSHOTS_PER_APP * apps
    assert session["snapshots_held"] <= held, \
        f"Figures 2 and 3(a) left {session['snapshots_held']} snapshots " \
        f"behind, more than {held}"
    for walked, present in (("functions_checked", "functions_at_checks"),
                            ("callee_walks", "functions_at_call_graphs")):
        ratio = session[walked] / session[present]
        assert ratio <= MAX_REWALK_RATIO, \
            f"Figures 2 and 3(a): {walked} is {session[walked]} of " \
            f"{session[present]} ({ratio:.2f}), above {MAX_REWALK_RATIO}"


def format_table(results: dict) -> str:
    session = results["figures_session"]
    stages = ", ".join(f"{stage} {count}" for stage, count
                       in session["stage_passes_executed"].items())
    return "\n".join([
        f"pipeline sweep ({len(results['applications'])} apps x "
        f"{len(results['variants'])} variants = {results['builds']} builds):",
        f"  independent builds : {results['unshared_seconds']:>8.3f}s",
        f"  shared front end   : {results['shared_seconds']:>8.3f}s",
        f"  speedup            : {results['speedup']:>8.3f}x "
        f"(summaries identical: {results['summaries_identical']})",
        f"figures 2 + 3(a) in one session: {session['builds_executed']} "
        f"builds, {session['wall_seconds']:.3f}s",
        f"  passes executed    : {stages}",
        f"  programs cloned    : {session['program_clones']} "
        f"({session['snapshots_held']} snapshots held at the end)",
        f"  functions checked  : {session['functions_checked']} of "
        f"{session['functions_at_checks']} present at the type checks",
        f"  callees walked     : {session['callee_walks']} of "
        f"{session['functions_at_call_graphs']} present at the call graphs",
    ])


def test_pipeline_sweep() -> None:
    """Front-end sharing is summary-identical and substantially faster."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    _check_figures_session(results)
    assert results["speedup"] >= MIN_SPEEDUP, \
        f"sweep speedup {results['speedup']}x fell below the " \
        f"{MIN_SPEEDUP}x floor"


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")
    _check_figures_session(results)


if __name__ == "__main__":
    main()
