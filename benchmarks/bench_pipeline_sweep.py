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
from pathlib import Path

from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain.sweep import SweepRunner
from repro.toolchain.variants import BASELINE, FIGURE3_VARIANTS

#: Asserted sweep speedup floor from front-end sharing.  The acceptance
#: target for an idle machine is 1.3x; the default stays below it so a
#: noisy CI machine does not flake, and the committed JSON carries the
#: full-run number.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SWEEP_SPEEDUP", "1.15"))

SMOKE_APPS = 3

#: Timed repetitions per sweep mode (best-of-N); 1 in smoke mode.
REPETITIONS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


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
    }


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def format_table(results: dict) -> str:
    return "\n".join([
        f"pipeline sweep ({len(results['applications'])} apps x "
        f"{len(results['variants'])} variants = {results['builds']} builds):",
        f"  independent builds : {results['unshared_seconds']:>8.3f}s",
        f"  shared front end   : {results['shared_seconds']:>8.3f}s",
        f"  speedup            : {results['speedup']:>8.3f}x "
        f"(summaries identical: {results['summaries_identical']})",
    ])


def test_pipeline_sweep() -> None:
    """Front-end sharing is summary-identical and substantially faster."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    assert results["speedup"] >= MIN_SPEEDUP, \
        f"sweep speedup {results['speedup']}x fell below the " \
        f"{MIN_SPEEDUP}x floor"


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
