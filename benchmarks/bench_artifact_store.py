"""Artifact-store benchmark: cold builds vs. microsecond warm hits.

Two sections, recorded in ``BENCH_store.json`` at the repository root:

``warm_hits``
    For each application: one cold build through a store-routed
    :class:`~repro.api.Workbench` (fresh session, empty store), then the
    best of many *fresh-session* warm lookups of the identical spec.  The
    warm session must execute zero passes and zero lowerings (counters
    prove it), return a byte-identical record, and beat the cold build by
    at least ``REPRO_BENCH_MIN_STORE_SPEEDUP``× (default 100).

``gc``
    The LRU eviction pass under a tight byte budget: the store shrinks
    below the budget, and the next lookup degrades to an honest rebuild.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload (CI smoke mode).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.api.specs import SCHEMA_VERSION, BuildSpec
from repro.api.workbench import Workbench
from repro.store import ArtifactStore

APPS = ("BlinkTask_Mica2", "Surge_Mica2", "Oscilloscope_Mica2")
SMOKE_APPS = ("BlinkTask_Mica2", "Surge_Mica2")
VARIANT = "safe-optimized"

WARM_REPS = 20
SMOKE_REPS = 8

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_STORE_SPEEDUP", "100"))


# ---------------------------------------------------------------------------
# Section 1: cold builds vs. warm store hits
# ---------------------------------------------------------------------------


def measure_warm_hits(store_dir: str) -> dict:
    apps = SMOKE_APPS if _smoke() else APPS
    reps = SMOKE_REPS if _smoke() else WARM_REPS
    per_app = {}
    for app in apps:
        spec = BuildSpec(app=app, variant=VARIANT)

        cold_bench = Workbench(store=store_dir)
        start = time.perf_counter()
        cold_record = cold_bench.build(spec)
        cold_s = time.perf_counter() - start
        assert cold_bench.stats()["builds_executed"] == 1

        warm_s = []
        for _ in range(reps):
            warm_bench = Workbench(store=store_dir)
            start = time.perf_counter()
            warm_record = warm_bench.build(spec)
            warm_s.append(time.perf_counter() - start)
            stats = warm_bench.stats()
            assert stats["passes_executed"] == 0, \
                f"warm hit for {app} executed {stats['passes_executed']} passes"
            assert stats["builds_executed"] == 0
            assert stats["lowerings"] == 0
            assert stats["store"]["record_hits"] == 1
            assert warm_record.to_dict() == cold_record.to_dict(), \
                f"store-served record for {app} differs from the built one"

        best_warm = min(warm_s)
        speedup = cold_s / max(best_warm, 1e-9)
        assert speedup >= _min_speedup(), \
            f"{app}: warm hit only {speedup:.1f}x faster than the cold " \
            f"build (floor {_min_speedup()}x)"
        per_app[app] = {
            "cold_build_s": round(cold_s, 6),
            "warm_hit_us": round(best_warm * 1e6, 1),
            "warm_hit_mean_us": round(sum(warm_s) / len(warm_s) * 1e6, 1),
            "speedup": round(speedup, 1),
            "warm_zero_passes": True,
            "record_byte_identical": True,
        }
    return {
        "variant": VARIANT,
        "warm_reps": reps,
        "min_speedup_floor": _min_speedup(),
        "apps": per_app,
    }


# ---------------------------------------------------------------------------
# Section 2: eviction under a byte budget
# ---------------------------------------------------------------------------


def measure_gc(store_dir: str) -> dict:
    store = ArtifactStore(store_dir, schema=SCHEMA_VERSION)
    before = store.size_bytes()
    budget = max(before // 4, 1)
    report = store.gc(budget)
    assert report["bytes_after"] <= budget
    assert report["evicted"] > 0
    # An evicted record degrades to an honest rebuild, not an error; a
    # survivor keeps serving from disk.  Check against the actual
    # post-eviction store state so the assertion is deterministic.
    app = (SMOKE_APPS if _smoke() else APPS)[0]
    spec = BuildSpec(app=app, variant=VARIANT)
    survived = store.has_record(spec.content_key())
    bench = Workbench(store=store_dir)
    bench.build(spec)
    rebuilt = bench.stats()["builds_executed"]
    assert rebuilt == (0 if survived else 1)
    return {
        "budget_bytes": budget,
        "bytes_before": report["bytes_before"],
        "bytes_after": report["bytes_after"],
        "evicted": report["evicted"],
        "probe_record_survived": survived,
        "rebuilds_after_eviction": rebuilt,
    }


def measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store:
        return {
            "smoke": _smoke(),
            "warm_hits": measure_warm_hits(store),
            "gc": measure_gc(store),
        }


def _record(results: dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def format_table(results: dict) -> str:
    warm = results["warm_hits"]
    lines = [
        f"artifact store ({warm['variant']}, best of "
        f"{warm['warm_reps']} fresh-session warm hits, floor "
        f"{warm['min_speedup_floor']}x):",
        f"{'application':<24} {'cold build':>12} {'warm hit':>12} "
        f"{'speedup':>9}",
    ]
    for app, row in warm["apps"].items():
        lines.append(f"{app:<24} {row['cold_build_s'] * 1e3:>10.1f}ms "
                     f"{row['warm_hit_us']:>10.1f}us "
                     f"{row['speedup']:>8.1f}x")
    gc = results["gc"]
    lines.append(f"gc          : {gc['bytes_before']} -> {gc['bytes_after']} "
                 f"bytes under a {gc['budget_bytes']}-byte budget "
                 f"({gc['evicted']} evicted, "
                 f"{gc['rebuilds_after_eviction']} honest rebuild(s) after)")
    return "\n".join(lines)


def test_artifact_store_benchmark() -> None:
    """Speedup floor, zero-pass warm hits and GC are asserted inside
    :func:`measure`, so the pytest invocation enforces them too."""
    results = measure()
    _record(results)
    print()
    print(format_table(results))
    for row in results["warm_hits"]["apps"].values():
        assert row["speedup"] >= results["warm_hits"]["min_speedup_floor"]


def main() -> None:
    results = measure()
    _record(results)
    print(format_table(results))
    print(f"results written to {RESULT_PATH}")


if __name__ == "__main__":
    main()
