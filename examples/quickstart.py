#!/usr/bin/env python
"""Quickstart: make a TinyOS application safe and run it.

Builds the classic BlinkTask application three ways — the unsafe baseline,
plain CCured, and the full Safe TinyOS pipeline (CCured + inliner + cXprop)
— then simulates each image for a couple of virtual seconds and prints the
numbers the paper cares about: code size, static RAM, surviving checks and
processor duty cycle.

This is the ``repro.api`` way: declarative specs in, typed records out.
The :class:`~repro.api.Workbench` session routes all three builds through
the sweep runner, so they share one nesC front end (and the two safe builds
share their CCured stage); every record round-trips through JSON —
``python -m repro build BlinkTask_Mica2 --json`` prints exactly the
``to_dict()`` form shown at the bottom.
"""

import json

from repro.api import BuildRecord, SimSpec, SweepSpec, Workbench

APP = "BlinkTask_Mica2"
VARIANTS = ("baseline", "safe-flid", "safe-optimized")
SIM_SECONDS = 2.0


def main() -> None:
    bench = Workbench()
    print(f"Building {APP} with {len(VARIANTS)} build variants\n")
    records = bench.sweep(SweepSpec(apps=(APP,), variants=VARIANTS))

    header = (f"{'variant':18s} {'code (B)':>9s} {'RAM (B)':>8s} "
              f"{'checks':>7s} {'duty cycle':>11s} {'LED changes':>12s}")
    print(header)
    print("-" * len(header))
    for record in records:
        run = bench.simulate(SimSpec(app=APP, variant=record.variant,
                                     seconds=SIM_SECONDS))
        checks = (f"{record.checks_surviving}/{record.checks_inserted}"
                  if record.checks_inserted else "-")
        print(f"{record.variant:18s} {record.code_bytes:9d} "
              f"{record.ram_bytes:8d} {checks:>7s} "
              f"{run.duty_cycle * 100:10.3f}% {run.led_changes:12d}")

    print("\nThe safe, optimized build keeps the program's behaviour (same")
    print("LED activity), removes most of CCured's run-time checks, and")
    print("costs about as much CPU and memory as the original unsafe")
    print("program.\n")

    # Records are plain data: they serialize to JSON and load back equal.
    optimized = records[-1]
    wire = json.dumps(optimized.to_dict())
    assert BuildRecord.from_dict(json.loads(wire)) == optimized
    print("The same record as JSON (what `python -m repro build "
          f"{APP} --json` prints):")
    print(json.dumps(optimized.to_dict(), indent=2))


if __name__ == "__main__":
    main()
