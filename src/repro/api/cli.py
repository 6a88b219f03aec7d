"""``python -m repro`` — the command-line face of the Workbench API.

Usage::

    python -m repro list [--json]
    python -m repro build APP [--variant NAME] [--json]
    python -m repro sweep [--apps all|mica2|A,B,...]
                          [--variants figure3|figure2|all|V,W,...]
                          [--processes N] [--json]
    python -m repro simulate APP [--variant NAME] [--seconds S]
                          [--nodes N] [--topology T] [--loss P] [--seed N]
                          [--traffic default|base|none] [--json]
    python -m repro scenarios APP [--variants V,W,...] [--faults F,G,...]
                          [--nodes N] [--seconds S] [--topology T]
                          [--loss P] [--seed N] [--fault-seed N]
                          [--traffic default|base|none] [--json]
    python -m repro figures [--figure 2|3a|3b|3c] [--apps ...] [--json]
    python -m repro gc --store DIR [--budget-bytes N] [--json]

Every command speaks the ``repro.api`` schemas: ``--json`` emits the
``to_dict()`` form of the spec's records (round-trippable through
``BuildRecord.from_dict`` / ``SimRecord.from_dict``); without it, aligned
tables are printed.  ``sweep --variants figure3`` is the paper's full
Figure-3 configuration set (the unsafe baseline plus the seven figure
bars), matching ``benchmarks/bench_pipeline_sweep.py``.

``build``, ``sweep``, ``simulate`` and ``scenarios`` additionally accept:

``--store DIR``
    Route the session through a persistent content-addressed
    :class:`~repro.store.ArtifactStore`: previously recorded identical
    specs are served from disk without executing a single pass, and new
    records (plus front-end prefix snapshots) are written back.
``--stats``
    Append execution counters (passes, builds, lowerings, store hits)
    proving what actually ran — a warm store shows zeros across the board.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api.figures import (
    FIGURE3C_SIM_SECONDS,
    figure2_table,
    figure3a_table,
    figure3b_table,
    figure3c_table,
)
from repro.api.records import BuildRecord, ScenarioRecord, SimRecord
from repro.api.specs import (
    SCHEMA_VERSION,
    TRAFFIC_DEFAULT,
    TRAFFIC_PROFILES,
    BuildSpec,
    ScenarioSpec,
    SimSpec,
    SweepSpec,
)
from repro.api.workbench import Workbench
from repro.avrora.network import TOPOLOGIES
from repro.store import ArtifactStore
from repro.scenarios.faults import DEFAULT_FAULT_NAMES, FaultPlan, default_fault
from repro.tinyos.suite import FIGURE_APPS, MICA2_APPS
from repro.toolchain.contexts import DEFAULT_DUTY_CYCLE_SECONDS
from repro.toolchain.report import FigureTable
from repro.toolchain.variants import (
    BASELINE,
    FIGURE2_STRATEGIES,
    FIGURE3_VARIANTS,
    SAFE_OPTIMIZED,
    all_variant_names,
)

#: Named variant sets accepted by ``--variants`` (``all`` is handled in
#: :func:`resolve_variants`, resolving to every registered variant).
VARIANT_SETS = {
    "figure3": [BASELINE.name] + [v.name for v in FIGURE3_VARIANTS],
    "figure2": [v.name for v in FIGURE2_STRATEGIES],
}

#: Named application sets accepted by ``--apps``.
APP_SETS = {"all": FIGURE_APPS, "mica2": MICA2_APPS}


def resolve_apps(token: str) -> list[str]:
    """``all``, ``mica2``, or a comma-separated list of figure labels."""
    if token in APP_SETS:
        return list(APP_SETS[token])
    return [name.strip() for name in token.split(",") if name.strip()]


def resolve_variants(token: str) -> list[str]:
    """``figure3``, ``figure2``, ``all``, or a comma-separated name list."""
    if token == "all":
        return all_variant_names()
    if token in VARIANT_SETS:
        return list(VARIANT_SETS[token])
    return [name.strip() for name in token.split(",") if name.strip()]


class UsageError(Exception):
    """Invalid command-line input (unknown name, malformed spec)."""


def validated(factory):
    """Build a spec, mapping validation errors to a clean usage error.

    Spec construction is the documented validation boundary (unknown names
    raise ``KeyError``, malformed parameters ``ValueError``); errors raised
    later, during execution, are genuine defects and propagate with a
    traceback instead of being disguised as usage errors.
    """
    try:
        return factory()
    except (KeyError, ValueError) as error:
        # str() of a KeyError is the repr of its argument (extra quotes);
        # unwrap it for a clean message.
        message = error.args[0] if isinstance(error, KeyError) and error.args \
            else str(error)
        raise UsageError(message) from error


def non_negative(value: Optional[int], flag: str) -> Optional[int]:
    """``value`` of ``flag``, or a usage error when it is negative."""
    if value is not None and value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _emit_json(payload: object, out) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def format_stats(stats: dict) -> str:
    """Human form of the counter-proof (see ``Workbench.stats``)."""
    line = (f"executed   : {stats.get('passes_executed', 0)} passes, "
            f"{stats.get('builds_executed', 0)} builds, "
            f"{stats.get('simulations_executed', 0)} simulations, "
            f"{stats.get('lowerings', 0)} lowerings")
    store = stats.get("store") or {}
    if store:
        line += (f"\nstore      : {store.get('record_hits', 0)} record hit(s) "
                 f"/ {store.get('record_misses', 0)} miss(es), "
                 f"{store.get('snapshot_hits', 0)} snapshot hit(s), "
                 f"{store.get('stores', 0)} written, "
                 f"{store.get('evicted', 0)} evicted")
    return line


def _emit_record(args, out, payload: object, text: str,
                 workbench: Workbench) -> int:
    """Shared ``--json``/``--stats`` output tail of the record commands."""
    stats = workbench.stats() if args.stats else None
    if args.json:
        if stats is not None:
            payload = {"record": payload, "stats": stats}
        _emit_json(payload, out)
    else:
        out.write(text + "\n")
        if stats is not None:
            out.write(format_stats(stats) + "\n")
    return 0


def format_build_records(records: Sequence[BuildRecord]) -> str:
    app_width = max([len("application")] + [len(r.app) for r in records])
    var_width = max([len("variant")] + [len(r.variant) for r in records])
    header = (f"{'application'.ljust(app_width)}  {'variant'.ljust(var_width)}"
              f"  {'code (B)':>9}  {'RAM (B)':>8}  {'checks':>11}"
              f"  {'key':>16}")
    lines = [header, "-" * len(header)]
    for record in records:
        checks = (f"{record.checks_surviving}/{record.checks_inserted}"
                  if record.checks_inserted else "-")
        lines.append(
            f"{record.app.ljust(app_width)}  {record.variant.ljust(var_width)}"
            f"  {record.code_bytes:>9}  {record.ram_bytes:>8}  {checks:>11}"
            f"  {record.content_key:>16}")
    return "\n".join(lines)


def format_sim_record(record: SimRecord) -> str:
    lines = [
        f"{record.app} × {record.variant}: {record.node_count} node(s), "
        f"{record.seconds}s simulated, {record.topology} topology",
        f"  duty cycle : " + ", ".join(f"{cycle * 100:.3f}%"
                                       for cycle in record.duty_cycles),
        f"  failures   : {record.failures}  halted: {record.halted}  "
        f"LED changes: {record.led_changes}",
    ]
    executed = record.superblocks.get("statements_total")
    if executed:
        lines.append(f"  executed   : {executed:,} statements")
    if record.packets_sent:
        lines.append(
            f"  radio tx   : " + ", ".join(map(str, record.packets_sent)) +
            f"  rx: " + ", ".join(map(str, record.packets_received)))
        lines.append(
            f"  air        : {record.packets_delivered} delivered, "
            f"{record.packets_lost} lost on the channel")
    if any(record.injected_radio) or any(record.injected_uart):
        lines.append(
            f"  injected   : radio " +
            ", ".join(map(str, record.injected_radio)) +
            f"  uart " + ", ".join(map(str, record.injected_uart)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_list(args, workbench: Workbench, out) -> int:
    apps = workbench.applications()
    variants = workbench.variant_names()
    if args.json:
        _emit_json({"applications": apps, "variants": variants,
                    "variant_sets": {"figure3": VARIANT_SETS["figure3"],
                                     "figure2": VARIANT_SETS["figure2"]}}, out)
        return 0
    out.write("applications:\n")
    for app in apps:
        out.write(f"  {app}\n")
    out.write("variants:\n")
    for variant in variants:
        out.write(f"  {variant}\n")
    return 0


def cmd_build(args, workbench: Workbench, out) -> int:
    spec = validated(lambda: BuildSpec(app=args.app, variant=args.variant))
    record = workbench.build(spec)
    return _emit_record(args, out, record.to_dict(),
                        format_build_records([record]), workbench)


def cmd_sweep(args, workbench: Workbench, out) -> int:
    spec = validated(lambda: SweepSpec(
        apps=tuple(resolve_apps(args.apps)),
        variants=tuple(resolve_variants(args.variants))))
    processes = non_negative(args.processes, "--processes")
    if processes:
        records = workbench.submit(spec, processes=processes).result()
    else:
        records = workbench.sweep(spec)
    payload = {"spec": spec.to_dict(),
               "records": [record.to_dict() for record in records]}
    return _emit_record(args, out, payload,
                        format_build_records(records), workbench)


def cmd_simulate(args, workbench: Workbench, out) -> int:
    spec = validated(lambda: SimSpec(
        app=args.app, variant=args.variant,
        node_count=args.nodes, seconds=args.seconds,
        traffic=args.traffic, topology=args.topology,
        loss=args.loss, seed=args.seed))
    record = workbench.simulate(spec)
    return _emit_record(args, out, record.to_dict(),
                        format_sim_record(record), workbench)


# -- scenarios --------------------------------------------------------------


def resolve_faults(token: str, node_count: int) -> list:
    """Comma-separated fault shorthand names → canonical fault instances."""
    names = [name.strip() for name in token.split(",") if name.strip()]
    if not names:
        raise UsageError(f"--faults needs at least one of "
                         f"{','.join(DEFAULT_FAULT_NAMES)}")
    return [default_fault(name, node_count) for name in names]


def format_scenario_record(record: ScenarioRecord) -> str:
    """The verdict matrix as an aligned fault × variant table."""
    fault_width = max([len("fault")] + [len(f) for f in record.faults])
    cell_widths = [max(len(variant), len("silent-corruption"))
                   for variant in record.variants]
    header = "fault".ljust(fault_width) + "".join(
        f"  {variant.ljust(width)}"
        for variant, width in zip(record.variants, cell_widths))
    lines = [
        f"{record.app}: {record.node_count} node(s), {record.seconds}s, "
        f"{record.topology} topology, seed {record.seed}",
        "",
        header,
        "-" * len(header),
    ]
    for fault, row in zip(record.faults, record.verdicts):
        lines.append(fault.ljust(fault_width) + "".join(
            f"  {verdict.ljust(width)}"
            for verdict, width in zip(row, cell_widths)))
    golden = record.golden
    lines.append("")
    lines.append(
        f"golden runs: {golden.get('runs', 0)} executed, "
        f"{golden.get('cache_hits', 0)} cache hit(s)  "
        f"key: {record.content_key}")
    return "\n".join(lines)


def cmd_scenarios(args, workbench: Workbench, out) -> int:
    faults = resolve_faults(args.faults, args.nodes)
    spec = validated(lambda: ScenarioSpec(
        app=args.app,
        variants=tuple(resolve_variants(args.variants)),
        plan=FaultPlan(faults=tuple(faults), seed=args.fault_seed),
        node_count=args.nodes, seconds=args.seconds,
        traffic=args.traffic, topology=args.topology,
        loss=args.loss, seed=args.seed))
    record = workbench.run_scenario(spec)
    return _emit_record(args, out, record.to_dict(),
                        format_scenario_record(record), workbench)


# -- the store --------------------------------------------------------------


def cmd_gc(args, workbench: Workbench, out) -> int:
    budget = non_negative(args.budget_bytes, "--budget-bytes")
    store = ArtifactStore(args.store, schema=SCHEMA_VERSION)
    report = store.gc(budget)
    if args.json:
        _emit_json(report, out)
    else:
        out.write(
            f"{args.store}: {report['entries']} entrie(s), "
            f"{report['bytes_before']} -> {report['bytes_after']} bytes "
            f"({report['evicted']} evicted, budget "
            f"{'none' if budget is None else budget})\n")
    return 0


# -- figures ----------------------------------------------------------------


def cmd_figures(args, workbench: Workbench, out) -> int:
    apps = resolve_apps(args.apps)
    # Validates both the application names and the simulation seconds.
    validated(lambda: [SimSpec(app=app, seconds=args.seconds)
                       for app in apps])
    tables: list[FigureTable] = []
    which = args.figure
    if which in ("2", "all"):
        tables.append(figure2_table(workbench, apps))
    if which in ("3a", "all"):
        tables.append(figure3a_table(workbench, apps))
    if which in ("3b", "all"):
        tables.append(figure3b_table(workbench, apps))
    if which in ("3c", "all"):
        tables.append(figure3c_table(workbench, apps, args.seconds))
    if args.json:
        _emit_json([{"title": table.title, "metric": table.metric,
                     "rows": table.rows()} for table in tables], out)
    else:
        out.write("\n\n".join(table.format() for table in tables) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Build, sweep and simulate Safe TinyOS applications.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit JSON records instead of a table")

    def add_store(p):
        p.add_argument("--store", default=None, metavar="DIR",
                       help="persistent content-addressed artifact store; "
                            "previously recorded identical specs are served "
                            "from disk without executing a single pass")
        p.add_argument("--stats", action="store_true",
                       help="append execution counters (passes, builds, "
                            "lowerings, store hits) proving what ran")

    p_list = sub.add_parser("list", help="registered applications and variants")
    add_json(p_list)
    p_list.set_defaults(func=cmd_list)

    p_build = sub.add_parser("build", help="build one application")
    p_build.add_argument("app", help="figure label, e.g. BlinkTask_Mica2")
    p_build.add_argument("--variant", default=SAFE_OPTIMIZED.name,
                         help=f"build variant (default: {SAFE_OPTIMIZED.name})")
    add_json(p_build)
    add_store(p_build)
    p_build.set_defaults(func=cmd_build)

    p_sweep = sub.add_parser("sweep", help="build an N-app × M-variant sweep")
    p_sweep.add_argument("--apps", default="all",
                         help="all | mica2 | comma-separated labels")
    p_sweep.add_argument("--variants", default="figure3",
                         help="figure3 | figure2 | all | comma-separated names")
    p_sweep.add_argument("--processes", type=int, default=0,
                         help="run on a process pool with N workers")
    add_json(p_sweep)
    add_store(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="build and simulate one application")
    p_sim.add_argument("app", help="figure label, e.g. BlinkTask_Mica2")
    p_sim.add_argument("--variant", default=SAFE_OPTIMIZED.name)
    p_sim.add_argument("--seconds", type=float,
                       default=DEFAULT_DUTY_CYCLE_SECONDS)
    p_sim.add_argument("--nodes", type=int, default=1)
    p_sim.add_argument("--topology", default="broadcast", choices=TOPOLOGIES,
                       help="radio-channel wiring of the simulated network")
    p_sim.add_argument("--loss", type=float, default=0.0,
                       help="per-link packet loss probability in [0, 1)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="seed of the channel's loss RNG (reproducible)")
    p_sim.add_argument("--traffic", default=TRAFFIC_DEFAULT,
                       choices=list(TRAFFIC_PROFILES),
                       help="synthetic traffic profile: every node, the "
                            "first node only, or none")
    add_json(p_sim)
    add_store(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_scen = sub.add_parser(
        "scenarios",
        help="run seeded fault injections across build variants")
    p_scen.add_argument("app", help="figure label, e.g. Surge_Mica2")
    p_scen.add_argument("--variants", default="baseline,safe-optimized",
                        help="figure3 | figure2 | all | comma-separated "
                             "names (matrix columns)")
    p_scen.add_argument("--faults", default="bit-flip,payload,packet",
                        help="comma-separated fault kinds: " +
                             ",".join(DEFAULT_FAULT_NAMES))
    p_scen.add_argument("--nodes", type=int, default=2)
    p_scen.add_argument("--seconds", type=float,
                        default=DEFAULT_DUTY_CYCLE_SECONDS)
    p_scen.add_argument("--topology", default="chain", choices=TOPOLOGIES)
    p_scen.add_argument("--loss", type=float, default=0.0,
                        help="per-link packet loss probability in [0, 1)")
    p_scen.add_argument("--seed", type=int, default=0,
                        help="channel seed shared by every run")
    p_scen.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault plan's injection decisions")
    p_scen.add_argument("--traffic", default=TRAFFIC_DEFAULT,
                        choices=list(TRAFFIC_PROFILES),
                        help="synthetic traffic profile (default: the "
                             "app's duty-cycle context on every node)")
    add_json(p_scen)
    add_store(p_scen)
    p_scen.set_defaults(func=cmd_scenarios)

    p_fig = sub.add_parser("figures", help="reproduce the paper's figure tables")
    p_fig.add_argument("--figure", default="all",
                       choices=["2", "3a", "3b", "3c", "all"])
    p_fig.add_argument("--apps", default="all",
                       help="all | mica2 | comma-separated labels")
    p_fig.add_argument("--seconds", type=float, default=FIGURE3C_SIM_SECONDS,
                       help="simulated seconds per duty-cycle measurement (3c)")
    add_json(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_gc = sub.add_parser(
        "gc", help="evict least-recently-used artifact-store entries")
    p_gc.add_argument("--store", required=True, metavar="DIR")
    p_gc.add_argument("--budget-bytes", type=int, default=None,
                      help="evict stalest entries until the store fits "
                           "(omit for a pure measurement pass)")
    add_json(p_gc)
    p_gc.set_defaults(func=cmd_gc)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    # ``gc`` manages the store directory itself — the record commands
    # route their session workbench through it.
    store = getattr(args, "store", None) if args.command != "gc" else None
    with Workbench(store=store) as workbench:
        try:
            return args.func(args, workbench, out)
        except UsageError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
