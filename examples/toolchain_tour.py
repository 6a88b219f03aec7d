#!/usr/bin/env python
"""A tour of the Safe TinyOS toolchain, stage by stage.

Where the other examples use the declarative ``repro.api`` layer, this one
drives each pipeline stage of the paper's Figure 1 by hand on the
Oscilloscope application and reports what every stage did: the nesC
flattening and its race list, the hardware-register refactoring, CCured's
pointer kinds and inserted checks, the lock insertion, the inliner,
cXprop's folding/DCE, the backend's easy-check removal, and the final
image.  At the end, the same configuration is rebuilt through a
:class:`~repro.api.Workbench` in one call, and the hand-driven image must
match the API's :class:`~repro.api.BuildRecord` byte for byte — the stages
above are exactly what a spec lowers to.
"""

from repro.backend import build_image, gcc_optimize
from repro.ccured import CCuredConfig, MessageStrategy, cure
from repro.ccured.optimizer import optimize_checks
from repro.cminor.pretty import to_source
from repro.cxprop import inline_program, optimize_program
from repro.cxprop.driver import CxpropConfig
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.tinyos import suite


def main() -> None:
    name = "Oscilloscope_Mica2"
    print(f"=== Stage 1: nesC compiler (flatten {name}) ===")
    program = suite.build_program(name, suppress_norace=True)
    stats = program.summary()
    print(f"  {stats['functions']} functions, {stats['globals']} globals, "
          f"{stats['statements']} statements")
    print(f"  tasks: {program.tasks}")
    print(f"  interrupt vectors: {sorted(program.interrupt_vectors)}")
    print(f"  racy variables reported by the nesC analysis: "
          f"{len(program.racy_variables)}")

    print("\n=== Stage 2: refactor hardware register accesses ===")
    hw_report = refactor_hardware_accesses(program)
    print(f"  rewrote {hw_report.reads_rewritten} register reads and "
          f"{hw_report.writes_rewritten} register writes into helper calls")

    print("\n=== Stage 3: CCured ===")
    result = cure(program, CCuredConfig(message_strategy=MessageStrategy.FLID,
                                        run_optimizer=False))
    report = result.report()
    print(f"  pointer kinds: {report['safe_pointers']} SAFE, "
          f"{report['seq_pointers']} SEQ, {report['wild_pointers']} WILD")
    print(f"  checks inserted: {report['checks_inserted']} "
          f"({report['null_checks']} null, {report['bounds_checks']} bounds, "
          f"{report['index_checks']} index)")
    print(f"  checks wrapped in atomic sections (racy variables): "
          f"{report['locked_checks']}")
    print(f"  FLID table entries: {len(result.flid_table)}")

    print("\n=== Stage 4: CCured's own check optimizer ===")
    removed = optimize_checks(program)
    print(f"  removed {removed} statically redundant checks")

    print("\n=== Stage 5: source-to-source inliner ===")
    inline_report = inline_program(program)
    print(f"  inlined {inline_report.calls_inlined} calls "
          f"({inline_report.calls_hoisted} nested calls hoisted first), "
          f"dropped {inline_report.functions_removed} fully inlined functions")

    print("\n=== Stage 6: cXprop ===")
    cxprop_report = optimize_program(program, CxpropConfig(domain="interval"))
    summary = cxprop_report.summary()
    for key in ("branches_folded", "constants_substituted", "copies_propagated",
                "dead_stores_removed", "globals_removed", "functions_removed",
                "nested_atomic_removed", "irq_saves_avoided"):
        print(f"  {key.replace('_', ' ')}: {summary[key]}")

    print("\n=== Stage 7: GCC-strength backend ===")
    gcc_report = gcc_optimize(program)
    print(f"  constants folded: {gcc_report.constants_folded}, easy checks "
          f"removed: {gcc_report.checks_removed}, functions dropped: "
          f"{gcc_report.functions_removed}")

    image = build_image(program)
    print("\n=== Final image ===")
    print(f"  code: {image.code_bytes} B, RAM: {image.ram_bytes} B "
          f"(data {image.data_bytes} + bss {image.bss_bytes} + "
          f"strings {image.string_ram_bytes})")
    survivors = image.surviving_checks
    print(f"  checks surviving in the image: {len(survivors)} of "
          f"{result.checks_inserted}")
    for flid in sorted(survivors)[:5]:
        print(f"    {flid}: {result.flid_table.lookup(flid).format_message(name)}")

    print("\n=== A look at the optimized source (one function) ===")
    func = program.lookup_function("OscilloscopeM__PhotoADC_dataReady")
    if func is None:
        func = next(iter(program.iter_functions()))
    print(to_source(func))

    print("\n=== The same build, declaratively ===")
    # The hand-driven stages above are the pass list of the registered
    # "safe-optimized" variant; one Workbench call replays it.
    from repro.api import BuildSpec, Workbench

    record = Workbench().build(BuildSpec(app=name, variant="safe-optimized"))
    print(f"  Workbench record: {record.code_bytes} B code, "
          f"{record.ram_bytes} B RAM, "
          f"{record.checks_surviving}/{record.checks_inserted} checks "
          f"(content key {record.content_key})")
    assert record.code_bytes == image.code_bytes
    assert record.ram_bytes == image.ram_bytes
    assert record.checks_surviving == len(survivors)
    print("  identical to the hand-driven build — the API lowers to these "
          "exact stages")


if __name__ == "__main__":
    main()
