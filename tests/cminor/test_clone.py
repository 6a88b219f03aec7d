"""Tests for the fast structural ``Program.clone()``.

The sweep runner's front-end sharing rests on two properties:

* clones build to **byte-identical images** (same code bytes, same RAM
  layout, same surviving checks) as a freshly flattened program, and
* mutations of a clone never leak into the shared front-end program.
"""

import copy

from repro.backend.image import build_image
from repro.cminor import typesys as ty
from repro.cminor.pretty import PrettyPrinter
from repro.cminor.visitor import walk_statements
from repro.nesc.flatten import flatten_application
from repro.nesc.hwrefactor import refactor_hardware_accesses
from repro.tinyos import suite
from repro.toolchain.lower import back_end_passes
from repro.toolchain.passes import PassContext, PassManager
from repro.toolchain.variants import SAFE_OPTIMIZED

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import tiny_application

APP = "Oscilloscope_Mica2"


def _front_end_program():
    program = suite.build_program(APP, suppress_norace=True)
    refactor_hardware_accesses(program)
    return program


def _render(program) -> str:
    printer = PrettyPrinter()
    parts = [printer.format_global(v) for v in program.iter_globals()]
    parts += [printer.format_function(f) for f in program.iter_functions()]
    return "\n".join(parts)


def _build_back_end(program, app):
    ctx = PassContext(variant=SAFE_OPTIMIZED, application=app, label=APP,
                      program=program)
    PassManager(back_end_passes(SAFE_OPTIMIZED)).run(ctx)
    return ctx.image


class TestCloneFidelity:
    def test_clone_is_structurally_identical(self):
        program = _front_end_program()
        clone = program.clone()
        assert _render(clone) == _render(program)
        assert clone.summary() == program.summary()
        assert clone.tasks == program.tasks
        assert clone.interrupt_vectors == program.interrupt_vectors
        assert clone.racy_variables == program.racy_variables
        assert clone.structs.all() == program.structs.all()
        assert sorted(clone.builtins) == sorted(program.builtins)

    def test_clone_matches_deepcopy_semantics(self):
        program = _front_end_program()
        assert _render(program.clone()) == _render(copy.deepcopy(program))

    def test_cloned_statements_get_fresh_node_ids(self):
        program = flatten_application(tiny_application(), suppress_norace=True)
        clone = program.clone()
        original_ids = {s.node_id for f in program.iter_functions()
                        for s in walk_statements(f.body)}
        clone_ids = {s.node_id for f in clone.iter_functions()
                     for s in walk_statements(f.body)}
        assert not original_ids & clone_ids

    def test_clones_build_to_byte_identical_images(self):
        app = suite.build_application(APP)
        shared = _front_end_program()
        image_a = _build_back_end(shared.clone(), app)
        image_b = _build_back_end(shared.clone(), app)
        fresh = _build_back_end(_front_end_program(), app)
        for image in (image_b, fresh):
            assert image.code_bytes == image_a.code_bytes
            assert image.ram_bytes == image_a.ram_bytes
            assert image.function_sizes == image_a.function_sizes
            assert image.global_sizes == image_a.global_sizes
            assert image.surviving_checks == image_a.surviving_checks


class TestCloneIsolation:
    def test_mutating_a_clone_never_touches_the_original(self):
        program = _front_end_program()
        before = _render(program)
        before_meta = (list(program.tasks), dict(program.interrupt_vectors),
                       set(program.racy_variables), set(program.globals),
                       set(program.functions), program.structs.names())

        clone = program.clone()
        _build_back_end(clone, suite.build_application(APP))

        assert _render(program) == before
        assert (list(program.tasks), dict(program.interrupt_vectors),
                set(program.racy_variables), set(program.globals),
                set(program.functions), program.structs.names()) == before_meta

    def test_clone_has_its_own_struct_table_and_analysis_cache(self):
        program = _front_end_program()
        func = next(program.iter_functions())
        cached = program.analysis().local_types(func)
        clone = program.clone()
        # The clone starts warm, with its own copy of the memo.
        assert clone.analysis() is not program.analysis()
        assert clone.analysis().local_types(clone.functions[func.name]) \
            is cached
        clone.invalidate_analysis(func.name)
        assert program.analysis().local_types(func) is cached

        clone.structs.define("clone_only", [ty.StructField("x", ty.UINT8)])
        assert program.structs.get("clone_only") is None

    def test_original_analysis_cache_survives_cloning(self):
        program = _front_end_program()
        func = next(program.iter_functions())
        cached = program.analysis().local_types(func)
        program.clone()
        assert program.analysis().local_types(func) is cached
