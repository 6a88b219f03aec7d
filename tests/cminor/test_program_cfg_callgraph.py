"""Tests for whole-program linking and the call graph."""

import pytest

from repro.cminor import ast_nodes as ast
from repro.cminor import typesys as ty
from repro.cminor.callgraph import CallGraph, build_call_graph
from repro.cminor.errors import LinkError
from repro.cminor.parser import parse_program
from repro.cminor.program import Program, link_units, standard_builtins
from repro.tinyos import suite

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


class TestLinking:
    def test_link_two_units(self):
        a = parse_program("uint8_t shared;\nvoid f(void) { shared = 1; }", "a")
        b = parse_program("void g(void) { }", "b")
        program = link_units([a, b], name="app")
        assert set(program.functions) == {"f", "g"}
        assert "shared" in program.globals

    def test_duplicate_function_is_a_link_error(self):
        a = parse_program("void f(void) { }", "a")
        b = parse_program("void f(void) { }", "b")
        with pytest.raises(LinkError):
            link_units([a, b])

    def test_duplicate_global_is_a_link_error(self):
        a = parse_program("uint8_t x;", "a")
        b = parse_program("uint8_t x;", "b")
        with pytest.raises(LinkError):
            link_units([a, b])

    def test_function_and_global_name_collision(self):
        program = Program()
        program.add_function(ast.FunctionDef("thing", ty.VOID))
        with pytest.raises(LinkError):
            program.add_global(ast.GlobalVar("thing", ty.UINT8))

    def test_standard_builtins_present(self):
        names = set(standard_builtins())
        assert {"__hw_read8", "__hw_write8", "__sleep", "__bounds_ok",
                "__error_report_id", "__halt"} <= names

    def test_root_functions(self):
        program = make_program("""
__spontaneous void main(void) { }
__interrupt("ADC") void adc(void) { }
void task_one(void) { }
void helper(void) { }
""")
        program.interrupt_vectors["ADC"] = "adc"
        program.tasks = ["task_one"]
        roots = set(program.root_functions())
        assert roots == {"main", "adc", "task_one"}

    def test_clone_is_deep(self):
        program = make_program("uint8_t x;\n__spontaneous void main(void) { x = 1; }")
        clone = program.clone()
        clone.remove_global("x")
        assert "x" in program.globals

    def test_summary_counts(self):
        program = make_program("""
uint8_t a;
void f(void) { a = 1; }
__spontaneous void main(void) { f(); }
""")
        summary = program.summary()
        assert summary["functions"] == 2
        assert summary["globals"] == 1
        assert summary["statements"] >= 2


class TestCallGraph:
    SOURCE = """
void leaf(void) { }
void middle(void) { leaf(); }
void recursive(uint8_t n) { if (n) { recursive(n - 1); } }
__spontaneous void main(void) { middle(); recursive(3); }
"""

    def test_callees_and_callers(self):
        program = make_program(self.SOURCE)
        graph = build_call_graph(program)
        assert graph.calls("main") == {"middle", "recursive"}
        assert graph.called_by("leaf") == {"middle"}

    def test_reachability(self):
        program = make_program(self.SOURCE + "\nvoid orphan(void) { }")
        graph = build_call_graph(program)
        reachable = graph.reachable_from(["main"])
        assert "leaf" in reachable and "orphan" not in reachable

    def test_recursion_detection(self):
        program = make_program(self.SOURCE)
        graph = build_call_graph(program)
        assert graph.recursive_functions() == {"recursive"}

    def test_bottom_up_order_places_callees_first(self):
        program = make_program(self.SOURCE)
        graph = build_call_graph(program)
        order = graph.bottom_up_order()
        assert order.index("leaf") < order.index("middle") < order.index("main")

    def test_bottom_up_order_is_the_depth_first_post_order(self):
        """The order is a depth-first post-order from each function in name
        order, callees in name order, cycles cut where they close."""

        def post_order(callees):
            order, visited = [], set()

            def visit(name, on_stack):
                if name in visited or name not in callees:
                    return
                visited.add(name)
                for callee in sorted(callees[name]):
                    if callee not in on_stack:
                        visit(callee, on_stack | {name})
                order.append(name)

            for name in sorted(callees):
                visit(name, frozenset())
            return order

        cyclic = CallGraph(callees={
            "a": frozenset({"b", "c"}), "b": frozenset({"c", "a", "ext"}),
            "c": frozenset({"d"}), "d": frozenset({"b"}),
            "e": frozenset({"e", "a"})})
        assert cyclic.bottom_up_order() == post_order(cyclic.callees)
        for app in suite.FIGURE_APPS:
            graph = build_call_graph(suite.build_program(app))
            assert graph.bottom_up_order() == post_order(graph.callees), app
