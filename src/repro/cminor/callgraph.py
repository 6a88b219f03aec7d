"""Whole-program call graph utilities.

Because CMinor has no function pointers, the call graph is exact: every call
site names its callee.  Several stages rely on it — the nesC concurrency
analysis (to split the program into task and interrupt contexts), cXprop's
interprocedural fixpoint, dead-code elimination, and the inliner's bottom-up
ordering.  Each function's callees are a fact of the program's analysis memo,
so a graph is rebuilt by walking only the functions that changed since the
last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminor import ast_nodes as ast
from repro.cminor.program import Program
from repro.cminor.visitor import collect_called_functions


@dataclass
class CallGraph:
    """A call graph over the functions of a program.

    Attributes:
        callees: Mapping from function name to the set of functions it calls
            (builtins included; shared with the analysis memo, read-only).
        callers: Reverse mapping (builtins excluded).
    """

    callees: dict[str, frozenset[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)

    def calls(self, name: str) -> frozenset[str]:
        return self.callees.get(name, frozenset())

    def called_by(self, name: str) -> set[str]:
        return self.callers.get(name, set())

    def reachable_from(self, roots: list[str]) -> set[str]:
        """All functions reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, set()))
        return seen

    def bottom_up_order(self) -> list[str]:
        """Functions ordered so callees come before callers where possible.

        A depth-first post-order from each function in name order, visiting
        callees in name order.  Cycles (direct or mutual recursion) are
        broken arbitrarily; the inliner refuses to inline recursive
        functions anyway.
        """
        order: list[str] = []
        visited: set[str] = set()
        for root in sorted(self.callees):
            if root in visited:
                continue
            visited.add(root)
            # Each entry: a function and the callees it has yet to visit.
            stack = [(root, iter(sorted(self.callees[root])))]
            while stack:
                name, callees = stack[-1]
                for callee in callees:
                    if callee not in visited and callee in self.callees:
                        visited.add(callee)
                        stack.append(
                            (callee, iter(sorted(self.callees[callee]))))
                        break
                else:
                    stack.pop()
                    order.append(name)
        return order

    def recursive_functions(self) -> set[str]:
        """Functions that participate in a call cycle (including self-calls)."""
        recursive: set[str] = set()
        for name in self.callees:
            if self._reaches(name, name):
                recursive.add(name)
        return recursive

    def _reaches(self, start: str, target: str) -> bool:
        seen: set[str] = set()
        stack = list(self.callees.get(start, set()))
        while stack:
            name = stack.pop()
            if name == target:
                return True
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, set()))
        return False


def function_callees(func: ast.FunctionDef) -> frozenset[str]:
    """Names of the functions (builtins included) and tasks ``func`` calls
    or posts."""
    return frozenset(collect_called_functions(func.body))


def build_call_graph(program: Program) -> CallGraph:
    """Build the exact call graph of ``program`` from its memoized callees."""
    fact = program.analysis().fact
    graph = CallGraph()
    for func in program.iter_functions():
        graph.callees[func.name] = fact(function_callees, func)
    for caller, callees in graph.callees.items():
        for callee in callees:
            if callee in graph.callees:
                graph.callers.setdefault(callee, set()).add(caller)
    return graph
