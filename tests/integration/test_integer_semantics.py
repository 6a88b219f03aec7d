"""Every layer computes C's integers the way the simulator's engines do.

Each program runs under the tree-walker, the compiled engine, and the
tree-walker on the cXprop-optimized, the GCC-optimized, and the cXprop- then
GCC-optimized program; all must observe the same values.  The programs
report through ``volatile`` globals, which cXprop's dead-data elimination
keeps and its constant propagation never reads back.

The hand-written cases are the miscompilations that ``repro.cminor.cint``
mended; the seeded straight-line programs are a first differential oracle
over every integer type and operator.
"""

from __future__ import annotations

import random

import pytest

from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.backend.gcc_opt import gcc_optimize
from repro.cxprop.driver import optimize_program
from repro.cxprop.inline import inline_program

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


def _observe(program, names, engine="tree") -> list:
    node = Node(program, engine=engine)
    node.boot()
    node.run(0.001)
    return [node.memory.read(Pointer(node.memory.global_object(name), 0),
                             program.lookup_global(name).ctype)
            for name in names]


def _cxprop(program):
    optimize_program(program)


def _gcc(program):
    gcc_optimize(program)


def _cxprop_gcc(program):
    optimize_program(program)
    gcc_optimize(program)


#: The optimized setups, each run on the tree-walker.
OPTIMIZERS = {"cxprop": _cxprop, "gcc": _gcc, "cxprop+gcc": _cxprop_gcc}


def observe_everywhere(source: str, names: list[str]) -> dict[str, list]:
    """What each setup observes in the globals ``names`` after ``main``."""
    seen = {
        "tree": _observe(make_program(source), names, "tree"),
        "compiled": _observe(make_program(source), names, "compiled"),
    }
    for name, optimize in OPTIMIZERS.items():
        program = make_program(source)
        optimize(program)
        seen[name] = _observe(program, names)
    return seen


def _main(body: str, globals_: str) -> str:
    return f"{globals_}\n__spontaneous void main(void) {{\n{body}\n  __sleep();\n}}\n"


CASES = {
    "copyprop-wraps-a-literal": (
        _main("  uint8_t v0 = 292;\n  g0 = v0;", "volatile int16_t g0;"),
        ["g0"], [36]),
    "copyprop-keeps-a-narrowing-copy": (
        _main("  int16_t b = src;\n  uint8_t a = b;\n  g0 = a;",
              "volatile int16_t g0; volatile int16_t src = 300;"),
        ["g0"], [44]),
    "cxprop-truncates-division": (
        _main("  int16_t a = 0 - 7;\n  int16_t t = a / 2;\n"
              "  int16_t u = a % 2;\n  q = t;\n  r = u;",
              "volatile int16_t q; volatile int16_t r;"),
        ["q", "r"], [-3, -1]),
    "gcc-truncates-literal-division": (
        _main("  q = (0 - 7) / 2;\n  r = (0 - 7) % 2;",
              "volatile int16_t q; volatile int16_t r;"),
        ["q", "r"], [-3, -1]),
    "gcc-wraps-a-folded-product": (
        _main("  m = (300 * 300) / 4;", "volatile int16_t m;"),
        ["m"], [6116]),
    "gcc-wraps-before-comparing": (
        _main("  m = (200 * 200) > 0;", "volatile int16_t m;"),
        ["m"], [0]),
    "a-bool-in-memory-is-0-or-1": (
        _main("  other = 3;\n  f = flag;\n  o = other;",
              "volatile int16_t f; volatile int16_t o; "
              "bool flag = 2; bool other;"),
        ["f", "o"], [1, 1]),
    "boot-folds-constant-initializers": (
        _main("", "volatile int16_t g = -5; "
                  "volatile uint8_t h = (uint8_t) 300; "
                  "volatile uint16_t k = 2 + 3;"),
        ["g", "h", "k"], [-5, 44, 5]),
    "sizeof-an-expression-in-a-compound-assignment": (
        _main("  arr[sizeof(gx)] += 3;\n  g0 = arr[4];",
              "volatile int32_t gx; int16_t arr[8] = {1, 1, 1, 1, 1, 1, 1, 1}; "
              "volatile int16_t g0;"),
        ["g0"], [4]),
    "sizeof-reads-no-variable": (
        _main("  int32_t lx;\n  g0 = sizeof(gx) + sizeof(lx);",
              "int32_t gx; volatile int16_t g0;"),
        ["g0"], [8]),
}


class TestIntegerSemantics:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_setup_computes_what_the_engines_do(self, case):
        source, names, expected = CASES[case]
        seen = observe_everywhere(source, names)
        assert seen == {setup: expected for setup in seen}


#: The integer types and operators of the straight-line programs.
TYPES = ("int8_t", "uint8_t", "int16_t", "uint16_t")
OPERATORS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
NONZERO = [n for n in range(-300, 301) if n]


def straight_line_program(seed: int) -> str:
    """Five typed locals, eight ``vD = A op B`` and a ``volatile`` sink each.

    Operands are locals or literals in [-300, 300]; divisors are nonzero
    literals and shift counts 0-7, so no program divides by zero or shifts
    by more than C defines.
    """
    rng = random.Random(seed)

    def operand() -> str:
        if rng.random() < 0.25:
            return str(rng.randint(-300, 300))
        return f"v{rng.randrange(5)}"

    body = [f"  {rng.choice(TYPES)} v{i} = {rng.randint(-300, 300)};"
            for i in range(5)]
    for _ in range(8):
        op = rng.choice(OPERATORS)
        if op in ("/", "%"):
            right = str(rng.choice(NONZERO))
        elif op in ("<<", ">>"):
            right = str(rng.randint(0, 7))
        else:
            right = operand()
        body.append(f"  v{rng.randrange(5)} = {operand()} {op} {right};")
    body += [f"  s{i} = v{i};" for i in range(5)]
    return _main("\n".join(body),
                 " ".join(f"volatile int16_t s{i};" for i in range(5)))


class TestStraightLineDifferential:
    SEEDS = range(200)

    def test_every_setup_agrees_on_every_seed(self):
        sinks = [f"s{i}" for i in range(5)]
        mismatches = []
        for seed in self.SEEDS:
            seen = observe_everywhere(straight_line_program(seed), sinks)
            differing = sorted(setup for setup, values in seen.items()
                               if values != seen["tree"])
            if differing:
                mismatches.append((seed, differing))
        assert mismatches == []


#: Arguments and returned values converted to their declared types, through
#: every way the compiled engine enters a function: a CALL op (one, two and
#: three arguments, and one that stores the returned value), an
#: expression-position call, an address-taken parameter and a ``bool``.
CALL_CONVERSIONS = _main("""
  f(300);
  f2(200, 300);
  f3(300, 300, 200);
  g4 = h();
  g5 = r(300) + 1;
  g6 = taken(300);
  fb(2);
  g8 = h() + r(0 - 1);""", """
volatile int16_t g0; volatile int16_t g1; volatile int16_t g2;
volatile int16_t g3; volatile int16_t g4; volatile int16_t g5;
volatile int16_t g6; volatile int16_t g7; volatile int16_t g8;
void f(uint8_t x) { g0 = x; }
void f2(int8_t a, uint8_t b) { g1 = a; g2 = b; }
void f3(uint8_t a, uint8_t b, int8_t c) { g3 = a + b + c; }
uint8_t h(void) { return 300; }
uint8_t r(int16_t v) { f(1); return v; }
uint8_t taken(uint8_t x) { uint8_t *p = &x; return *p; }
void fb(bool b) { g7 = b; }""")

CALL_GLOBALS = [f"g{i}" for i in range(9)]
#: ``f(1)`` in ``r`` leaves g0 at 1; ``r(-1)`` returns 255.
CALL_EXPECTED = [1, -56, 44, 32, 44, 45, 44, 1, 299]


class TestCallConversions:
    """C converts each argument to its parameter's type and each returned
    value to the function's return type; the inliner's build does, so both
    engines must too."""

    def _observe_variants(self) -> dict[str, list]:
        inlined = make_program(CALL_CONVERSIONS)
        report = inline_program(inlined)
        assert report.calls_inlined > 0
        return {
            "tree": _observe(make_program(CALL_CONVERSIONS), CALL_GLOBALS,
                             "tree"),
            "compiled": _observe(make_program(CALL_CONVERSIONS),
                                 CALL_GLOBALS, "compiled"),
            "inlined": _observe(inlined, CALL_GLOBALS, "tree"),
        }

    def test_arguments_and_returns_take_their_declared_types(self):
        seen = self._observe_variants()
        assert seen == {setup: CALL_EXPECTED for setup in seen}

    def test_a_call_from_outside_converts_its_arguments(self):
        for engine in ("tree", "compiled"):
            node = Node(make_program(CALL_CONVERSIONS), engine=engine)
            node.boot()
            assert node.interpreter.call("r", [70000]) == 112
            node.interpreter.call("f", [-1])
            obj = node.memory.global_object("g0")
            assert node.memory.read(Pointer(obj, 0),
                                    node.program.lookup_global("g0").ctype) \
                == 255
