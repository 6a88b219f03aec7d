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

import os
import random
from unittest import mock

import pytest

from repro.avrora.memory import Pointer
from repro.avrora.node import Node
from repro.backend.gcc_opt import gcc_optimize
from repro.cxprop.driver import optimize_program

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import make_program


def _observe(program, names, engine="tree", superblocks=True) -> list:
    with mock.patch.dict(os.environ, {
            "REPRO_AVRORA_SUPERBLOCKS": "1" if superblocks else "0"}):
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


def observe_everywhere(source: str, names: list[str],
                       superblocks_off: bool = False) -> dict[str, list]:
    """What each setup observes in the globals ``names`` after ``main``."""
    seen = {
        "tree": _observe(make_program(source), names, "tree"),
        "compiled": _observe(make_program(source), names, "compiled"),
    }
    if superblocks_off:
        seen["compiled-no-superblocks"] = _observe(
            make_program(source), names, "compiled", superblocks=False)
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
            seen = observe_everywhere(straight_line_program(seed), sinks,
                                      superblocks_off=True)
            differing = sorted(setup for setup, values in seen.items()
                               if values != seen["tree"])
            if differing:
                mismatches.append((seed, differing))
        assert mismatches == []
