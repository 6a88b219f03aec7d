"""CMinor: the C-subset source language used throughout the toolchain.

CMinor plays the role that C (as emitted by the nesC compiler and consumed
by CIL/CCured/cXprop/GCC) plays in the paper.  It is a statically typed
subset of C with:

* fixed-width integer types (``int8_t`` .. ``uint32_t``), ``bool``, ``char``,
  ``void``,
* pointers, fixed-size arrays, and ``struct`` types,
* functions, global and local variables, string literals,
* the TinyOS-specific statement forms the toolchain reasons about:
  ``atomic { ... }`` blocks and ``post task();`` statements,
* qualifiers relevant to the paper: ``const``, ``volatile``, ``norace``,
  and ``__progmem`` (flash-resident data).

The package provides a lexer, a recursive-descent parser that emits CIL's
normal form (every loop is ``while (1)`` with explicit breaks, and no empty
statements survive), a type checker, and a pretty-printer that turns
transformed programs back into CMinor source.
"""

from repro.cminor.errors import CMinorError, LexError, ParseError, TypeCheckError
from repro.cminor.lexer import Lexer, Token, tokenize
from repro.cminor.parser import Parser, parse_program, parse_expression, parse_statement
from repro.cminor.program import Program, link_units
from repro.cminor.typecheck import TypeChecker, check_program
from repro.cminor.pretty import PrettyPrinter, to_source

__all__ = [
    "CMinorError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "Lexer",
    "Token",
    "tokenize",
    "Parser",
    "parse_program",
    "parse_expression",
    "parse_statement",
    "Program",
    "link_units",
    "TypeChecker",
    "check_program",
    "PrettyPrinter",
    "to_source",
]
