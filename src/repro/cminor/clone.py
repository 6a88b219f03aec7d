"""Fast structural cloning of CMinor programs.

``Program.clone()`` is on the hot path of the batched sweep runner: one
front-end program per application is cloned once per build variant, so the
clone has to be much cheaper than re-running the nesC front end.  A generic
deep copy spends most of its time memoizing and re-creating objects
that are immutable by construction — ``CType`` instances, ``SourceLocation``
records, qualifier frozensets — so this module clones the AST structurally
instead, sharing everything immutable:

* types (``repro.cminor.typesys`` dataclasses are frozen), source locations
  and every other field that holds no node are shared by reference;
* expression and statement nodes are rebuilt from the shape the visitor
  derives from their dataclasses (:data:`repro.cminor.visitor.SHAPES`), so
  every kind is covered.  Each node is built through its constructor, which
  gives every cloned statement a fresh ``node_id`` (so no two live
  statements alias an id, and no node-id-keyed memo entry carries over)
  and keeps CPython's key-sharing instance dicts: a clone that copied
  ``__dict__`` instead would cost each node a dict of its own;
* containers (struct table, globals/functions dicts, task lists, vector and
  racy-variable sets) are shallow-copied per program;
* the analysis memo's per-function facts and type-check records, which
  hold names and types only, are copied, so the clone starts warm.

The cloned program is semantically identical to the original: building both
through the same pass list must produce byte-identical images
(``tests/cminor/test_clone.py`` enforces this).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

from repro.cminor import ast_nodes as ast
from repro.cminor.visitor import BLOCK, EXPR, EXPRS, SHAPES, STMTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cminor.program import Program


# ---------------------------------------------------------------------------
# Expressions and statements
# ---------------------------------------------------------------------------


def clone_node(node: Optional[ast.Node]) -> Optional[ast.Node]:
    """Structurally clone an expression or statement subtree."""
    if node is None:
        return None
    return _CLONERS[type(node)](node)


#: The same clone, named for what the caller holds.
clone_expr = clone_stmt = clone_block = clone_node


def _clone_list(nodes: list[ast.Node]) -> list[ast.Node]:
    return [_CLONERS[type(node)](node) for node in nodes]


#: How a field of each child form is cloned.
_CLONE_BY_FORM = {EXPR: "clone_node", EXPRS: "clone_list",
                  BLOCK: "clone_node", STMTS: "clone_list"}


def _cloner(cls: type) -> Callable[[ast.Node], ast.Node]:
    """Compile the clone of one node kind from its shape.

    Constructor fields are passed in declaration order, children cloned and
    other fields shared.  Fields outside the constructor (``ctype``,
    ``loc``) are copied, except those it fills from a factory
    (``node_id``), which stay fresh.  The function is compiled, as
    :mod:`dataclasses` compiles ``__init__``, so it costs what a
    hand-written ``BinaryOp(e.op, clone_node(e.left), ...)`` would; for
    ``BinaryOp``::

        def clone(node):
            cloned = BinaryOp(node.op, clone_node(node.left),
                              clone_node(node.right))
            cloned.ctype = node.ctype
            cloned.loc = node.loc
            return cloned
    """
    arguments = []
    lines = []
    for f, (name, form) in zip(dataclasses.fields(cls), SHAPES[cls]):
        if f.init:
            value = f"node.{name}"
            arguments.append(value if form is None
                             else f"{_CLONE_BY_FORM[form]}({value})")
        elif f.default_factory is dataclasses.MISSING:
            lines.append(f"    cloned.{name} = node.{name}\n")
    source = (f"def clone(node):\n"
              f"    cloned = {cls.__name__}({', '.join(arguments)})\n"
              f"{''.join(lines)}    return cloned\n")
    namespace = {cls.__name__: cls, "clone_node": clone_node,
                 "clone_list": _clone_list}
    exec(source, namespace)
    return namespace["clone"]


_CLONERS = {cls: _cloner(cls) for cls in SHAPES}


# ---------------------------------------------------------------------------
# Declarations and whole programs
# ---------------------------------------------------------------------------


def clone_global(var: ast.GlobalVar) -> ast.GlobalVar:
    return ast.GlobalVar(var.name, var.ctype, clone_expr(var.init),
                         var.qualifiers, var.origin, var.loc)


def clone_function(func: ast.FunctionDef) -> ast.FunctionDef:
    return ast.FunctionDef(
        name=func.name,
        return_type=func.return_type,
        params=[ast.Param(p.name, p.ctype) for p in func.params],
        body=clone_block(func.body),
        attributes=dict(func.attributes),
        origin=func.origin,
        loc=func.loc,
    )


def clone_program(program: "Program") -> "Program":
    """Deep-copy a whole program, sharing its immutable leaves.

    The clone owns its own struct table, symbol dicts, metadata containers
    and analysis memo; mutating the clone can never be observed through the
    original, and vice versa.
    """
    from repro.cminor.program import Program, StructTable

    structs = StructTable()
    structs._structs = dict(program.structs._structs)

    cloned = Program(
        name=program.name,
        platform=program.platform,
        structs=structs,
        globals={name: clone_global(var)
                 for name, var in program.globals.items()},
        functions={name: clone_function(func)
                   for name, func in program.functions.items()},
        builtins={name: copy.copy(b) for name, b in program.builtins.items()},
        entry=program.entry,
        tasks=list(program.tasks),
        interrupt_vectors=dict(program.interrupt_vectors),
        racy_variables=set(program.racy_variables),
        norace_suppressed=set(program.norace_suppressed),
    )
    cache = program.__dict__.get("_analysis_cache")
    if cache is not None:
        cloned.__dict__["_analysis_cache"] = cache.copy()
    return cloned
