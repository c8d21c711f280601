"""Assert lowering: rewrite `assert cond : msg;` into guarded runtime checks.

Each Assert becomes

    if (ASSERTIONS_ENABLED && !(cond)) fail("Class.method", "assert <cond>", msg);

where ASSERTIONS_ENABLED is the runtime's assertion toggle and fail() is the
builtin that records the violation.  The lowered If carries an AssertInfo
marker so the interpreter can also log checks that pass.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace

from . import ast
from .index import NodeIndex
from .printer import expr_text


def instrument_asserts(unit: ast.CompilationUnit) -> ast.CompilationUnit:
    """Return a copy of unit with every Assert lowered to a guarded If.

    Only the nodes on the path from the unit to a lowered Assert are
    copied; every other subtree is shared with unit, which is left as it
    was, and the copy keeps unit's token stream.  Lowered nodes take fresh
    uids from the copy, in source order.  The copy's node index is walked
    along the copied paths and the lowered nodes only; each shared subtree
    is copied from unit's index whole.
    """
    new_unit = copy(unit)
    new_unit.classes = [_rewrite(new_unit, cls, cls.name) for cls in unit.classes]
    new_unit.index = NodeIndex.by_walk(new_unit, unit.index)
    return new_unit


def _rewrite(unit: ast.CompilationUnit, node: ast.Node, name: str) -> ast.Node:
    """node with every Assert in it lowered; node itself when it holds none.
    name is the class's name, and "Class.method" inside a method.  Recurses
    through statements only: no expression holds a statement."""
    if isinstance(node, ast.Assert):
        return _lower(unit, node, name)
    if isinstance(node, ast.MethodDecl):
        name = f"{name}.{node.name}"
    changed = {}
    for field, many in ast.CHILD_FIELDS[type(node)]:
        value = getattr(node, field)
        if many:
            new = [_rewrite(unit, item, name) if _holds_stmts(item) else item for item in value]
            if any(n is not v for n, v in zip(new, value)):
                changed[field] = new
        elif _holds_stmts(value):
            new = _rewrite(unit, value, name)
            if new is not value:
                changed[field] = new
    return replace(node, **changed) if changed else node


def _holds_stmts(value: object) -> bool:
    return isinstance(value, ast.Node) and not isinstance(value, ast.Expr)


def _lower(unit: ast.CompilationUnit, stmt: ast.Assert, unit_name: str) -> ast.If:
    span = stmt.span
    statement_text = f"assert {expr_text(stmt.condition)}"

    def mk(cls, **kw):
        return cls(span=span, uid=unit.fresh_uid(), **kw)

    flag = mk(ast.Name, identifier="ASSERTIONS_ENABLED")
    negated = mk(ast.Unary, op="!", operand=stmt.condition)
    guard = mk(ast.Binary, op="&&", left=flag, right=negated)
    message = stmt.message if stmt.message is not None else mk(ast.Literal, value="", kind="string")
    fail_call = mk(
        ast.Call,
        name="fail",
        args=[
            mk(ast.Literal, value=unit_name, kind="string"),
            mk(ast.Literal, value=statement_text, kind="string"),
            message,
        ],
    )
    then = mk(ast.Block, stmts=[mk(ast.ExprStmt, expr=fail_call)])
    lowered = mk(ast.If, cond=guard, then=then, els=None)
    lowered.leading_comments = list(stmt.leading_comments)
    lowered.assert_origin = ast.AssertInfo(unit_name=unit_name, statement_text=statement_text)
    return lowered
