"""Assert lowering: rewrite `assert cond : msg;` into guarded runtime checks.

Each Assert becomes

    if (ASSERTIONS_ENABLED && !(cond)) fail("Class.method", "assert <cond>", msg);

where ASSERTIONS_ENABLED is the runtime's assertion toggle and fail() is the
builtin that records the violation.  The lowered If carries an AssertInfo
marker so the interpreter can also log checks that pass.
"""

from __future__ import annotations

import copy
from dataclasses import fields as dc_fields

from . import ast
from .printer import expr_text


def instrument_asserts(unit: ast.CompilationUnit) -> ast.CompilationUnit:
    """Return a copy of unit with every Assert lowered to a guarded If."""
    new_unit = copy.deepcopy(unit)
    for cls in new_unit.classes:
        for method in cls.methods:
            unit_name = f"{cls.name}.{method.name}"
            _rewrite_block(new_unit, method.body, unit_name)
    return new_unit


def _rewrite_block(unit: ast.CompilationUnit, block: ast.Block, unit_name: str) -> None:
    for i, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.Assert):
            block.stmts[i] = _lower(unit, stmt, unit_name)
        else:
            _rewrite_children(unit, stmt, unit_name)


def _rewrite_children(unit: ast.CompilationUnit, stmt: ast.Stmt, unit_name: str) -> None:
    for f in dc_fields(stmt):
        value = getattr(stmt, f.name)
        if isinstance(value, ast.Block):
            _rewrite_block(unit, value, unit_name)
        elif isinstance(value, ast.CatchClause):
            _rewrite_block(unit, value.body, unit_name)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Block):
                    _rewrite_block(unit, item, unit_name)
                elif isinstance(item, ast.CatchClause):
                    _rewrite_block(unit, item.body, unit_name)
                elif isinstance(item, ast.SwitchCase):
                    for j, inner in enumerate(item.body):
                        if isinstance(inner, ast.Assert):
                            item.body[j] = _lower(unit, inner, unit_name)
                        else:
                            _rewrite_children(unit, inner, unit_name)
        elif isinstance(value, ast.If):
            _rewrite_children(unit, value, unit_name)


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
