"""Canonical source emitter for SL trees.

Output is a fixed layout (4-space indent, braces always, one statement per
line) so printing is idempotent and round-trips through the parser.
"""

from __future__ import annotations

from . import ast
from .parser import PRECEDENCE

_INDENT = "    "

# The parser's levels, one up to make room for `=` at the bottom.
_PRECEDENCE = {"=": 1, **{op: level + 1 for op, level in PRECEDENCE.items()}}


def pretty_print(unit: ast.CompilationUnit) -> str:
    lines: list[str] = []
    if unit.package_name:
        lines.append(f"package {unit.package_name};")
        lines.append("")
    for i, cls in enumerate(unit.classes):
        if i > 0:
            lines.append("")
        _class(lines, cls)
    for comment in unit.trailing_comments:
        lines.append(comment)
    return "\n".join(lines) + "\n"


def _class(lines: list[str], cls: ast.ClassDecl) -> None:
    for comment in cls.leading_comments:
        lines.append(comment)
    header = f"class {cls.name}"
    if cls.extends:
        header += f" extends {cls.extends}"
    lines.append(header + " {")
    members_emitted = False
    for fld in cls.fields:
        for comment in fld.leading_comments:
            lines.append(_INDENT + comment)
        mods = ("static " if fld.static else "") + ("final " if fld.final else "")
        decl = f"{_INDENT}{mods}{fld.type} {fld.name}"
        if fld.initializer is not None:
            decl += f" = {expr_text(fld.initializer)}"
        lines.append(decl + ";")
        members_emitted = True
    for method in cls.methods:
        if members_emitted:
            lines.append("")
        _method(lines, method)
        members_emitted = True
    lines.append("}")


def _method(lines: list[str], m: ast.MethodDecl) -> None:
    for comment in m.leading_comments:
        lines.append(_INDENT + comment)
    mods = "static " if m.is_static else ""
    params = ", ".join(
        ("final " if p.final else "") + f"{p.type} {p.name}" for p in m.params
    )
    if m.is_constructor:
        head = f"{_INDENT}{mods}{m.name}({params}) "
    else:
        ret = str(m.return_type)
        head = f"{_INDENT}{mods}{ret} {m.name}({params}) "
    _block(lines, m.body, 1, head)


def _block(lines: list[str], block: ast.Block, depth: int, head: str = "") -> None:
    lines.append((head if head else _INDENT * depth) + "{")
    for stmt in block.stmts:
        _stmt(lines, stmt, depth + 1)
    for comment in block.trailing_comments:
        lines.append(_INDENT * (depth + 1) + comment)
    lines.append(_INDENT * depth + "}")


def _stmt(lines: list[str], stmt: ast.Stmt, depth: int) -> None:
    pad = _INDENT * depth
    for comment in stmt.leading_comments:
        lines.append(pad + comment)
    if isinstance(stmt, ast.Block):
        _block(lines, stmt, depth)
    elif isinstance(stmt, ast.If):
        _if(lines, stmt, depth, pad + "if (" + expr_text(stmt.cond) + ") ")
    elif isinstance(stmt, ast.While):
        _block(lines, stmt.body, depth, pad + f"while ({expr_text(stmt.cond)}) ")
    elif isinstance(stmt, ast.For):
        init = ""
        if isinstance(stmt.init, ast.LocalDecl):
            init = _local_decl_text(stmt.init)
        elif isinstance(stmt.init, ast.ExprStmt):
            init = expr_text(stmt.init.expr)
        cond = expr_text(stmt.cond) if stmt.cond is not None else ""
        update = expr_text(stmt.update) if stmt.update is not None else ""
        _block(lines, stmt.body, depth, pad + f"for ({init}; {cond}; {update}) ")
    elif isinstance(stmt, ast.Switch):
        lines.append(pad + f"switch ({expr_text(stmt.subject)}) {{")
        for case in stmt.cases:
            if case.label is None:
                lines.append(pad + _INDENT + "default:")
            else:
                lines.append(pad + _INDENT + f"case {expr_text(case.label)}:")
            for inner in case.body:
                _stmt(lines, inner, depth + 2)
        lines.append(pad + "}")
    elif isinstance(stmt, ast.Try):
        _block(lines, stmt.body, depth, pad + "try ")
        for catch in stmt.catches:
            _block(lines, catch.body, depth, pad + f"catch ({catch.exc_type} {catch.name}) ")
        if stmt.finally_block is not None:
            _block(lines, stmt.finally_block, depth, pad + "finally ")
    elif isinstance(stmt, ast.Return):
        if stmt.value is None:
            lines.append(pad + "return;")
        else:
            lines.append(pad + f"return {expr_text(stmt.value)};")
    elif isinstance(stmt, ast.ExprStmt):
        lines.append(pad + expr_text(stmt.expr) + ";")
    elif isinstance(stmt, ast.LocalDecl):
        lines.append(pad + _local_decl_text(stmt) + ";")
    elif isinstance(stmt, ast.Assert):
        text = f"assert {expr_text(stmt.condition)}"
        if stmt.message is not None:
            text += f" : {expr_text(stmt.message)}"
        lines.append(pad + text + ";")
    elif isinstance(stmt, ast.Synchronized):
        _block(lines, stmt.body, depth, pad + f"synchronized ({expr_text(stmt.monitor)}) ")
    elif isinstance(stmt, ast.Empty):
        lines.append(pad + ";")
    else:  # pragma: no cover - parser produces no other statements
        raise AssertionError(f"unprintable statement {type(stmt).__name__}")


def _if(lines: list[str], stmt: ast.If, depth: int, head: str) -> None:
    pad = _INDENT * depth
    lines.append(head + "{")
    for inner in stmt.then.stmts:
        _stmt(lines, inner, depth + 1)
    for comment in stmt.then.trailing_comments:
        lines.append(_INDENT * (depth + 1) + comment)
    if stmt.els is None:
        lines.append(pad + "}")
    elif isinstance(stmt.els, ast.If):
        _if(lines, stmt.els, depth, pad + "} else if (" + expr_text(stmt.els.cond) + ") ")
    else:
        _block(lines, stmt.els, depth, pad + "} else ")


def _local_decl_text(decl: ast.LocalDecl) -> str:
    text = ("final " if decl.final else "") + f"{decl.type} {decl.name}"
    if decl.initializer is not None:
        text += f" = {expr_text(decl.initializer)}"
    return text


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def expr_text(expr: ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, ast.Literal):
        if expr.kind == "string":
            return f'"{_escape(expr.value)}"'
        if expr.kind == "boolean":
            return "true" if expr.value else "false"
        if expr.kind == "double":
            text = repr(float(expr.value))
            if "e" in text or "E" in text:
                # keep the lexeme in digits.digits form
                text = format(float(expr.value), ".12f")
            return text
        return str(expr.value)
    if isinstance(expr, ast.Null):
        return "null"
    if isinstance(expr, ast.Name):
        return expr.identifier
    if isinstance(expr, ast.Unary):
        operand = expr_text(expr.operand, 8)
        # "- -x", not the "--" operator
        text = f"{expr.op} {operand}" if operand.startswith("-") else expr.op + operand
        return f"({text})" if parent_prec > 8 else text
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        if expr.op == "=":
            # right-associative
            text = f"{expr_text(expr.left, prec + 1)} = {expr_text(expr.right, prec)}"
        else:
            text = f"{expr_text(expr.left, prec)} {expr.op} {expr_text(expr.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Call):
        args = ", ".join(expr_text(a) for a in expr.args)
        if expr.receiver is not None:
            return f"{expr_text(expr.receiver, 9)}.{expr.name}({args})"
        return f"{expr.name}({args})"
    if isinstance(expr, ast.New):
        args = ", ".join(expr_text(a) for a in expr.args)
        return f"new {expr.class_name}({args})"
    if isinstance(expr, ast.NewArray):
        return f"new {expr.elem_type.base}[{expr_text(expr.size_expr)}]"
    if isinstance(expr, ast.Index):
        return f"{expr_text(expr.array, 9)}[{expr_text(expr.index)}]"
    if isinstance(expr, ast.FieldAccess):
        return f"{expr_text(expr.receiver, 9)}.{expr.name}"
    raise AssertionError(f"unprintable expression {type(expr).__name__}")
