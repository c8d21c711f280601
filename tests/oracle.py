"""Reference implementations that the tests hold the program to: tree
queries for the resolver's node index, and the clone detector's token
normalization."""

from __future__ import annotations

from overrun_lint.frontend import ast
from overrun_lint.frontend.lexer import DOUBLE_LITERAL, IDENTIFIER, INT_LITERAL, STRING_LITERAL, Token
from overrun_lint.records import fields


def field_scan_children(node: ast.Node) -> list[ast.Node]:
    """Direct child nodes by a scan of every field's value, in field order."""
    children = []
    for f in fields(node):
        if f.name in ("span", "uid"):
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.Node):
                children.append(item)
    return children


def parent_map(root: ast.Node) -> dict[int, ast.Node]:
    """Map child uid -> parent node for the whole subtree."""
    parents: dict[int, ast.Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in field_scan_children(node):
            parents[child.uid] = node
            stack.append(child)
    return parents


def source_preorder(root: ast.Node) -> list[ast.Node]:
    """Pre-order, visiting each node's children by uid: in the order the
    parser created them, which is source order (see
    test_index.test_parsed_siblings_are_created_in_source_order)."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(sorted(field_scan_children(node), key=lambda child: child.uid, reverse=True))
    return order


_CLONE_NORMAL = {IDENTIFIER: "ID", INT_LITERAL: "NUM", DOUBLE_LITERAL: "NUM", STRING_LITERAL: "STR"}


def normalize_token(token: Token) -> str:
    """A token as the clone detector compares it: identifiers, numeric
    literals and string literals by kind, every other token by its text."""
    return _CLONE_NORMAL.get(token.kind, token.text)
