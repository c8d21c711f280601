from dataclasses import fields

import pytest

from overrun_lint.errors import ParseError
from overrun_lint.frontend import ast, parse_source
from overrun_lint.frontend.ast import walk
from overrun_lint.frontend.lexer import SourceSpan


def test_minimal_class():
    unit = parse_source("class A { }")
    assert len(unit.classes) == 1
    cls = unit.classes[0]
    assert cls.name == "A"
    assert cls.fields == [] and cls.methods == []


def test_for_condition_shape():
    unit = parse_source("class A { void m(int max) { int i; for (i = 0; i < max; i = i + 1) { } } }")
    for_node = next(n for n in walk(unit) if isinstance(n, ast.For))
    assert isinstance(for_node.cond, ast.Binary)
    assert for_node.cond.op == "<"
    assert isinstance(for_node.cond.left, ast.Name) and for_node.cond.left.identifier == "i"
    assert isinstance(for_node.cond.right, ast.Name) and for_node.cond.right.identifier == "max"
    assert for_node.init is not None and for_node.update is not None


def test_malformed_class_aborts():
    with pytest.raises(ParseError) as err:
        parse_source("class {")
    assert err.value.span.line == 1
    assert "identifier" in str(err.value.expected) or "name" in str(err.value.expected)


def test_first_error_aborts_no_recovery():
    with pytest.raises(ParseError):
        parse_source("class A { void m() { int x = ; } void later() { } }")


def test_increment_sugar_desugars():
    unit = parse_source("class A { void m() { int i = 0; i++; } }")
    stmt = unit.classes[0].methods[0].body.stmts[1]
    assert isinstance(stmt, ast.ExprStmt)
    assign = stmt.expr
    assert isinstance(assign, ast.Binary) and assign.op == "="
    assert isinstance(assign.right, ast.Binary) and assign.right.op == "+"
    assert isinstance(assign.right.right, ast.Literal) and assign.right.right.value == 1


def test_decrement_sugar():
    unit = parse_source("class A { void m() { int i = 9; i--; } }")
    assign = unit.classes[0].methods[0].body.stmts[1].expr
    assert assign.right.op == "-"


def test_else_if_chain():
    unit = parse_source(
        "class A { void m(int x) { if (x < 0) { } else if (x < 10) { } else { } } }"
    )
    if_node = next(n for n in walk(unit) if isinstance(n, ast.If))
    assert isinstance(if_node.els, ast.If)
    assert isinstance(if_node.els.els, ast.Block)


def test_unbraced_bodies_normalize_to_blocks():
    unit = parse_source("class A { void m(int x) { if (x < 0) x = 0; while (x < 3) x++; } }")
    if_node = next(n for n in walk(unit) if isinstance(n, ast.If))
    assert isinstance(if_node.then, ast.Block) and len(if_node.then.stmts) == 1
    while_node = next(n for n in walk(unit) if isinstance(n, ast.While))
    assert isinstance(while_node.body, ast.Block)


def test_switch_try_assert_synchronized_parse():
    source = """\
class A {
    void m(int x) {
        switch (x) {
        case 1:
            println("one");
        default:
            println("other");
        }
        try {
            x = 1;
        } catch (Exception e) {
            x = 2;
        } finally {
            x = 3;
        }
        assert x > 0 : "message";
        synchronized (this) {
            x = 4;
        }
    }
}
"""
    unit = parse_source(source)
    assert sum(isinstance(n, ast.Switch) for n in walk(unit)) == 1
    tries = [n for n in walk(unit) if isinstance(n, ast.Try)]
    assert len(tries) == 1 and len(tries[0].catches) == 1 and tries[0].finally_block is not None
    assert sum(isinstance(n, ast.Assert) for n in walk(unit)) == 1
    assert sum(isinstance(n, ast.Synchronized) for n in walk(unit)) == 1


def test_package_declaration():
    unit = parse_source("package a.b.c;\nclass A { }")
    assert unit.package_name == "a.b.c"


def test_comments_attach_to_following_statement():
    source = "class A { void m() { // note\nint x = 1; } }"
    unit = parse_source(source)
    stmt = unit.classes[0].methods[0].body.stmts[0]
    assert stmt.leading_comments == ["// note"]


def test_span_containment(corpus_sources):
    for name, source in corpus_sources.items():
        unit = parse_source(source, name)
        for node in walk(unit):
            for child in ast.child_nodes(node):
                assert node.span.covers(child.span), (name, type(node).__name__, type(child).__name__)


def test_uids_unique(corpus_sources):
    for name, source in corpus_sources.items():
        unit = parse_source(source, name)
        uids = [n.uid for n in walk(unit)]
        assert len(uids) == len(set(uids))


def _recursive_preorder(node):
    """Reference pre-order: the node, then each child in field order."""
    out = [node]
    for f in fields(node):
        if f.name in ("span", "uid", "assert_origin"):
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.Node):
                out += _recursive_preorder(item)
    return out


def test_walk_matches_recursive_preorder(corpus_sources):
    for name, source in corpus_sources.items():
        unit = parse_source(source, name)
        assert [n.uid for n in walk(unit)] == [n.uid for n in _recursive_preorder(unit)], name


def test_deep_tree_does_not_recurse():
    # Built from constructors: the parser itself still recurses on nesting.
    span = SourceSpan("<deep>", 1, 1, 1, 1)
    node = ast.Name(identifier="x", span=span, uid=0)
    for uid in range(1, 5001):
        node = ast.Unary(op="-", operand=node, span=span, uid=uid)
    assert [n.uid for n in walk(node)] == list(range(5000, -1, -1))
    parents = ast.parent_map(node)
    assert len(parents) == 5000 and parents[0].uid == 1
    assert ast.count_nodes(node, ast.Unary) == 5000


def test_for_slots_distinct_even_when_empty():
    unit = parse_source("class A { void m() { for (;;) { return; } } }")
    for_node = next(n for n in walk(unit) if isinstance(n, ast.For))
    assert for_node.init is None and for_node.cond is None and for_node.update is None
