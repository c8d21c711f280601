import hashlib
import random

import pytest

from overrun_lint.errors import ParseError
from overrun_lint.frontend import ast, parse_source
from overrun_lint.frontend.ast import walk
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.frontend.printer import expr_text
from overrun_lint.records import fields

from oracle import field_scan_children, parent_map
from progen import seeded_unit


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
    assert stmt.leading_comments == ("// note",)


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
    for child in field_scan_children(node):
        out += _recursive_preorder(child)
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
    parents = parent_map(node)
    assert len(parents) == 5000 and parents[0].uid == 1
    assert ast.count_nodes(node, ast.Unary) == 5000


def test_for_slots_distinct_even_when_empty():
    unit = parse_source("class A { void m() { for (;;) { return; } } }")
    for_node = next(n for n in walk(unit) if isinstance(n, ast.For))
    assert for_node.init is None and for_node.cond is None and for_node.update is None


# -- parser contract: trees, expression shapes and errors -------------------


def _ref(value):
    if isinstance(value, ast.Node):
        return ("node", value.uid)
    if isinstance(value, list):
        return [_ref(item) for item in value]
    return value


def _tree_digest(unit: ast.CompilationUnit) -> str:
    """sha256 over every node in pre-order: class, then every field (span,
    uid and comments included), children referred to by uid."""
    h = hashlib.sha256()
    for node in walk(unit):
        row = [type(node).__name__] + [(f.name, _ref(getattr(node, f.name))) for f in fields(node)]
        h.update(repr(row).encode())
    return h.hexdigest()


TREE_DIGESTS = {
    "assert_demo.sl": "56427841c5c8a9acc62cf310c6192efc3b37975f80692d88c9279aaf89b0755d",
    "building_lift.sl": "5e6501d6b9363be8ca64c1575e25ea7578521acaa8d8f5532c9adb1ba60cbc02",
    "checkers_state.sl": "bbd383bc43766259d8ce0143ae031648e32cca55a0ce744ae56022eff218cd2d",
    "deadlock_demo.sl": "83c3e441b95c46083bcf80604193b5849a75baccd31d661f28cbe589f2589bd2",
    "equals_demo.sl": "0d584f3fd74d4e4e5e287751484912134fb7be4fe4c06376ffe6925e162aa7a1",
    "file_check.sl": "3fffcf402420e24ce842c82b24613a25f35d2e54e2a07bd5bdfdedb5916e5985",
    "makeover.sl": "f3ca103d7d6a9e282245ff93ffd73aa9b3ce18fab0884a76837a27b20a2d711e",
    "readline_loop.sl": "e9c68af084cb779bf08c5aec5b2bb1446546277373843ab3240cd6999aedc292",
    "robustness.sl": "5a75f709604d467dc0a898858ebcc5d427102a4b878a7d372500e195163540aa",
    "testing.sl": "1d4a601499c94020c0a14d8286aee8a699f67d6d8752e57a5e64cff0c62417bd",
    "wait_demo.sl": "27d4697773bed875de4f69275bcb4a87a614c814fa995d4732e1d07aeef2830b",
    "yang.sl": "d060e32053110246f76453a740a34e7c573f13a927cb964086622dab369329d8",
    "seeded1.sl": "c249ea913f9c8ab5597ec6bd7e0329a1a09c4678f827e94dfcfbfe614e4e9a12",
    "seeded2.sl": "7a36e4a884d2f9f9076dcec0799eb7da954b91bcf703aa93a5e8a7a4d8401e64",
    "seeded3.sl": "700cbfac5107224e05e812a8d10ea6fc22c013e13c13be00f73a4651d2429b42",
    "seeded4.sl": "64903c423aef053790b56d3db0b4777924a0b67665b847b9c5e0cff4bf032c39",
    "seeded5.sl": "d1ba697cf6117cc8b376eb9ea3f0c293390165a3992e713a126e75a5dda90ac5",
}


def test_parse_trees_are_pinned(corpus_sources):
    units = dict(corpus_sources)
    for seed in range(1, 6):
        units[f"seeded{seed}.sl"] = seeded_unit(seed)
    assert {name: _tree_digest(parse_source(src, name)) for name, src in units.items()} == TREE_DIGESTS


# Expression trees as tuples: ("name", id), ("lit", text), ("bin", op, l, r),
# ("assign", lvalue, r), ("un", op, e), ("field", receiver, name),
# ("index", array, index), ("call", receiver-or-None, name, args),
# ("new", class, args) and ("newarray", elem, size).
_BINARY_PREC = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
_UNARY_PREC, _POSTFIX_PREC = 7, 8
_LITERALS = ("0", "7", "2.5", '"s"', "true", "false", "null", "this")


def _random_expr(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.6:
            return ("name", rng.choice("abcd"))
        return ("lit", rng.choice(_LITERALS))
    kind = rng.choice(["bin", "bin", "bin", "assign", "un", "field", "index", "call", "new"])
    sub = lambda: _random_expr(rng, depth - 1)  # noqa: E731
    if kind == "bin":
        return ("bin", rng.choice(sorted(_BINARY_PREC)), sub(), sub())
    if kind == "assign":
        target = rng.choice([("name", "x"), ("field", sub(), "f"), ("index", sub(), sub())])
        return ("assign", target, sub())
    if kind == "un":
        return ("un", rng.choice("!-"), sub())
    if kind == "field":
        return ("field", sub(), rng.choice(["f", "g"]))
    if kind == "index":
        return ("index", sub(), sub())
    if kind == "call":
        receiver = sub() if rng.random() < 0.5 else None
        return ("call", receiver, rng.choice(["f", "h"]), [sub() for _ in range(rng.randrange(3))])
    if rng.random() < 0.5:
        return ("new", "C", [sub() for _ in range(rng.randrange(3))])
    return ("newarray", rng.choice(["int", "C"]), sub())


def _prec(tree: tuple) -> int:
    if tree[0] == "assign":
        return 0
    if tree[0] == "bin":
        return _BINARY_PREC[tree[1]]
    if tree[0] == "un":
        return _UNARY_PREC
    return _POSTFIX_PREC


def _text(tree: tuple, rng: random.Random | None, floor: int = 0) -> str:
    """Source for tree.  With rng: only the parentheses precedence needs,
    plus a few redundant ones.  Without: every compound operand in parens."""
    kind = tree[0]
    if kind in ("name", "lit"):
        return tree[1]
    sub = lambda t, f=0: _text(t, rng, f)  # noqa: E731
    if kind == "bin":
        prec = _BINARY_PREC[tree[1]]
        out = f"{sub(tree[2], prec)} {tree[1]} {sub(tree[3], prec + 1)}"
    elif kind == "assign":
        out = f"{sub(tree[1], _POSTFIX_PREC)} = {sub(tree[2])}"
    elif kind == "un":
        out = f"{tree[1]} {sub(tree[2], _UNARY_PREC)}"
    elif kind == "field":
        out = f"{sub(tree[1], _POSTFIX_PREC)}.{tree[2]}"
    elif kind == "index":
        out = f"{sub(tree[1], _POSTFIX_PREC)}[{sub(tree[2])}]"
    elif kind == "call":
        head = "" if tree[1] is None else sub(tree[1], _POSTFIX_PREC) + "."
        out = f"{head}{tree[2]}({', '.join(sub(a) for a in tree[3])})"
    elif kind == "new":
        out = f"new {tree[1]}({', '.join(sub(a) for a in tree[2])})"
    else:
        out = f"new {tree[1]}[{sub(tree[2])}]"
    if rng is None or _prec(tree) < floor or rng.random() < 0.1:
        return f"({out})"
    return out


def _as_tuple(expr: ast.Expr) -> tuple:
    if isinstance(expr, ast.Name):
        return ("name" if expr.identifier != "this" else "lit", expr.identifier)
    if isinstance(expr, ast.Null):
        return ("lit", "null")
    if isinstance(expr, ast.Literal):
        text = {"string": f'"{expr.value}"', "boolean": str(expr.value).lower()}.get(expr.kind, str(expr.value))
        return ("lit", text)
    if isinstance(expr, ast.Binary):
        if expr.op == "=":
            return ("assign", _as_tuple(expr.left), _as_tuple(expr.right))
        return ("bin", expr.op, _as_tuple(expr.left), _as_tuple(expr.right))
    if isinstance(expr, ast.Unary):
        return ("un", expr.op, _as_tuple(expr.operand))
    if isinstance(expr, ast.FieldAccess):
        return ("field", _as_tuple(expr.receiver), expr.name)
    if isinstance(expr, ast.Index):
        return ("index", _as_tuple(expr.array), _as_tuple(expr.index))
    if isinstance(expr, ast.Call):
        receiver = None if expr.receiver is None else _as_tuple(expr.receiver)
        return ("call", receiver, expr.name, [_as_tuple(a) for a in expr.args])
    if isinstance(expr, ast.New):
        return ("new", expr.class_name, [_as_tuple(a) for a in expr.args])
    assert isinstance(expr, ast.NewArray)
    return ("newarray", expr.elem_type.base, _as_tuple(expr.size_expr))


def _parse_expr(text: str) -> ast.Expr:
    unit = parse_source(f"class A {{ void m() {{ return {text}; }} }}")
    return unit.classes[0].methods[0].body.stmts[0].value


@pytest.mark.parametrize("seed", range(20))
def test_random_expressions_match_parenthesised_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        tree = _random_expr(rng, rng.randint(1, 5))
        parsed = _parse_expr(_text(tree, rng))
        assert _as_tuple(parsed) == tree
        assert _as_tuple(_parse_expr(_text(tree, None))) == tree
        assert _as_tuple(_parse_expr(expr_text(parsed))) == tree


# The rest of a file that starts `class A { void m() { `, with the span and
# text of the ParseError it raises (recorded before the parser was
# rewritten); the ones without closing braces end mid-expression.
MALFORMED = {
    'x = a + ; } }': ((1, 30, 1, 31), "<memory>:1:30: expected expression, found ';'"),
    'x = (a; } }': ((1, 28, 1, 29), "<memory>:1:28: expected ), found ';'"),
    '1 = x; } }': ((1, 24, 1, 25), "<memory>:1:24: expected assignable expression on left of '=', found '='"),
    'x++ ++; } }': ((1, 26, 1, 28), "<memory>:1:26: expected ;, found '++'"),
    'x = a.; } }': ((1, 28, 1, 29), "<memory>:1:28: expected member name, found ';'"),
    'x = new; } }': ((1, 29, 1, 30), "<memory>:1:29: expected type after 'new', found ';'"),
    'f(a,': ((1, 26, 1, 26), '<memory>:1:26: expected expression, found end of file'),
    'x = a +': ((1, 29, 1, 29), '<memory>:1:29: expected expression, found end of file'),
    'x = a[1; } }': ((1, 29, 1, 30), "<memory>:1:29: expected ], found ';'"),
    'x = - ; } }': ((1, 28, 1, 29), "<memory>:1:28: expected expression, found ';'"),
    'f(a b); } }': ((1, 26, 1, 27), "<memory>:1:26: expected ), found 'b'"),
    'x = new int[; } }': ((1, 34, 1, 35), "<memory>:1:34: expected expression, found ';'"),
    'x = new 3; } }': ((1, 30, 1, 31), "<memory>:1:30: expected type after 'new', found '3'"),
    '(a + b)++; } }': ((1, 29, 1, 31), "<memory>:1:29: expected assignable expression before '++'/'--', found '++'"),
    'a + b = c; } }': ((1, 28, 1, 29), "<memory>:1:28: expected assignable expression on left of '=', found '='"),
    'return a && || b; } }': ((1, 34, 1, 36), "<memory>:1:34: expected expression, found '||'"),
    'x = a * / b; } }': ((1, 30, 1, 31), "<memory>:1:30: expected expression, found '/'"),
    'x = !': ((1, 27, 1, 27), '<memory>:1:27: expected expression, found end of file'),
    'x = a.b(; } }': ((1, 30, 1, 31), "<memory>:1:30: expected expression, found ';'"),
    'x = (a + b': ((1, 32, 1, 32), '<memory>:1:32: expected ), found end of file'),
    'x = a == ; } }': ((1, 31, 1, 32), "<memory>:1:31: expected expression, found ';'"),
    'f(a)(b); } }': ((1, 26, 1, 27), "<memory>:1:26: expected ;, found '('"),
    'x = a.3; } }': ((1, 28, 1, 29), "<memory>:1:28: expected member name, found '3'"),
    'x = -- a; } }': ((1, 26, 1, 28), "<memory>:1:26: expected expression, found '--'"),
    'if (x) } }': ((1, 29, 1, 30), "<memory>:1:29: expected expression, found '}'"),
    'for (int i = 0; i < 3 }': ((1, 44, 1, 45), "<memory>:1:44: expected ;, found '}'"),
    'try { } x = 1; } }': ((1, 30, 1, 31), "<memory>:1:30: expected 'catch' or 'finally', found 'x'"),
    'switch (x) { x = 1; } } }': ((1, 35, 1, 36), "<memory>:1:35: expected 'case' or 'default', found 'x'"),
    'int[ x; } }': ((1, 25, 1, 26), "<memory>:1:25: expected variable name, found '['"),
    'final 3 x; } }': ((1, 28, 1, 29), "<memory>:1:28: expected type, found '3'"),
    '} void': ((1, 28, 1, 28), '<memory>:1:28: expected member name, found end of file'),
    '} static static': ((1, 37, 1, 37), '<memory>:1:37: expected type, found end of file'),
    '} int f(int a b) { } }': ((1, 36, 1, 37), "<memory>:1:36: expected ), found 'b'"),
    '} A': ((1, 25, 1, 25), '<memory>:1:25: expected member name, found end of file'),
    'else { } } }': ((1, 22, 1, 26), "<memory>:1:22: expected expression, found 'else'"),
    'while (a + b { } } }': ((1, 35, 1, 36), "<memory>:1:35: expected ), found '{'"),
}


@pytest.mark.parametrize("rest", sorted(MALFORMED))
def test_malformed_expression_errors_are_pinned(rest):
    with pytest.raises(ParseError) as err:
        parse_source("class A { void m() { " + rest)
    span, message = MALFORMED[rest]
    assert (tuple(err.value.span[1:]), str(err.value)) == (span, message)
