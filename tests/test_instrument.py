from overrun_lint.frontend import ast, instrument_asserts, parse_source, pretty_print
from overrun_lint.frontend.ast import count_nodes, structural_eq, walk


def test_identity_on_assert_free_unit():
    unit = parse_source("class A { void m() { println(1); } }")
    out = instrument_asserts(unit)
    assert structural_eq(unit, out)


def test_single_assert_lowering_shape():
    unit = parse_source('class A { void m(int a) { assert a > 10 : "its false"; } }')
    out = instrument_asserts(unit)
    lowered = out.classes[0].methods[0].body.stmts[0]
    assert isinstance(lowered, ast.If)
    assert isinstance(lowered.cond, ast.Binary) and lowered.cond.op == "&&"
    assert isinstance(lowered.cond.left, ast.Name)
    assert lowered.cond.left.identifier == "ASSERTIONS_ENABLED"
    assert isinstance(lowered.cond.right, ast.Unary) and lowered.cond.right.op == "!"
    call = lowered.then.stmts[0].expr
    assert isinstance(call, ast.Call) and call.name == "fail"
    assert call.args[0].value == "A.m"
    assert call.args[1].value == "assert a > 10"
    assert call.args[2].value == "its false"
    assert lowered.assert_origin is not None


def test_counts_three_asserts_lowered():
    source = """\
class A {
    void m(int a) {
        assert a > 0;
        if (a < 5) {
            assert a < 4 : "hm";
        }
        while (a > 0) {
            assert a != 3;
            a = a - 1;
        }
    }
}
"""
    unit = parse_source(source)
    assert count_nodes(unit, ast.Assert) == 3
    ifs_before = count_nodes(unit, ast.If)
    out = instrument_asserts(unit)
    assert count_nodes(out, ast.Assert) == 0
    assert count_nodes(out, ast.If) == ifs_before + 3


def test_non_assert_node_counts_preserved():
    source = 'class A { void m(int a) { println(a); assert a > 1 : "x"; println(a + 1); } }'
    unit = parse_source(source)
    out = instrument_asserts(unit)
    for kind in (ast.ExprStmt, ast.While, ast.For, ast.Return, ast.LocalDecl):
        before = count_nodes(unit, kind)
        after = count_nodes(out, kind)
        if kind is ast.ExprStmt:
            # the lowered fail(...) adds exactly one ExprStmt per assert
            assert after == before + 1
        else:
            assert after == before


def test_instrumented_output_reparses_and_runs_through_printer():
    unit = parse_source('class A { void m(int a) { assert a > 10 : "its false"; } }')
    out = instrument_asserts(unit)
    printed = pretty_print(out)
    assert 'if (ASSERTIONS_ENABLED && !(a > 10)) {' in printed
    reparsed = parse_source(printed)
    assert structural_eq(out, reparsed)


def test_original_unit_untouched():
    unit = parse_source("class A { void m(int a) { assert a > 0; } }")
    instrument_asserts(unit)
    assert count_nodes(unit, ast.Assert) == 1


def test_asserts_in_bare_blocks_are_lowered():
    unit = parse_source("class A { void m(int a) { { assert a > 0; } { if (a > 1) { assert a > 2; } } } }")
    out = instrument_asserts(unit)
    assert count_nodes(out, ast.Assert) == 0
    assert sum(isinstance(n, ast.If) and n.assert_origin is not None for n in walk(out)) == 2


def test_only_the_path_to_an_assert_is_copied():
    unit = parse_source("class A { void m(int a) { a = 1; if (a > 0) { assert a > 1; } } void n() { } } class B { }")
    out = instrument_asserts(unit)
    m, n = unit.classes[0].methods
    new_m, new_n = out.classes[0].methods
    assert out is not unit and new_m is not m
    assert new_m.body.stmts[0] is m.body.stmts[0]  # a = 1;
    assert new_n is n and out.classes[1] is unit.classes[1]
    lowered = new_m.body.stmts[1].then.stmts[0]
    assert lowered.cond.right.operand is m.body.stmts[1].then.stmts[0].condition
    # fresh uids come from the copy; the original keeps its counter
    assert unit.next_uid == lowered.cond.left.uid and out.next_uid > unit.next_uid


def test_deeply_nested_assert_is_lowered():
    depth = 90
    body = "if (a > 0) { " * depth + "assert a > 1; " + "} " * depth
    unit = parse_source(f"class A {{ void m(int a) {{ {body}}} }}")
    out = instrument_asserts(unit)
    assert count_nodes(unit, ast.Assert) == 1 and count_nodes(out, ast.Assert) == 0
