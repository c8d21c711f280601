import random

import pytest

from overrun_lint.cfg import build_unit_cfgs, call_blocks, reach
from overrun_lint.errors import DuplicateDeclaration, ResolutionError, TypeCheckError
from overrun_lint.frontend import ast, parse_source
from overrun_lint.frontend.ast import walk
from overrun_lint.frontend.index import NodeIndex
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.semantics import build_call_graph, build_symbol_table, type_of
from overrun_lint.semantics import types as ty
from overrun_lint.semantics.callgraph import constructor_cycles, unconditional_cycles

from oracle import parent_map, source_preorder
from progen import gen_recursion_program, seeded_unit


def resolve(source, file="t.sl"):
    unit = parse_source(source, file)
    res = build_symbol_table(unit)
    return unit, res


def test_unused_local_has_zero_usage():
    _, res = resolve("class A { void test() { int z; } }")
    z = next(s for s in res.symbols if s.name == "z")
    assert z.kind == "local"
    assert z.usage_count == 0 and z.write_count == 0


def test_local_shadows_field():
    source = "class A { int v; void m() { int v = 1; println(v); } }"
    unit, res = resolve(source)
    field_sym = next(s for s in res.symbols if s.name == "v" and s.kind == "field")
    local_sym = next(s for s in res.symbols if s.name == "v" and s.kind == "local")
    assert field_sym.usage_count == 0
    assert local_sym.usage_count == 1


def test_param_shadowing_with_this_qualifier():
    source = "class A { int floor; void setFloor(int floor) { this.floor = floor; } }"
    _, res = resolve(source)
    field_sym = next(s for s in res.symbols if s.name == "floor" and s.kind == "field")
    param_sym = next(s for s in res.symbols if s.name == "floor" and s.kind == "param")
    assert field_sym.write_count == 1 and field_sym.usage_count == 0
    assert param_sym.usage_count == 1 and param_sym.write_count == 0


def test_corpus_resolves_clean(corpus_sources):
    for name, source in corpus_sources.items():
        _, res = resolve(source, name)
        assert res.diagnostics == [], name


def test_undeclared_identifier_reported():
    with pytest.raises(ResolutionError, match="t.sl:1:22: undeclared identifier 'ghost'"):
        resolve("class A { void m() { ghost = 1; } }")


def test_duplicate_local_reported():
    with pytest.raises(DuplicateDeclaration, match="t.sl:1:29: duplicate declaration of 'x'"):
        resolve("class A { void m() { int x; int x; } }")


@pytest.mark.parametrize(
    "source, error, message",
    [
        ("class A { } class A { }", DuplicateDeclaration, "1:13: duplicate declaration of 'A'"),
        ("class Thread { }", DuplicateDeclaration, "1:1: duplicate declaration of 'Thread'"),
        ("class String { }", DuplicateDeclaration, "1:1: duplicate declaration of 'String'"),
        ("class A { int f; int f; }", DuplicateDeclaration, "1:18: duplicate declaration of 'f'"),
        ("class A { void m() { } void m() { } }", DuplicateDeclaration, "1:24: duplicate declaration of 'm'"),
        ("class A { void m(int p, int p) { } }", DuplicateDeclaration, "1:25: duplicate declaration of 'p'"),
        ("class A { void m() { println(this.g); } }", ResolutionError, "1:30: undeclared identifier 'g'"),
        ("class A { void m() { A a = new B(); } }", ResolutionError, "1:28: undeclared identifier 'B'"),
        ("class A { void m() { this.nope(); } }", ResolutionError, "1:22: undeclared identifier 'nope'"),
        ("class A { void m(int[] a) { a.length(); } }", ResolutionError, "1:29: undeclared identifier 'length'"),
        # The first error met is the one raised, even where a type error follows.
        ("class A { void m() { x = 1; int y = true; } }", ResolutionError, "1:22: undeclared identifier 'x'"),
        ("class A { void m() { int y = true; x = 1; } }", TypeCheckError, "1:22: cannot use boolean as int"),
    ],
)
def test_resolution_raises_its_first_error(source, error, message):
    with pytest.raises(error) as err:
        resolve(source)
    assert type(err.value) is error and str(err.value).startswith(f"t.sl:{message}")


def test_a_constructor_call_needs_a_constructor_of_its_arity():
    with pytest.raises(TypeCheckError, match=r"t.sl:1:41: class A has no constructor taking 0 argument\(s\)"):
        resolve("class A { A(int x) { } void m() { A a = new A(); } }")
    with pytest.raises(TypeCheckError, match=r"t.sl:1:28: class A has no constructor taking 1 argument\(s\)"):
        resolve("class A { void m() { A a = new A(1); } }")
    _, res = resolve("class A { void m() { A a = new A(); } }")  # the implicit default constructor
    assert [target.id for target in res.call_targets.values()] == ["A.<init>/0"]


def test_string_equality_types_recorded():
    source = 'class A { boolean m(String a, String b) { return a == b; } }'
    unit, res = resolve(source)
    eq = next(n for n in walk(unit) if isinstance(n, ast.Binary) and n.op == "==")
    assert type_of(eq, res) == ty.BOOLEAN
    assert isinstance(type_of(eq.left, res), ty.StringType)
    assert isinstance(type_of(eq.right, res), ty.StringType)


def test_array_element_typing():
    source = "class A { double m() { double[] vals = new double[10]; return vals[3]; } }"
    unit, res = resolve(source)
    idx = next(n for n in walk(unit) if isinstance(n, ast.Index))
    assert type_of(idx, res) == ty.DOUBLE


def test_readline_is_a_string():
    # That its value may be null is a fact of the null rules' dataflow, not of its type.
    source = "class A { void m() { String s = readLine(); println(s); } }"
    unit, res = resolve(source)
    call = next(n for n in walk(unit) if isinstance(n, ast.Call) and n.name == "readLine")
    assert type_of(call, res) == ty.STRING
    name = next(n for n in walk(unit) if isinstance(n, ast.Name) and n.identifier == "s")
    assert type_of(name, res) == ty.STRING


@pytest.mark.parametrize(
    "source",
    [
        'class A { void m() { int x = "s"; } }',
        "class A { void m(boolean b) { int x = b + 1; } }",
        "class A { void m(int x) { if (x) { } } }",
        'class A { void m(String s) { int x = s < "t"; } }',
        "class A { int m() { return; } }",
    ],
)
def test_type_errors(source):
    unit = parse_source(source)
    with pytest.raises(TypeCheckError):
        build_symbol_table(unit)


STATIC_CONTEXT = "cannot be referenced from a static context"


@pytest.mark.parametrize(
    "source, message",
    [
        # A class name is only the receiver of a static member.
        ("class C { static void m() { C c = C; } }", "1:35: class name C is not a value"),
        ("class C { static void m() { C = null; } }", "1:29: class name C is not a value"),
        ("class C { static void m() { synchronized (C) { } } }", "1:43: class name C is not a value"),
        ("class C { void i() { } static void m() { C.i(); } }", f"1:42: non-static method 'i' {STATIC_CONTEXT}"),
        ("class C { int f; static void m() { println(C.f); } }", f"1:44: non-static field 'f' {STATIC_CONTEXT}"),
        ("class C { int f; static void m() { C.f = 1; } }", f"1:36: non-static field 'f' {STATIC_CONTEXT}"),
        ("class T extends Thread { static void m() { T.start(); } }", f"1:44: non-static method 'start' {STATIC_CONTEXT}"),
        # A static method or static field initializer has no this.
        ("class C { int f; static void m() { f = 1; } }", f"1:36: non-static field 'f' {STATIC_CONTEXT}"),
        ("class C { int f; static int m() { return f; } }", f"1:42: non-static field 'f' {STATIC_CONTEXT}"),
        ("class C { void i() { } static void m() { i(); } }", f"1:42: non-static method 'i' {STATIC_CONTEXT}"),
        ("class C { int f; static int s = f; }", f"1:33: non-static field 'f' {STATIC_CONTEXT}"),
        ("class C { int i() { return 1; } static int s = i(); }", f"1:48: non-static method 'i' {STATIC_CONTEXT}"),
        ("class B { int f; } class C extends B { static void m() { f = 1; } }", f"1:58: non-static field 'f' {STATIC_CONTEXT}"),
        ("class T extends Thread { static void m() { start(); } }", f"1:44: non-static method 'start' {STATIC_CONTEXT}"),
        ("class T extends Thread { static void m() { println(getName()); } }", f"1:52: non-static method 'getName' {STATIC_CONTEXT}"),
    ],
)
def test_static_context_rules(source, message):
    with pytest.raises(TypeCheckError) as err:
        resolve(source)
    assert str(err.value) == f"t.sl:{message}"


FINAL = "cannot assign a value to final variable"


@pytest.mark.parametrize(
    "source, message",
    [
        # A final with a value from its declaration takes no store (JLS 4.12.4).
        ("class C { static void m() { final int x = 1; x = 2; } }", f"1:46: {FINAL} x"),
        ("class C { static void m() { final int x = 1; x++; } }", f"1:46: {FINAL} x"),
        ("class C { static final int K = 1; static void m() { K = 5; } }", f"1:53: {FINAL} K"),
        ("class C { final int k = 1; void m(C c) { c.k--; } }", f"1:42: {FINAL} k"),
        ("class C { void m(final int p) { p = 1; } }", f"1:33: {FINAL} p"),
        ("class C { void m() { this = null; } }", f"1:22: {FINAL} this"),
        ("class C { static void m() { ASSERTIONS_ENABLED = true; } }", f"1:29: {FINAL} ASSERTIONS_ENABLED"),
        # A case label has the subject's type.
        ('class C { static void m(String s) { switch (s) { case 1: println(1); } } }', "1:55: case label of type int cannot match a String subject"),
        ('class C { static void m(int i) { switch (i) { case "two": println(2); } } }', "1:52: case label of type String cannot match a int subject"),
        ('class C { static void m(int i) { switch (i) { case 2.0: println(2); } } }', "1:52: case label of type double cannot match a int subject"),
        # A case label is a constant, and distinct (JLS 14.11, 15.29).
        ("class C { static void m(int i) { int j = 2; switch (i) { case j: println(1); } } }", "1:63: constant expression required"),
        ("class C { static void m(int i) { switch (i) { case 2: println(1); case 2: println(2); } } }", "1:72: duplicate case label"),
        ("class C { static final int K = 2; static void m(int i) { switch (i) { case K: println(1); case 2: println(2); } } }", "1:96: duplicate case label"),
        ("class C { static final int A = B; static final int B = A; static void m(int i) { switch (i) { case A: println(1); } } }", "1:100: constant expression required"),
    ],
)
def test_stores_to_finals_and_case_labels_are_type_checked(source, message):
    with pytest.raises(TypeCheckError) as err:
        resolve(source)
    assert str(err.value) == f"t.sl:{message}"


def test_blank_finals_and_plain_parameters_take_stores():
    # Without definite-assignment analysis, a final declared without an
    # initializer takes any number of stores.
    _, res = resolve(
        """class C {
    final int f;
    C() { f = 1; f = 2; }
    void m(int p, int[] a) { p = 1; final int x; x = 1; x = 2; final int[] b = a; b[0] = 1; }
    static void n(String s, byte k) { switch (s) { case "a": println(1); } switch (k) { case 1: println(2); } }
}
"""
    )
    assert res.diagnostics == []


def test_constant_case_labels_resolve():
    # A label may name a final whose initializer is a constant, also one
    # declared in a class resolved after the switch.
    _, res = resolve(
        """class C extends B {
    static final int K = 2;
    static final String S = "a";
    static void m(int i, String s) {
        final int j = -1;
        switch (i) { case K: println(1); case j: println(2); case -3: println(3); case E: println(4); case D.L: println(5); }
        switch (s) { case S: println(6); case "b": println(7); }
    }
}
class B { static final int F = 4; static final int E = F; }
class D { static final int L = 6; }
"""
    )
    assert res.diagnostics == []


def test_static_members_and_instance_contexts_resolve():
    _, res = resolve(
        """\
class B { int inherited; }
class C extends B {
    static int total = 1;
    static int twice = total * 2;
    int f = total + inherited;
    int g = h();
    int h() { return f + total + C.total + twice(); }
    static int twice() { return C.twice + total; }
    static void m(C c) { c.f = C.twice(); c.h(); println(c.total); }
}
class T extends Thread {
    String name = getName();
    void run() { start(); println(getName()); T t = this; t.sleep(1); }
    static void pause() { sleep(1); T.sleep(2); }
}
"""
    )
    assert res.diagnostics == []


def test_constant_int_condition_is_legal():
    resolve("class A { void m() { if (1) { println(1); } } }")


def test_usage_sum_equals_read_occurrences(corpus_sources):
    for name, source in corpus_sources.items():
        unit, res = resolve(source, name)
        reads = sum(s.usage_count for s in res.symbols)
        resolved_names = sum(
            1 for n in walk(unit) if isinstance(n, (ast.Name,)) and n.uid in res.name_targets
        )
        field_reads = sum(
            1 for n in walk(unit) if isinstance(n, ast.FieldAccess) and n.uid in res.field_targets
        )
        writes = sum(s.write_count for s in res.symbols)
        # every resolved Name/FieldAccess occurrence is either a read or a write
        assert reads + writes == resolved_names + field_reads, name


def test_call_graph_edge_count_equals_call_sites(corpus_sources):
    for name, source in corpus_sources.items():
        unit, res = resolve(source, name)
        graph = build_call_graph(unit, res)
        sites = sum(1 for n in walk(unit) if isinstance(n, (ast.Call, ast.New)))
        assert len(graph.edges) == sites, name


def _walked_edges(res):
    """The call graph as a walk finds it: each target of each Call/New node
    of each method body's subtree, by class, then method, then pre-order."""
    edges = []
    for info in res.classes.values():
        for minfo in info.methods.values():
            for node in res.subtree(minfo.decl.body):
                if isinstance(node, (ast.Call, ast.New)):
                    for target in res.targets(node):
                        edges.append((minfo.method_id, target.id, node.uid, target.builtin is not None))
    return edges


def _hand_built_calls_unit():
    """Two classes built without the parser, with uids in no order and the
    methods of Hand listed in the reverse of their source order:

        1  void h() { B b = new B(); println(f()); }
        3  static int g(int x) { println(x); return x; }
        5  static int f() { return g(1); }
        7  static int k = f();          (a field: its call is in no body)
        9  class B { void m() { new Hand().h(); } }
    """

    def at(line):
        return SourceSpan("hand.sl", line, 1, line, 60)

    int_t = ast.TypeRef("int")
    h_body = ast.Block(span=at(1), uid=77, stmts=[
        ast.LocalDecl(span=at(1), uid=3, name="b", type=ast.TypeRef("B"),
                      initializer=ast.New(span=at(1), uid=50, class_name="B")),
        ast.ExprStmt(span=at(1), uid=41, expr=ast.Call(
            span=at(1), uid=9, name="println", args=[ast.Call(span=at(1), uid=600, name="f")])),
    ])
    g_body = ast.Block(span=at(3), uid=12, stmts=[
        ast.ExprStmt(span=at(3), uid=30, expr=ast.Call(
            span=at(3), uid=88, name="println", args=[ast.Name(span=at(3), uid=17, identifier="x")])),
        ast.Return(span=at(3), uid=21, value=ast.Name(span=at(3), uid=22, identifier="x")),
    ])
    f_body = ast.Block(span=at(5), uid=1, stmts=[ast.Return(span=at(5), uid=2, value=ast.Call(
        span=at(5), uid=70, name="g", args=[ast.Literal(span=at(5), uid=71, value=1, kind="int")]))])
    hand = ast.ClassDecl(span=at(1), uid=500, name="Hand", fields=[
        ast.FieldDecl(span=at(7), uid=6, name="k", type=int_t, static=True,
                      initializer=ast.Call(span=at(7), uid=4, name="f")),
    ], methods=[
        ast.MethodDecl(span=at(5), uid=13, name="f", params=[], return_type=int_t, body=f_body, is_static=True),
        ast.MethodDecl(span=at(3), uid=99, name="g", params=[ast.Param(span=at(3), uid=98, name="x", type=int_t)],
                       return_type=int_t, body=g_body, is_static=True),
        ast.MethodDecl(span=at(1), uid=8, name="h", params=[], return_type=ast.VOID, body=h_body),
    ])
    m_body = ast.Block(span=at(9), uid=300, stmts=[ast.ExprStmt(span=at(9), uid=301, expr=ast.Call(
        span=at(9), uid=302, name="h", receiver=ast.New(span=at(9), uid=303, class_name="Hand")))])
    b = ast.ClassDecl(span=at(9), uid=400, name="B", methods=[
        ast.MethodDecl(span=at(9), uid=401, name="m", params=[], return_type=ast.VOID, body=m_body),
    ])
    return ast.CompilationUnit(span=at(1), classes=[hand, b])


def test_call_graph_edges_are_the_walks(corpus_sources):
    sources = list(corpus_sources.values()) + [seeded_unit(seed) for seed in range(300)]
    rng = random.Random(28)
    sources += [gen_recursion_program(rng).source for _ in range(100)]
    units = [parse_source(source) for source in sources]
    hand = _hand_built_calls_unit()
    hand.index = NodeIndex.by_walk(hand)
    units.append(hand)
    for unit in units:
        res = build_symbol_table(unit)
        edges = [(e.caller, e.callee, e.site.uid, e.callee_builtin) for e in build_call_graph(unit, res).edges]
        assert edges == _walked_edges(res), unit.file
    assert _walked_edges(build_symbol_table(hand)) == [
        ("Hand.f/0", "Hand.g/1", 70, False),
        ("Hand.g/1", "builtin:println", 88, True),
        ("Hand.h/0", "B.<init>/0", 50, False),
        ("Hand.h/0", "builtin:println", 9, True),
        ("Hand.h/0", "Hand.f/0", 600, False),
        ("B.m/0", "Hand.h/0", 302, False),
        ("B.m/0", "Hand.<init>/0", 303, False),
    ]


def test_makeover_cycle_detected(corpus_sources):
    unit, res = resolve(corpus_sources["makeover.sl"], "makeover.sl")
    graph = build_call_graph(unit, res)
    cfgs = build_unit_cfgs(unit).cfgs

    def recurses(method, calls):
        cfg = cfgs[method]
        blocked = call_blocks(cfg, (e.site for e in calls), res.parent)
        reached = reach(cfg, blocked=blocked)
        return cfg.exit not in reached and not blocked.isdisjoint(reached)

    edge = next(e for e in graph.edges if e.caller.startswith("Driver.Makeoverdone"))
    assert recurses(edge.caller, [edge])  # inside if(1): the CFG keeps only the true branch
    cycles = unconditional_cycles(graph, recurses)
    assert cycles == [["Driver.Makeoverdone/0", "Driver.makeover/0"]]


def test_constructor_cycle_detected(corpus_sources):
    unit, res = resolve(corpus_sources["building_lift.sl"], "building_lift.sl")
    graph = build_call_graph(unit, res)
    assert constructor_cycles(graph) == [["Building.<init>/0", "Lift.<init>/0"]]


def test_leaf_method_has_no_outgoing_edges():
    unit, res = resolve("class A { void leaf() { } void m() { leaf(); } }")
    graph = build_call_graph(unit, res)
    assert [e.caller for e in graph.edges] == ["A.m/0"]


_TARGETS_UNIT = """\
class A { void f() { } static void s() { } }
class B extends A { void f() { } }
class C extends B { }
class D extends A { void f() { } }
class E { void f() { } }
class F extends E { void f() { } }
class M { static void main(String[] args) { %s } }
"""


@pytest.mark.parametrize(
    "body, expected",
    [
        ("A.s();", ["A.s/0"]),
        ("new D();", ["D.<init>/0"]),
        ("println(1);", ["builtin:println"]),
        # C declares no f: its table holds B's.
        ("C c = new C(); c.f();", ["B.f/0"]),
        # Every made class at or below the receiver's A, in unit order.
        ("B b = new C(); A a = new D(); a.f();", ["B.f/0", "D.f/0"]),
        # F overrides f, but no F is made.
        ("E e = new E(); e.f();", ["E.f/0"]),
        # No E or F is made: every class at or below E counts.
        ("E e = null; e.f();", ["E.f/0", "F.f/0"]),
    ],
    ids=["static", "constructor", "builtin", "inherited", "made_subclasses", "made_owner", "none_made"],
)
def test_targets_of_the_last_call_site(body, expected):
    _, res = resolve(_TARGETS_UNIT % body)
    site = res.nodes_of(ast.Call, ast.New)[-1]
    assert [t.id for t in res.targets(site)] == expected


def _nearest_first(res, info):
    """(methods, fields) of a class as a walk of its chain finds them: the
    first declaration of each key, nearest class first.  Constructors are
    not inherited (JLS 8.8), and a class's own are called through `ctors`."""
    methods, fields = {}, {}
    for above in res.ancestors(info.name):
        for key, minfo in above.methods.items():
            if key[0] != "<init>":
                methods.setdefault(key, minfo)
        for name, sym in above.fields.items():
            fields.setdefault(name, sym)
    return methods, fields


def test_dispatch_tables_are_the_chain_walks(corpus_sources):
    sources = list(corpus_sources.values()) + [seeded_unit(seed) for seed in range(300)]
    rng = random.Random(28)
    sources += [gen_recursion_program(rng).source for _ in range(100)]
    sources.append("class A { A(int x) { } }\nclass B extends A { B() { } }")
    for source in sources:
        _, res = resolve(source)
        for info in res.classes.values():
            assert all(name != "<init>" for name, _ in info.dispatch)
            methods, fields = _nearest_first(res, info)
            assert {k: id(m) for k, m in info.dispatch.items()} == {k: id(m) for k, m in methods.items()}
            assert {k: id(f) for k, f in info.visible.items()} == {k: id(f) for k, f in fields.items()}
            assert [c.name for c in info.below] == [
                c.name for c in res.classes.values() if info.name in [a.name for a in res.ancestors(c.name)]
            ]


def test_builtin_callees_marked():
    unit, res = resolve("class A { void m() { println(1); } }")
    graph = build_call_graph(unit, res)
    (edge,) = graph.edges
    assert edge.callee_builtin and edge.callee == "builtin:println"


def test_node_index_is_source_preorder(corpus_sources):
    unit, res = resolve(corpus_sources["yang.sl"], "yang.sl")
    order = source_preorder(unit)
    assert list(map(id, res.nodes)) == list(map(id, order))
    assert {n.uid: res.parent(n) for n in order[1:]} == parent_map(unit)
    # Uids follow construction, a post-order, so a query over several node
    # types must interleave them by position.  In source order a call's
    # receiver comes before its arguments, which ast.walk visits first.
    mixed = res.nodes_of(ast.Call, ast.FieldAccess)
    assert mixed == [n for n in order if isinstance(n, (ast.Call, ast.FieldAccess))]
    assert [n.uid for n in order[:4]] == [59, 58, 2, 0]
    other, other_res = resolve(corpus_sources["equals_demo.sl"], "equals_demo.sl")
    calls = [n for n in other_res.nodes if isinstance(n, ast.Call) and n.receiver is not None and n.args]
    place = {id(n): k for k, n in enumerate(other_res.nodes)}
    assert calls and all(place[id(c.receiver)] < place[id(c.args[0])] for c in calls)
    for kind, group in res.index.by_type.items():
        assert group == [n for n in order if type(n) is kind]
    for sym in res.symbols:
        if sym.decl_uid >= 0:
            assert res.decl_symbols[sym.decl_uid] is next(
                s for s in res.symbols if s.decl_uid == sym.decl_uid
            )
    # Every Resolution of a unit shares the index the parser built.
    assert build_symbol_table(unit).index is res.index is unit.index


def test_enclosing_conditions_report_which_branch():
    unit, res = resolve(
        "class A { void m(int x) { while (x > 0) { if (x < 5) { x = 1; } else { x = 2; } } } }"
    )
    one, two = [n for n in walk(unit) if isinstance(n, ast.Literal) and n.value in (1, 2)]

    def ops(node):
        return [(cond.op, holds) for cond, holds in res.enclosing_conditions(node)]

    assert ops(one) == [("<", True), (">", True)]
    assert ops(two) == [("<", False), (">", True)]
    cond = next(n for n in walk(unit) if isinstance(n, ast.Binary) and n.op == "<")
    assert ops(cond.left) == [("<", False), (">", True)]


CYCLIC = """\
class A extends B { void f() { } }
class B extends A { static void main(String[] args) { A a = new A(); a.f(); } }
"""


@pytest.mark.parametrize(
    "source, named",
    [
        (CYCLIC, "A"),
        ("class A extends A { }", "A"),
        ("class C extends A { }\nclass A extends B { }\nclass B extends A { }", "A"),
    ],
)
def test_cyclic_inheritance_is_a_type_error(source, named):
    unit = parse_source(source, "t.sl")
    with pytest.raises(TypeCheckError) as err:
        build_symbol_table(unit)
    assert err.value.message == f"cyclic inheritance involving '{named}'"
    assert err.value.span == next(c for c in unit.classes if c.name == named).span


def test_ancestors_walk_nearest_first_and_stop_outside_the_unit():
    _, res = resolve("class W extends Thread { }\nclass V extends W { }\nclass U extends V { }")
    assert [info.name for info in res.ancestors("U")] == ["U", "V", "W"]
    assert res.ancestors("Thread") == [] and res.ancestors(None) == []
    assert res.subclass_ok("V", "U") and res.subclass_ok("Thread", "U")
    assert not res.subclass_ok("U", "V")
    with pytest.raises(ResolutionError, match="t.sl:1:1: undeclared identifier 'Missing'"):
        resolve("class X extends Missing { }")


# A method with a base method's name and arity keeps its signature (JLS
# 8.4.8).  THREE_POINT_O printed 3.0 from an int variable before the rule:
# the call resolved to A.m(int) -> int and dispatched to B's double m.
THREE_POINT_O = """\
class A {
    int m(int x) { return x; }
}
class B extends A {
    double m(double x) { return x; }
}
class Main {
    static void main(String[] args) {
        A a = new B();
        int y = a.m(3);
        println(y);
    }
}
"""


@pytest.mark.parametrize(
    "source, message",
    [
        (THREE_POINT_O, "5:5: m(double) in B cannot override m(int) in A; the parameter types differ"),
        (
            "class A { int m() { return 1; } }\nclass B extends A { double m() { return 2; } }",
            "2:21: m() in B cannot override m() in A; return type double is not compatible with int",
        ),
        (
            "class A { int m() { return 1; } }\nclass B extends A { byte m() { return 2; } }",
            "2:21: m() in B cannot override m() in A; return type byte is not compatible with int",
        ),
        (
            "class A { void m(int x) { } }\nclass B extends A { static void m(int x) { } }",
            "2:21: m(int) in B cannot override m(int) in A; overriding method is static",
        ),
        (
            "class A { static void m() { } }\nclass B extends A { void m() { } }",
            "2:21: m() in B cannot override m() in A; overridden method is static",
        ),
        (
            # Checked against the nearest base that declares it.
            "class A { A me() { return this; } }\nclass B extends A { }\nclass C extends B { String me() { return null; } }",
            "3:21: me() in C cannot override me() in A; return type String is not compatible with A",
        ),
        (
            # Only a class-typed return narrows; a subclass may not widen it.
            "class A { A me() { return this; } }\nclass B extends A { B me() { return this; } }\n"
            "class C extends B { A me() { return this; } }",
            "3:21: me() in C cannot override me() in B; return type A is not compatible with B",
        ),
    ],
    ids=[
        "parameter_type",
        "double_return",
        "byte_return",
        "static_overrides_instance",
        "instance_overrides_static",
        "unrelated_class_return",
        "widened_class_return",
    ],
)
def test_an_override_keeps_its_signature(source, message):
    with pytest.raises(TypeCheckError) as err:
        resolve(source)
    assert str(err.value) == f"t.sl:{message}"


def test_covariant_returns_thread_methods_and_constructors_are_no_overrides():
    _, res = resolve(
        "class A { A me() { return this; } A(int x) { } }\n"
        "class B extends A { B me() { return this; } B(double d) { } }\n"
        "class W extends Thread { int run() { return 1; } String getName() { return null; } }\n"
        "class P { void m(int x) { } }\nclass Q extends P { void m(int x, int y) { } int m() { return 0; } }"
    )
    assert res.diagnostics == []


# Scope rows: the body of `A.m(int p)`, and for each Name of it in source
# order the declaration it resolves to, as the name and the declaration's
# place among the parameters and locals of that name (p0 is the parameter);
# or the error the body raises, at its line:column.  Scopes are JLS 6.3's,
# and no local redeclares a parameter or a local in scope (JLS 6.4).
SCOPE_ROWS = {
    "nested_block_redeclares_local": (
        "int x = 1; { int x = 2; x = x + 1; } x = 3;",
        (DuplicateDeclaration, "1:40: duplicate declaration of 'x'"),
    ),
    "sibling_blocks": ("{ int x = 1; println(x); } { int x = 2; println(x); }", ["x0", "x1"]),
    "second_declaration_in_one_block": (
        "println(p); int x = 1; { } int x = 2;",
        (DuplicateDeclaration, "1:54: duplicate declaration of 'x'"),
    ),
    "declared_after_nested_block": (
        "{ { x = 1; } int x = 0; }",
        (ResolutionError, "1:31: undeclared identifier 'x'"),
    ),
    "body_local_redeclares_parameter": (
        "int p = 1; println(p);",
        (DuplicateDeclaration, "1:27: duplicate declaration of 'p'"),
    ),
    "for_init_and_body_scopes": (
        "for (int i = 0; i < 2; i = i + 1) { int j = i; println(j); } for (int i = 0; i < 1; i = i + 1) { int j = 0; }",
        ["i0", "i0", "i0", "i0", "j0", "i1", "i1", "i1"],
    ),
    "for_body_redeclares_init": (
        "for (int i = 0; i < 2; i = i + 1) { int i = 5; println(i); }",
        (DuplicateDeclaration, "1:63: duplicate declaration of 'i'"),
    ),
    "for_init_redeclares_local": (
        "int i = 0; for (int i = 1; i < 2; i = i + 1) { } i = 3;",
        (DuplicateDeclaration, "1:43: duplicate declaration of 'i'"),
    ),
    "for_init_expression": ("int i; for (i = 0; i < 2; i = i + 1) { int j = i; }", ["i0", "i0", "i0", "i0", "i0"]),
    "for_variable_after_loop": (
        "for (int i = 0; i < 2; i = i + 1) { } println(i);",
        (ResolutionError, "1:73: undeclared identifier 'i'"),
    ),
    "switch_block_is_one_scope": (
        "switch (p) { case 1: int y = 1; println(y); case 2: int y = 2; println(y); default: println(p); }",
        (DuplicateDeclaration, "1:79: duplicate declaration of 'y'"),
    ),
    "switch_case_local_in_next_case": (
        "switch (p) { case 1: int y = 1; case 2: y = 2; println(y); }",
        ["p0", "y0", "y0"],
    ),
    "case_label_outside_switch_block": (
        "switch (p) { case 1: final int K = 2; case K: println(p); }",
        (ResolutionError, "1:70: undeclared identifier 'K'"),
    ),
    "catch_parameter_redeclared_in_body": (
        "try { } catch (Exception e) { int e = 1; println(e); } catch (Exception e) { println(e); }",
        (DuplicateDeclaration, "1:57: duplicate declaration of 'e'"),
    ),
    "catch_parameters_apart": (
        "try { } catch (Exception e) { println(e); } catch (Exception e) { println(e); }",
        ["e0", "e1"],
    ),
    "catch_parameter_redeclares_local": (
        "int e = 0; try { } catch (Exception e) { }",
        (DuplicateDeclaration, "1:46: duplicate declaration of 'e'"),
    ),
    "catch_parameter_after_catch": (
        "try { } catch (Exception e) { } println(e);",
        (ResolutionError, "1:67: undeclared identifier 'e'"),
    ),
    # A local's scope starts at its own initializer, which may store it but
    # not read it, as javac says.
    "local_read_in_its_own_initializer": (
        "int x = x + 1;",
        (TypeCheckError, "1:35: variable x might not have been initialized"),
    ),
    "local_stored_in_its_own_initializer": ("int x = (x = 2) + p; println(x);", ["x0", "p0", "x0"]),
    "initializer_reads_an_outer_local": (
        "int x = 1; { int y = x + 1; println(y); }",
        ["x0", "y0"],
    ),
}


@pytest.mark.parametrize("body, expected", SCOPE_ROWS.values(), ids=SCOPE_ROWS)
def test_scopes_resolve_each_name_to_its_declaration(body, expected):
    source = f"class A {{ void m(int p) {{ {body} }} }}"
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as err:
            resolve(source)
        assert type(err.value) is error and str(err.value) == f"t.sl:{message}"
        return
    unit, res = resolve(source)
    variables = [s for s in res.symbols if s.kind in ("param", "local") and not s.is_builtin]
    label = {id(s): f"{s.name}{[v.name for v in variables[:k]].count(s.name)}" for k, s in enumerate(variables)}
    assert [label[id(res.name_targets[n.uid])] for n in res.nodes_of(ast.Name)] == expected


def test_a_local_initializer_reads_the_field_it_hides_only_through_this():
    with pytest.raises(TypeCheckError) as err:
        resolve("class A { int f = 3; void m() { int f = f + 1; } }")
    assert str(err.value) == "t.sl:1:41: variable f might not have been initialized"
    unit, res = resolve("class A { int f = 3; void m() { int f = this.f + 1; println(f); } }")
    (access,) = res.nodes_of(ast.FieldAccess)
    assert res.field_targets[access.uid].kind == "field"
    (read,) = [n for n in res.nodes_of(ast.Name) if n.identifier == "f"]
    assert res.name_targets[read.uid].kind == "local"


def test_frame_slots_number_parameters_and_locals_in_declaration_order():
    _, res = resolve(
        "class A { void m(int p) { int a = 1; { int b = 2; } for (int i = 0; i < 1; i = i + 1) { int c = i; }"
        " switch (p) { case 1: int d = 0; } try { } catch (Exception e) { int f = 0; } }"
        " static void s() { { } int q = 0; } }"
    )
    slots = [(s.name, s.slot) for s in res.symbols if s.kind in ("param", "local")]
    assert slots == [("this", 0), ("p", 1), ("a", 2), ("b", 3), ("i", 4), ("c", 5), ("d", 6), ("e", 7), ("f", 8), ("q", 1)]
