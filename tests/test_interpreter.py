import pytest

from overrun_lint.errors import (
    DomainError,
    DuplicateDeclaration,
    EntryNotFoundError,
    TypeCheckError,
)
from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.semantics.resolver import BUILTINS
from overrun_lint.runtime import (
    FAULT_ARITHMETIC,
    FAULT_ASSERTION_FAILURE,
    FAULT_MISSING_RETURN,
    FAULT_NULL_DEREFERENCE,
    FAULT_NUMBER_FORMAT,
    FAULT_OUT_OF_BOUNDS,
    FAULT_OVERFLOW_WARNING,
    FAULT_STEP_LIMIT,
    RunOptions,
    add_wrapped,
    execute,
    format_value,
    stack_overwrite_demo,
)
from overrun_lint.runtime.interpreter import Interpreter


def run(source, **opts):
    trace, analyzed = run_source(source, "t.sl", RunOptions(**opts))
    return trace


def test_loop_prints_ten_lines_and_branch_counts():
    source = """\
class T {
    static void main(String[] args) {
        for (int i = 0; i < 10; i++) {
            println(i);
        }
    }
}
"""
    trace = run(source)
    assert trace.stdout == [str(i) for i in range(10)]
    taken = {key[1]: count for key, count in trace.branch_outcomes.items()}
    assert taken["true-branch"] == 10
    assert taken["false-branch"] == 1


def test_assertion_gating(corpus_sources):
    source = corpus_sources["assert_demo.sl"]
    off = run_source(source, "assert_demo.sl", RunOptions(stdin_script=["5"]))[0]
    assert off.assertion_records == []
    assert off.stdout == ["rest code here"]
    on = run_source(
        source, "assert_demo.sl", RunOptions(stdin_script=["5"], assertions_enabled=True)
    )[0]
    assert len(on.assertion_records) == 1
    record = on.assertion_records[0]
    assert record.outcome == "failed"
    assert record.message == "its false"
    assert record.unit_name == "AssertDemo.main"
    assert record.statement_text == "assert a > 10"
    assert any(f.kind == FAULT_ASSERTION_FAILURE for f in on.faults)


def test_assertion_passes_recorded_only_with_ea():
    source = 'class T { static void main(String[] args) { int a = 20; assert a > 10 : "no"; println(a); } }'
    off = run(source)
    assert off.assertion_records == []
    on = run(source, assertions_enabled=True)
    assert [r.outcome for r in on.assertion_records] == ["passed"]
    assert on.stdout == ["20"]


def test_off_by_one_write_faults():
    source = """\
class T {
    static void main(String[] args) {
        int size = 6;
        byte[] b = new byte[size];
        b[size] = 1;
    }
}
"""
    trace = run(source)
    (fault,) = trace.faults
    assert fault.kind == FAULT_OUT_OF_BOUNDS
    assert "index 6" in fault.detail and "[0, 5]" in fault.detail


def test_negative_index_faults():
    trace = run("class T { static void main(String[] args) { int[] a = new int[3]; a[0 - 1] = 1; } }")
    assert trace.faults[0].kind == FAULT_OUT_OF_BOUNDS


def test_null_dereference_on_readline_exhaustion(corpus_sources):
    trace = run_source(
        corpus_sources["readline_loop.sl"],
        "readline_loop.sl",
        RunOptions(stdin_script=["5", "7", "9"]),
    )[0]
    (fault,) = trace.faults
    assert fault.kind == FAULT_NULL_DEREFERENCE
    assert fault.span.line == 8


def test_two_line_script_exits_cleanly(corpus_sources):
    trace = run_source(
        corpus_sources["readline_loop.sl"], "readline_loop.sl", RunOptions(stdin_script=["5", "7"])
    )[0]
    assert trace.faults == []


def test_int_wraparound_warns_and_continues():
    source = """\
class T {
    static void main(String[] args) {
        int big = 2147483647;
        int more = big + 1;
        println(more);
    }
}
"""
    trace = run(source)
    assert any(f.kind == FAULT_OVERFLOW_WARNING for f in trace.faults)
    assert trace.stdout == ["-2147483648"]
    assert trace.halting_fault is None


def test_byte_narrowing_wraps():
    source = """\
class T {
    static void main(String[] args) {
        byte b = 200;
        println(b);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["-56"]
    assert any(f.kind == FAULT_OVERFLOW_WARNING for f in trace.faults)


def test_step_limit_recorded_as_fault():
    source = "class T { static void main(String[] args) { while (true) { println(1); } } }"
    trace, _ = run_source(source, "t.sl", RunOptions(max_steps=500))
    assert trace.faults[-1].kind == FAULT_STEP_LIMIT


def test_runaway_recursion_halts(corpus_sources):
    trace = run_source(corpus_sources["makeover.sl"], "makeover.sl", RunOptions())[0]
    assert trace.faults[0].kind == FAULT_STEP_LIMIT
    assert "depth" in trace.faults[0].detail


def test_threads_run_synchronously(corpus_sources):
    trace = run_source(corpus_sources["yang.sl"], "yang.sl", RunOptions())[0]
    assert trace.stdout[0] == "0 Yang"
    assert trace.stdout[9] == "9 Yang"
    assert trace.stdout[10] == "DONE! Yang"
    assert len(trace.stdout) == 22


def test_determinism_same_options_same_trace():
    source = """\
class T {
    static void main(String[] args) {
        double r = random();
        println(r + "");
        println(readLine());
        println(readLine());
    }
}
"""
    options = dict(stdin_script=["a", "b"], seed=42)
    a = run(source, **options)
    b = run(source, **options)
    assert a.stdout == b.stdout
    assert a.executed_instruction_ids == b.executed_instruction_ids
    assert a.branch_outcomes == b.branch_outcomes
    c = run(source, stdin_script=["a", "b"], seed=43)
    assert c.stdout != a.stdout


def test_stdin_exhaustion_returns_null():
    trace = run('class T { static void main(String[] args) { println(readLine() + ""); } }')
    assert trace.stdout == ["null"]


def test_stream_stub_read_and_eof():
    source = """\
class T {
    static void main(String[] args) {
        Stream s = open("data");
        byte[] buf = new byte[8];
        int n = s.read(buf, 0, 8);
        println(n);
        println(buf[0]);
        println(s.read(buf, 0, 8));
        s.close();
    }
}
"""
    trace, _ = run_source(source, "t.sl", RunOptions(file_system_stub={"data": "AB"}))
    assert trace.stdout == ["2", "65", "-1"]


def test_open_missing_file_gives_null_stream():
    source = """\
class T {
    static void main(String[] args) {
        Stream s = open("nope");
        s.read(new byte[4], 0, 4);
    }
}
"""
    trace = run(source)
    assert trace.faults[0].kind == FAULT_NULL_DEREFERENCE


def test_field_access_on_null_faults():
    source = """\
class P {
    int x;
}

class T {
    static void main(String[] args) {
        P p = null;
        println(p.x);
    }
}
"""
    trace = run(source)
    assert trace.faults[0].kind == FAULT_NULL_DEREFERENCE


def test_entry_not_found():
    analyzed = analyze_source("class T { void helper() { } }", "t.sl")
    with pytest.raises(EntryNotFoundError):
        execute(analyzed.unit, RunOptions(), analyzed.res, analyzed.cfgs)


def test_explicit_entry():
    source = "class T { static void other() { println(7); } static void main(String[] args) { println(1); } }"
    trace = run(source, entry="T.other")
    assert trace.stdout == ["7"]


@pytest.mark.parametrize(
    "params, runs",
    [
        ("", True),
        ("String[] args", True),
        ("int x", False),
        ("String s", False),
        ("String[] args, int n", False),
        ("int[] xs", False),
    ],
)
def test_entry_takes_no_parameters_or_one_string_array(params, runs):
    source = "class T { static void main(%s) { println(1); } }" % params
    if runs:
        assert run(source).stdout == ["1"]
        return
    with pytest.raises(EntryNotFoundError, match="must take no parameters or one String"):
        run(source)


def test_static_fields_through_class_name_and_instance():
    source = """\
class Counter {
    static int total;
}
class Main {
    static Counter make() {
        println("made");
        return null;
    }
    static void main(String[] args) {
        println(Counter.total);
        Counter.total = 5;
        Counter c = new Counter();
        c.total = c.total + 1;
        println(Counter.total);
        println(make().total);
        make().total = 9;
        println(c.total);
    }
}
"""
    # The class name is not evaluated; any other receiver is, for its
    # effects, and may be null.
    trace = run(source)
    assert trace.stdout == ["0", "6", "made", "6", "made", "9"]
    assert trace.faults == []


def test_static_methods_through_class_name_and_instance():
    source = """\
class Counter {
    static int made;
    static int make() { made = made + 1; return made; }
    int twice() { return make() * 2; }
}
class Main {
    static Counter none() {
        println("none");
        return null;
    }
    static void main(String[] args) {
        println(Counter.make());
        Counter c = null;
        println(c.make());
        println(none().make());
        c = new Counter();
        println(c.twice());
    }
}
"""
    # A static call is bound to the resolved method: the class name is not
    # evaluated, and a null receiver runs for its effects only (Java's rule).
    trace = run(source)
    assert trace.stdout == ["1", "2", "none", "3", "8"]
    assert trace.faults == []


OPERAND_ORDER = """\
class W extends Thread { }
class M {
    int v;
    int[] cells = new int[2];
    M make() { println("receiver"); return this; }
    int arg() { println("argument"); return 1; }
    int[] getArr() { println("array"); return cells; }
    int idx() { println("index"); return 0; }
    int inst(int x) { return x; }
}
class Main {
    static void main(String[] args) {
        M m = new M();
        println(m.make().inst(m.arg()));
        m.make().v = m.arg();
        m.getArr()[m.idx()] = m.arg();
        %s
    }
}
"""


@pytest.mark.parametrize(
    "statement, tail, faults",
    [
        ("", [], []),
        ("M none = null; none.inst(m.arg());", ["argument"], [FAULT_NULL_DEREFERENCE]),
        ("M none = null; none.v = m.arg();", ["argument"], [FAULT_NULL_DEREFERENCE]),
        ("int[] none = null; none[m.idx()] = m.arg();", ["index", "argument"], [FAULT_NULL_DEREFERENCE]),
        ("m.getArr()[m.idx() + 5] = m.arg();", ["array", "index", "argument"], [FAULT_OUT_OF_BOUNDS]),
        # sleep is static (JLS 15.12.4.1): its receiver runs and may be null.
        ("W none = null; none.sleep(m.arg());", ["argument"], []),
    ],
)
def test_operands_run_in_java_order(statement, tail, faults):
    # JLS 15.12.4 and 15.26.1: the receiver, or the array and then the
    # index, first; then the arguments or the right-hand side; then the
    # null and bounds checks.
    trace = run(OPERAND_ORDER % statement)
    head = ["receiver", "argument", "1", "receiver", "argument", "array", "index", "argument"]
    assert trace.stdout == head + tail
    assert [f.kind for f in trace.faults] == faults


@pytest.mark.parametrize(
    "statement, message",
    [
        pytest.param(
            "C c = C;",
            "t.sl:2:54: class name C is not a value",
            id="C c = C;-class name C used as a value",
        ),
        pytest.param(
            "C = null;",
            "t.sl:2:48: class name C is not a value",
            id="C = null;-cannot assign to class",
        ),
        pytest.param(
            "C.inst();",
            "t.sl:2:48: non-static method 'inst' cannot be referenced from a static context",
            id="C.inst();-class name C used as a value",
        ),
    ],
)
def test_class_name_is_not_a_value(statement, message):
    # A class name is only the receiver of a static field or method, so the
    # resolver rejects each of these and run executes nothing.
    source = "class C { void inst() { } }\nclass Main { static void main(String[] args) { %s } }"
    for check in (lambda: analyze_source(source % statement, "t.sl"), lambda: run(source % statement)):
        with pytest.raises(TypeCheckError) as err:
            check()
        assert str(err.value) == message


def test_run_source_refuses_a_unit_the_resolver_rejects():
    source = "class T { static void main(String[] args) { int x = 1; int x = 2; println(x); } }"
    with pytest.raises(DuplicateDeclaration, match="t.sl:1:56: duplicate declaration of 'x'"):
        run(source)


def test_integer_division_truncates_toward_zero():
    source = """\
class T {
    static void main(String[] args) {
        println(7 / 2);
        println(0 - 7 / 2);
        println(7 % 3);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["3", "-3", "1"]


def test_division_by_zero_is_an_arithmetic_fault():
    trace = run(
        "class T { static void main(String[] args) {"
        ' println("before"); int z = 0; println(5 / z); println("after"); } }'
    )
    assert trace.stdout == ["before"]
    fault = trace.halting_fault
    assert (fault.kind, fault.detail) == (FAULT_ARITHMETIC, "integer division by zero")
    assert (fault.span.line, fault.span.column) == (1, 83)  # the 5 of 5 / z


def test_executed_ids_exist_in_cfgs(corpus_sources):
    for name in ("yang.sl", "checkers_state.sl", "robustness.sl"):
        trace, analyzed = run_source(corpus_sources[name], name, RunOptions())
        all_iids = set(analyzed.cfgs.instr_spans)
        assert trace.executed_instruction_ids <= all_iids


# -- fixed-width add and the frame demo -------------------------------------------


def test_add_wrapped_examples():
    assert add_wrapped(10, 5, 8) == (15, False)
    assert add_wrapped(208, 192, 8) == (144, True)
    assert add_wrapped(255, 1, 8) == (0, True)


def test_add_wrapped_identity_property():
    import random

    rng = random.Random(5)
    for width in (8, 16, 32):
        for _ in range(200):
            a = rng.randrange(2**width)
            b = rng.randrange(2**width)
            value, overflowed = add_wrapped(a, b, width)
            assert value + (2**width if overflowed else 0) == a + b


@pytest.mark.parametrize("bad", [(-1, 0, 8), (0, 256, 8), (1, 1, 7)])
def test_add_wrapped_domain_errors(bad):
    with pytest.raises(DomainError):
        add_wrapped(*bad)


def test_stack_demo_normal_return():
    demo = stack_overwrite_demo(4, "0088")
    assert demo.slots == {"0000": "0049", "0004": "0088"}
    assert demo.outcome == "normal_return"


def test_stack_demo_hijack():
    demo = stack_overwrite_demo(4, "12340088")
    assert demo.slots == {"0000": "0088", "0004": "1234"}
    assert demo.outcome == "hijacked_control"
    assert demo.control_target == "0088"


def test_stack_demo_crash():
    demo = stack_overwrite_demo(4, "99999999")
    assert demo.slots == {"0000": "9999", "0004": "9999"}
    assert demo.outcome == "crash"


@pytest.mark.parametrize("bad_input", ["", "xyz!", "123456789"])
def test_stack_demo_domain_errors(bad_input):
    with pytest.raises(DomainError):
        stack_overwrite_demo(4, bad_input)


def test_stack_demo_requires_four_byte_frame():
    with pytest.raises(DomainError):
        stack_overwrite_demo(8, "0088")


# -- every step counts against max_steps ------------------------------------------


def test_step_limit_checked_on_for_update():
    source = """\
class T {
    static void main(String[] args) {
        for (int i = 0; i < 10; i++) {
            println(i);
        }
    }
}
"""
    # init, condition, body, then the update is step 4
    trace = run(source, max_steps=3)
    fault = trace.halting_fault
    assert fault.kind == FAULT_STEP_LIMIT
    assert (fault.span.line, fault.span.column) == (3, source.splitlines()[2].index("i++") + 1)
    assert trace.steps == 4
    assert trace.stdout == ["0"]


def test_step_limit_checked_on_implicit_constructor():
    source = """\
class P {
    int x = 1;
}

class T {
    static void main(String[] args) {
        P p = new P();
        println(1);
    }
}
"""
    # the declaration is step 1, P's implicit constructor step 2
    trace = run(source, max_steps=1)
    fault = trace.halting_fault
    assert fault.kind == FAULT_STEP_LIMIT
    assert fault.span.line == 1
    assert trace.steps == 2
    assert trace.stdout == []
    assert "P.<init>/0" in trace.entered_methods


def test_step_limit_checked_on_implicit_return():
    source = """\
class T {
    static void f() {
    }

    static void main(String[] args) {
        f();
        println(1);
    }
}
"""
    trace = run(source, max_steps=1)
    fault = trace.halting_fault
    assert fault.kind == FAULT_STEP_LIMIT
    assert fault.span.line == 3
    assert trace.steps == 2
    assert trace.stdout == []



# -- checks the compiled closures take inline or skip ------------------------------

# Steps counted by hand: the declaration is step 1 and each loop test,
# if, statement and for update one more, so that step max_steps + 1 is
# the statement named.
STEP_LIMIT_SITES = {
    "if_condition": (
        """\
class T {
    static void main(String[] args) {
        int i = 0;
        while (true) {
            if (i < 3) {
                i = i + 1;
            }
        }
    }
}
""",
        8,
        (5, 13),
        [],
    ),
    "while_test": (
        """\
class T {
    static void main(String[] args) {
        int i = 0;
        while (i < 100) {
            i = i + 1;
        }
    }
}
""",
        5,
        (4, 9),
        [],
    ),
    "for_update": (
        """\
class T {
    static void main(String[] args) {
        for (int i = 0; i < 10; i++) {
            println(i);
        }
    }
}
""",
        6,
        (3, 33),
        ["0", "1"],
    ),
    "expression_statement": (
        """\
class T {
    static void main(String[] args) {
        int i = 0;
        while (i < 100) {
            println(i);
            i = i + 1;
        }
    }
}
""",
        5,
        (5, 13),
        ["0"],
    ),
}


@pytest.mark.parametrize("site", sorted(STEP_LIMIT_SITES))
def test_step_limit_fires_at_the_same_step_and_span(site):
    source, limit, (line, column), stdout = STEP_LIMIT_SITES[site]
    trace = run(source, max_steps=limit)
    assert [(f.kind, f.span.line, f.span.column, f.detail) for f in trace.faults] == [
        (FAULT_STEP_LIMIT, line, column, f"step limit {limit} exceeded")
    ]
    assert trace.steps == limit + 1
    assert trace.stdout == stdout


FALLS_OFF = """\
class T {
    static boolean g() {
    }

    static void main(String[] args) {
        %s
    }
}
"""


@pytest.mark.parametrize(
    "statement, column",
    [
        ("if (g()) { println(1); }", 13),
        ("while (g()) { }", 16),
        ("for (; g(); ) { }", 16),
        ("boolean b = !g();", 21),
        ("boolean b = true && g();", 29),
        ("boolean b = g();\n        if (b) { }", 13),
        ("assert g();", 9),
    ],
)
def test_null_from_a_boolean_method_is_not_a_condition(statement, column):
    # A boolean method that falls off its end has no value to return: the
    # run halts there, before any condition could see a null.
    trace = run(FALLS_OFF % statement, assertions_enabled=True)
    assert [(f.kind, str(f.span), f.detail) for f in trace.faults] == [
        (FAULT_MISSING_RETURN, "t.sl:3:5", "T.g/0 reached its end without returning a value")
    ]
    assert "T.g/0" in trace.entered_methods


def test_return_converts_like_a_store():
    source = """\
class T {
    static double h() { return 1; }
    static byte b() { return 200; }
    static int i() { byte k = 100; return k; }
    static void main(String[] args) {
        println(h());
        println(h() / 2);
        println(b());
        println(i());
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["1.0", "0.5", "-56", "100"]
    assert [(f.kind, str(f.span), f.detail) for f in trace.faults] == [
        (FAULT_OVERFLOW_WARNING, "t.sl:3:23", "8-bit result 200 wrapped to -56")
    ]


def test_assignment_yields_the_stored_value():
    source = """\
class Box { double d; byte b; static byte s; }
class T {
    static void main(String[] args) {
        Box box = new Box();
        double x;
        byte[] bs = new byte[1];
        println(x = 3);
        println(box.d = 4);
        println(box.b = 300);
        println(Box.s = 129);
        println(bs[0] = 255);
        println(x + box.d + box.b + Box.s + bs[0]);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["3.0", "4.0", "44", "-127", "-1", "-77.0"]


def test_string_plus_is_chosen_by_type():
    # Java: a String operand, null or not, makes + a concatenation.
    source = """\
class T {
    static void main(String[] args) {
        String s = null;
        println(s + 1);
        println(1.5 + s);
        println(s + "x");
        println(s + null + true);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["null1", "1.5null", "nullx", "nullnulltrue"]
    assert trace.faults == []


def test_fields_hold_their_defaults_before_any_initializer_runs():
    # Java (JLS 12.5): a base initializer calling an override sees the
    # subclass's fields at their defaults, not missing.
    source = """\
class B { int x = get(); int get() { return 0; } }
class D extends B {
    int y = 5;
    String s;
    int get() { println(y == 0); println(y < 3); println(s == null); return y + 1; }
}
class T {
    static void main(String[] args) {
        D d = new D();
        println(d.x);
        println(d.y);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["true", "true", "true", "1", "5"]
    assert trace.faults == []


def test_a_hidden_field_is_a_field_of_its_own():
    # Java: a field of a subclass hides, and does not share, the base's
    # field of that name; each class's code reads its own.
    source = """\
class B { int x = 1; int get() { return x + 1; } }
class D extends B { String x; String mine() { return x; } }
class T {
    static void main(String[] args) {
        D d = new D();
        B b = d;
        println(d.get());
        println(d.mine());
        d.x = "s";
        b.x = 7;
        println(d.x + b.x);
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["2", "null", "s7"]
    assert trace.faults == []


def test_sleep_needs_no_receiver():
    # Thread.sleep is static in Java: a static method may call it unqualified.
    source = """\
class W extends Thread {
    static void pause() { sleep(1); W.sleep(2); println("slept"); }
    static void main(String[] args) { pause(); W.sleep(3); }
}
"""
    trace = run(source)
    assert trace.stdout == ["slept"]
    assert trace.faults == []


def test_sleep_through_a_null_thread_variable_runs_on():
    source = """\
class W extends Thread {
    static W none() { println("receiver"); return null; }
    static void main(String[] args) {
        W w = null;
        w.sleep(1);
        none().sleep(2);
        println("after");
    }
}
"""
    trace = run(source)
    assert trace.stdout == ["receiver", "after"]
    assert trace.faults == []


@pytest.mark.parametrize(
    "text, value",
    [
        ("7", 7), ("+7", 7), ("-0", 0), ("0" * 20 + "7", 7),
        ("2147483647", 2147483647), ("-2147483648", -2147483648),
    ],
)
def test_parse_int_accepts_what_integer_parse_int_does(text, value):
    trace = run('class T { static void main(String[] args) { println(parseInt("%s")); } }' % text)
    assert trace.stdout == [str(value)]
    assert trace.faults == []


@pytest.mark.parametrize(
    "text",
    [" 22 ", " 7", "7 ", "1_000", "", "+", "-", "+-1", "2147483648", "-2147483649", "99999999999", "1.5"]
    + [pytest.param("9" * 5000, id="5000 digits")],
)
def test_parse_int_rejects_other_text(text):
    source = 'class T { static void main(String[] args) { println(parseInt("%s")); println("after"); } }'
    trace = run(source % text)
    assert trace.stdout == []
    assert [f.kind for f in trace.faults] == [FAULT_NUMBER_FORMAT]


def test_every_builtin_has_one_implementation():
    assert Interpreter._BUILTINS.keys() == BUILTINS.keys()


def _overflows(trace):
    return [(f.span.line, f.span.column, f.detail) for f in trace.faults]


def test_increment_past_int_max_warns_once():
    source = """\
class T {
    static void main(String[] args) {
        int y = 2147483647;
        y = y + 1;
        println(y);
    }
}
"""
    trace = run(source)
    assert _overflows(trace) == [(4, 13, "32-bit result 2147483648 wrapped to -2147483648")]
    assert trace.stdout == ["-2147483648"]


def test_out_of_range_int_literal_is_rejected():
    # JLS 3.10.1: an int literal lies in the int range, except 2147483648 as
    # the direct operand of unary -.
    for value in ("3000000000", "2147483648", "-(2147483648)", "1 - 2147483648", "9" * 400 + " / 2.0"):
        with pytest.raises(TypeCheckError) as err:
            run(f"class T {{ static void main(String[] args) {{ double x = {value}; }} }}")
        assert str(err.value).endswith(": integer number too large"), value
    trace = run("class T { static void main(String[] args) { int x = -2147483648; println(x); } }")
    assert (trace.faults, trace.stdout) == ([], ["-2147483648"])


def test_byte_accumulator_wraps_and_double_store_widens():
    source = """\
class T {
    static int twice(int n) {
        return n * 2;
    }

    static int same(byte b, int n) {
        return b + n;
    }

    static void main(String[] args) {
        byte acc = 100;
        for (int i = 0; i < 3; i++) {
            acc = acc + 20;
        }
        println(acc);
        int i = 1;
        double d = i + 1;
        println(d);
        d = i * 3;
        println(d);
        println(twice(2000000000));
        println(same(200, 2147483647));
    }
}
"""
    trace = run(source)
    assert _overflows(trace) == [
        (13, 13, "8-bit result 140 wrapped to -116"),
        (3, 16, "32-bit result 4000000000 wrapped to -294967296"),
        (22, 17, "8-bit result 200 wrapped to -56"),
    ]
    assert trace.stdout == ["-96", "2.0", "3.0", "-294967296", "2147483591"]


# -- operands folded into their operators -------------------------------------------
#
# An operator reads a local or parameter operand from its slot, binds a literal
# operand in, and calls the closure of any other operand.  Each program runs
# with assertions and coverage off, and on.

MODES = [{}, {"assertions_enabled": True, "coverage_enabled": True}]

# An operand of each kind: a slot (S), a literal (K) and a call (C), with the
# values 7 on the left and 3 on the right.
FOLD_LEFT = {"S": "a", "K": "7", "C": "id(7)"}
FOLD_RIGHT = {"S": "b", "K": "3", "C": "id(3)"}
FOLD_OPS = {
    "+": "10", "-": "4", "*": "21", "/": "2", "%": "1",
    "<": "false", "<=": "false", ">": "true", ">=": "true", "==": "false", "!=": "true",
}


@pytest.mark.parametrize("mode", MODES)
def test_folded_operators_read_each_kind_of_operand(mode):
    shapes = [(left, right, op) for left in FOLD_LEFT for right in FOLD_RIGHT for op in FOLD_OPS]
    prints = "\n".join(f"        println({FOLD_LEFT[left]} {op} {FOLD_RIGHT[right]});" for left, right, op in shapes)
    source = f"""\
class T {{
    static int id(int n) {{
        return n;
    }}

    static void f(int a, int b) {{
        int c = 1;
        double d = a - b;
        println(d);
{prints}
        println(b - a < c);
    }}

    static void main(String[] args) {{
        f(7, 3);
    }}
}}
"""
    trace = run(source, **mode)
    assert trace.faults == []
    assert trace.stdout == ["4.0", *(FOLD_OPS[op] for _, _, op in shapes), "true"]


# (expression, its result before wrapping); big is 2147483647, low is
# -2147483647 and two is 2, and the expression starts at line 7, column 17.
FOLD_OVERFLOWS = [
    ("big + 1", 2147483648),
    ("1 + big", 2147483648),
    ("big + two", 2147483649),
    ("low - two", -2147483649),
    ("low - 2", -2147483649),
    ("two - big - 4", -2147483649),
    ("big * two", 4294967294),
    ("two * big", 4294967294),
    ("big * 2", 4294967294),
    ("2 * id(big)", 4294967294),
    ("id(big) + two", 2147483649),
    ("big + id(two)", 2147483649),
    ("id(big) + id(two)", 2147483649),
    ("2147483647 + 2", 2147483649),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("expr, value", FOLD_OVERFLOWS)
def test_a_folded_int_operator_wraps_where_it_overflows(expr, value, mode):
    trace = run(f"""\
class T {{
    static int id(int n) {{ return n; }}
    static void main(String[] args) {{
        int big = 2147483647;
        int low = -2147483647;
        int two = 2;
        println({expr});
    }}
}}
""", **mode)
    wrapped = (value + 2**31) % 2**32 - 2**31
    assert _overflows(trace) == [(7, 17, f"32-bit result {value} wrapped to {wrapped}")]
    assert trace.stdout == [str(wrapped)]


@pytest.mark.parametrize("mode", MODES)
def test_a_folded_result_wraps_into_a_byte_and_widens_into_a_double(mode):
    trace = run("""\
class T {
    static void main(String[] args) {
        byte acc = 100;
        int step = 30;
        acc = acc + step;
        println(acc);
        acc = step * 5;
        println(acc);
        double d = step * 3;
        println(d);
        d = 2 - step;
        println(d);
        d = step / step;
        println(d);
    }
}
""", **mode)
    assert _overflows(trace) == [
        (5, 9, "8-bit result 130 wrapped to -126"),
        (7, 9, "8-bit result 150 wrapped to -106"),
    ]
    assert trace.stdout == ["-126", "-106", "90.0", "-28.0", "1.0"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("expr", ["five / zero", "five % zero", "5 / zero", "5 % zero", "id(5) / zero",
                                  "five / id(0)", "five % 0"])
def test_a_folded_division_by_a_zero_faults_at_its_operator(expr, mode):
    trace = run(f"""\
class T {{
    static int id(int n) {{ return n; }}
    static void main(String[] args) {{
        int five = 5;
        int zero = 0;
        println("before");
        println({expr});
        println("after");
    }}
}}
""", **mode)
    assert trace.stdout == ["before"]
    fault = trace.halting_fault
    assert (fault.kind, fault.detail) == (FAULT_ARITHMETIC, "integer division by zero")
    assert (fault.span.line, fault.span.column) == (7, 17)


# Negation and int-to-byte stores test the range inline and wrap only a value
# that does not fit.
@pytest.mark.parametrize("mode", MODES)
def test_negation_and_byte_stores_wrap_only_what_does_not_fit(mode):
    trace = run("""\
class T {
    static void main(String[] args) {
        int x = -2147483648;
        int y = -x;
        println(y);
        println(-x);
        int z = 5;
        println(-z);
        byte b = 0;
        int v = 127;
        b = v;
        println(b);
        v = 128;
        b = v;
        println(b);
        v = -128;
        b = v;
        println(-b);
        v = -129;
        b = v;
        println(b);
    }
}
""", **mode)
    assert _overflows(trace) == [
        (4, 17, "32-bit result 2147483648 wrapped to -2147483648"),
        (6, 17, "32-bit result 2147483648 wrapped to -2147483648"),
        (14, 9, "8-bit result 128 wrapped to -128"),
        (20, 9, "8-bit result -129 wrapped to 127"),
    ]
    assert trace.stdout == ["-2147483648", "-2147483648", "-5", "127", "-128", "128", "127"]
    assert trace.halting_fault is None


# -- statements that read their operands inline --------------------------------------
#
# A condition, a store into a local, a return and a one-argument static call
# compute an operator over a slot and a slot or literal themselves, and every
# statement marks its instruction id on its first run only.  Each row pins
# stdout, the step count, the faults, the branch outcomes and the executed
# instruction ids in the set's order, in both modes.


def _observed(trace):
    ids = list(trace.executed_instruction_ids)
    return trace.stdout, trace.steps, _kinds(trace), trace.branch_outcomes, ids


def _pair_program(left: str, right: str) -> str:
    """Each consumer reads an operator over FOLD_LEFT[left] (7) and
    FOLD_RIGHT[right] (3): two stores, two ifs, a static call's argument,
    an assert and a return."""
    a, b = FOLD_LEFT[left], FOLD_RIGHT[right]
    return f"""\
class T {{
    static int id(int n) {{
        return n;
    }}

    static int f(int a, int b) {{
        int s = {a} - {b};
        s = {a} * {b} + s;
        if ({a} > {b}) {{
            println(s);
        }}
        if ({a} <= {b}) {{
            println("le");
        }} else {{
            println(id({a} % {b}));
        }}
        assert {a} != {b} : "ne";
        return {a} / {b};
    }}

    static void main(String[] args) {{
        println(f(7, 3));
    }}
}}
"""


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("left", FOLD_LEFT)
@pytest.mark.parametrize("right", FOLD_RIGHT)
def test_statements_read_each_pair_of_operand_kinds(left, right, mode):
    trace = run(_pair_program(left, right), **mode)
    # Each id() operand is one more step, in the six statements that run it
    # and, with --ea, in the assert.
    steps = 11 + (left + right).count("C") * (7 if mode else 6)
    assert _observed(trace) == (
        ["25", "1", "2"],
        steps,
        [],
        {(4, "true-branch"): 1, (6, "false-branch"): 1, (9, "false-branch"): 1},
        [1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13],
    )


FUSED_SHAPES = """\
class T {
    static int twice(int n) {
        return n + n;
    }

    static double half(double x) {
        double h = x / 2.0;
        return h;
    }

    static void main(String[] args) {
        int n = 3;
        int i = 0;
        while (i < n) {
            i = i + 1;
        }
        int total = 0;
        for (int j = 0; j <= n; j++) {
            total = total + j;
        }
        boolean small = total < 10;
        println(small);
        println(twice(total - 1));
        println(half(total + 0.5));
        assert i == n : "counted";
        int big = 2147483647;
        big = big + n;
        println(big);
    }
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_loops_stores_and_arguments_read_their_operands_inline(mode):
    assert _observed(run(FUSED_SHAPES, **mode)) == (
        ["true", "10", "3.25", "-2147483646"],
        36,
        [(FAULT_OVERFLOW_WARNING, 27, 15, "32-bit result 2147483650 wrapped to -2147483646")],
        {
            (6, "true-branch"): 3, (6, "false-branch"): 1,
            (10, "true-branch"): 4, (10, "false-branch"): 1,
            (17, "false-branch"): 1,
        },
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22],
    )


@pytest.mark.parametrize("mode", MODES)
def test_a_fused_store_halts_in_the_second_iteration(mode):
    trace = run("""\
class T {
    static void main(String[] args) {
        int n = 6;
        int k = 1;
        for (int i = 0; i < 3; i++) {
            int q = n / k;
            println(q);
            k = k - 1;
        }
    }
}
""", **mode)
    assert _observed(trace) == (
        ["6"],
        10,
        [(FAULT_ARITHMETIC, 6, 21, "integer division by zero")],
        {(4, "true-branch"): 2},
        [1, 2, 3, 4, 5, 6, 7, 8],
    )


def test_the_step_limit_lands_on_a_fused_loop_condition():
    trace = run("""\
class T {
    static void main(String[] args) {
        int i = 0;
        int n = 100;
        while (i < n) {
            i = i + 1;
        }
    }
}
""", max_steps=6)
    assert _observed(trace) == (
        [], 7, [(FAULT_STEP_LIMIT, 5, 9, "step limit 6 exceeded")], {(3, "true-branch"): 2}, [1, 2, 3, 4]
    )


# -- call depth -------------------------------------------------------------------


# Runaway recursion with the call nested in statements and operators, which
# costs more Python frames per SL call than a bare call statement does.
NESTED_RECURSION = {
    "while_if_binary": """\
class T {
    static int f(int n) {
        while (n >= 0) {
            if (n < 100000) {
                return 1 + f(n + 1);
            }
            n = n - 1;
        }
        return 0;
    }

    static void main(String[] args) {
        println(f(0));
    }
}
""",
    "local_initializer": """\
class T {
    static int g(int n) {
        int a = 1;
        int b = 2;
        while (n >= 0) {
            if (n < 100000) {
                int r = a + b * g(n + 1);
                return r;
            }
            n = n - 1;
        }
        return 0;
    }

    static void main(String[] args) {
        println(g(0));
    }
}
""",
    "for_switch_synchronized": """\
class L { }

class T {
    static L lock = new L();

    static int h(int n) {
        for (int i = 0; i < 3; i++) {
            switch (i) {
                case 0:
                    synchronized (lock) {
                        if (n >= 0 && n < 100000) {
                            return 2 * (1 + (3 - h(n + 1)));
                        }
                    }
            }
        }
        return 0;
    }

    static void main(String[] args) {
        println(h(0));
    }
}
""",
    "constructor": """\
class N {
    int v;

    N(int n) {
        if (n >= 0) {
            v = new N(n + 1).v + 1;
        }
    }
}

class T {
    static void main(String[] args) {
        N x = new N(0);
        println(x.v);
    }
}
""",
}


@pytest.mark.parametrize("shape", sorted(NESTED_RECURSION))
def test_default_call_depth_cap_fires_on_nested_recursion(shape):
    trace = run(NESTED_RECURSION[shape])
    assert trace.halting_fault.detail == "call depth 160 exceeded (runaway recursion)"
    assert trace.stdout == []


def test_a_method_first_called_past_the_call_depth_cap_is_not_entered():
    source = """\
class P {
    static int d(int n) {
        if (n > 0) {
            return d(n - 1);
        }
        return g();
    }

    static int g() {
        return 1;
    }

    static void main() {
        println(d(3));
    }
}
"""
    trace = run(source, max_call_depth=5)
    assert sorted(trace.entered_methods) == ["P.d/1", "P.main/0"]
    assert trace.halting_fault.detail == "call depth 5 exceeded (runaway recursion)"
    assert trace.stdout == []


def test_recursion_limit_is_restored_after_a_run(corpus_sources):
    import sys

    before = sys.getrecursionlimit()
    trace = run_source(corpus_sources["makeover.sl"], "makeover.sl", RunOptions())[0]
    assert trace.halting_fault.detail == "call depth 160 exceeded (runaway recursion)"
    assert sys.getrecursionlimit() == before
    trace = run("class T { static void main(String[] args) { println(1 / 0); } }")
    assert trace.halting_fault.kind == FAULT_ARITHMETIC
    assert sys.getrecursionlimit() == before


def test_host_recursion_limit_is_a_step_limit_fault():
    import sys

    source = """\
class T {
    static int down(int n) {
        return 1 + down(n - 1);
    }

    static void main(String[] args) {
        println(down(0));
    }
}
"""
    # The run raises the recursion limit only up to its ceiling, which a
    # cap of 100 000 calls does not fit under.
    before = sys.getrecursionlimit()
    trace = run(source, max_call_depth=100_000)
    assert trace.halting_fault.kind == FAULT_STEP_LIMIT
    assert trace.halting_fault.detail == (
        "the program nests calls deeper than the host's recursion limit allows"
        " before reaching max_call_depth 100000"
    )
    assert trace.stdout == []
    assert sys.getrecursionlimit() == before


# -- conversions run where the value is computed ------------------------------------
#
# A store, argument or return converts its value as the value is computed,
# where Java's explicit cast would run (JLS 15.9.4, 15.12.4.2, 15.26.1): so
# a narrowing warning comes before a fault of the same store or call, and an
# argument's before the constructor's field initializers run.


def _kinds(trace):
    return [(f.kind, f.span.line, f.span.column, f.detail) for f in trace.faults]


def test_an_argument_narrows_before_the_null_receiver_faults():
    trace = run("""\
class N { void m(byte b) { } }
class T {
    static void main(String[] args) {
        N n = null;
        n.m(400);
    }
}
""")
    assert _kinds(trace) == [
        (FAULT_OVERFLOW_WARNING, 5, 9, "8-bit result 400 wrapped to -112"),
        (FAULT_NULL_DEREFERENCE, 5, 9, "m() on null"),
    ]


def test_a_constructor_argument_narrows_before_the_field_initializers():
    trace = run("""\
class P {
    byte f = 300;
    byte g;
    P(byte b) { g = b; }
}
class T {
    static void main(String[] args) {
        P p = new P(200);
        println(p.f + p.g);
    }
}
""")
    assert _kinds(trace) == [
        (FAULT_OVERFLOW_WARNING, 8, 15, "8-bit result 200 wrapped to -56"),
        (FAULT_OVERFLOW_WARNING, 2, 5, "8-bit result 300 wrapped to 44"),
    ]
    assert trace.stdout == ["-12"]


def test_an_element_store_narrows_before_the_bounds_check():
    trace = run("""\
class T {
    static void main(String[] args) {
        byte[] b = new byte[2];
        b[5] = 300;
    }
}
""")
    assert _kinds(trace) == [
        (FAULT_OVERFLOW_WARNING, 4, 9, "8-bit result 300 wrapped to 44"),
        (FAULT_OUT_OF_BOUNDS, 4, 9, "index 5 outside [0, 1]"),
    ]


def test_a_covariant_override_runs_through_the_base_signature():
    trace = run("""\
class A { A me() { return this; } int v() { return 1; } }
class B extends A { B me() { return this; } int v() { return 2; } }
class T {
    static void main(String[] args) {
        A a = new B();
        println(a.me().v());
        println(a.me() == a);
    }
}
""")
    assert trace.stdout == ["2", "true"]


# -- doubles follow IEEE 754 and print as Java's Double.toString ------------------


def test_double_division_and_remainder_follow_ieee_754():
    # Each line checked against OpenJDK 17.
    trace = run("""\
class T {
    static void main(String[] args) {
        double z = 0;
        double inf = 1.0 / z;
        double nan = z / z;
        println(inf % 2.0);
        println(1.0 / -0.0);
        println(nan / 0.0);
        println(-inf / z);
        println(5.0 % inf);
        println(-5.0 % 3);
        println(5 % -3.0);
        println(1 / 2.0);
        println(nan == nan);
        println(nan != nan);
        println(inf == 1.0 / z);
    }
}
""")
    assert trace.stdout == [
        "NaN", "-Infinity", "NaN", "-Infinity", "5.0", "-2.0", "2.0", "0.5", "false", "true", "true",
    ]
    assert trace.faults == []


def test_int_division_and_remainder_round_toward_zero():
    trace = run("""\
class T {
    static void main(String[] args) {
        println(7 / -2);
        println(-7 / 2);
        println(-7 / -2);
        println(7 % -2);
        println(-7 % 2);
        println(-7 % -2);
        println(-2147483648 / -1);
        println(0 / -5);
    }
}
""")
    assert trace.stdout == ["-3", "-3", "3", "1", "-1", "-1", "-2147483648", "0"]
    assert _kinds(trace) == [
        (FAULT_OVERFLOW_WARNING, 9, 17, "32-bit result 2147483648 wrapped to -2147483648")
    ]


# Double.toString's output for each value, checked once against OpenJDK 17.
DOUBLE_TEXT = [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (float("nan"), "NaN"),
    (float("inf"), "Infinity"),
    (float("-inf"), "-Infinity"),
    (1.0, "1.0"),
    (-5.5, "-5.5"),
    (100.0, "100.0"),
    (0.1, "0.1"),
    (0.001, "0.001"),
    (0.0009999, "9.999E-4"),
    (1e-5, "1.0E-5"),
    (1.5e-5, "1.5E-5"),
    (1e-300, "1.0E-300"),
    (9999999.0, "9999999.0"),
    (1234567.0, "1234567.0"),
    (1e7, "1.0E7"),
    (1.2345678e7, "1.2345678E7"),
    (12345678.9, "1.23456789E7"),
    (123456789012.0, "1.23456789012E11"),
    (1e22, "1.0E22"),
    (1e100, "1.0E100"),
    (1.7976931348623157e308, "1.7976931348623157E308"),
    (0.1 + 0.2, "0.30000000000000004"),
    (1 / 3, "0.3333333333333333"),
]


@pytest.mark.parametrize("value, text", DOUBLE_TEXT)
def test_doubles_print_as_java_double_to_string(value, text):
    assert format_value(value) == text


def test_string_concatenation_prints_doubles_as_java_does():
    trace = run(
        "class T { static void main(String[] args) {"
        ' println("x=" + 100000000.0 * 100000000000000.0 + " " + 0.0001 / 10); } }'
    )
    assert trace.stdout == ["x=1.0E22 1.0E-5"]


def test_length_counts_utf16_code_units():
    trace = run('class T { static void main(String[] args) { println(length("aé€\U0001F600")); } }')
    assert trace.stdout == ["5"]
