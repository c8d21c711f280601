"""Well-typed programs do not go wrong: a soundness oracle for the interpreter.

Milner's slogan ("A theory of type polymorphism in programming", 1978) and
the preservation half of Wright and Felleisen ("A syntactic approach to type
soundness", 1994), used as a test.  The oracle wraps every expression closure
the interpreter compiles, and every value a statement reads, and checks that
each value inhabits the type the resolver gave the expression, or the type
a store, a return or an argument converts it to.  It runs over the
run-golden traffic (the corpus, the snippets in both modes and the 500 bound
fuzz programs) and over the probes below.

An accepted program ends in its output or in a halting trace fault; the
run-time errors Java throws are faults too, so no run raises.
"""

import pytest

from overrun_lint.errors import OverrunLintError
from overrun_lint.frontend import ast
from overrun_lint.pipeline import run_source
from overrun_lint.runtime import RunOptions
from overrun_lint.runtime.interpreter import (
    BYTE_MAX,
    BYTE_MIN,
    INT_MAX,
    INT_MIN,
    Interpreter,
    SLArray,
    SLObject,
    SLStream,
)
from overrun_lint.semantics import types as ty

from test_run_golden import RUNS

_RANGES = {ty.INT: (INT_MIN, INT_MAX), ty.BYTE: (BYTE_MIN, BYTE_MAX)}
_STREAM = ty.ClassType("Stream")


def inhabits(value, t: ty.Type, expr: ast.Expr, res) -> bool:
    """Whether value is a value of type t.  One int literal lies outside
    its type's range: 2147483648, the operand of - in -2147483648."""
    if t in _RANGES:
        lo, hi = _RANGES[t]
        return value.__class__ is int and (
            lo <= value <= hi or value == INT_MAX + 1 and isinstance(res.parent(expr), ast.Unary)
        )
    if t == ty.DOUBLE:
        return value.__class__ is float
    if t == ty.BOOLEAN:
        return value.__class__ is bool
    if t == ty.VOID_T or isinstance(t, ty.NullType):
        return value is None
    if value is None:
        return isinstance(t, (ty.StringType, ty.ArrayType, ty.ClassType))
    if isinstance(t, ty.StringType):
        return value.__class__ is str
    if isinstance(t, ty.ArrayType):
        return value.__class__ is SLArray and value.elem == str(t.elem)
    if t == _STREAM:
        return value.__class__ is SLStream
    if isinstance(t, ty.ClassType):
        return value.__class__ is SLObject and res.subclass_ok(t.name, value.cls_name)
    return False


@pytest.fixture
def violations(monkeypatch):
    """Patch the interpreter so that every compiled expression, and every
    value a statement reads (Interpreter._read, which computes some
    operators itself and so compiles no closure for them), checks its
    values; the list collects (span, type, value) of each that does not
    inhabit its type."""
    found: list[tuple[str, str, object]] = []
    compile_expr, compile_read = Interpreter._expr, Interpreter._read

    def checking(run, t, expr, res):
        def check(f):
            value = run(f)
            if not inhabits(value, t, expr, res):
                found.append((str(expr.span), str(t), value))
            return value

        return check

    def checked(self, expr):
        return checking(compile_expr(self, expr), self.res.types[expr.uid], expr, self.res)

    def checked_read(self, expr, t=None, span=None):
        # The value a statement computes from _read's form, converted to t.
        slots, fn, a, b, sb, w = compile_read(self, expr, t, span)

        def read(f):
            v = fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f)
            return v if w is None or INT_MIN <= v <= INT_MAX else w(v)

        want = self.res.types[expr.uid] if t is None else t
        return False, None, checking(read, want, expr, self.res), None, False, None

    monkeypatch.setattr(Interpreter, "_expr", checked)
    monkeypatch.setattr(Interpreter, "_read", checked_read)
    return found


def _run_all(runs: dict, found: list) -> list:
    """(run id, what went wrong) for each value outside its type.  A
    program the resolver rejects does not run, and is not checked."""
    bad = []
    for run_id, run in runs.items():
        try:
            run()
        except OverrunLintError:
            pass
        bad += [(run_id, v) for v in found]
        found.clear()
    return bad


@pytest.mark.parametrize("group", ["corpus/", "snippet/", "fuzz/"])
def test_golden_runs_preserve_types(group, violations):
    runs = {run_id: run for run_id, run in RUNS.items() if run_id.startswith(group)}
    assert runs
    assert _run_all(runs, violations) == []


# Programs that reach the conversions and choices the types decide: returns
# and assignments that convert, a conversion at every kind of site (static,
# virtual and constructor arguments, returns, element, field and static
# stores, initializers, the int literal -2147483648), string + on null, Thread
# builtins, fields read by a base initializer before their own initializer
# runs, hidden fields, and streams.
PROBES = {
    "returns_convert": """\
class W extends Thread {
    int run() { return 7; }
}
class Main {
    static double h() { return 1; }
    static byte b() { return 200; }
    static int i() { byte k = 100; return k; }
    static void main(String[] args) {
        println(h() / 2);
        println(b());
        println(i() + h());
        W w = new W();
        w.start();
        println(w.getName());
    }
}
""",
    "assignments_yield_stored_value": """\
class Box { double d; byte b; static byte s; }
class Main {
    static void main(String[] args) {
        Box box = new Box();
        double x;
        byte[] bs = new byte[2];
        println(x = 3);
        println(box.d = 4);
        println(box.b = 300);
        println(Box.s = 129);
        println(bs[0] = 255);
    }
}
""",
    "string_plus_null": """\
class Main {
    static void main(String[] args) {
        String s = null;
        println(s + 1);
        println(1.5 + s);
        println(s + null + true);
        Main m = null;
        println("m=" + m);
    }
}
""",
    "field_initialization_order": """\
class B { int x = get(); int get() { return 0; } }
class D extends B {
    int y = 5;
    String s;
    int get() { println(y == 0); println(y < 3); println(s + y); return y + 1; }
}
class Main {
    static void main(String[] args) {
        D d = new D();
        println(d.x + d.y);
    }
}
""",
    "hidden_fields": """\
class B { int x = 1; int get() { return x + 1; } }
class D extends B { String x; String mine() { return x; } }
class Main {
    static void main(String[] args) {
        D d = new D();
        B b = d;
        println(d.get());
        println(d.mine());
        d.x = "s";
        println(d.x + b.x);
    }
}
""",
    "conversions_at_every_site": """\
class Base {
    double d = 1;
    byte b = 200;
    int big = -2147483648;
    static double sd = 2;
    static byte sb = 300;
    static int sbig = 2147483647;
    byte nb;
    Base(byte x, double y) { nb = x; d = y; }
    double half(double x) { return x / 2; }
    static byte narrow(int x) { return x; }
    static double widen(byte x) { return x; }
}
class Sub extends Base {
    Sub() { grow(1); }
    void grow(int k) { nb = k + 127; }
    double half(double x) { return x; }
}
class Main {
    static void main(String[] args) {
        Base o = new Base(300, 4);
        println(o.d + o.b + o.big + o.nb);
        println(Base.sd + Base.sb + Base.sbig);
        println(o.half(3));
        Base s = new Sub();
        println(s.half(o.nb) + s.nb);
        println(Base.narrow(1000));
        println(Base.narrow(-2147483648));
        println(Base.widen(200));
        byte[] bs = new byte[1];
        bs[0] = 999;
        double[] ds = new double[1];
        ds[0] = bs[0];
        println(ds[0] + bs[0]);
        o.nb = 1000;
        o.d = 5;
        Base.sb = 500;
        Base.sd = o.nb;
        println(o.nb + o.d + Base.sb + Base.sd);
        int i = 2147483647;
        byte lb = i;
        double ld = lb;
        i = -2147483648;
        lb = i;
        ld = i;
        println(i + lb + ld);
    }
}
""",
    "streams": """\
class Main {
    static void main(String[] args) {
        Stream in = open("f");
        byte[] buf = new byte[4];
        println(in.read(buf, 0, 4));
        println(buf[0]);
        in.close();
        println(open("missing") == null);
    }
}
""",
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probes_preserve_types(name, violations):
    options = RunOptions(file_system_stub={"f": "\xff\x01"}, coverage_enabled=True)
    trace = run_source(PROBES[name], f"{name}.sl", options)[0]
    assert trace.halting_fault is None
    assert violations == []
