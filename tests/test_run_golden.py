"""Golden run traces: every observable part of a RunTrace is pinned by digest.

Each run is reduced to a canonical form -- sorted executed instruction ids,
branch counts and entered methods; stdout, faults and assertion records in
order; the step count -- or to ``type: message`` when the run raises.  The
sha256 of that form is compared with `run_golden.json`.  A change to the
interpreter that alters one observable detail of one run fails here.

The runs cover the corpus (assertions and coverage both off and both on,
with the stdin scripts and file stubs the other tests use), the 500 bound
fuzz programs, and the snippets below, which reach the interpreter paths
the corpus does not.  A change that means to alter traces re-records the
file with `PYTHONPATH=src:tests python tests/test_run_golden.py --record`
and says which runs changed and why.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.runtime import RunOptions, execute

from progen import gen_bound_program

GOLDEN_FILE = Path(__file__).with_name("run_golden.json")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"

STUB = {"C:\\base\\lars.xls": ""}
CORPUS_SCRIPTS = {
    "readline_loop.sl": [[], ["5"], ["5", "7"], ["5", "7", "9"]],
    "assert_demo.sl": [["5"], ["20"]],
}
CORPUS_STUBS = {"file_check.sl": [None, STUB]}

SNIPPETS: dict[str, tuple[str, dict]] = {
    "dispatch": (
        """\
class A {
    int f() { return 1; }
    int g() { return f() * 10; }
    int h(int x) { return x + f(); }
}
class B extends A {
    int f() { return 2; }
}
class C extends B {
    int g() { return 300; }
}
class Main {
    static void main(String[] args) {
        A a = new A();
        A b = new B();
        A c = new C();
        println(a.g());
        println(b.g());
        println(c.g());
        println(c.h(5));
        println(b.f() + c.f());
    }
}
""",
        {},
    ),
    "initializers": (
        """\
class Base {
    static int made = 10;
    static int[] table = new int[3];
    int id = made + 1;
    String label;
    double weight = 2;
}
class Derived extends Base {
    static String tag = "d" + made;
    int twice = id * 2;
    boolean on;
    Derived(int extra) {
        twice = twice + extra;
        made = 20;
    }
    String describe() {
        return tag + " " + table[2] + " " + table;
    }
}
class Main {
    static void main(String[] args) {
        Derived d = new Derived(5);
        println(d.id);
        println(d.twice);
        println(d.label);
        println(d.weight);
        println(d.on);
        println(d.describe());
        Base b = new Base();
        println(b.id);
        println(d);
        println(b);
    }
}
""",
        {},
    ),
    "implicit_constructor": (
        """\
class P {
    int x = 3;
}
class Q extends P {
    int y = x + 4;
}
class Main {
    static void main(String[] args) {
        P p = new P();
        Q q = new Q();
        println(p.x + q.y);
        println(q.x);
    }
}
""",
        {},
    ),
    "threads": (
        """\
class Worker extends Thread {
    int n;
    Worker(int n) { this.n = n; }
    void run() {
        println("run " + n + " " + getName());
        sleep(1);
        wait();
    }
}
class Idle extends Thread {
}
class Sub extends Worker {
    Sub() { n = 9; }
    void go() { start(); run(); }
}
class Main {
    static void main(String[] args) {
        Worker w = new Worker(1);
        w.start();
        w.run();
        new Idle().start();
        new Idle().run();
        println(new Idle().getName());
        new Sub().go();
    }
}
""",
        {},
    ),
    "switch": (
        """\
class Main {
    static String name(int k) {
        String out = "?";
        switch (k) {
            case 1:
                out = "one";
            case 2:
                int two = 2;
                out = "two" + two;
            default:
                out = "many";
        }
        return out;
    }
    static int pick(String s) {
        switch (s) {
            case "a":
                return 1;
            case "b":
                return 2;
        }
        return 0;
    }
    static void main(String[] args) {
        println(name(1));
        println(name(2));
        println(name(7));
        println(pick("b"));
        println(pick("z"));
    }
}
""",
        {},
    ),
    "try_finally": (
        """\
class Main {
    static int f(int x) {
        try {
            if (x > 0) {
                return x;
            }
            println("body");
        } catch (Exception e) {
            println("never");
        } finally {
            println("finally");
        }
        return 0 - 1;
    }
    static void main(String[] args) {
        println(f(3));
        println(f(0));
        try {
            println("t");
        } finally {
            println("f");
        }
    }
}
""",
        {},
    ),
    "synchronized": (
        """\
class Lock {
    int count;
    void bump() {
        synchronized (this) {
            count = count + 1;
        }
    }
}
class Main {
    static void main(String[] args) {
        Lock l = new Lock();
        int[] arr = new int[2];
        synchronized (l) {
            l.bump();
            synchronized (arr) {
                l.bump();
            }
        }
        println(l.count);
    }
}
""",
        {},
    ),
    "streams": (
        """\
class Main {
    static void main(String[] args) {
        println(exists("in.txt"));
        println(exists("nope"));
        Stream s = open("in.txt");
        println(s);
        byte[] buf = new byte[4];
        int n = s.read(buf, 0, 4);
        println(n);
        println(buf[0]);
        println(buf[3]);
        println(s.read(buf, 1, 2));
        println(buf[1]);
        println(s.read(buf, 0, 4));
        println(s.read(buf, 0, 4));
        s.close();
        Stream t = open("in.txt");
        t.read(buf, 2, 3);
    }
}
""",
        {"file_system_stub": {"in.txt": "AB\u00ffzqr"}},
    ),
    "closed_stream": (
        """\
class Main {
    static void main(String[] args) {
        Stream s = open("in.txt");
        s.close();
        s.read(new byte[2], 0, 2);
    }
}
""",
        {"file_system_stub": {"in.txt": "xy"}},
    ),
    "wraparound": (
        """\
class Main {
    static byte half(byte b) { return b; }
    static void main(String[] args) {
        int big = 2147483647;
        int min = 0 - 2147483647 - 1;
        println(big + 1);
        println(min - 1);
        println(big * 3);
        println(-min);
        println(min / (0 - 1));
        println(min % (0 - 1));
        byte b = 100;
        b = b + 100;
        println(b);
        byte[] bs = new byte[2];
        bs[0] = 300;
        println(bs[0]);
        println(half(200));
        int[] is = new int[1];
        is[0] = big;
        is[0] = is[0] + 1;
        println(is[0]);
        int x = 7;
        println(x = 2147483647 + 1);
        for (int i = 0; i < 3; i++) {
            b = b + 60;
        }
        println(b);
    }
}
""",
        {},
    ),
    "parse_int_padded": (
        """\
class Main {
    static void main(String[] args) {
        println(parseInt(" 4294967296 "));
    }
}
""",
        {},
    ),
    "doubles": (
        """\
class Main {
    static void main(String[] args) {
        double z = 0;
        println(1.0 / z);
        println(-1.0 / z);
        println(z / z);
        println(5.5 % 2);
        println(-5.5 % 2);
        println(5.0 % z);
        println(7 / 2.0);
        double d = 3;
        println(d);
        double[] ds = new double[2];
        ds[1] = 4;
        println(ds[0] + ds[1]);
        println(0.1 + 0.2);
        println(-d);
        println(2 * 1.5 - 1);
        println(1.0 < 2);
        println(3 == 3.0);
    }
}
""",
        {},
    ),
    "integer_ops": (
        """\
class Main {
    static void main(String[] args) {
        println(0 - 7 / 2);
        println(7 % (0 - 3));
        println((0 - 7) % 3);
        println((0 - 7) / (0 - 2));
        println(1 < 2 && 2 > 3 || 4 >= 4);
        println(!(1 <= 0));
        boolean t = true;
        println(t && !t);
        println(t != false);
        println(5 != 5);
    }
}
""",
        {},
    ),
    "string_concat": (
        """\
class P {
}
class Main {
    static void main(String[] args) {
        String s = null;
        println("a" + s);
        println(s + "b");
        println("t" + true);
        println(false + "f");
        println("x" + 1.5);
        println(1 + 2 + "y" + 1 + 2);
        println("" + new P());
        int[] arr = new int[3];
        println("arr " + arr);
        println("d" + (1.0 / 3));
        println(length("hello" + 12));
        println("same" == "same");
        String r = readLine();
        println(r + "!");
    }
}
""",
        {"stdin_script": ["line"]},
    ),
    "object_equality": (
        """\
class P {
    int v;
}
class Main {
    static void main(String[] args) {
        P a = new P();
        P b = new P();
        P c = a;
        println(a == b);
        println(a == c);
        println(a != null);
        println(null == null);
        int[] x = new int[1];
        int[] y = new int[1];
        println(x == y);
        println(x != x);
        P n = null;
        println(n == null);
    }
}
""",
        {},
    ),
    "scopes": (
        """\
class Main {
    static int count;
    static int bump() {
        count = count + 1;
        return count;
    }
    static void main(String[] args) {
        int x = 1;
        {
            int y = x + 1;
            println(y);
        }
        for (int i = 0; i < 2; i++) {
            int y = i * 10;
            println(y);
        }
        for (int i = 5; i < 7; i++) {
            println(i);
        }
        int k = 0;
        while (k < 3) {
            int sq = k * k;
            k = k + 1;
            println(sq);
        }
        for (; bump() < 3;) {
            println("loop");
        }
        if (x > 0) {
            println("pos");
        } else if (x < 0) {
            println("neg");
        } else {
            println("zero");
        }
        if (0) {
            println("never");
        }
        while (false) {
            println("never");
        }
        ;
        println(x);
    }
}
""",
        {},
    ),
    "small_max_steps": (
        """\
class Main {
    static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 100; i++) {
            total = total + i;
        }
        println(total);
    }
}
""",
        {"max_steps": 41},
    ),
    "max_steps_in_call": (
        """\
class Main {
    static int f(int n) {
        return n + 1;
    }
    static void main(String[] args) {
        int n = 0;
        while (true) {
            n = f(n);
        }
    }
}
""",
        {"max_steps": 60},
    ),
    "call_depth": (
        """\
class Main {
    static int down(int n) {
        if (n == 0) {
            return 0;
        }
        return 1 + down(n - 1);
    }
    static void main(String[] args) {
        println(down(10));
        println(down(100));
    }
}
""",
        {"max_call_depth": 50},
    ),
    "mutual_recursion": (
        """\
class Main {
    static boolean even(int n) {
        if (n == 0) {
            return true;
        }
        return odd(n - 1);
    }
    static boolean odd(int n) {
        if (n == 0) {
            return false;
        }
        return even(n - 1);
    }
    static void main(String[] args) {
        println(even(40));
        println(odd(41));
        println(even(7));
    }
}
""",
        {},
    ),
    "assertions": (
        """\
class Main {
    static void check(int v) {
        assert v > 0 : "v=" + v;
        assert v < 100;
        println("ok " + v);
    }
    static void main(String[] args) {
        println(ASSERTIONS_ENABLED);
        check(5);
        check(0);
        println("after");
    }
}
""",
        {},
    ),
    "assertion_no_message": (
        """\
class Main {
    static void main(String[] args) {
        int v = 200;
        assert v < 100;
        println("after");
    }
}
""",
        {},
    ),
    "faults": (
        """\
class P {
    int v;
    int get() { return v; }
}
class Main {
    static void main(String[] args) {
        int[] a = new int[3];
        println(a[2]);
        P p = null;
        String s = null;
        if (readLine() == null) {
            println(length(s));
        }
        println(p.get());
    }
}
""",
        {},
    ),
    # Java's run-time errors, which halt with a fault after the output so far.
    "division_by_zero": (
        """\
class Main {
    static void main(String[] args) {
        int z = 0;
        println("before");
        println(10 % z);
    }
}
""",
        {},
    ),
    "negative_array_size": (
        """\
class Main {
    static void main(String[] args) {
        int n = 0 - 2;
        int[] a = new int[n];
    }
}
""",
        {},
    ),
    "parse_int_not_a_number": (
        """\
class Main {
    static void main(String[] args) {
        println(parseInt("x"));
    }
}
""",
        {},
    ),
    "readline_parse": (
        """\
class Main {
    static void main(String[] args) {
        String line = readLine();
        while (line != null) {
            println(parseInt(line) * 2);
            line = readLine();
        }
        println(parseInt(readLine()));
    }
}
""",
        {"stdin_script": ["1", " 22 ", "-3"]},
    ),
    "random": (
        """\
class Main {
    static void main(String[] args) {
        println(random());
        println(random() < 2);
    }
}
""",
        {"seed": 7},
    ),
    "static_and_instance_calls": (
        """\
class Counter {
    static int total;
    int mine;
    static void add(int k) { total = total + k; }
    void inc() { mine = mine + 1; add(1); }
    int both() { inc(); return this.mine * 100 + total; }
}
class Main {
    static void main(String[] args) {
        Counter c = new Counter();
        c.inc();
        println(c.both());
        c.add(2);
        println(c.total);
        println(c.mine);
    }
}
""",
        {"entry": "Main.main"},
    ),
    # A static field read through its class name; the name is not evaluated.
    "static_field_via_class_name": (
        """\
class Counter {
    static int total;
}
class Main {
    static void main(String[] args) {
        println(Counter.total);
    }
}
""",
        {},
    ),
    # An int method that reaches its end halts the run with missing_return.
    "void_result": (
        """\
class Main {
    static int nothing() {
    }
    static void main(String[] args) {
        println(nothing());
        println("x" + nothing());
    }
}
""",
        {},
    ),
    # The resolver rejects the second x, so the run records that error and
    # executes nothing.
    "duplicate_local": (
        """\
class Main {
    static void main(String[] args) {
        int x = 1;
        int x = 2;
        println(x);
        x = 300;
        byte b = 1;
        println(b);
    }
}
""",
        {},
    ),
    # Java's operand order: receiver, or array then index, before the
    # arguments or right-hand side; the null check after them.
    "operand_order": (
        """\
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
        M none = null;
        none.inst(m.arg());
    }
}
""",
        {},
    ),
}

# Runs that the resolver rejects (error_unresolved_call and
# error_instance_call_without_receiver): the digest pins the error's text.
# The int and boolean methods of error_non_boolean_condition fall off their
# ends, so that run halts at the first with a missing_return fault instead.
ERROR_SNIPPETS: dict[str, str] = {
    "error_unresolved_call": """\
class Main {
    static void main(String[] args) {
        println(1);
        missing(2);
    }
}
""",
    "error_instance_call_without_receiver": """\
class Main {
    void helper() { }
    static void main(String[] args) {
        helper();
    }
}
""",
    "error_non_boolean_condition": """\
class Main {
    static int f() { }
    static void main(String[] args) {
        if (f() == 0) { println(1); }
        while (nothing()) { println(2); }
    }
    static boolean nothing() { }
}
""",
}

# Run through analyze_source and execute, the route under run_source.
UNINSTRUMENTED = """\
class Main {
    static void main(String[] args) {
        int v = 3;
        assert v == 3 : "fine";
        println("between");
        assert v > 3 : "v is " + v;
        println("never");
    }
}
"""


def canonical(trace) -> dict:
    return {
        "ids": sorted(trace.executed_instruction_ids),
        "branches": sorted([iid, key, n] for (iid, key), n in trace.branch_outcomes.items()),
        "methods": sorted(trace.entered_methods),
        "stdout": trace.stdout,
        "faults": [[f.kind, str(f.span), f.detail] for f in trace.faults],
        "asserts": [
            [r.unit_name, r.statement_text, str(r.span), r.message, r.outcome]
            for r in trace.assertion_records
        ],
        "coverage": trace.coverage_enabled,
        "steps": trace.steps,
    }


def _digest(run) -> str:
    try:
        form: object = canonical(run())
    except Exception as err:  # the error itself is part of the golden form
        form = f"{type(err).__name__}: {err}"
    return hashlib.sha256(json.dumps(form, sort_keys=True).encode("utf-8")).hexdigest()


def _source_run(source: str, file: str, options: dict):
    return lambda: run_source(source, file, RunOptions(**options))[0]


def _uninstrumented_run(options: dict):
    def run():
        analyzed = analyze_source(UNINSTRUMENTED, "raw_assert.sl")
        return execute(analyzed.unit, RunOptions(**options), analyzed.res, analyzed.cfgs)

    return run


def _modes(**options) -> list[tuple[str, dict]]:
    return [
        ("off", dict(options)),
        ("on", dict(options, assertions_enabled=True, coverage_enabled=True)),
    ]


def golden_runs() -> dict:
    """Run id -> zero-argument callable that returns a RunTrace."""
    runs = {}
    for path in sorted(CORPUS.glob("*.sl")):
        source = path.read_text()
        for script in CORPUS_SCRIPTS.get(path.name, [[]]):
            for stub in CORPUS_STUBS.get(path.name, [None]):
                for mode, options in _modes(stdin_script=script, file_system_stub=stub):
                    run_id = f"corpus/{path.name} stdin={script} stub={stub is not None} {mode}"
                    runs[run_id] = _source_run(source, path.name, options)
    for name, (source, extra) in SNIPPETS.items():
        for mode, options in _modes(**extra):
            runs[f"snippet/{name} {mode}"] = _source_run(source, f"{name}.sl", options)
    for name, source in ERROR_SNIPPETS.items():
        runs[f"snippet/{name}"] = _source_run(source, f"{name}.sl", {})
    for mode, options in _modes():
        runs[f"snippet/uninstrumented_assert {mode}"] = _uninstrumented_run(options)
    rng = random.Random(114)
    for k in range(500):
        program = gen_bound_program(rng)
        runs[f"fuzz/{k}"] = _source_run(
            program.source, f"fuzz{k}.sl", {"stdin_script": program.stdin_script}
        )
    return runs


RUNS = golden_runs()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run_id", [r for r in RUNS if not r.startswith("fuzz/")])
def test_run_trace_is_unchanged(run_id, golden):
    assert _digest(RUNS[run_id]) == golden[run_id]


def test_fuzz_run_traces_are_unchanged(golden):
    changed = [r for r in RUNS if r.startswith("fuzz/") and _digest(RUNS[r]) != golden[r]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_run_golden.py --record")
    GOLDEN_FILE.write_text(
        json.dumps({run_id: _digest(run) for run_id, run in RUNS.items()}, indent=1, sort_keys=True)
        + "\n"
    )
