"""The command-line contract, one row a probe: each command exits 0, 1 or
2, prints its error with a span, and never a Python traceback.

By default each row calls `cli.main` in this process.  With the
environment variable OVERRUN_LINT_COMMAND set, say to `overrun-lint`, each
row runs that command instead, so the same table checks an installed
entry point:

    pip install .
    OVERRUN_LINT_COMMAND=overrun-lint python -m pytest -q tests/test_entry_point.py

A row whose check reads the modules a command loads runs in a fresh
interpreter in both modes: the named command, or `python -m
overrun_lint.cli` on the package these tests import."""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from xml.etree import ElementTree as ET

import pytest

import overrun_lint
from overrun_lint.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
COMMAND = shlex.split(os.environ.get("OVERRUN_LINT_COMMAND", ""))
MODULE = [sys.executable, "-m", "overrun_lint.cli"]
PACKAGE_ROOT = str(Path(overrun_lint.__file__).resolve().parent.parent)


@dataclass(frozen=True)
class Row:
    """One probe: files written to an empty working directory, the argv
    run there, and what it must print, exit with and leave.  In argv, `{corpus}` names the
    corpus directory and a `*` is expanded as the shell would."""

    argv: str
    code: int
    files: dict[str, str | bytes] = field(default_factory=dict)
    before: tuple[str, ...] = ()  # argvs run first, each exiting 0 silently
    out: str | None = None  # the whole of stdout
    err: str | None = None  # the whole of stderr
    out_has: tuple[str, ...] = ()  # whole lines of stdout
    rule_counts: dict[str, int] = field(default_factory=dict)  # rule id -> stdout lines naming it
    absent: tuple[str, ...] = ()  # files it must not write; those it reads stay as they were
    loaded: tuple[str, ...] = ()  # modules the command imports
    not_loaded: tuple[str, ...] = ()  # packages or modules it must not import
    check: Callable[[str], None] | None = None  # a further check of stdout, in the working directory


def corpus(name: str) -> bytes:
    return (CORPUS / name).read_bytes()


# The commands that read SL sources; each takes the paths of its units.
SOURCE_COMMANDS = ("analyze", "boundcheck", "run", "metrics", "cpd")
YANG = {"Yang.sl": corpus("yang.sl")}


PROBE = """\
class Probe extends Thread {
    static String readLine() { return "7"; }
    static int open(String p) { return 0; }
    static void main(String[] args) {
        String line = readLine();
        println(length(line));
        int s = open("f");
        Probe none = null;
        none.sleep(s);
        println("slept");
    }
}
"""

# split recurses on every branch, and the C cycle's object is a C while no
# D is made: the two findings.  count and down stop at a base case, and the
# A object is a B, whose g returns.
RECURSION = """\
class Recursion {
    static int count(int n) {
        if (n == 0) {
            return 0;
        }
        return count(n - 1) + 1;
    }
    static void down(int n) {
        if (n <= 0) {
            return;
        }
        down(n - 1);
    }
    static void split(int n) {
        if (n > 0) {
            split(n - 1);
        } else {
            split(n + 1);
        }
    }
    static void main(String[] args) {
        down(3);
        println(count(3));
        A a = new B();
        a.f();
        C c = new C();
        c.f();
    }
}
class A { void f() { g(); } void g() { f(); } }
class B extends A { void g() { println("B.g returns"); } }
class C { void f() { g(); } void g() { f(); } }
class D extends C { void g() { println("D.g returns"); } }
"""

# The null rules follow control flow: no check here is redundant, and only
# line 25 dereferences a readLine() result that may be null.
NULLS = """\
class Nulls {
    static void branchDependent() {
        Nulls p = null;
        if (exists("cfg")) {
            p = new Nulls();
        }
        if (p == null) {
            println("none");
        }
    }
    static void loopCarried() {
        Nulls q = new Nulls();
        int i = 0;
        while (i < 2) {
            if (q == null) {
                println("gone");
            }
            q = null;
            i = i + 1;
        }
    }
    static void nullSide() {
        String line = readLine();
        if (line == null) {
            println(length(line));
        }
    }
    static void readLoop() {
        String line = "";
        while ((line = readLine()) != null) {
            println(length(line));
        }
    }
    static Nulls cur;
    static void reset() {
        cur = null;
    }
    static void fieldReset() {
        cur = new Nulls();
        reset();
        if (cur == null) {
            println("reset");
        }
    }
}
"""

# An undeclared name on line 3 and a type error on line 4: the resolver
# stops at the first, and every command prints it and nothing else.
MIXED = """\
class Main {
  static void main(String[] args) {
    x = 1;
    int y = true;
  }
}
"""

NOT_UTF8 = b"class A {\r\n  void m() { }\r\n  // \xff\n}\n"

# A form feed ends no line, for the lexer, annotate or
# --honor-reviews: line 4's annotation reviews line 5, not line 3.
FORM_FEED = """\
class Main {
    static void main(String[] args) {
        println("a\fb");
        //@PMD:REVIEWED: SystemPrintln: by X on 1/1/11 1.01AM
        println("c");
    }
}
"""

# Reads three lines and prints the first's length, the second, and whether
# the third is past the end.
ECHO = """\
class Echo {
    static void main(String[] args) {
        String a = readLine();
        String b = readLine();
        String c = readLine();
        println(length(a));
        println(b);
        println(c == null);
    }
}
"""

CLONES = """\
        int total = 0;
        for (int i = 0; i < 10; i++) {
            total = total + i * 2;
            println(total);
        }
"""

# The head of a one-line unit: its main is still open.
MAIN = "class Main { static void main(String[] args) {"


def _priorities(out: str) -> None:
    """Every SystemPrintln finding is priority 1 (red), as the ruleset
    says, and every other finding keeps its catalog priority."""
    from overrun_lint.detectors.rules import rule_by_id

    findings = ET.fromstring(out).findall("findings/finding")
    printlns = [f for f in findings if f.get("BUGTYPE") == "SystemPrintln"]
    others = [f for f in findings if f.get("BUGTYPE") != "SystemPrintln"]
    assert printlns and others
    assert all((f.get("priority"), f.get("priorityColor")) == ("1", "red") for f in printlns)
    assert all(f.get("priority") == str(rule_by_id(f.get("BUGTYPE")).priority) for f in others)


def _project_total(out: str) -> None:
    """The metrics table's project row, whose width follows the paths."""
    assert out.splitlines()[1].split() == ["project", "0.0", "%", "0", "54", "54"]


def _report_xml(out: str) -> None:
    """--out takes the report, readLine's unchecked result among its findings."""
    findings = ET.parse("report.xml").findall("findings/finding")
    assert "NP_DEREFERENCE_OF_READLINE_VALUE" in {f.get("BUGTYPE") for f in findings}


def _coverage_json(out: str) -> None:
    """--coverage-out writes every counter kind and the covered methods."""
    payload = json.loads(Path("cov.json").read_text())
    assert payload["per_method_covered"]
    kinds = {c["kind"] for c in payload["counters"]}
    assert kinds == {"instruction", "branch", "line", "method", "class", "complexity"}


def _annotated_line_3(out: str) -> None:
    """The annotation sits on line 3, and the rest of the file is as it was."""
    lines = FORM_FEED.split("\n")
    lines.insert(2, "        //@PMD:REVIEWED: SystemPrintln: by X on 1/1/11 1.01AM")
    assert Path("Out.sl").read_text() == "\n".join(lines)


def annotate(file="Yang.sl", rule="DoNotUseThreads", reviewer="X", time="1/1/11 1.01AM", line=1) -> str:
    return shlex.join(["annotate", file, "--line", str(line), "--rule", rule, "--reviewer", reviewer, "--time", time])


ROWS = {
    "analyze corpus": Row("analyze {corpus}/*.sl", 1, err="", out_has=("63 finding(s)",)),
    "boundcheck corpus": Row("boundcheck {corpus}/*.sl", 1, err="", out_has=("3 finding(s)",)),
    "metrics corpus": Row("metrics {corpus}/*.sl", 0, err="", check=_project_total),
    "cpd corpus": Row("cpd {corpus}/*.sl", 0, out="", err=""),
    "analyze Yang.sl": Row("analyze Yang.sl --timestamp T0", 1, files=YANG, err="", out_has=("17 finding(s)",)),
    "analyze --min-priority 1": Row(
        "analyze Yang.sl --min-priority 1 --timestamp T0", 0, files=YANG, err="", out_has=("0 finding(s)",),
    ),
    "analyze, a parse error": Row(
        "analyze bad.sl", 2, files={"bad.sl": "class {"}, out="", err="error: bad.sl:1:7: expected class name, found '{'\n",
    ),
    "analyze --format xml --out": Row(
        "analyze readline_loop.sl --format xml --out report.xml --timestamp T0", 1,
        files={"readline_loop.sl": corpus("readline_loop.sl")}, out="", err="", check=_report_xml,
    ),
    # Line 3's println is reported and line 5's is reviewed.
    "analyze --honor-reviews, a form feed in a string": Row(
        "analyze --honor-reviews Main.sl", 1, files={"Main.sl": FORM_FEED}, err="",
        rule_counts={"SystemPrintln": 1},
        out_has=("Main.sl:3:9: [P4/green rank 18/of_concern high] SystemPrintln (performance): println call in production code",),
    ),
    "boundcheck --format csv": Row(
        "boundcheck testing.sl --format csv --timestamp T0", 1, files={"testing.sl": corpus("testing.sl")}, err="",
        out="file,line,rule_id,category,priority,rank,confidence,message\n"
        "testing.sl,18,BoundOffByOneLoop,security,2,5,high,loop runs 'y <= size'; largest valid index of 'b' is size - 1\n",
    ),
    "boundcheck, a clean file": Row("boundcheck Yang.sl", 0, files=YANG, err="", out_has=("0 finding(s)",)),
    "metrics building_lift.sl": Row(
        "metrics building_lift.sl", 0, files={"building_lift.sl": corpus("building_lift.sl")}, err="",
        out_has=(
            "Element                    Coverage  Covered Complexity  Missed Complexity  Total Complexity",
            "      Lift.setSpeed()         0.0 %                   0                  2                 2",
        ),
    ),
    "cpd, a clone": Row(
        "cpd Dup.sl --min-tokens 20", 1,
        files={"Dup.sl": f"class A {{\n    void first() {{\n{CLONES}    }}\n\n    void second() {{\n{CLONES}    }}\n}}\n"},
        out="40 duplicated tokens: Dup.sl:2-8 and Dup.sl:10-16\n", err="",
    ),
    "cpd, no clone": Row(
        "cpd checkers_state.sl --min-tokens 30", 0, files={"checkers_state.sl": corpus("checkers_state.sl")},
        out="", err="",
    ),
    "analyze imports": Row(
        "analyze {corpus}/*.sl", 1, err="",
        loaded=("overrun_lint.detectors.rules",), not_loaded=("overrun_lint.runtime",),
    ),
    "cpd imports": Row(
        "cpd {corpus}/*.sl", 0, err="",
        loaded=("overrun_lint.detectors.clones",),
        not_loaded=("overrun_lint.runtime", "overrun_lint.detectors.rules", "overrun_lint.semantics.callgraph"),
    ),
    "run --coverage assert_demo": Row(
        "run --coverage assert_demo.sl", 1, files={"assert_demo.sl": corpus("assert_demo.sl")},
        err="fault: null_dereference at assert_demo.sl:4: parseInt(null)\n",
        out_has=("assert_demo.sl                   33.3 %                   1                  2                 3",),
    ),
    "run --coverage --coverage-out": Row(
        "run --coverage --coverage-out cov.json Yang.sl", 0, files=YANG, err="",
        out_has=("Element                         Coverage  Covered Complexity  Missed Complexity  Total Complexity",),
        check=_coverage_json,
    ),
    "run --coverage-out, then metrics --coverage-data": Row(
        "metrics --coverage-data cov.json Yang.sl", 0, files=YANG,
        before=("run --coverage --coverage-out cov.json Yang.sl",), err="",
        out_has=("      Yang.main()                100.0 %                   1                  0                 1",),
    ),
    "run --coverage-out without --coverage": Row(
        "run --coverage-out cov.json Yang.sl", 2, files=YANG,
        out="", err="error: --coverage-out needs --coverage\n", absent=("cov.json",),
    ),
    **{
        f"metrics --coverage-data {name}": Row(
            "metrics --coverage-data cov.json Yang.sl", 2, files={"Yang.sl": corpus("yang.sl"), "cov.json": payload},
            out="", err=f"error: cov.json: {message}\n",
        )
        for name, payload, message in (
            ("not_json", "not json", "not a coverage JSON file: Expecting value: line 1 column 1 (char 0)"),
            ("not_an_object", "[1]", "expected an object whose per_method_covered maps method ids to counts"),
            ("count_not_an_integer", '{"per_method_covered": {"Yang.main/1": "x"}}',
             "expected an object whose per_method_covered maps method ids to counts"),
            ("negative_count", '{"per_method_covered": {"Yang.main/1": -3}}',
             "expected an object whose per_method_covered maps method ids to counts"),
        )
    },
    **{
        f"run{ea} --stdin, a passed assert": Row(
            f"run{ea} --stdin twenty assert_demo.sl", 0, files={"assert_demo.sl": corpus("assert_demo.sl"), "twenty": "20\n"},
            out="rest code here\n", err=err,
        )
        for ea, err in (("", ""), (" --ea", "assertion passed: AssertDemo.main: assert a > 10\n"))
    },
    # BufferedReader.readLine ends a line at \n, \r or \r\n only.
    **{
        f"run --stdin, {name}": Row(
            "run --stdin in.txt Echo.sl", 0, files={"Echo.sl": ECHO, "in.txt": data}, out=out, err="",
        )
        for name, data, out in (
            ("a form feed inside a line", b"x\fy\nz\n", "3\nz\ntrue\n"),
            ("a form feed and CRLF line ends", b"x\fy\r\n\r\n", "3\n\ntrue\n"),
        )
    },
    "run --ea, a failed assert's int message": Row(
        "run --ea M.sl", 1, files={"M.sl": "class M { static void main(String[] args) { int v = 3; assert v > 5 : v; } }"},
        out="", err="assertion failed: M.main: assert v > 5: 3\nfault: assertion_failure at M.sl:1: 3\n",
    ),
    "run --ea --stdin, a failed assert": Row(
        "run --ea --stdin five assert_demo.sl", 1, files={"assert_demo.sl": corpus("assert_demo.sl"), "five": "5\n"},
        out="",
        err="assertion failed: AssertDemo.main: assert a > 10: its false\n"
        "fault: assertion_failure at assert_demo.sl:5: its false\n",
    ),
    "--ruleset enabled=maybe": Row(
        "analyze {corpus}/yang.sl --ruleset bad.conf", 2, files={"bad.conf": "rule SystemPrintln enabled=maybe\n"},
        out="", err="error: bad.conf: line 1: enabled must be true or false, got 'maybe'\n",
    ),
    "--ruleset enabled=false": Row(
        "analyze Yang.sl --ruleset off.conf --timestamp T0", 1,
        files={**YANG, "off.conf": "rule SystemPrintln enabled=false\nrule NoPackage enabled=false\n"},
        err="", out_has=("12 finding(s)",), rule_counts={"SystemPrintln": 0, "NoPackage": 0},
    ),
    **{
        f"--ruleset, {name}": Row(
            "analyze Yang.sl --ruleset bad.conf", 2, files={**YANG, "bad.conf": config},
            out="", err=f"error: bad.conf: line {message}\n",
        )
        for name, config, message in (
            ("an unknown rule id", "rule Nonexistent priority=2\n", "1: unknown rule id 'Nonexistent'"),
            ("a rule boundcheck reports", "rule BoundOffByOneLoop enabled=false\n",
             "1: rule 'BoundOffByOneLoop' is reported by boundcheck, which takes no ruleset"),
            # A form feed ends no line.
            ("a form feed in a comment", "# by X\fon 1/1/11\nrule Nonexistent\n", "2: unknown rule id 'Nonexistent'"),
        )
    },
    "--ruleset priority=1": Row(
        "analyze {corpus}/*.sl --format xml --ruleset p1.conf", 1, files={"p1.conf": "rule SystemPrintln priority=1\n"},
        err="", check=_priorities,
    ),
    # Declared readLine and open shadow the builtins, and sleep through a
    # null receiver runs on, as a static call.
    "analyze Probe.sl": Row(
        "analyze Probe.sl", 1, files={"Probe.sl": PROBE}, err="",
        rule_counts={"NP_DEREFERENCE_OF_READLINE_VALUE": 0, "StreamNotClosed": 0, "DoNotUseThreads": 1},
    ),
    "run Probe.sl": Row("run Probe.sl", 0, files={"Probe.sl": PROBE}, out="1\nslept\n", err=""),
    # math.fmod raised ValueError here, and run ended in a traceback.
    "run, the remainder of an infinity": Row(
        "run Rem.sl", 0,
        files={"Rem.sl": "class Main { static void main(String[] args) { double z = 0; println((1.0 / z) % 2.0); } }\n"},
        out="NaN\n", err="",
    ),
    # Java throws a NullPointerException at both (JLS 14.11.3, 14.19).
    "run, a switch on a null String": Row(
        "run Switch.sl", 1,
        files={"Switch.sl": "class Main { static void main(String[] args) { String s = readLine(); println(1);\n"
               ' switch (s) { case "a": println("a"); default: println("b"); } } }\n'},
        out="1\n", err="fault: null_dereference at Switch.sl:2: switch on a null String\n",
    ),
    "run, synchronized on null": Row(
        "run Sync.sl", 1,
        files={"Sync.sl": "class Main { static void main(String[] args) { Main m = null; println(1);\n"
               " synchronized (m) { println(2); } } }\n"},
        out="1\n", err="fault: null_dereference at Sync.sl:2: synchronized on null\n",
    ),
    "run, a fault keeps the output before it": Row(
        "run Div.sl", 1,
        files={"Div.sl": 'class Main {\n    static void main(String[] args) {\n        int z = 0;\n'
               '        println("before");\n        println(5 / z);\n    }\n}\n'},
        out="before\n", err="fault: arithmetic_error at Div.sl:5: integer division by zero\n",
    ),
    # Programs the types once let through to a Python traceback.
    **{
        f"run, {name}": Row("run Main.sl", code, files={"Main.sl": source}, out="", err=err)
        for name, source, code, err in (
            ("a negated call that falls off its end",
             "class Main {\n    static int g() { }\n    static void main(String[] args) { int x = -g(); println(x); }\n}\n",
             1, "fault: missing_return at Main.sl:2: Main.g/0 reached its end without returning a value\n"),
            ("an entry taking an int", "class Main { static void main(int x) { println(x + 1); } }\n",
             2, "error: entry Main.main(int) must take no parameters or one String[]\n"),
            ("a class name as a value", "class C { }\nclass Main { static void main(String[] args) { C c = C; } }\n",
             2, "error: Main.sl:2:54: class name C is not a value\n"),
        )
    },
    "run, a runaway loop": Row(
        "run Spin.sl", 1,
        files={"Spin.sl": "class Main {\n    static void main(String[] args) {\n        while (true) { }\n    }\n}\n"},
        out="", err="fault: step_limit at Spin.sl:3: step limit 1000000 exceeded\n",
    ),
    # The entry is looked up before any class is initialized, as Java's
    # launcher does; the static initializer here would spin to the step limit.
    "run --entry, missing, past a static initializer that spins": Row(
        "run T.sl --entry T.nope", 2,
        files={"T.sl": "class T { static int x = spin(); static int spin() { while (true) { } }"
               " static void main(String[] args) { println(1); } }\n"},
        out="", err="error: entry T.nope not found in T.sl\n",
    ),
    "class String": Row(
        "analyze String.sl", 2, files={"String.sl": "class String { }\n"},
        out="", err="error: String.sl:1:1: duplicate declaration of 'String'\n",
    ),
    # No local redeclares a parameter or a local in scope (JLS 6.4), and a
    # switch block is one scope (JLS 6.3).
    **{
        f"run, {name}": Row(
            "run Scope.sl", 2, files={"Scope.sl": source + "\n"}, out="", err=f"error: Scope.sl:{message}\n",
        )
        for name, source, message in (
            ("a parameter redeclared in the body",
             "class Main { static void m(int p) { int p = 1; } static void main(String[] args) { m(1); } }",
             "1:37: duplicate declaration of 'p'"),
            ("a nested block's local redeclaring an outer local",
             f"{MAIN} int x = 1; {{ int x = 2; }} }} }}", "1:61: duplicate declaration of 'x'"),
            ("a for initializer redeclaring a local",
             f"{MAIN} int i = 1; for (int i = 0; i < 2; i++) {{ }} }} }}", "1:64: duplicate declaration of 'i'"),
            ("a catch parameter redeclared in its body",
             f"{MAIN} try {{ }} catch (Exception e) {{ int e = 1; }} }} }}", "1:78: duplicate declaration of 'e'"),
            ("a local declared in two cases of one switch",
             f"{MAIN} int k = 1; switch (k) {{ case 1: int y = 1; case 2: int y = 2; }} }} }}",
             "1:99: duplicate declaration of 'y'"),
            ("a case label naming a local of the switch block",
             f"{MAIN} int k = 2; switch (k) {{ case 1: final int K = 2; case K: println(9); }} }} }}",
             "1:102: undeclared identifier 'K'"),
        )
    },
    "run, a case storing into an earlier case's local": Row(
        "run Scope.sl", 0,
        files={"Scope.sl": f"{MAIN} int k = 2; switch (k) {{ case 1: int y = 1; case 2: y = 2; println(y); }} }} }}\n"},
        out="2\n", err="",
    ),
    # The case that declares y never ran: y holds int's default.
    "run, a case reading an earlier case's local before any store": Row(
        "run Scope.sl", 0,
        files={"Scope.sl": f"{MAIN} int k = 2; switch (k) {{ case 1: int y = 1; case 2: println(y); }} }} }}\n"},
        out="0\n", err="",
    ),
    # A local's scope starts at its own initializer (JLS 6.3): reading it
    # there is javac's error, and a field it hides is read through this.
    "run, a local read in its own initializer": Row(
        "run Scope.sl", 2,
        files={"Scope.sl": "class A { static int f = 3; static void main(String[] args) { int f = f + 1; println(f); } }\n"},
        out="", err="error: Scope.sl:1:71: variable f might not have been initialized\n",
    ),
    "run, a local's initializer reading the field it hides through this": Row(
        "run Scope.sl", 0,
        files={"Scope.sl": "class A { int f = 3; void m() { int f = this.f + 1; println(f); }"
               " static void main(String[] args) { new A().m(); } }\n"},
        out="4\n", err="",
    ),
    "run, sibling blocks and loops declaring one name": Row(
        "run Scope.sl", 0,
        files={"Scope.sl": f"{MAIN} {{ int x = 1; println(x); }} {{ int x = 2; println(x); }}"
               " for (int i = 0; i < 1; i++) { println(i); } for (int i = 1; i < 2; i++) { println(i); } } }\n"},
        out="1\n2\n0\n1\n", err="",
    ),
    "analyze Recursion.sl": Row(
        "analyze Recursion.sl", 1, files={"Recursion.sl": RECURSION}, err="",
        rule_counts={"InfiniteRecursion": 2},
        out_has=(
            "Recursion.sl:16:13: [P1/red rank 2/scariest high] InfiniteRecursion (correctness):"
            " Unconditional recursive call cycle: Recursion.split/1",
            "Recursion.sl:32:22: [P1/red rank 2/scariest high] InfiniteRecursion (correctness):"
            " Unconditional recursive call cycle: C.f/0 -> C.g/0",
        ),
    ),
    "analyze Nulls.sl": Row(
        "analyze Nulls.sl", 1, files={"Nulls.sl": NULLS}, err="",
        rule_counts={"RedundantNullCheck": 0, "NP_DEREFERENCE_OF_READLINE_VALUE": 1},
        out_has=(
            "Nulls.sl:25:28: [P3/yellow rank 15/of_concern normal] NP_DEREFERENCE_OF_READLINE_VALUE (dodgy):"
            " Dereference of the result of readLine() via 'line' without a null check",
        ),
    ),
    # The annotation goes above line 3, whose string holds a form feed, and
    # the annotated file still runs.
    "annotate --out, a form feed in a string": Row(
        "run Out.sl", 0, files={"Main.sl": FORM_FEED},
        before=(annotate("Main.sl", rule="SystemPrintln", line=3) + " --out Out.sl",),
        out="a\fb\nc\n", err="", check=_annotated_line_3,
    ),
    **{
        f"annotate {rule}": Row(
            annotate(rule=rule, line=2), 2, files=YANG,
            out="", err=f"error: unknown rule id '{rule}'\n",
        )
        for rule in ("NotARule", "BoundNoSuchRule")
    },
    # --honor-reviews could not read these annotations back.
    **{
        f"annotate, {name}": Row(
            annotate(reviewer=reviewer, time=time), 2, files=YANG,
            out="", err=f"error: reviewer {reviewer!r} and time {time!r} do not read back from {line!r}\n",
        )
        for name, reviewer, time, line in (
            ("an empty time", "X", "", "//@PMD:REVIEWED: DoNotUseThreads: by X on "),
            ("an empty reviewer", "", "1/1/11 1.01AM", "//@PMD:REVIEWED: DoNotUseThreads: by  on 1/1/11 1.01AM"),
            ("a reviewer holding a newline", "X\nY", "1/1/11 1.01AM",
             "//@PMD:REVIEWED: DoNotUseThreads: by X\nY on 1/1/11 1.01AM"),
        )
    },
    # javac rejects an int literal above 2147483647; 5 001 digits is past
    # Python's 4 300-digit limit on converting text to an int.
    **{
        f"run, an int literal of {len(literal)} digits": Row(
            "run Main.sl", 2, files={"Main.sl": "class Main { static void main(String[] args) { %s; } }\n" % (line % literal)},
            out="", err=f"error: Main.sl:1:{column}: integer number too large\n",
        )
        for line, literal, column in (
            ("double d = %s / 2.0", "99999999999", 59),
            ("double d = %s / 2.0", "9" * 400, 59),
            ("int x = %s", "1" + "0" * 5000, 56),
        )
    },
    # Each command, and each option that names a text file, on one whose
    # third line holds the byte 0xff.
    **{
        f"{name}, not UTF-8": Row(
            argv, 2, files={"bad.sl": NOT_UTF8, "Good.sl": corpus("assert_demo.sl")},
            out="", err="error: bad.sl: line 3: not UTF-8 text: cannot decode byte 0xff\n",
        )
        for name, argv in (
            *((command, f"{command} bad.sl") for command in SOURCE_COMMANDS),
            ("annotate", annotate("bad.sl", rule="SystemPrintln", line=2)),
            ("analyze --ruleset", "analyze Good.sl --ruleset bad.sl"),
            ("run --stdin", "run Good.sl --stdin bad.sl"),
        )
    },
    # Every command rejects what the resolver rejects, and run starts no
    # program.
    **{
        f"{command}, {name}": Row(
            f"{command} Main.sl", 2, files={"Main.sl": source}, out="", err=f"error: Main.sl:{message}\n",
        )
        for command in SOURCE_COMMANDS
        for name, source, message in (
            ("the first resolution error alone", MIXED, "3:5: undeclared identifier 'x'"),
            ("a local declared twice", f"{MAIN}\n int x = 1;\n int x = 2;\n println(x); }} }}\n",
             "3:2: duplicate declaration of 'x'"),
            ("a call to an undeclared method", f"{MAIN}\n println(1);\n missing(2); }} }}\n",
             "3:2: undeclared identifier 'missing'"),
            # Before overrides kept their signature, run printed 3.0 from an int.
            ("an override that changes its signature",
             "class A { int m(int x) { return x; } }\nclass B extends A { double m(double x) { return x; } }\n"
             "class Main { static void main(String[] args) { A a = new B(); int y = a.m(3); println(y); } }\n",
             "2:21: m(double) in B cannot override m(int) in A; the parameter types differ"),
            ("a void assert message",
             'class M { static void main(String[] args) { assert true : println("x"); } }',
             "1:59: assert message must not be void"),
            ("fail, which is no builtin",
             'class M { static void main(String[] args) { fail("a", "b", "c"); } }',
             "1:45: undeclared identifier 'fail'"),
        )
    },
}


def _argv(line: str) -> list[str]:
    argv = []
    for arg in shlex.split(line):
        arg = arg.format(corpus=CORPUS)
        argv += sorted(glob.glob(arg)) if "*" in arg else [arg]
    return argv


def _bytes(data: str | bytes) -> bytes:
    return data if isinstance(data, bytes) else data.encode()


def invoke(argv: list[str], command: list[str], env: dict[str, str] | None = None) -> tuple[int, str, str]:
    """Run argv in the working directory: through `cli.main` when command
    is empty, else as a child process of command."""
    if not command:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()
    done = subprocess.run(
        [*command, *argv], env={**os.environ, **(env or {})},
        capture_output=True, encoding="utf-8", errors="replace", timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def check_row(row: Row, command: list[str]) -> None:
    """Run one row in the working directory, which is empty, and check it."""
    for name, data in row.files.items():
        Path(name).write_bytes(_bytes(data))
    for line in row.before:
        code, _, err = invoke(_argv(line), command)
        assert (code, err) == (0, ""), (line, err)
    env = None
    if row.loaded or row.not_loaded:
        # -X importtime names each module on stderr as it is imported.
        env = {"PYTHONPROFILEIMPORTTIME": "1"}
        if not command:  # a fresh interpreter on the package these tests import
            command = MODULE
            env["PYTHONPATH"] = PACKAGE_ROOT
    code, out, err = invoke(_argv(row.argv), command, env)
    assert "Traceback" not in err, err
    if env:
        imports = [line for line in err.splitlines(keepends=True) if line.startswith("import time:")]
        loaded = {line.rsplit("|", 1)[1].strip() for line in imports}
        err = "".join(line for line in err.splitlines(keepends=True) if line not in imports)
        assert set(row.loaded) <= loaded
        assert not {m for m in loaded for p in row.not_loaded if m == p or m.startswith(p + ".")}
    assert code == row.code, err
    if row.out is not None:
        assert out == row.out
    if row.err is not None:
        assert err == row.err
    lines = out.split("\n")  # a form feed in a printed string ends no line
    for line in row.out_has:
        assert line in lines, line
    for rule_id, count in row.rule_counts.items():
        assert sum(rule_id in line for line in lines) == count, rule_id
    for name, data in row.files.items():
        assert Path(name).read_bytes() == _bytes(data), name
    for name in row.absent:
        assert not Path(name).exists(), name
    if row.check is not None:
        row.check(out)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the messages name each file as it was given
    check_row(ROWS[name], COMMAND)


# The branch that runs a command, as CI runs the table, in this suite too.
@pytest.mark.parametrize("name", ["metrics corpus", "class String", "cpd imports", "analyze --format xml --out"])
def test_row_through_a_command(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", PACKAGE_ROOT)
    check_row(ROWS[name], MODULE)
