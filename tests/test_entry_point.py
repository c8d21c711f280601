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
    check: Callable[[str], None] | None = None  # a further check of stdout


def corpus(name: str) -> bytes:
    return (CORPUS / name).read_bytes()


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


def annotate(rule="DoNotUseThreads", reviewer="X", time="1/1/11 1.01AM", line=1) -> str:
    return shlex.join(["annotate", "Yang.sl", "--line", str(line), "--rule", rule, "--reviewer", reviewer, "--time", time])


ROWS = {
    "analyze corpus": Row("analyze {corpus}/*.sl", 1, err="", out_has=("63 finding(s)",)),
    "boundcheck corpus": Row("boundcheck {corpus}/*.sl", 1, err="", out_has=("3 finding(s)",)),
    "metrics corpus": Row("metrics {corpus}/*.sl", 0, err="", check=_project_total),
    "cpd corpus": Row("cpd {corpus}/*.sl", 0, out="", err=""),
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
    "run --coverage-out, then metrics --coverage-data": Row(
        "metrics --coverage-data cov.json Yang.sl", 0, files={"Yang.sl": corpus("yang.sl")},
        before=("run --coverage --coverage-out cov.json Yang.sl",), err="",
        out_has=("      Yang.main()                100.0 %                   1                  0                 1",),
    ),
    "run --coverage-out without --coverage": Row(
        "run --coverage-out cov.json Yang.sl", 2, files={"Yang.sl": corpus("yang.sl")},
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
    "an override that changes its signature": Row(
        "analyze Override.sl", 2,
        files={"Override.sl": "class A { int m(int x) { return x; } }\nclass B extends A { double m(double x) { return x; } }\n"},
        out="", err="error: Override.sl:2:21: m(double) in B cannot override m(int) in A; the parameter types differ\n",
    ),
    "class String": Row(
        "analyze String.sl", 2, files={"String.sl": "class String { }\n"},
        out="", err="error: String.sl:1:1: duplicate declaration of 'String'\n",
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
    **{
        f"annotate {rule}": Row(
            annotate(rule=rule, line=2), 2, files={"Yang.sl": corpus("yang.sl")},
            out="", err=f"error: unknown rule id '{rule}'\n",
        )
        for rule in ("NotARule", "BoundNoSuchRule")
    },
    # --honor-reviews could not read these annotations back.
    **{
        f"annotate, {name}": Row(
            annotate(reviewer=reviewer, time=time), 2, files={"Yang.sl": corpus("yang.sl")},
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
    **{
        f"{command}, not UTF-8": Row(
            f"{command} bad.sl", 2, files={"bad.sl": NOT_UTF8},
            out="", err="error: bad.sl: line 3: not UTF-8 text: cannot decode byte 0xff\n",
        )
        for command in ("analyze", "run")
    },
    **{
        f"{command}, the first resolution error alone": Row(
            f"{command} mixed.sl", 2, files={"mixed.sl": MIXED},
            out="", err="error: mixed.sl:3:5: undeclared identifier 'x'\n",
        )
        for command in ("analyze", "boundcheck", "metrics", "cpd", "run")
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
    lines = out.splitlines()
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
@pytest.mark.parametrize("name", ["metrics corpus", "class String", "cpd imports"])
def test_row_through_a_command(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", PACKAGE_ROOT)
    check_row(ROWS[name], MODULE)
