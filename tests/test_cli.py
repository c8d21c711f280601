import csv
import io
import json
from xml.etree import ElementTree as ET

import pytest

from overrun_lint.cli import main
from overrun_lint.detectors.rules import BOUND_RULES, RULES
from overrun_lint.reporting import reviewed_rules_by_line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_exit_one_on_findings(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "analyze", str(corpus_dir / "yang.sl"), "--timestamp", "T0")
    assert code == 1
    assert "17 finding(s)" in out


def test_analyze_exit_zero_when_below_threshold(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys, "analyze", str(corpus_dir / "yang.sl"), "--min-priority", "1", "--timestamp", "T0"
    )
    assert code == 0
    assert "0 finding(s)" in out


def test_analyze_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.sl"
    bad.write_text("class {")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


def test_analyze_csv_deterministic(capsys, corpus_dir):
    paths = sorted(str(p) for p in corpus_dir.glob("*.sl"))
    args = ["analyze", *paths, "--format", "csv", "--timestamp", "T0"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 1
    assert out1 == out2


def test_analyze_ruleset_flag(capsys, corpus_dir, tmp_path):
    config = tmp_path / "rules.conf"
    config.write_text("rule SystemPrintln enabled=false\nrule NoPackage enabled=false\n")
    code, out, _ = run_cli(
        capsys,
        "analyze",
        str(corpus_dir / "yang.sl"),
        "--ruleset",
        str(config),
        "--timestamp",
        "T0",
    )
    assert code == 1
    assert "12 finding(s)" in out  # 17 - 4 println - 1 nopackage


def test_analyze_bad_ruleset_exit_two(capsys, corpus_dir, tmp_path):
    config = tmp_path / "rules.conf"
    config.write_text("rule Nonexistent priority=2\n")
    code, _, err = run_cli(capsys, "analyze", str(corpus_dir / "yang.sl"), "--ruleset", str(config))
    assert code == 2
    assert err.startswith(f"error: {config}: line 1: unknown rule id")


def test_analyze_ruleset_naming_a_bound_rule_exit_two(capsys, corpus_dir, tmp_path):
    config = tmp_path / "rules.conf"
    config.write_text("rule BoundOffByOneLoop enabled=false\n")
    code, _, err = run_cli(capsys, "analyze", str(corpus_dir / "yang.sl"), "--ruleset", str(config))
    assert code == 2
    assert err.startswith(f"error: {config}: line 1: rule 'BoundOffByOneLoop' is reported by boundcheck")


def test_analyze_xml_to_file(capsys, corpus_dir, tmp_path):
    out_file = tmp_path / "report.xml"
    code, out, _ = run_cli(
        capsys,
        "analyze",
        str(corpus_dir / "readline_loop.sl"),
        "--format",
        "xml",
        "--out",
        str(out_file),
        "--timestamp",
        "T0",
    )
    assert code == 1
    root = ET.parse(out_file).getroot()
    bugtypes = [f.get("BUGTYPE") for f in root.findall("findings/finding")]
    assert "NP_DEREFERENCE_OF_READLINE_VALUE" in bugtypes


def test_boundcheck_category_security(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys, "boundcheck", str(corpus_dir / "testing.sl"), "--format", "csv", "--timestamp", "T0"
    )
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["category"] == "security" for r in rows)
    assert any(r["rule_id"] == "BoundOffByOneLoop" for r in rows)


def test_boundcheck_clean_file_exit_zero(capsys, corpus_dir):
    code, _, _ = run_cli(capsys, "boundcheck", str(corpus_dir / "yang.sl"))
    assert code == 0


def test_run_stdout_and_exit_codes(capsys, corpus_dir, tmp_path):
    stdin = tmp_path / "in.txt"
    stdin.write_text("20\n")
    code, out, err = run_cli(
        capsys, "run", str(corpus_dir / "assert_demo.sl"), "--stdin", str(stdin)
    )
    assert code == 0
    assert out.strip() == "rest code here"

    code, out, err = run_cli(
        capsys, "run", str(corpus_dir / "assert_demo.sl"), "--stdin", str(stdin), "--ea"
    )
    assert code == 0
    assert "assertion passed" in err


def test_run_stdin_lines_end_at_newline_alone(capsys, tmp_path):
    # BufferedReader.readLine ends a line at \n, \r or \r\n only: a form
    # feed stays inside its line.
    program = tmp_path / "Echo.sl"
    program.write_text(
        "class Echo {\n"
        "    static void main(String[] args) {\n"
        "        String a = readLine();\n"
        "        String b = readLine();\n"
        "        String c = readLine();\n"
        "        println(length(a));\n"
        "        println(b);\n"
        "        println(c == null);\n"
        "    }\n"
        "}\n"
    )
    stdin = tmp_path / "in.txt"
    for data, expected in ((b"x\fy\nz\n", "3\nz\ntrue\n"), (b"x\fy\r\n\r\n", "3\n\ntrue\n")):
        stdin.write_bytes(data)
        assert run_cli(capsys, "run", str(program), "--stdin", str(stdin)) == (0, expected, "")


def test_run_coverage_table_and_json(capsys, corpus_dir, tmp_path):
    cov = tmp_path / "cov.json"
    code, out, _ = run_cli(
        capsys,
        "run",
        str(corpus_dir / "yang.sl"),
        "--coverage",
        "--coverage-out",
        str(cov),
    )
    assert code == 0
    assert "Covered Complexity" in out
    payload = json.loads(cov.read_text())
    assert payload["per_method_covered"]
    kinds = {c["kind"] for c in payload["counters"]}
    assert kinds == {"instruction", "branch", "line", "method", "class", "complexity"}


def test_metrics_table_shape(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "metrics", str(corpus_dir / "building_lift.sl"))
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split("  ")[0] == "Element"
    assert "Total Complexity" in header
    assert any("Lift.setSpeed()" in r for r in rows)


def test_cpd_reports_clones(capsys, tmp_path):
    body = """\
        int total = 0;
        for (int i = 0; i < 10; i++) {
            total = total + i * 2;
            println(total);
        }
"""
    f = tmp_path / "dup.sl"
    f.write_text(
        "class A {\n    void first() {\n" + body + "    }\n\n"
        "    void second() {\n" + body + "    }\n}\n"
    )
    code, out, _ = run_cli(capsys, "cpd", str(f), "--min-tokens", "20")
    assert code == 1
    assert "duplicated tokens" in out


def test_cpd_clean_exit_zero(capsys, corpus_dir):
    code, _, _ = run_cli(capsys, "cpd", str(corpus_dir / "checkers_state.sl"), "--min-tokens", "30")
    assert code == 0


# Each command builds only the phases it reads: the rules are the call
# graph's one reader, and rules, metrics and run the CFGs' only readers.
# command -> (options, builders it must not call, exit code, text in stdout)
ON_DEMAND = {
    "cpd": (["--min-tokens", "10"], ("build_call_graph", "build_unit_cfgs"), 1, "duplicated tokens"),
    "boundcheck": (["--timestamp", "T0"], ("build_call_graph", "build_unit_cfgs"), 1, "3 finding(s)"),
    "metrics": ([], ("build_call_graph",), 0, "Total Complexity"),
    "run": (["--coverage"], ("build_call_graph",), 0, "Total Complexity"),
}


@pytest.mark.parametrize("command", sorted(ON_DEMAND))
def test_commands_build_only_what_they_read(capsys, corpus_dir, monkeypatch, command):
    options, unread, code, text = ON_DEMAND[command]
    if command == "run":
        paths = [str(corpus_dir / "yang.sl")]
    else:
        paths = sorted(str(p) for p in corpus_dir.glob("*.sl"))
    expected = run_cli(capsys, command, *paths, *options)

    def refuse(*args):
        raise AssertionError(f"{command} reads none of {unread}")

    import overrun_lint.pipeline as pipeline
    import overrun_lint.semantics.callgraph as callgraph

    # findings() imports build_call_graph when it runs, so it is refused
    # where it is defined.
    for name in unread:
        monkeypatch.setattr(callgraph if name == "build_call_graph" else pipeline, name, refuse)
    assert run_cli(capsys, command, *paths, *options) == expected
    assert expected[0] == code and text in expected[1] and not expected[2]


def test_cpd_still_rejects_unresolved_names(capsys, tmp_path):
    bad = tmp_path / "bad.sl"
    bad.write_text("class A { void m() { missing = 1; } }")
    code, _, err = run_cli(capsys, "cpd", str(bad))
    assert code == 2
    assert "undeclared identifier 'missing'" in err


REJECTED_BY_RESOLVER = {
    "duplicate_local.sl": (
        "class Main {\n"
        "    static void main(String[] args) {\n"
        "        int x = 1;\n"
        "        int x = 2;\n"
        "        println(x);\n"
        "    }\n"
        "}\n",
        "duplicate_local.sl:4:9: duplicate declaration of 'x'",
    ),
    "error_unresolved_call.sl": (
        "class Main {\n"
        "    static void main(String[] args) {\n"
        "        println(1);\n"
        "        missing(2);\n"
        "    }\n"
        "}\n",
        "error_unresolved_call.sl:4:9: undeclared identifier 'missing'",
    ),
    # Before overrides kept their signature, run printed 3.0 from an int.
    "changed_override.sl": (
        "class A { int m(int x) { return x; } }\n"
        "class B extends A { double m(double x) { return x; } }\n"
        "class Main {\n"
        "    static void main(String[] args) {\n"
        "        A a = new B();\n"
        "        int y = a.m(3);\n"
        "        println(y);\n"
        "    }\n"
        "}\n",
        "changed_override.sl:2:21: m(double) in B cannot override m(int) in A; the parameter types differ",
    ),
}


def test_run_rejects_what_analyze_rejects(capsys, tmp_path):
    for name, (source, message) in REJECTED_BY_RESOLVER.items():
        path = tmp_path / name
        path.write_text(source)
        for command in ("run", "analyze"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2, (name, command)
            assert message in err, (name, command, err)
            assert "Traceback" not in err
        assert out == ""  # run printed nothing: the program never started


def test_annotate_in_place_and_reanalyze(capsys, corpus_dir, tmp_path):
    target = tmp_path / "yang.sl"
    target.write_text((corpus_dir / "yang.sl").read_text())
    code, _, _ = run_cli(
        capsys,
        "annotate",
        str(target),
        "--line",
        "13",
        "--rule",
        "MethodNamingConventions",
        "--reviewer",
        "R SINGH",
        "--time",
        "3/28/12 12.04PM",
    )
    assert code == 0
    text = target.read_text()
    assert "//@PMD:REVIEWED: MethodNamingConventions: by R SINGH on 3/28/12 12.04PM" in text

    code, out, _ = run_cli(capsys, "analyze", str(target), "--timestamp", "T0")
    assert "17 finding(s)" in out  # the annotation is a comment: same findings

    code, out, _ = run_cli(capsys, "analyze", str(target), "--honor-reviews", "--timestamp", "T0")
    assert "16 finding(s)" in out  # the reviewed finding is suppressed


def test_annotate_accepts_every_catalog_rule(capsys, corpus_dir, tmp_path):
    target = tmp_path / "yang.sl"
    target.write_text((corpus_dir / "yang.sl").read_text())
    ids = [rule.id for rule in (*RULES, *BOUND_RULES.values())]
    for rule_id in ids:
        code, _, _ = run_cli(
            capsys, "annotate", str(target), "--line", "2", "--rule", rule_id,
            "--reviewer", "X", "--time", "1/1/11 1.01AM",
        )
        assert code == 0, rule_id
    # The annotations stack above the annotated line, which moves down by 26.
    assert reviewed_rules_by_line(target.read_text())[2 + 26] == set(ids)


def test_cyclic_inheritance_exits_two(tmp_path):
    # Each command runs in a child process with a timeout, because an
    # unguarded walk up a cyclic base-class chain never returns.
    import os
    import subprocess
    import sys
    from pathlib import Path

    source = tmp_path / "cyclic.sl"
    source.write_text(
        "class A extends B { void f() { } }\n"
        "class B extends A { static void main(String[] args) { A a = new A(); a.f(); } }\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for command in ("run", "analyze"):
        done = subprocess.run(
            [sys.executable, "-m", "overrun_lint.cli", command, str(source)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2, (command, done.stderr)
        assert "cyclic inheritance involving 'A'" in done.stderr


# Programs the types once let through to a Python traceback: each ends in a
# fault (exit 1) or a spanned error (exit 2).
NO_TRACEBACK = {
    "negate_missing_return.sl": (
        "class Main {\n"
        "    static int g() { }\n"
        "    static void main(String[] args) { int x = -g(); println(x); }\n"
        "}\n",
        1,
        "fault: missing_return at negate_missing_return.sl:2",
    ),
    "int_entry.sl": (
        "class Main { static void main(int x) { println(x + 1); } }\n",
        2,
        "entry Main.main(int) must take no parameters or one String[]",
    ),
    "class_as_value.sl": (
        "class C { }\nclass Main { static void main(String[] args) { C c = C; } }\n",
        2,
        "class_as_value.sl:2:54: class name C is not a value",
    ),
}


@pytest.mark.parametrize("name", sorted(NO_TRACEBACK))
def test_run_ends_in_a_fault_or_an_error_not_a_traceback(name, capsys, tmp_path, monkeypatch):
    source, code, message = NO_TRACEBACK[name]
    (tmp_path / name).write_text(source)
    monkeypatch.chdir(tmp_path)  # the messages name the file as it was given
    # A traceback would be an exception escaping main, and fail the test.
    exit_code, out, err = run_cli(capsys, "run", name)
    assert exit_code == code, err
    assert message in err
    assert out == ""


# Each command, and each file option that names text, on a file holding
# the byte 0xff on its third line; analyze and run are rows of
# tests/test_entry_point.py.
NOT_UTF8 = {
    "boundcheck": ["boundcheck", "{bad}"],
    "cpd": ["cpd", "{bad}"],
    "metrics": ["metrics", "{bad}"],
    "annotate": ["annotate", "{bad}", "--line", "2", "--rule", "SystemPrintln",
                 "--reviewer", "X", "--time", "1/1/11 1.01AM"],
    "analyze --ruleset": ["analyze", "{good}", "--ruleset", "{bad}"],
    "run --stdin": ["run", "{good}", "--stdin", "{bad}"],
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_input_that_is_not_utf8_is_an_error_naming_the_file(case, capsys, corpus_dir, tmp_path):
    bad = tmp_path / "bad.sl"
    data = b"class A {\r\n  void m() { }\r\n  // \xff\n}\n"
    bad.write_bytes(data)
    argv = [a.format(bad=bad, good=corpus_dir / "assert_demo.sl") for a in NOT_UTF8[case]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{bad}: line 3: " in err and "0xff" in err
    assert bad.read_bytes() == data


def test_crlf_sources_keep_their_spans(capsys, corpus_dir, tmp_path):
    source = (corpus_dir / "yang.sl").read_text()
    crlf = tmp_path / "yang.sl"
    crlf.write_bytes(source.replace("\n", "\r\n").encode())
    lf = tmp_path / "lf" / "yang.sl"
    lf.parent.mkdir()
    lf.write_text(source)
    reports = [run_cli(capsys, "analyze", str(p), "--format", "csv", "--timestamp", "T0") for p in (crlf, lf)]
    assert reports[0][1] == reports[1][1].replace(str(lf), str(crlf))


def test_run_time_error_keeps_the_output_before_it(capsys, tmp_path, monkeypatch):
    (tmp_path / "div.sl").write_text(
        "class Main {\n"
        "    static void main(String[] args) {\n"
        "        int z = 0;\n"
        '        println("before");\n'
        "        println(5 / z);\n"
        "    }\n"
        "}\n"
    )
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "div.sl")
    assert (code, out) == (1, "before\n")
    assert err == "fault: arithmetic_error at div.sl:5: integer division by zero\n"
