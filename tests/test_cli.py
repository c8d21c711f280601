"""The command-line checks that are no row of tests/test_entry_point.py,
which holds every other probe of the CLI contract."""

import pytest

from overrun_lint.cli import main
from overrun_lint.detectors.rules import BOUND_RULES, RULES
from overrun_lint.reporting import reviewed_rules_by_line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each command builds only the phases it reads: the rules are the call
# graph's one reader, and rules, metrics and run the CFGs' only readers.
# command -> (options, builders it must not call, exit code, text in stdout)
ON_DEMAND = {
    "cpd": (["--min-tokens", "10"], ("build_call_graph", "build_unit_cfgs"), 1, "duplicated tokens"),
    "boundcheck": (["--timestamp", "T0"], ("build_call_graph", "build_unit_cfgs"), 1, "3 finding(s)"),
    "metrics": ([], ("build_call_graph",), 0, "Total Complexity"),
    "run": (["--coverage"], ("build_call_graph",), 0, "Total Complexity"),
}


# No row: it replaces builders in this process, which a child process would not see.
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


# No row: it edits its input in place, and a row's files must stay as they were.
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


# No row: it edits its input in place, and a row's files must stay as they were.
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


# No row: a child process with a timeout, so a walk up a cyclic base chain cannot hang the suite.
def test_cyclic_inheritance_exits_two(tmp_path):
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


# No row: it compares the reports of two runs.
def test_crlf_sources_keep_their_spans(capsys, corpus_dir, tmp_path):
    source = (corpus_dir / "yang.sl").read_text()
    crlf = tmp_path / "yang.sl"
    crlf.write_bytes(source.replace("\n", "\r\n").encode())
    lf = tmp_path / "lf" / "yang.sl"
    lf.parent.mkdir()
    lf.write_text(source)
    reports = [run_cli(capsys, "analyze", str(p), "--format", "csv", "--timestamp", "T0") for p in (crlf, lf)]
    assert reports[0][1] == reports[1][1].replace(str(lf), str(crlf))
