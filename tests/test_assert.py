"""An assert is compiled where it stands, as the decision cfg.py makes of it.

The check ends its block; its true edge (the assertion fails) leads to the
failure, one more instruction at the assert's span, and both edges reach
the join.  With --ea off the check takes its false edge and evaluates
neither the condition nor the message.  `run` and `metrics` read the same
graph, so they count the same complexity.
"""

import json

import pytest

from overrun_lint.cfg import FALLTHROUGH, FALSE_BRANCH, TRUE_BRANCH, assert_failure, unreachable_nodes
from overrun_lint.cli import main
from overrun_lint.errors import TypeCheckError
from overrun_lint.frontend import ast
from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.runtime import FAULT_ASSERTION_FAILURE, RunOptions

SIDE_EFFECTS = """\
class M {
    static boolean check() {
        println("condition ran");
        return false;
    }
    static String note() {
        println("message ran");
        return "noted";
    }
    static void main(String[] args) {
        assert check() : note();
        println("after");
    }
}
"""

RECORDS = """\
class M {
    static void main(String[] args) {
        int v = 3;
        assert v == 3 : "fine";
        assert v > 5 : v;
        println("never");
    }
}
"""


def _run(source, **options):
    return run_source(source, "m.sl", RunOptions(**options))


def _asserts(analyzed) -> list[ast.Assert]:
    return analyzed.unit.index.by_type[ast.Assert]


def _check_and_failure(analyzed, stmt):
    check = analyzed.cfgs.stmt_iids[stmt.uid]
    return check, assert_failure(check)


def test_ea_off_evaluates_neither_condition_nor_message():
    trace, analyzed = _run(SIDE_EFFECTS)
    assert trace.stdout == ["after"]
    assert trace.faults == [] and trace.assertion_records == []
    check, failure = _check_and_failure(analyzed, _asserts(analyzed)[0])
    assert check in trace.executed_instruction_ids
    assert failure not in trace.executed_instruction_ids
    assert trace.branch_outcomes.get((check, FALSE_BRANCH)) == 1
    assert (check, TRUE_BRANCH) not in trace.branch_outcomes


def test_ea_on_evaluates_condition_then_message():
    trace, analyzed = _run(SIDE_EFFECTS, assertions_enabled=True)
    assert trace.stdout == ["condition ran", "message ran"]
    check, failure = _check_and_failure(analyzed, _asserts(analyzed)[0])
    assert {check, failure} <= trace.executed_instruction_ids
    assert trace.branch_outcomes.get((check, TRUE_BRANCH)) == 1


def test_passed_and_failed_records_and_the_fault():
    trace, analyzed = _run(RECORDS, assertions_enabled=True)
    first, second = _asserts(analyzed)
    assert [(r.unit_name, r.statement_text, r.span, r.message, r.outcome) for r in trace.assertion_records] == [
        ("M.main", "assert v == 3", first.span, "", "passed"),
        ("M.main", "assert v > 5", second.span, "3", "failed"),
    ]
    fault = trace.halting_fault
    assert (fault.kind, fault.span, fault.detail) == (FAULT_ASSERTION_FAILURE, second.span, "3")
    assert trace.stdout == []


def test_steps_count_the_check_and_the_failure():
    off, _ = _run(RECORDS)
    on, _ = _run(RECORDS, assertions_enabled=True)
    # off: int v, two checks, println, implicit return
    assert off.steps == 5
    # on: int v, two checks, the second's failure, then the halt
    assert on.steps == 4


def test_assert_without_message():
    source = "class M { static void main(String[] args) { int v = 1; assert v < 0; } }"
    trace, analyzed = _run(source, assertions_enabled=True)
    (record,) = trace.assertion_records
    assert (record.statement_text, record.message, record.outcome) == ("assert v < 0", "", "failed")
    assert trace.halting_fault.detail == ""
    assert trace.halting_fault.span == _asserts(analyzed)[0].span


def test_deeply_nested_assert_runs():
    depth = 90
    body = "if (a > 0) { " * depth + "assert a > 1 : a; " + "} " * depth
    source = f"class A {{ static void main(String[] args) {{ int a = 1; {body}}} }}"
    trace, analyzed = _run(source, assertions_enabled=True)
    (record,) = trace.assertion_records
    assert (record.unit_name, record.message, record.outcome) == ("A.main", "1", "failed")
    assert trace.halting_fault.kind == FAULT_ASSERTION_FAILURE
    assert _run(source)[0].faults == []


def test_void_message_is_rejected_at_its_span(tmp_path, capsys):
    source = 'class M { static void main(String[] args) { assert true : println("x"); } }'
    with pytest.raises(TypeCheckError) as caught:
        analyze_source(source, "m.sl")
    assert str(caught.value) == "m.sl:1:59: assert message must not be void"
    program = tmp_path / "m.sl"
    program.write_text(source)
    for command in ("run", "analyze", "metrics"):
        assert main([command, str(program)]) == 2
        assert "assert message must not be void" in capsys.readouterr().err


def test_any_non_void_message_prints_as_java_would(tmp_path, capsys):
    program = tmp_path / "m.sl"
    program.write_text("class M { static void main(String[] args) { int v = 3; assert v > 5 : v; } }")
    code = main(["run", "--ea", str(program)])
    err = capsys.readouterr().err
    assert code == 1
    assert "assertion failed: M.main: assert v > 5: 3" in err


def test_fail_is_no_builtin(tmp_path, capsys):
    program = tmp_path / "m.sl"
    program.write_text('class M { static void main(String[] args) { fail("a", "b", "c"); } }')
    for command in ("run", "analyze"):
        assert main([command, str(program)]) == 2
        assert "undeclared identifier 'fail'" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["true", "false"])
def test_literal_assert_keeps_both_edges(literal):
    source = f"class M {{ static void m() {{ assert {literal}; println(1); }} }}"
    analyzed = analyze_source(source, "m.sl")
    assert [f for f in analyzed.findings() if f.rule_id == "UnreachableCode"] == []
    graph = analyzed.cfgs.cfgs["M.m/0"]
    assert unreachable_nodes(graph) == []
    check, failure = _check_and_failure(analyzed, _asserts(analyzed)[0])
    out = graph.out_edges(graph.instr_blocks[check])
    assert sorted(e.kind for e in out) == [FALSE_BRANCH, TRUE_BRANCH]
    (fail_edge,) = [e for e in out if e.kind == TRUE_BRANCH]
    assert next(b for b in graph.blocks if b.bid == fail_edge.dst).instructions == [failure]
    (join,) = [e.dst for e in out if e.kind == FALSE_BRANCH]
    assert [(e.dst, e.kind) for e in graph.out_edges(fail_edge.dst)] == [(join, FALLTHROUGH)]
    assert graph.instr_spans[check] == graph.instr_spans[failure] == _asserts(analyzed)[0].span


def test_metrics_with_coverage_data_agrees_with_the_run(corpus_dir, tmp_path, capsys):
    stdin, cov = tmp_path / "stdin", tmp_path / "cov.json"
    stdin.write_text("5\n")
    demo = str(corpus_dir / "assert_demo.sl")
    assert main(["run", "--ea", "--coverage", "--coverage-out", str(cov), "--stdin", str(stdin), demo]) == 1
    run_out = capsys.readouterr().out
    assert json.loads(cov.read_text())["per_method_covered"]["AssertDemo.main/1"] == 1
    assert main(["metrics", "--coverage-data", str(cov), demo]) == 0
    metrics_out = capsys.readouterr().out
    row = ["50.0", "%", "1", "1", "2"]  # coverage, covered, missed, total
    for out in (run_out, metrics_out):
        assert [line.split()[1:] for line in out.splitlines() if "AssertDemo.main()" in line] == [row]
