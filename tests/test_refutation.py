"""Static claims that one run can refute, checked against runs.

The null rules claim facts about every path.  Each program from
`progen.gen_null_program` is analyzed, then run on its stdin script, which
may end before every readLine() is answered; a run that takes a path the
analysis ruled out refutes the finding (or the missing finding) at once.
InfiniteRecursion and UnreachableCode claim that a method never returns
and that a block never runs; each program from
`progen.gen_recursion_program` is analyzed and run to check them.
Only one-way checks: a run proves a claim wrong, never right.
"""

import random

import pytest

from overrun_lint.cfg import FALSE_BRANCH, TRUE_BRANCH, unreachable_nodes
from overrun_lint.frontend import ast
from overrun_lint.pipeline import run_source
from overrun_lint.runtime import FAULT_NULL_DEREFERENCE, FAULT_STEP_LIMIT, RunOptions

from progen import gen_null_program, gen_recursion_program

PROGRAMS = 300


@pytest.fixture(scope="module")
def runs():
    """(number, program, trace, analysis, findings) of each program."""
    rng = random.Random(21)
    out = []
    for k in range(PROGRAMS):
        program = gen_null_program(rng)
        trace, analyzed = run_source(program.source, f"null{k}.sl", RunOptions(stdin_script=program.stdin_script))
        assert not analyzed.res.diagnostics, (k, analyzed.res.diagnostics)
        out.append((k, program, trace, analyzed, analyzed.findings()))
    return out


def test_every_null_dereference_lies_on_an_np_line(runs):
    # Every null in these programs comes from readLine(), so NP must name
    # the line of each null_dereference fault.
    faults, missed = 0, []
    for k, program, trace, _analyzed, findings in runs:
        np_lines = {f.span.line for f in findings if f.rule_id == "NP_DEREFERENCE_OF_READLINE_VALUE"}
        for fault in trace.faults:
            if fault.kind == FAULT_NULL_DEREFERENCE:
                faults += 1
                if fault.span.line not in np_lines:
                    missed.append((k, fault.span.line, program.shapes))
    assert faults >= PROGRAMS // 10, f"only {faults} null_dereference faults in {PROGRAMS} programs"
    assert missed == [], f"{len(missed)} of {faults} null_dereference faults lie on no NP line: {missed[:5]}"


def test_no_redundant_null_check_takes_its_null_side(runs):
    # A comparison that RedundantNullCheck calls redundant is one whose
    # symbol is non-null on every path, so its if never takes the null side.
    reported, taken = 0, []
    for k, program, trace, analyzed, findings in runs:
        spans = {f.span for f in findings if f.rule_id == "RedundantNullCheck"}
        for stmt in analyzed.res.nodes_of(ast.If):
            if stmt.cond.span in spans:
                spans.discard(stmt.cond.span)
                reported += 1
                null_side = TRUE_BRANCH if stmt.cond.op == "==" else FALSE_BRANCH
                count = trace.branch_outcomes.get((analyzed.cfgs.stmt_iids[stmt.uid], null_side), 0)
                if count:
                    taken.append((k, stmt.cond.span.line, count, program.shapes))
        assert spans == set(), f"null{k}.sl: RedundantNullCheck outside an if condition: {spans}"
    assert reported >= PROGRAMS // 10, f"only {reported} RedundantNullCheck findings in {PROGRAMS} programs"
    assert taken == [], f"{len(taken)} of {reported} redundant null checks took their null side: {taken[:5]}"


@pytest.fixture(scope="module")
def recursion_runs():
    """(number, program, trace, analysis, findings) of each program."""
    rng = random.Random(31)
    out = []
    for k in range(PROGRAMS):
        program = gen_recursion_program(rng)
        trace, analyzed = run_source(program.source, f"rec{k}.sl")
        out.append((k, program, trace, analyzed, analyzed.findings()))
    return out


def test_no_run_returns_from_a_reported_recursion_cycle(recursion_runs):
    # A run that enters a method of a reported cycle cannot return from it,
    # so it ends in a halting fault.  And every unbounded recursion in these
    # programs recurses on every path, so each run that hits the step limit
    # entered a reported cycle.  That includes override_unmade's cycle
    # through a method that a subclass overrides but no `new` makes.  The
    # generator never makes such a subclass elsewhere: the call graph takes
    # every class made anywhere in the unit as a possible receiver (rapid
    # type analysis), so that cycle would go unreported though its run
    # recurses, and no row here can hold for it.
    entered, returned, missed = 0, [], []
    for k, program, trace, _analyzed, findings in recursion_runs:
        cycles = [f.message.rsplit(": ", 1)[1].split(" -> ") for f in findings if f.rule_id == "InfiniteRecursion"]
        hit = [cycle for cycle in cycles if trace.entered_methods.intersection(cycle)]
        entered += len(hit)
        fault = trace.halting_fault
        if hit and fault is None:
            returned.append((k, hit, program.shapes))
        if not hit and fault is not None and fault.kind == FAULT_STEP_LIMIT:
            missed.append((k, fault.span.line, program.shapes))
    assert entered >= PROGRAMS // 10, f"runs entered only {entered} reported cycles in {PROGRAMS} programs"
    assert returned == [], f"{len(returned)} of {entered} runs returned from a reported cycle: {returned[:5]}"
    assert missed == [], f"{len(missed)} runs recursed without end outside every reported cycle: {missed[:5]}"


def test_no_unreachable_block_runs(recursion_runs):
    # No instruction of a block with no path from entry ever runs.
    dead, ran = 0, []
    for k, program, trace, analyzed, _findings in recursion_runs:
        for graph in analyzed.cfgs.cfgs.values():
            for block in unreachable_nodes(graph):
                dead += len(block.instructions)
                for iid in trace.executed_instruction_ids.intersection(block.instructions):
                    ran.append((k, graph.instr_spans[iid].line, program.shapes))
    assert dead >= PROGRAMS // 10, f"only {dead} unreachable instructions in {PROGRAMS} programs"
    assert ran == [], f"{len(ran)} of {dead} unreachable instructions ran: {ran[:5]}"
