"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from overrun_lint.boundcheck import (
    VERDICT_OFF_BY_ONE,
    check_loops,
    find_arrays,
    run_bound_check,
    track_index_vars,
)
from overrun_lint.cfg import build_unit_cfgs, complexity_bd, complexity_en
from overrun_lint.cli import main as cli_main
from overrun_lint.frontend import parse_source
from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.reporting import PER_100, PER_1000, coverage_percent, efficiency_rate
from overrun_lint.runtime import (
    FAULT_NULL_DEREFERENCE,
    FAULT_OUT_OF_BOUNDS,
    RunOptions,
    add_wrapped,
    coverage_summary,
    stack_overwrite_demo,
)

from progen import gen_bound_program, gen_structured_method, wrap_body_in_try


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_01_code1_reproduction(corpus_sources):
    with criterion(1, "Code-1 file yields exactly one NP_DEREFERENCE_OF_READLINE_VALUE"):
        started = time.perf_counter()
        analyzed = analyze_source(corpus_sources["readline_loop.sl"], "readline_loop.sl")
        findings = [
            f
            for f in analyzed.findings()
            if f.rule_id == "NP_DEREFERENCE_OF_READLINE_VALUE"
        ]
        elapsed = time.perf_counter() - started
        assert len(findings) == 1
        f = findings[0]
        assert f.span.line == 8  # the dereference line
        assert f.category == "dodgy"
        assert f.confidence == "normal"
        assert f.rank == 15
        assert elapsed < 1.0


def test_criterion_02_static_dynamic_cross_check(corpus_sources):
    # The loop reads stdin alternately in the condition and the body, so the
    # body's null dereference needs an odd-length script; a 2-line script
    # exits cleanly (parity argument, see the decisions ledger).  The
    # cross-check property is exercised with a 3-line script.
    with criterion(2, "runtime fault lands on a statically flagged line (3-line stdin)"):
        started = time.perf_counter()
        source = corpus_sources["readline_loop.sl"]
        analyzed = analyze_source(source, "readline_loop.sl")
        static_lines = {f.span.line for f in analyzed.findings()}
        static_lines |= {b.span.line for b in analyzed.bound_findings()}

        trace, _ = run_source(source, "readline_loop.sl", RunOptions(stdin_script=["5", "7", "9"]))
        fault = trace.halting_fault
        elapsed = time.perf_counter() - started
        assert fault is not None
        assert fault.kind in (FAULT_NULL_DEREFERENCE, FAULT_OUT_OF_BOUNDS)
        assert fault.span.line in static_lines
        # the 2-line script exits without faulting (documented parity)
        clean, _ = run_source(source, "readline_loop.sl", RunOptions(stdin_script=["5", "7"]))
        assert clean.halting_fault is None
        assert elapsed < 1.0


def test_criterion_03_figure7_reproduction(corpus_sources):
    with criterion(3, "reference sample: 17 findings, 4/1/1/5 pinned, naming split 2/4"):
        analyzed = analyze_source(corpus_sources["yang.sl"], "yang.sl")
        findings = analyzed.findings()
        counts = Counter(f.rule_id for f in findings)
        assert len(findings) == 17
        assert counts["SystemPrintln"] == 4
        assert counts["DoNotUseThreads"] == 1
        assert counts["NoPackage"] == 1
        assert counts["MethodArgumentCouldBeFinal"] == 5
        assert counts["MethodNamingConventions"] >= 1
        assert counts["ParameterNameConvention"] >= 3
        # the documented thresholds land on the reference 2/4 split
        assert counts["MethodNamingConventions"] == 2
        assert counts["ParameterNameConvention"] == 4


def test_criterion_04_complexity_formula_equivalence():
    with criterion(4, "complexity_en == complexity_bd == decisions+1 on 200 random methods"):
        started = time.perf_counter()
        rng = random.Random(20260809)
        checked = 0
        while checked < 200:
            source, decisions = gen_structured_method(rng)
            unit = parse_source(source, "gen.sl")
            cfgs = build_unit_cfgs(unit)
            cfg = next(c for m, c in cfgs.cfgs.items() if ".work/" in m)
            assert complexity_en(cfg) == complexity_bd(cfg) == decisions + 1
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0


def test_criterion_05_try_catch_neutrality():
    with criterion(5, "wrapping generated bodies in try/catch leaves both values unchanged"):
        rng = random.Random(97)
        for _ in range(60):
            source, _ = gen_structured_method(rng)
            wrapped = wrap_body_in_try(source)
            plain_cfg = next(
                c
                for m, c in build_unit_cfgs(parse_source(source, "p.sl")).cfgs.items()
                if ".work/" in m
            )
            wrapped_cfg = next(
                c
                for m, c in build_unit_cfgs(parse_source(wrapped, "w.sl")).cfgs.items()
                if ".work/" in m
            )
            assert complexity_en(plain_cfg) == complexity_en(wrapped_cfg)
            assert complexity_bd(plain_cfg) == complexity_bd(wrapped_cfg)


def test_criterion_06_coverage_arithmetic():
    with criterion(6, "coverage percentage reproduces the reference table arithmetic"):
        assert coverage_percent(11, 1) == pytest.approx(91.7, abs=0.05)
        assert coverage_percent(1, 1) == pytest.approx(50.0, abs=0.05)
        assert coverage_percent(11, 3) == pytest.approx(78.6, abs=0.05)
        assert coverage_percent(0, 2) == pytest.approx(0.0, abs=0.05)


def test_criterion_07_coverage_conservation(corpus_sources):
    with criterion(7, "covered+missed == population for all six counters on every run"):
        started = time.perf_counter()
        scripts = {
            "readline_loop.sl": [[], ["5"], ["5", "7"], ["5", "7", "9"]],
            "assert_demo.sl": [["5"], ["20"]],
        }
        runs = 0
        for name, source in corpus_sources.items():
            for script in scripts.get(name, [[]]):
                for ea in ((False, True) if name == "assert_demo.sl" else (False,)):
                    trace, analyzed = run_source(
                        source,
                        name,
                        RunOptions(
                            stdin_script=script, coverage_enabled=True, assertions_enabled=ea
                        ),
                    )
                    report = coverage_summary(trace, analyzed.unit, analyzed.cfgs)
                    cfgs = analyzed.cfgs
                    populations = {
                        "instruction": len(cfgs.instr_spans),
                        "branch": sum(
                            len(list(cfg.out_edges(b)))
                            for cfg in cfgs.cfgs.values()
                            for b in cfg.decisions
                        ),
                        "line": len({s.line for s in cfgs.instr_spans.values()}),
                        "method": len(cfgs.cfgs),
                        "class": len(analyzed.unit.classes),
                        "complexity": sum(complexity_bd(c) for c in cfgs.cfgs.values()),
                    }
                    for counter in report.counters:
                        assert counter.covered + counter.missed == populations[counter.kind]
                    executed = trace.executed_instruction_ids
                    line_iids: dict[int, set[int]] = {}
                    for iid, span in cfgs.instr_spans.items():
                        line_iids.setdefault(span.line, set()).add(iid)
                    for line, iids in line_iids.items():
                        hit = len(iids & executed)
                        expected = (
                            "no_coverage" if hit == 0 else ("full" if hit == len(iids) else "partial")
                        )
                        assert report.line_status[line] == expected
                    runs += 1
        elapsed = time.perf_counter() - started
        assert runs >= len(corpus_sources)
        assert elapsed < 10.0


def test_criterion_08_bound_check_soundness_fuzz():
    rng = random.Random(114)
    total = 500
    false_negatives = []
    static_positive = 0
    true_positive = 0
    started = time.perf_counter()
    for k in range(total):
        program = gen_bound_program(rng)
        analyzed = analyze_source(program.source, f"fuzz{k}.sl")
        assert not analyzed.res.diagnostics
        findings = run_bound_check(analyzed.unit, analyzed.res)
        trace, _ = run_source(
            program.source, f"fuzz{k}.sl", RunOptions(stdin_script=program.stdin_script)
        )
        faulted = any(f.kind == FAULT_OUT_OF_BOUNDS for f in trace.faults)
        if findings:
            static_positive += 1
            if faulted:
                true_positive += 1
        if faulted and not findings:
            false_negatives.append((k, program.scenario))
    elapsed = time.perf_counter() - started
    fp_rate = (static_positive - true_positive) / total
    with criterion(
        8,
        f"fuzz soundness on {total} programs: 0 false negatives, "
        f"false-positive rate {fp_rate:.1%} <= 30%",
    ):
        assert false_negatives == []
        assert fp_rate <= 0.30
        assert elapsed < 60.0


def test_criterion_09_off_by_one_detection():
    with criterion(9, "for(i=0;i<=size;i++) b[i] judged off_by_one"):
        source = """\
class T {
    static void main(String[] args) {
        int size = 25;
        byte[] b = new byte[size];
        for (int i = 0; i <= size; i++) {
            b[i] = 0;
        }
    }
}
"""
        analyzed = analyze_source(source, "t.sl")
        arrays = find_arrays(analyzed.unit, analyzed.res)
        infos = track_index_vars(arrays, analyzed.res)
        checks = check_loops(analyzed.unit, infos, analyzed.res)
        assert [c.verdict for c in checks] == [VERDICT_OFF_BY_ONE]
        kinds = [b.kind for b in run_bound_check(analyzed.unit, analyzed.res)]
        assert kinds == ["off_by_one_loop"]


def test_criterion_10_integer_overflow_lab():
    with criterion(10, "add_wrapped(10,5,8)==(15,false); add_wrapped(208,192,8)==(144,true)"):
        assert add_wrapped(10, 5, 8) == (15, False)
        assert add_wrapped(208, 192, 8) == (144, True)


def test_criterion_11_stack_demo():
    with criterion(11, "frame tables and outcomes for inputs 0088/12340088/99999999"):
        normal = stack_overwrite_demo(4, "0088")
        assert normal.slots == {"0000": "0049", "0004": "0088"}
        assert normal.outcome == "normal_return"
        hijack = stack_overwrite_demo(4, "12340088")
        assert hijack.slots == {"0000": "0088", "0004": "1234"}
        assert hijack.outcome == "hijacked_control"
        crash = stack_overwrite_demo(4, "99999999")
        assert crash.slots == {"0000": "9999", "0004": "9999"}
        assert crash.outcome == "crash"


def test_criterion_12_assertion_gating(corpus_sources):
    with criterion(12, "failed assertion recorded only under --ea"):
        source = corpus_sources["assert_demo.sl"]
        off, _ = run_source(source, "assert_demo.sl", RunOptions(stdin_script=["5"]))
        assert off.assertion_records == []
        on, _ = run_source(
            source, "assert_demo.sl", RunOptions(stdin_script=["5"], assertions_enabled=True)
        )
        failed = [r for r in on.assertion_records if r.outcome == "failed"]
        assert len(failed) == 1
        assert failed[0].message == "its false"
        assert failed[0].statement_text == "assert a > 10"


def test_criterion_13_multi_tool_corpus_file(corpus_sources):
    with criterion(13, "Testing-class file: the four expected rules fire exactly once each"):
        analyzed = analyze_source(corpus_sources["testing.sl"], "testing.sl")
        findings = analyzed.findings()
        at = {
            rule: [f.span.line for f in findings if f.rule_id == rule]
            for rule in (
                "UnusedLocalVariable",
                "IgnoredReturnValue",
                "StreamNotClosed",
                "StringEqualityOperator",
            )
        }
        assert at["UnusedLocalVariable"] == [11]
        assert at["StreamNotClosed"] == [14]
        assert at["IgnoredReturnValue"] == [15]
        assert at["StringEqualityOperator"] == [17]


def test_criterion_14_determinism(corpus_dir, capsys):
    with criterion(14, "two analyze --format csv runs are byte-identical"):
        paths = sorted(str(p) for p in corpus_dir.glob("*.sl"))
        args = ["analyze", *paths, "--format", "csv", "--timestamp", "3/28/12 12.04PM"]
        cli_main(args)
        first = capsys.readouterr().out
        cli_main(args)
        second = capsys.readouterr().out
        assert first == second
        assert first.count("\n") > len(paths)  # sanity: findings actually emitted


def test_criterion_15_efficiency_rate_substitution(corpus_sources, manifest):
    with criterion(
        15,
        "efficiency rate verified by formula arithmetic and documented corpus rates "
        "(third-party absolute rates are not reproducible)",
    ):
        assert efficiency_rate(424, 1000, PER_100) == 42.4
        assert efficiency_rate(17, 26, PER_1000) == 653.8
        assert efficiency_rate(0, 500, PER_100) == 0.0
        for name, source in corpus_sources.items():
            analyzed = analyze_source(source, name)
            findings = analyzed.findings()
            loc = sum(1 for line in source.splitlines() if line.strip())
            entry = manifest[name]
            assert loc == entry["loc"], name
            assert len(findings) == entry["analyze_findings"], name
            assert efficiency_rate(len(findings), loc, PER_1000) == entry["efficiency_per_1000"], name
