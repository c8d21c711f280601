import pytest

from overrun_lint.cfg import complexity_bd
from overrun_lint.errors import CoverageUnavailableError
from overrun_lint.pipeline import run_source
from overrun_lint.runtime import RunOptions, coverage_summary
from overrun_lint.runtime.coverage import FULL, NO_COVERAGE, PARTIAL


def covered(source, file="t.sl", **opts):
    opts.setdefault("coverage_enabled", True)
    trace, analyzed = run_source(source, file, RunOptions(**opts))
    report = coverage_summary(trace, analyzed.unit, analyzed.cfgs)
    return trace, analyzed, report


def test_requires_coverage_enabled():
    source = "class T { static void main(String[] args) { println(1); } }"
    trace, analyzed = run_source(source, "t.sl", RunOptions())
    with pytest.raises(CoverageUnavailableError):
        coverage_summary(trace, analyzed.unit, analyzed.cfgs)


def test_straight_line_full_coverage():
    source = """\
class T {
    static void main(String[] args) {
        int a = 1;
        println(a);
    }
}
"""
    _, analyzed, report = covered(source)
    for counter in report.counters:
        if counter.kind == "method":
            # the implicit constructor of T never runs
            assert counter.covered == 1 and counter.missed == 1
        elif counter.kind == "class":
            assert counter.covered == 1 and counter.missed == 0
        elif counter.kind == "instruction":
            assert counter.missed == 1  # the implicit ctor instruction
        elif counter.kind == "branch":
            assert counter.total == 0


def test_partial_branch_coverage_stubbed_file_exists(corpus_sources):
    source = corpus_sources["file_check.sl"]
    trace, analyzed, report = covered(
        source, "file_check.sl", file_system_stub={"C:\\base\\lars.xls": ""}
    )
    # the file exists, so the "creating file" branch is missed
    assert trace.stdout == ["done"]
    if_line = 5
    assert report.line_status[if_line] == FULL  # the condition itself ran
    assert report.branch_status[if_line] == PARTIAL
    then_line = 6
    assert report.line_status[then_line] == NO_COVERAGE
    branch = report.counter("branch")
    assert branch.covered == 1 and branch.missed == 1


def test_both_branches_taken_is_full(corpus_sources):
    source = corpus_sources["file_check.sl"]
    _, _, report = covered(source, "file_check.sl")  # no stub: file missing
    assert report.branch_status[5] == PARTIAL  # still one-sided the other way
    _, _, report_both = covered(source, "file_check.sl")
    # single run can only take one side; simulate both via a loop program
    source2 = """\
class T {
    static void main(String[] args) {
        for (int i = 0; i < 2; i++) {
            if (i < 1) {
                println("a");
            } else {
                println("b");
            }
        }
    }
}
"""
    _, _, report2 = covered(source2)
    assert report2.branch_status[4] == FULL


def test_method_counts_cover_constructors():
    source = """\
class Box {
    int value;

    Box() {
        value = 3;
    }

    int get() {
        return value;
    }

    int unused() {
        return 0;
    }

    static void main(String[] args) {
        println(new Box().get());
    }
}
"""
    _, analyzed, report = covered(source)
    method = report.counter("method")
    assert method.covered == 3  # main, ctor, get
    assert method.missed == 1  # unused


def test_class_covered_if_any_method_ran():
    source = """\
class Used {
    static void hi() {
        println(1);
    }
}

class Untouched {
    static void no() {
        println(2);
    }
}

class Main {
    static void main(String[] args) {
        Used.hi();
    }
}
"""
    # Class-qualified static calls are not in the language; call via helper
    source = source.replace("Used.hi();", "new Used().hi();")
    _, _, report = covered(source)
    cls = report.counter("class")
    assert cls.covered == 2  # Used + Main
    assert cls.missed == 1  # Untouched


def test_conservation_on_corpus(corpus_sources):
    scripts = {
        "readline_loop.sl": ["5", "7"],
        "assert_demo.sl": ["20"],
    }
    for name, source in corpus_sources.items():
        trace, analyzed, report = covered(
            source, name, stdin_script=scripts.get(name, [])
        )
        cfgs = analyzed.cfgs
        populations = {
            "instruction": len(cfgs.instr_spans),
            "branch": sum(
                len(cfg.out_edges(b.bid))
                for cfg in cfgs.cfgs.values()
                for b in cfg.decisions
            ),
            "line": len({s.line for s in cfgs.instr_spans.values()}),
            "method": len(cfgs.cfgs),
            "class": len(analyzed.unit.classes),
            "complexity": sum(complexity_bd(cfg) for cfg in cfgs.cfgs.values()),
        }
        for counter in report.counters:
            assert counter.covered + counter.missed == populations[counter.kind], (
                name,
                counter.kind,
            )
            assert counter.covered >= 0 and counter.missed >= 0


def test_line_statuses_partition_consistently(corpus_sources):
    for name, source in corpus_sources.items():
        trace, analyzed, report = covered(source, name, stdin_script=["5", "7"])
        line_iids = {}
        for iid, span in analyzed.cfgs.instr_spans.items():
            line_iids.setdefault(span.line, set()).add(iid)
        executed = trace.executed_instruction_ids
        for line, iids in line_iids.items():
            hit = len(iids & executed)
            expected = NO_COVERAGE if hit == 0 else (FULL if hit == len(iids) else PARTIAL)
            assert report.line_status[line] == expected, (name, line)


def test_branch_outcomes_match_cfg_edges(corpus_sources):
    for name, source in corpus_sources.items():
        trace, analyzed, _ = covered(source, name, stdin_script=["5", "7"])
        edge_keys = {}
        for cfg in analyzed.cfgs.cfgs.values():
            for block in cfg.blocks:
                if not block.instructions:
                    continue
                cond_iid = block.instructions[-1]
                edge_keys.setdefault(cond_iid, set()).update(
                    e.key for e in cfg.out_edges(block.bid)
                )
        for (iid, key), count in trace.branch_outcomes.items():
            assert key in edge_keys.get(iid, set()), (name, iid, key)
            assert count >= 1


def test_covered_complexity_capped_by_total():
    source = """\
class T {
    static void main(String[] args) {
        for (int i = 0; i < 3; i++) {
            if (i < 1) {
                println("a");
            } else {
                println("b");
            }
        }
    }
}
"""
    _, analyzed, report = covered(source)
    for method_id, covered_v in report.per_method_covered.items():
        total = complexity_bd(analyzed.cfgs.cfgs[method_id])
        assert 0 <= covered_v <= total
    complexity = report.counter("complexity")
    # main fully exercised: v = 3 (loop + if), all branches taken
    assert report.per_method_covered[next(m for m in report.per_method_covered if "main" in m)] == 3


def test_everything_executed_means_zero_missed():
    source = """\
class T {
    T() {
        println(0);
    }

    static void main(String[] args) {
        T t = new T();
        println(1);
    }
}
"""
    _, _, report = covered(source)
    for counter in report.counters:
        assert counter.missed == 0, counter.kind
        assert counter.covered == counter.total
