from collections import Counter

import pytest

from overrun_lint.cfg import build_unit_cfgs
from overrun_lint.detectors import RULES, classify, load_ruleset, rule_by_id, run_rules
from overrun_lint.detectors.rules import BOUND_RULES, bound_finding_to_finding
from overrun_lint.errors import ConfigError, UnknownRuleError
from overrun_lint.frontend import parse_source
from overrun_lint.pipeline import analyze_source
from overrun_lint.semantics import build_call_graph, build_symbol_table


def findings_for(source, file="t.sl", ruleset=None):
    analyzed = analyze_source(source, file)
    assert not analyzed.res.diagnostics, analyzed.res.diagnostics
    return analyzed.findings(ruleset)


def by_rule(findings):
    return Counter(f.rule_id for f in findings)


# -- ruleset config ---------------------------------------------------------------


def test_empty_config_all_defaults():
    ruleset = load_ruleset("")
    assert ruleset.entries == {}
    for rule in RULES:
        assert ruleset.enabled(rule.id)


def test_disable_directive():
    ruleset = load_ruleset("rule SystemPrintln enabled=false")
    assert not ruleset.enabled("SystemPrintln")
    assert ruleset.enabled("NoPackage")


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        load_ruleset("rule Nonexistent priority=2")


def test_priority_out_of_range_rejected():
    with pytest.raises(ConfigError):
        load_ruleset("rule SystemPrintln priority=6")


def test_comments_and_blank_lines_ok():
    ruleset = load_ruleset("# header\n\nrule SystemPrintln priority=2  # tail\n")
    assert ruleset.entries["SystemPrintln"].priority_override == 2


# -- classify ----------------------------------------------------------------------


def test_priority_one_is_red():
    cls = classify("InfiniteRecursion")
    assert cls.priority == 1 and cls.priority_color == "red"


def test_rank_15_is_of_concern():
    cls = classify("NP_DEREFERENCE_OF_READLINE_VALUE")
    assert cls.rank == 15 and cls.rank_band == "of_concern"
    assert cls.category == "dodgy" and cls.confidence == "normal"


def test_color_table():
    colors = {classify(r.id).priority: classify(r.id).priority_color for r in RULES}
    for priority, color in {1: "red", 2: "orange", 3: "yellow", 4: "green", 5: "blue"}.items():
        if priority in colors:
            assert colors[priority] == color


def test_unknown_rule_raises():
    with pytest.raises(UnknownRuleError):
        classify("NotARule")


def test_priority_override_changes_color():
    ruleset = load_ruleset("rule SystemPrintln priority=1")
    cls = classify("SystemPrintln", ruleset)
    assert cls.priority == 1 and cls.priority_color == "red"


# -- one catalog for every rule the tool reports -------------------------------------


def test_catalog_holds_all_26_rules():
    catalog = [*RULES, *BOUND_RULES.values()]
    assert len({rule.id for rule in catalog}) == 26
    assert all(rule_by_id(rule.id) is rule for rule in catalog)
    assert [rule.detector is None for rule in catalog] == [False] * 21 + [True] * 5


def test_classify_answers_for_bound_rules():
    cls = classify("BoundOffByOneLoop")
    assert (cls.category, cls.priority, cls.rank, cls.confidence) == ("security", 2, 5, "high")
    for rule in BOUND_RULES.values():
        cls = classify(rule.id)
        assert (cls.category, cls.priority, cls.rank, cls.confidence) == (
            "security", rule.priority, rule.rank, rule.confidence
        )


def test_ruleset_rejects_bound_rules():
    # analyze runs no bound check, so a ruleset cannot tune these rules.
    for rule in BOUND_RULES.values():
        with pytest.raises(ConfigError):
            load_ruleset(f"rule {rule.id} enabled=false")


def test_every_reported_finding_matches_its_record(corpus_sources):
    for name, source in corpus_sources.items():
        analyzed = analyze_source(source, name)
        bounds = [bound_finding_to_finding(b) for b in analyzed.bound_findings()]
        for f in analyzed.findings() + bounds:
            rule = rule_by_id(f.rule_id)
            assert (f.category, f.priority, f.rank, f.confidence) == (
                rule.category, rule.priority, rule.rank, rule.confidence
            ), (name, f.rule_id)


# -- the catalog on targeted snippets ------------------------------------------------


def test_np_dereference_single_finding(corpus_sources):
    findings = [
        f
        for f in findings_for(corpus_sources["readline_loop.sl"], "readline_loop.sl")
        if f.rule_id == "NP_DEREFERENCE_OF_READLINE_VALUE"
    ]
    assert len(findings) == 1
    f = findings[0]
    assert f.span.line == 8
    assert f.category == "dodgy" and f.confidence == "normal" and f.rank == 15


def test_np_dereference_guard_suppresses():
    source = """\
class A {
    static void main(String[] args) {
        String s = readLine();
        if (s != null) {
            println(length(s));
        }
    }
}
"""
    assert by_rule(findings_for(source))["NP_DEREFERENCE_OF_READLINE_VALUE"] == 0


def test_np_dereference_while_guard_suppresses():
    source = """\
class A {
    static void main(String[] args) {
        String s = readLine();
        while (s != null) {
            println(length(s));
            s = readLine();
        }
    }
}
"""
    assert by_rule(findings_for(source))["NP_DEREFERENCE_OF_READLINE_VALUE"] == 0


def test_np_dereference_direct_call_argument():
    source = 'class A { static void main(String[] args) { int n = parseInt(readLine()); println(n); } }'
    assert by_rule(findings_for(source))["NP_DEREFERENCE_OF_READLINE_VALUE"] == 1


# Each null probe's verdicts hold on every path, as a run of it shows: p1
# prints "none", p2 prints "gone", and p3 faults at line 5 on empty stdin.
NULL_PROBES = {
    "p1_branch_dependent": ("""\
class P {
    static void main(String[] args) {
        P p = null;
        if (exists("cfg")) {
            p = new P();
        }
        if (p == null) {
            println("none");
        }
    }
}
""", "RedundantNullCheck", []),
    "p2_loop_carried": ("""\
class P {
    static void main(String[] args) {
        P q = new P();
        int i = 0;
        while (i < 2) {
            if (q == null) {
                println("gone");
            }
            q = null;
            i = i + 1;
        }
    }
}
""", "RedundantNullCheck", []),
    "p3_null_side_of_readline": ("""\
class R {
    static void main(String[] args) {
        String line = readLine();
        if (line == null) {
            println(length(line));
        }
    }
}
""", "NP_DEREFERENCE_OF_READLINE_VALUE", [5]),
    "p4_read_loop": ("""\
class R {
    static void main(String[] args) {
        String line = "";
        while ((line = readLine()) != null) {
            println(length(line));
        }
    }
}
""", "NP_DEREFERENCE_OF_READLINE_VALUE", []),
    "p5_field_reset_by_call": ("""\
class F {
    static F cur;
    static void reset() { cur = null; }
    static void main(String[] args) {
        cur = new F();
        reset();
        if (cur == null) { println("reset"); }
    }
}
""", "RedundantNullCheck", []),
}


@pytest.mark.parametrize("case", sorted(NULL_PROBES))
def test_null_rules_follow_control_flow(case):
    source, rule_id, lines = NULL_PROBES[case]
    assert [f.span.line for f in findings_for(source) if f.rule_id == rule_id] == lines


def _recursive(body: str, returns: str = "void") -> str:
    """A class whose method rec(int n) has the given body, called from main."""
    return (
        f"class R {{\n    static {returns} rec(int n) {{\n        {body}\n    }}\n\n"
        "    static void main(String[] args) {\n        rec(3);\n    }\n}\n"
    )


# InfiniteRecursion reports a cycle only when each of its calls always runs.
_RECURSION_CASES = {
    "count": (_recursive("if (n == 0) { return 0; } return rec(n - 1) + 1;", "int"), 0),
    "down": (_recursive("if (n <= 0) { return; } rec(n - 1);"), 0),
    "fact": (_recursive("if (n > 1) { return n * rec(n - 1); } return 1;", "int"), 0),
    "and_right_operand": (_recursive("return n > 0 && rec(n - 1);", "boolean"), 0),
    "assert": (_recursive("assert rec(n) > 0; return n;", "int"), 0),
    "catch_body": (_recursive("try { println(n); } catch (Exception e) { rec(n); }"), 0),
    "try_body": (_recursive("try { rec(n); } catch (Exception e) { println(n); }"), 1),
    "while_true": (_recursive("while (true) { rec(n - 1); }"), 1),
    "if_1": (_recursive("if (1) { rec(n - 1); }"), 1),
    # The loop never ends, so the call never runs: UnreachableCode reports it.
    "unreachable_call": (_recursive("while (true) { println(n); } rec(n - 1);"), 0),
}


@pytest.mark.parametrize("case", sorted(_RECURSION_CASES) + ["makeover"])
def test_infinite_recursion(case, corpus_sources):
    if case == "makeover":
        source, expected = corpus_sources["makeover.sl"], 1
    else:
        source, expected = _RECURSION_CASES[case]
    assert by_rule(findings_for(source))["InfiniteRecursion"] == expected
    unit = parse_source(source, "t.sl")
    res = build_symbol_table(unit)
    direct = run_rules(unit, res, build_call_graph(unit, res), build_unit_cfgs(unit))
    assert by_rule(direct)["InfiniteRecursion"] == expected


def test_equals_hashcode_mismatch(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["equals_demo.sl"], "equals_demo.sl"))
    assert counts["EqualsHashcodeMismatch"] == 1


def test_equals_with_hashcode_is_clean():
    source = """\
class A {
    int equals(A other) {
        return 1;
    }

    int hashcode() {
        return 434;
    }
}
"""
    assert by_rule(findings_for(source))["EqualsHashcodeMismatch"] == 0


def test_ignored_return_value_and_stream_not_closed(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["testing.sl"], "testing.sl"))
    assert counts["IgnoredReturnValue"] == 1
    assert counts["StreamNotClosed"] == 1
    assert counts["UnusedLocalVariable"] == 1
    assert counts["StringEqualityOperator"] == 1


def test_stream_closed_on_all_paths_is_clean():
    source = """\
class A {
    static void main(String[] args) {
        Stream s = open("f");
        int n = s.read(new byte[4], 0, 4);
        if (n > 0) {
            println(n);
        }
        s.close();
    }
}
"""
    assert by_rule(findings_for(source))["StreamNotClosed"] == 0


def test_stream_closed_on_one_branch_flagged():
    source = """\
class A {
    static void main(String[] args) {
        Stream s = open("f");
        int n = s.read(new byte[4], 0, 4);
        if (n > 0) {
            s.close();
        }
    }
}
"""
    assert by_rule(findings_for(source))["StreamNotClosed"] == 1


SHADOWS = """\
class A {
%s
    static void main(String[] args) {
        String line = readLine();
        println(length(line));
        println(parseInt(readLine()));
        %s s = open("f");
        println(s);
    }
}
"""


@pytest.mark.parametrize(
    "members, stream_type, np_count, unclosed",
    [
        ("", "Stream", 2, 1),
        ('    static String readLine() { return "1"; }\n    static int open(String p) { return 0; }', "int", 0, 0),
    ],
    ids=["builtins", "declared"],
)
def test_a_declared_method_shadows_the_builtin(members, stream_type, np_count, unclosed):
    counts = by_rule(findings_for(SHADOWS % (members, stream_type)))
    assert counts["NP_DEREFERENCE_OF_READLINE_VALUE"] == np_count
    assert counts["StreamNotClosed"] == unclosed


def test_unconditional_wait(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["wait_demo.sl"], "wait_demo.sl"))
    assert counts["UnconditionalWait"] == 1


def test_conditional_wait_is_clean():
    source = """\
class W extends Thread {
    int ready;

    void run() {
        synchronized (this) {
            while (ready < 1) {
                wait();
            }
        }
    }
}
"""
    assert by_rule(findings_for(source))["UnconditionalWait"] == 0


def test_deadlock_order(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["deadlock_demo.sl"], "deadlock_demo.sl"))
    assert counts["DeadlockOrder"] == 1


def test_redundant_null_check(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["robustness.sl"], "robustness.sl"))
    assert counts["RedundantNullCheck"] == 1


def test_static_field_could_be_final(corpus_sources):
    counts = by_rule(findings_for(corpus_sources["checkers_state.sl"], "checkers_state.sl"))
    assert counts["StaticFieldCouldBeFinal"] == 1


def test_static_final_field_is_clean():
    source = "package p;\nclass A { static final int N = 8; static void main(String[] args) { println(N); } }"
    assert by_rule(findings_for(source))["StaticFieldCouldBeFinal"] == 0


def test_empty_blocks():
    source = """\
package p;

class A {
    void m(int x) {
        if (x > 0) {
        }
        while (x > 99) {
        }
        try {
        } catch (Exception e) {
        } finally {
        }
    }
}
"""
    counts = by_rule(findings_for(source))
    assert counts["EmptyBlock"] == 5


def test_naming_rules_on_yang(corpus_sources, manifest):
    counts = by_rule(findings_for(corpus_sources["yang.sl"], "yang.sl"))
    assert counts["MethodNamingConventions"] == 2
    assert counts["ParameterNameConvention"] == 4
    assert counts["ClassNamingConvention"] == 0


def test_class_naming():
    source = "package p;\nclass lower_case { }"
    assert by_rule(findings_for(source))["ClassNamingConvention"] == 1


def test_unreachable_code_rule():
    source = """\
package p;

class A {
    static int m() {
        return 1;
        println(2);
    }
}
"""
    counts = by_rule(findings_for(source))
    assert counts["UnreachableCode"] == 1


def test_figure7_totals(corpus_sources):
    findings = findings_for(corpus_sources["yang.sl"], "yang.sl")
    counts = by_rule(findings)
    assert len(findings) == 17
    assert counts["SystemPrintln"] == 4
    assert counts["DoNotUseThreads"] == 1
    assert counts["NoPackage"] == 1
    assert counts["MethodArgumentCouldBeFinal"] == 5


def test_disabling_rule_removes_exactly_its_findings(corpus_sources):
    source = corpus_sources["yang.sl"]
    everything = findings_for(source, "yang.sl")
    ruleset = load_ruleset("rule SystemPrintln enabled=false")
    reduced = findings_for(source, "yang.sl", ruleset)
    assert by_rule(reduced)["SystemPrintln"] == 0
    kept = [f for f in everything if f.rule_id != "SystemPrintln"]
    assert [(f.rule_id, f.span.line) for f in reduced] == [(f.rule_id, f.span.line) for f in kept]


def test_priority_override_applies(corpus_sources):
    ruleset = load_ruleset("rule SystemPrintln priority=1")
    findings = findings_for(corpus_sources["yang.sl"], "yang.sl", ruleset)
    println_findings = [f for f in findings if f.rule_id == "SystemPrintln"]
    assert all(f.priority == 1 and f.priority_color == "red" for f in println_findings)


def test_injected_unused_local_adds_exactly_one(corpus_sources):
    for name in ("yang.sl", "testing.sl", "checkers_state.sl"):
        source = corpus_sources[name]
        before = by_rule(findings_for(source, name))["UnusedLocalVariable"]
        lines = source.splitlines()
        target = next(
            i for i, line in enumerate(lines) if line.strip().endswith("{") and "(" in line and "class" not in line
        )
        injected = lines[:]
        injected.insert(target + 1, "        int injectedUnused9;")
        after = by_rule(findings_for("\n".join(injected), name))["UnusedLocalVariable"]
        assert after == before + 1, name


def test_run_rules_deterministic(corpus_sources):
    source = corpus_sources["testing.sl"]
    first = [(f.rule_id, f.span.line, f.span.column, f.message) for f in findings_for(source)]
    second = [(f.rule_id, f.span.line, f.span.column, f.message) for f in findings_for(source)]
    assert first == second


def test_findings_sorted(corpus_sources):
    for name, source in corpus_sources.items():
        findings = findings_for(source, name)
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys), name


def test_finding_spans_inside_source(corpus_sources):
    for name, source in corpus_sources.items():
        line_count = len(source.splitlines())
        for f in findings_for(source, name):
            assert 1 <= f.span.line <= line_count


def test_empty_class_with_package_is_clean():
    assert findings_for("package clean;\n\nclass Quiet {\n}\n") == []
