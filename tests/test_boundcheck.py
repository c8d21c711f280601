import random

import pytest

from overrun_lint.boundcheck import (
    SIZE_CONSTANT,
    SIZE_VARIABLE,
    VERDICT_OFF_BY_ONE,
    VERDICT_SAFE,
    VERDICT_UNVALIDATED,
    check_loops,
    find_arrays,
    run_bound_check,
    track_index_vars,
)
from overrun_lint.frontend import ast, parse_source
from overrun_lint.pipeline import run_source
from overrun_lint.runtime import FAULT_OUT_OF_BOUNDS, RunOptions
from overrun_lint.semantics import build_symbol_table
from overrun_lint.semantics.resolver import BUILTINS

from progen import gen_bound_program, seeded_unit
from test_bound_golden import inputs as bound_golden_inputs


def analyzed(source):
    unit = parse_source(source)
    res = build_symbol_table(unit)
    assert not res.diagnostics
    return unit, res


def test_find_arrays_constant_size_and_references():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        double[] vals = new double[10];
        vals[0] = 1.0;
        vals[3] = vals[0];
    }
}
"""
    )
    arrays = find_arrays(unit, res)
    vals = next(a for a in arrays if a.name == "vals")
    assert vals.size_kind == SIZE_CONSTANT and vals.size_value == 10
    assert len(vals.references) == 3
    assert vals.legal_hi() == 9


def test_find_arrays_empty_when_no_arrays():
    unit, res = analyzed("class T { static void main(String[] args) { int x = 1; } }")
    arrays = find_arrays(unit, res)
    assert [a for a in arrays if a.name != "args"] == []


def test_find_arrays_variable_size_field():
    unit, res = analyzed(
        """\
class T {
    byte[] b;
    int size;

    T() {
        size = 25;
        b = new byte[size];
    }

    void use() {
        b[0] = 1;
    }
}
"""
    )
    arrays = find_arrays(unit, res)
    b = next(a for a in arrays if a.name == "b")
    assert b.size_kind == SIZE_VARIABLE
    assert b.size_symbol is not None and b.size_symbol.name == "size"


def test_track_index_vars_constant_size_range():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[10];
        int i = 0;
        a[i] = 1;
    }
}
"""
    )
    infos = track_index_vars(find_arrays(unit, res), res)
    info = next(x for x in infos if x.symbol.name == "i")
    assert info.legal_range == (0, 9)


@pytest.mark.parametrize(
    "members, kind",
    [("", "input"), ("    static double random() { return 0.5; }", "arithmetic")],
    ids=["builtin", "declared"],
)
def test_only_the_builtin_random_is_input(members, kind):
    unit, res = analyzed(
        """\
class T {
%s
    static void main(String[] args) {
        int[] a = new int[10];
        int i = 0;
        i = length("" + random());
        a[i] = 1;
    }
}
"""
        % members
    )
    infos = track_index_vars(find_arrays(unit, res), res)
    info = next(x for x in infos if x.symbol.name == "i")
    assert [site.kind for site in info.modifying_sites] == ["constant", kind]


def test_input_derived_index_is_marked_and_flagged():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[10];
        int i = 0;
        i = parseInt(readLine());
        a[i] = 1;
    }
}
"""
    )
    infos = track_index_vars(find_arrays(unit, res), res)
    info = next(x for x in infos if x.symbol.name == "i")
    assert any(site.kind == "input" for site in info.modifying_sites)
    assert info.v_marked
    kinds = [f.kind for f in run_bound_check(unit, res)]
    assert kinds == ["unvalidated_index_source"]


def test_constant_index_no_entry_but_direct_check():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        a[3] = 1;
    }
}
"""
    )
    infos = track_index_vars(find_arrays(unit, res), res)
    assert [x for x in infos if x.array.name == "a"] == []
    assert run_bound_check(unit, res) == []


def loops_for(source):
    unit, res = analyzed(source)
    infos = track_index_vars(find_arrays(unit, res), res)
    return check_loops(unit, infos, res), unit, res


def test_off_by_one_loop_verdict():
    checks, unit, res = loops_for(
        """\
class T {
    static void main(String[] args) {
        int size = 8;
        byte[] b = new byte[size];
        for (int i = 0; i <= size; i++) {
            b[i] = 0;
        }
    }
}
"""
    )
    (check,) = checks
    assert check.verdict == VERDICT_OFF_BY_ONE
    assert check.comparison == "<="


def test_safe_loop_verdict():
    checks, _, _ = loops_for(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[10];
        for (int i = 0; i < 10; i++) {
            a[i] = i;
        }
    }
}
"""
    )
    (check,) = checks
    assert check.verdict == VERDICT_SAFE


def test_variable_limit_unvalidated():
    checks, unit, res = loops_for(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[10];
        int max = parseInt(readLine());
        for (int i = 0; i < max; i++) {
            a[i] = i;
        }
    }
}
"""
    )
    (check,) = checks
    assert check.verdict == VERDICT_UNVALIDATED
    kinds = [f.kind for f in run_bound_check(unit, res)]
    assert kinds == ["variable_limit_unchecked"]


def test_code1_shape_yields_both_findings(corpus_sources):
    unit = parse_source(corpus_sources["readline_loop.sl"], "readline_loop.sl")
    res = build_symbol_table(unit)
    findings = run_bound_check(unit, res)
    kinds = sorted(f.kind for f in findings)
    assert kinds == ["unvalidated_index_source", "variable_limit_unchecked"]
    assert all(f.array.name == "vals" for f in findings)
    assert all(f.span.line == 8 for f in findings)


def test_guard_monotonicity():
    base = """\
class T {{
    static void main(String[] args) {{
        int[] a = new int[10];
        int max = parseInt(readLine());
        for (int i = 0; i < max; i++) {{
            {access}
        }}
    }}
}}
"""
    unguarded = base.format(access="a[i] = i;")
    guarded = base.format(access="if (i < 10) { a[i] = i; }")
    unit, res = analyzed(unguarded)
    assert len(run_bound_check(unit, res)) == 1
    unit, res = analyzed(guarded)
    assert run_bound_check(unit, res) == []


def test_zero_length_possible():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int n = parseInt(readLine());
        int[] a = new int[n];
        a[0] = 1;
    }
}
"""
    )
    kinds = [f.kind for f in run_bound_check(unit, res)]
    assert kinds == ["zero_length_possible"]


def test_zero_length_suppressed_by_size_guard():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int n = parseInt(readLine());
        int[] a = new int[n];
        if (0 < n) {
            a[0] = 1;
        }
    }
}
"""
    )
    assert run_bound_check(unit, res) == []


def test_constant_out_of_range():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        a[7] = 1;
    }
}
"""
    )
    (finding,) = run_bound_check(unit, res)
    assert finding.kind == "index_out_of_legal_range"


def test_findings_cite_reference_spans():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        for (int i = 0; i <= 4; i++) {
            a[i] = 1;
        }
    }
}
"""
    )
    arrays = find_arrays(unit, res)
    ref_spans = {(r.span.line, r.span.column) for a in arrays for r in a.references}
    for finding in run_bound_check(unit, res):
        assert (finding.span.line, finding.span.column) in ref_spans


def test_determinism():
    source = """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        int i = parseInt(readLine());
        for (int k = 0; k <= 4; k++) {
            a[k] = 0;
        }
        a[i] = 1;
    }
}
"""
    unit, res = analyzed(source)
    first = [(f.kind, f.span.line, f.detail) for f in run_bound_check(unit, res)]
    second = [(f.kind, f.span.line, f.detail) for f in run_bound_check(unit, res)]
    assert first == second
    ordered = sorted(first, key=lambda t: t[1])
    assert [t[1] for t in first] == [t[1] for t in ordered]


def test_fuzz_soundness_small_sample():
    rng = random.Random(123)
    false_negatives = 0
    for _ in range(80):
        program = gen_bound_program(rng)
        unit, res = analyzed(program.source)
        findings = run_bound_check(unit, res)
        trace, _ = run_source(
            program.source, "fuzz.sl", RunOptions(stdin_script=program.stdin_script)
        )
        faulted = any(f.kind == FAULT_OUT_OF_BOUNDS for f in trace.faults)
        if faulted and not findings:
            false_negatives += 1
    assert false_negatives == 0


def test_parameter_index_unvalidated_unless_guarded():
    unguarded = """\
class T {
    static void use(int p) {
        int[] a = new int[10];
        a[p] = 1;
    }

    static void main(String[] args) {
        use(3);
    }
}
"""
    unit, res = analyzed(unguarded)
    kinds = [f.kind for f in run_bound_check(unit, res)]
    assert kinds == ["unvalidated_index_source"]

    guarded = unguarded.replace("a[p] = 1;", "if (p < 10) { a[p] = 1; }")
    unit, res = analyzed(guarded)
    assert run_bound_check(unit, res) == []


def test_constant_assignment_finding_cites_access_span():
    unit, res = analyzed(
        """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        int i = 0;
        i = 12;
        a[i] = 1;
    }
}
"""
    )
    (finding,) = run_bound_check(unit, res)
    assert finding.kind == "index_out_of_legal_range"
    assert finding.span.line == 6  # the a[i] reference, not the assignment


def test_descending_loop_findings_cite_the_start():
    # A descending loop is judged by its start, `i <= start`, and its
    # finding cites that start, not the condition's lower limit.
    unit, res = analyzed(
        """\
class D {
    static void main(String[] args) {
        int[] b = new int[4];
        for (int j = 6; j >= 1; j--) {
            b[j] = j;
        }
        int n = parseInt(readLine());
        int[] a = new int[n];
        for (int i = n; i >= 0; i--) {
            a[i] = i;
        }
    }
}
"""
    )
    assert [f.detail for f in run_bound_check(unit, res)] == [
        "loop limit 6 exceeds the legal range of 'b'",
        "loop runs 'i <= n'; largest valid index of 'a' is n - 1",
    ]


# -- modification sites against a rule that classifies every assignment ------------

_INPUT_BUILTINS = {BUILTINS[None, name] for name in ("readLine", "parseInt", "random")}


def _oracle_const(expr):
    if isinstance(expr, ast.Literal) and expr.kind == "int":
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _oracle_const(expr.operand)
        return -inner if inner is not None else None
    return None


def _oracle_site(node, res):
    """(symbol, (span, kind, value)) for every assignment to a name and every
    initialized local, each classified, whether or not the symbol indexes
    an array."""
    if isinstance(node, ast.Binary) and node.op == "=" and isinstance(node.left, ast.Name):
        sym, value = res.name_targets.get(node.left.uid), node.right
    elif isinstance(node, ast.LocalDecl) and node.initializer is not None:
        sym, value = res.decl_symbols.get(node.uid), node.initializer
    else:
        return None
    if sym is None:
        return None
    constant = _oracle_const(value)
    if constant is not None:
        return sym, (node.span, "constant", constant)
    if any(res.builtin_of(n) in _INPUT_BUILTINS for n in res.subtree(value)):
        return sym, (node.span, "input", None)
    return sym, (node.span, "arithmetic", None)


def _site_inputs():
    """The bound golden's inputs (500 gen_bound_program outputs, corpus/, the
    first 50 seeded units and the snippets, which hold the input-fed and
    parameter indices), and the other 250 seeded units."""
    sources = bound_golden_inputs()
    sources.update({f"seeded/{seed}": seeded_unit(seed) for seed in range(50, 300)})
    return sources


def test_modifying_sites_match_a_rule_that_classifies_every_assignment():
    checked = 0
    for name, source in _site_inputs().items():
        unit = parse_source(source, name)
        res = build_symbol_table(unit)
        classified = [site for node in res.nodes_of(ast.Binary, ast.LocalDecl) if (site := _oracle_site(node, res))]
        for info in track_index_vars(find_arrays(unit, res), res):
            expected = [entry for sym, entry in classified if sym is info.symbol]
            got = [(site.span, site.kind, site.value) for site in info.modifying_sites]
            assert got == expected, (name, info.symbol.name)
            assert info.v_marked == (bool(expected) and bool(info.accesses)), (name, info.symbol.name)
            checked += 1
    assert checked > 2000
