"""Nesting is bounded by MAX_NESTING: every command handles each nesting
shape at the bound under the default recursion limit, and one level more is
a spanned ParseError (exit 2), not a RecursionError traceback."""

import sys

import pytest

from overrun_lint.cli import main
from overrun_lint.errors import NestingError
from overrun_lint.frontend import parse_source
from overrun_lint.frontend import ast
from overrun_lint.frontend.parser import MAX_NESTING
from overrun_lint.pipeline import run_source
from overrun_lint.runtime import RunOptions
from overrun_lint.runtime.interpreter import _Gen
from test_entry_point import SOURCE_COMMANDS


def _main(body: str, extra: str = "") -> str:
    return f"class Main {{\n{extra}    static void main(String[] args) {{\n{body}\n    }}\n}}\n"


def _nest(open_: str, close: str, inner: str, count: int) -> str:
    return open_ * count + inner + close * count


# Shape -> program whose deepest node sits at the given level.  A statement
# in main is at level 1, so an expression shape nests depth - 1 times in it.
SHAPES = {
    "parens": lambda d: _main("int v = " + _nest("(", ")", "1", d - 1) + ";"),
    "not": lambda d: _main("boolean v = " + "!" * (d - 1) + "true;"),
    "negate": lambda d: _main("int v = " + "- " * (d - 1) + "1;"),
    "plus": lambda d: _main("int v = 1" + " + 1" * (d - 1) + ";"),
    "assign": lambda d: _main("int a = 0;\n" + "a = " * (d - 1) + "1;"),
    "call": lambda d: _main(
        "int v = " + _nest("f(", ")", "0", d - 1) + ";", "    static int f(int x) { return x; }\n"
    ),
    "index": lambda d: _main("int[] a = new int[1];\nint v = " + _nest("a[", "]", "0", d - 1) + ";"),
    "if": lambda d: _main(_nest("if (true) {\n", "}\n", "", d)),
    "else_if": lambda d: _main("boolean b = false;\nif (b) { }" + " else if (b) { }" * (d - 1)),
    "while": lambda d: _main("boolean b = false;\n" + _nest("while (b) {\n", "}\n", "", d)),
    "for": lambda d: _main("boolean b = false;\n" + _nest("for (; b; ) {\n", "}\n", "", d)),
    "try": lambda d: _main(_nest("try {\n", "} finally { }\n", "", d)),
    "switch": lambda d: _main("int v = 0;\n" + _nest("switch (v) {\ncase 0:\n", "}\n", "", d)),
    "synchronized": lambda d: "class Lock { }\n"
    + _main("Lock lock = new Lock();\n" + _nest("synchronized (lock) {\n", "}\n", "", d)),
    "block": lambda d: _main(_nest("{\n", "}\n", "", d)),
}


def _run(capsys, tmp_path, source: str, command: str) -> tuple[int, str]:
    path = tmp_path / "deep.sl"
    path.write_text(source)
    code = main([command, str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_command_handles_the_deepest_allowed_nesting(shape, capsys, tmp_path):
    assert sys.getrecursionlimit() == 1000
    source = SHAPES[shape](MAX_NESTING)
    parse_source(source)
    for command in SOURCE_COMMANDS:
        code, err = _run(capsys, tmp_path, source, command)
        assert code in (0, 1), (command, err)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_deeper_is_a_spanned_parse_error(shape, capsys, tmp_path):
    source = SHAPES[shape](MAX_NESTING + 1)
    with pytest.raises(NestingError) as err:
        parse_source(source, "deep.sl")
    assert err.value.message == f"nesting deeper than {MAX_NESTING}"
    span = err.value.span
    line = source.splitlines()[span.line - 1]
    assert span.file == "deep.sl" and line[span.column - 1 :].strip()
    for command in SOURCE_COMMANDS:
        code, out = _run(capsys, tmp_path, source, command)
        assert code == 2 and f":{span.line}:{span.column}: nesting deeper than" in out


@pytest.mark.parametrize(
    "source",
    [
        _main("int v = " + _nest("(", ")", "1", 3000) + ";"),
        _main(_nest("if (true) {\n", "}\n", "", 1500)),
        _main("int v = 1" + " + 1" * 3000 + ";"),
        _main("int v = " + _nest("(", ")", "1 + 1" + " + 1" * 150, 150) + ";"),
    ],
    ids=["3000 parens", "1500 ifs", "3000 operands", "chains in parens"],
)
def test_far_too_deep_input_exits_two(source, capsys, tmp_path):
    for command in SOURCE_COMMANDS:
        code, err = _run(capsys, tmp_path, source, command)
        assert code == 2 and "nesting deeper than" in err


def test_levels_count_the_tree_not_the_parser_stack():
    # Each "(...) + 1 + ... + 1" group of 20 operators puts the group 21
    # levels deeper, although the parser only ever holds a few open at once.
    chain = " + 1" * 20
    parse_source(_main("int v = " + _nest("(", f"){chain}", "1", 9) + ";"))  # level 1 + 9 * 21
    with pytest.raises(NestingError):
        parse_source(_main("int v = " + _nest("(", f"){chain}", "1", 10) + ";"))


@pytest.mark.parametrize("shape", ["call", "plus"])
def test_the_interpreter_compiles_each_expression_once(shape, monkeypatch):
    # Generating an operand twice at every level is exponential in the
    # nesting: fail at the first repeat rather than hang.
    compiled: set[int] = set()
    generate_expr = _Gen._expr

    def once(self, expr, *conversion):
        assert expr.uid not in compiled, f"{type(expr).__name__} at {expr.span} generated twice"
        compiled.add(expr.uid)
        return generate_expr(self, expr, *conversion)

    monkeypatch.setattr(_Gen, "_expr", once)
    trace, analyzed = run_source(SHAPES[shape](MAX_NESTING), "deep.sl", RunOptions())
    assert trace.halting_fault is None
    expressions = [n for n in analyzed.res.nodes if isinstance(n, ast.Expr)]
    assert MAX_NESTING - 1 <= len(compiled) <= len(expressions)


@pytest.mark.parametrize("returns", [False, True], ids=["falls through", "returns"])
def test_stores_and_returns_pass_through_outlined_loops(returns):
    # CPython compiles at most 20 nested loops in one function, so the
    # interpreter runs the 18th and every 17th after it in a local function:
    # a store to a local of the method, and a return, must pass through.
    depth = 40
    loops = "".join(f"int i{k} = 0;\nwhile (i{k} < 1) {{\ni{k} = i{k} + 1;\n" for k in range(depth))
    inner = "total = total + 1;\n" + ("return total * 10;\n" if returns else "")
    source = _main(
        "println(f());",
        "    static int f() {\nint total = 0;\n" + loops + inner + "}\n" * depth + "return total;\n}\n",
    )
    trace = run_source(source, "deep.sl", RunOptions(coverage_enabled=True))[0]
    assert trace.faults == []
    assert trace.stdout == ["10" if returns else "1"]
    loop_iids = {iid for (iid, key), n in trace.branch_outcomes.items() if key == "true-branch" and n == 1}
    assert len(loop_iids) == depth
