"""A fuzz gate that reaches the interpreter: well-typed mutants, equivalence
modulo inputs, and the order in which operands run.

- **Well-typed mutants**, in the spirit of Csmith (Yang, Chen, Eide and
  Regehr, "Finding and understanding bugs in C compilers", PLDI 2011).
  Each mutant is one edit of a program's tree: `<` and `<=` or `+` and `-`
  swapped, an int literal nudged, a condition negated or a statement
  dropped.  It is printed back with `frontend/printer.py` and kept only if
  it still resolves; the resolver raises its first error, so that is one
  try/except.
- **EMI**, after Le, Afshari and Su ("Compiler validation via equivalence
  modulo inputs", PLDI 2014).  A run with coverage names the lines that
  never ran; each statement on such a line becomes `;`, padded with spaces
  so that every other token keeps its line and column.  The variant run
  on the same stdin must print the same lines, record the same faults and
  exit with the same code.  The share of variants that no longer resolve
  is bounded.
- **Operand order.**  `progen.gen_order_program` prints a tag at every
  call it evaluates, numbered in the order of the text, so a run must print
  the tags in order (JLS 15.7).

Every run happens in both modes (assertions and coverage off, then on),
under tight RunOptions and under tests/test_soundness.py's value check, and
ends in a trace, with its halting fault last, or in an OverrunLintError;
nothing else may escape.  Programs are the corpus and seeded outputs of
`tests/progen.py`'s runnable generators.
"""

from __future__ import annotations

import random
import traceback
from pathlib import Path

from overrun_lint.errors import OverrunLintError
from overrun_lint.frontend import ast
from overrun_lint.frontend.parser import parse_source
from overrun_lint.frontend.printer import pretty_print
from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.runtime import RunOptions, coverage_summary

from progen import gen_null_program, gen_order_program, gen_recursion_program
from test_soundness import violations  # noqa: F401  (a fixture)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 32
PROGRAMS_PER_GENERATOR = 12
MUTANTS_PER_PROGRAM = 3
TIGHT = dict(max_steps=4_000, max_call_depth=40, file_system_stub={"C:\\base\\lars.xls": "ab"})
MODES = {"off": {}, "on": dict(assertions_enabled=True, coverage_enabled=True)}
# At most this share of EMI variants may fail to resolve.
UNRESOLVED_SHARE = 0.1


def programs() -> dict[str, tuple[str, list[str]]]:
    """name -> (source, stdin script)."""
    rng = random.Random(SEED)
    out = {p.name: (p.read_text(), ["5", "7", "x"]) for p in sorted(CORPUS.glob("*.sl"))}
    for k in range(PROGRAMS_PER_GENERATOR):
        null = gen_null_program(rng)
        out[f"null{k}.sl"] = (null.source, null.stdin_script)
        out[f"recursion{k}.sl"] = (gen_recursion_program(rng).source, [])
        out[f"order{k}.sl"] = (gen_order_program(rng).source, [])
    return out


def _options(mode: str, stdin: list[str], **extra) -> RunOptions:
    return RunOptions(**TIGHT, **{**MODES[mode], **extra}, stdin_script=stdin)


def _run(text: str, name: str, options: RunOptions):
    """The trace of one run, or None for an OverrunLintError.  A run that
    halts records its halting fault last."""
    try:
        trace = run_source(text, name, options)[0]
    except OverrunLintError:
        return None
    halting = trace.halting_fault
    assert halting is None or trace.faults[-1] is halting, trace.faults
    return trace


def _observed(trace) -> tuple:
    """What a user of `run` sees: stdout, the faults and the exit code."""
    faults = [(f.kind, str(f.span), f.detail) for f in trace.faults]
    return trace.stdout, faults, 0 if trace.halting_fault is None else 1


def _crash(name: str, what: str, err: Exception) -> str:
    where = traceback.extract_tb(err.__traceback__)[-1]
    return f"{name}: {what}: {type(err).__name__}: {err} ({where.name})"


# -- well-typed mutants ----------------------------------------------------------

_SWAPS = {"<": "<=", "<=": "<", "+": "-", "-": "+"}


def _sites(unit: ast.CompilationUnit) -> list[tuple[str, ast.Node, object]]:
    """(edit, node, detail) for every edit the unit admits."""
    sites = []
    for node in ast.walk(unit):
        if isinstance(node, ast.Binary) and node.op in _SWAPS:
            sites.append(("swap", node, None))
        elif isinstance(node, ast.Literal) and node.kind == "int":
            sites.append(("nudge", node, None))
        elif isinstance(node, (ast.If, ast.While)) or isinstance(node, ast.For) and node.cond is not None:
            sites.append(("negate", node, "cond"))
        elif isinstance(node, ast.Assert):
            sites.append(("negate", node, "condition"))
        if isinstance(node, ast.Block):
            sites += [("drop", node, i) for i in range(len(node.stmts))]
    return sites


def _mutate(source: str, rng: random.Random) -> tuple[str, str]:
    """(description, text) of one random edit of source's tree."""
    unit = parse_source(source)
    edit, node, detail = rng.choice(_sites(unit))
    if edit == "swap":
        what = f"{node.op} -> {_SWAPS[node.op]}"
        node.op = _SWAPS[node.op]
    elif edit == "nudge":
        value = rng.choice((node.value + 1, node.value - 1, 2147483647))
        what, node.value = f"{node.value} -> {value}", value
    elif edit == "negate":
        cond = getattr(node, detail)
        setattr(node, detail, ast.Unary(cond.span, -1, "!", cond))
        what = "!"
    else:
        what = f"drop {type(node.stmts[detail]).__name__}"
        del node.stmts[detail]
    return f"{edit} at {node.span.line}:{node.span.column} ({what})", pretty_print(unit)


def test_well_typed_mutants_run_soundly(violations):
    rng = random.Random(SEED)
    crashes, kept = [], 0
    for name, (source, stdin) in programs().items():
        for _ in range(MUTANTS_PER_PROGRAM):
            what, text = _mutate(source, rng)
            try:
                analyze_source(text, name)
            except OverrunLintError:
                continue
            kept += 1
            for mode in MODES:
                try:
                    _run(text, name, _options(mode, stdin))
                except Exception as err:
                    crashes.append(_crash(name, f"{what} {mode}", err))
    assert crashes == []
    assert violations == []
    assert kept >= 60


# -- equivalence modulo inputs ------------------------------------------------------


def _statements(stmt: ast.Stmt) -> list:
    """The statements stmt holds where a statement may stand (a for's
    initializer may not: it is no `;`)."""
    if isinstance(stmt, ast.Block):
        return stmt.stmts
    if isinstance(stmt, ast.If):
        return [stmt.then, stmt.els]
    if isinstance(stmt, (ast.While, ast.For, ast.Synchronized)):
        return [stmt.body]
    if isinstance(stmt, ast.Switch):
        return [inner for case in stmt.cases for inner in case.body]
    if isinstance(stmt, ast.Try):
        return [stmt.body, *(c.body for c in stmt.catches), stmt.finally_block]
    return []


def _pruned(source: str, analyzed, trace) -> str:
    """source with each outermost statement whose line never ran blanked
    to `;` and spaces; every other character keeps its line and column."""
    status = coverage_summary(trace, analyzed.unit, analyzed.cfgs).line_status
    iids = analyzed.cfgs.stmt_iids
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    text = list(source)

    def blank(stmt: ast.Stmt) -> None:
        s = stmt.span
        begin, end = starts[s.line - 1] + s.column - 1, starts[s.end_line - 1] + s.end_column - 1
        text[begin:end] = [";"] + [c if c == "\n" else " " for c in source[begin + 1 : end]]

    def visit(stmt: ast.Stmt | None) -> None:
        if stmt is None:
            return
        if stmt.uid in iids and status.get(stmt.span.line) == "no_coverage":
            blank(stmt)
        else:
            for inner in _statements(stmt):
                visit(inner)

    for cls in analyzed.unit.classes:
        for method in cls.methods:
            visit(method.body)
    return "".join(text)


def test_dead_code_variants_run_alike(violations):
    crashes, differ, variants, unresolved = [], [], 0, 0
    for name, (source, stdin) in programs().items():
        for mode in MODES:
            try:
                analyzed = analyze_source(source, name)
                trace = _run(source, name, _options(mode, stdin, coverage_enabled=True))
                variant = trace and _pruned(source, analyzed, trace)
                if variant is None or variant == source:
                    continue
                variants += 1
                try:
                    analyze_source(variant, name)
                except OverrunLintError:
                    unresolved += 1
                    continue
                if _observed(_run(variant, name, _options(mode, stdin))) != _observed(trace):
                    differ.append(f"{name} {mode}")
            except Exception as err:
                crashes.append(_crash(name, mode, err))
    print(f"EMI: {variants} variants, {unresolved} unresolved")
    assert crashes == [] and differ == []
    assert violations == []
    assert variants >= 40 and unresolved <= UNRESOLVED_SHARE * variants


# -- operand order -------------------------------------------------------------------


def test_operands_run_left_to_right(violations):
    rng = random.Random(SEED)
    wrong = []
    for k in range(2 * PROGRAMS_PER_GENERATOR):
        program = gen_order_program(rng, statements=6)
        for mode in MODES:
            trace = _run(program.source, f"order{k}.sl", _options(mode, []))
            if trace.stdout != program.stdout or trace.faults:
                wrong.append(f"order{k} {mode}: {trace.stdout} {trace.faults}")
    assert wrong == []
    assert violations == []
