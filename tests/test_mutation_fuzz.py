"""Mutation fuzz gate: no mangled program ends in a Python exception.

In the style of Miller, Fredriksen and So ("An empirical study of the
reliability of UNIX utilities", CACM 1990), but seeded and of a fixed
size.  Each mutant is a valid program with one token deleted, one token
duplicated in place, or two tokens swapped; the programs are the corpus
and seeded `progen` outputs.  Every mutant goes through every public
phase -- analyze_source, findings(), bound_findings(), cfgs,
find_duplicates and run_source under tight RunOptions -- and each may end
only in an OverrunLintError: anything else escaping is a crash.
"""

import random
import traceback
from pathlib import Path

from overrun_lint.detectors.clones import find_duplicates
from overrun_lint.errors import OverrunLintError
from overrun_lint.frontend.lexer import tokenize
from overrun_lint.pipeline import analyze_source, run_source
from overrun_lint.runtime import RunOptions

from progen import gen_bound_program, gen_structured_method, seeded_unit

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 1
MUTANTS_PER_PROGRAM = 200
TIGHT = dict(max_steps=2_000, max_call_depth=24, stdin_script=["3", "x", "-1"])


def programs() -> dict[str, str]:
    rng = random.Random(SEED)
    out = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.sl"))}
    for k in range(4):
        out[f"bound{k}.sl"] = gen_bound_program(rng).source
        out[f"structured{k}.sl"] = gen_structured_method(rng)[0]
    out["seeded.sl"] = seeded_unit(SEED)
    return out


def mutants(source: str, rng: random.Random, count: int):
    """count (description, text) pairs, each one token edit away from source."""
    stream = tokenize(source)
    # Significant tokens, without the end-of-file sentinel.
    places = list(zip(stream.offsets, stream.texts))[:-1]
    for _ in range(count):
        op = rng.choice(("delete", "duplicate", "swap"))
        i = rng.randrange(len(places))
        start, text = places[i]
        end = start + len(text)
        if op == "delete":
            yield f"delete {text!r} at {start}", source[:start] + source[end:]
        elif op == "duplicate":
            yield f"duplicate {text!r} at {start}", source[:end] + " " + text + source[end:]
        else:
            j = rng.randrange(len(places))
            (a, a_text), (b, b_text) = sorted((places[i], places[j]))
            if a == b:
                continue
            swapped = source[:a] + b_text + source[a + len(a_text) : b] + a_text
            yield f"swap {a_text!r} at {a} and {b_text!r} at {b}", swapped + source[b + len(b_text) :]


def _phases(text: str, name: str) -> None:
    """Every public phase on one mutant; OverrunLintError ends a phase."""
    try:
        analyzed = analyze_source(text, name)
    except OverrunLintError:
        return
    for phase in (
        analyzed.findings,
        analyzed.bound_findings,
        lambda: analyzed.cfgs,
        lambda: find_duplicates([analyzed.unit], 10),
        lambda: run_source(text, name, RunOptions(**TIGHT)),
        lambda: run_source(
            text, name, RunOptions(**TIGHT, assertions_enabled=True, coverage_enabled=True)
        ),
    ):
        try:
            phase()
        except OverrunLintError:
            pass


def test_only_overrun_lint_errors_escape():
    rng = random.Random(SEED)
    crashes = []
    for name, source in programs().items():
        for what, text in mutants(source, rng, MUTANTS_PER_PROGRAM):
            try:
                _phases(text, name)
            except Exception as err:
                where = traceback.extract_tb(err.__traceback__)[-1]
                crashes.append(f"{name}: {what}: {type(err).__name__}: {err} ({where.name})")
    assert crashes == []
