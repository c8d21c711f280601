"""Golden bound verdicts: every BoundFinding and LoopLimitCheck is pinned by digest.

Each input is reduced to a canonical form -- `(kind, span, detail)` of every
finding from `run_bound_check`, and loop span, index name, comparison,
limit kind, value and symbol and verdict of every check from `check_loops`
-- or to ``type: message`` when the analysis raises.  The sha256 of that
form is compared with `bound_golden.json`.

The inputs are the 500 bound fuzz programs, the corpus, 50 seeded units and
the snippets below: a grid of loop shapes over arrays of constant, variable
and unknown length, and access guards, constant indices and index sources,
which together bring in every finding kind and every loop verdict.  A change
that means to alter bound verdicts re-records the file with
`PYTHONPATH=src:tests python tests/test_bound_golden.py --record` and says
which inputs changed and why.
"""

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from overrun_lint import boundcheck
from overrun_lint.boundcheck import check_loops, find_arrays, run_bound_check, track_index_vars
from overrun_lint.frontend import parse_source
from overrun_lint.semantics import build_symbol_table

from progen import gen_bound_program, seeded_unit

GOLDEN_FILE = Path(__file__).with_name("bound_golden.json")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Array a of constant length 5, of length n (read from stdin), or of
# unknown length (a parameter's alias); n and m are always in scope.
ARRAYS = {
    "const": "int[] a = new int[5];",
    "var": "int[] a = new int[n];",
    "unknown": "int[] a = p;",
}
ASCENDING_LIMITS = ("3", "4", "5", "6", "9", "n", "m", "n - 1")
LIMIT_GUARDS = ("m < 5", "m <= 5", "m <= 4", "m < 4", "m < n", "m <= n", "n > m", "m > 0")
DESCENDING_STARTS = ("4", "5", "6", "-1", "n", "m", "n - 1")
DESCENDING_CONDS = ("i >= 0", "i > 0", "i >= m")
ACCESS_GUARDS = ("i < 5", "i <= 4", "i <= 5", "i < n", "i <= n", "5 > i", "n > i", "i >= 0")
CONSTANT_INDICES = ("0", "4", "5", "-1")
CONSTANT_GUARDS = (None, "0 < n", "0 <= n", "n > 0", "4 < n", "0 < m", "0 < 5")


def _method(*body: str) -> str:
    lines = [
        "class G {",
        "    static void f(int[] p, int m) {",
        "        int n = parseInt(readLine());",
        *("        " + line for line in body),
        "    }",
        "    static void main(String[] args) {",
        "        f(new int[3], 2);",
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _guarded(guard: str | None, *lines: str) -> list[str]:
    if guard is None:
        return list(lines)
    return [f"if ({guard}) {{", *("    " + line for line in lines), "}"]


def _grid() -> dict[str, str]:
    out = {}
    for (arr, decl), op, limit in itertools.product(ARRAYS.items(), ("<", "<="), ASCENDING_LIMITS):
        loop = (f"for (int i = 0; i {op} {limit}; i++) {{", "    a[i] = i;", "}")
        out[f"up/{arr} i {op} {limit}"] = _method(decl, *loop)
        if limit == "m":
            for guard in LIMIT_GUARDS:
                out[f"up/{arr} i {op} m if {guard}"] = _method(decl, *_guarded(guard, *loop))
        out[f"while/{arr} i {op} {limit}"] = _method(
            decl, "int i = 0;", f"while (i {op} {limit}) {{", "    a[i] = i;", "    i++;", "}"
        )
    for (arr, decl), start, cond in itertools.product(
        ARRAYS.items(), DESCENDING_STARTS, DESCENDING_CONDS
    ):
        loop = (f"for (int i = {start}; {cond}; i--) {{", "    a[i] = i;", "}")
        out[f"down/{arr} i = {start}; {cond}"] = _method(decl, *loop)
        out[f"down-assign/{arr} i = {start}; {cond}"] = _method(
            decl, "int i;", f"for (i = {start}; {cond}; i--) {{", "    a[i] = i;", "}"
        )
    for (arr, decl), start in itertools.product(ARRAYS.items(), ("-1", "1")):
        out[f"up-start/{arr} i = {start}"] = _method(
            decl, f"for (int i = {start}; i < 5; i++) {{", "    a[i] = i;", "}"
        )
    for (arr, decl), guard in itertools.product(ARRAYS.items(), ACCESS_GUARDS):
        access = _guarded(guard, "a[i] = i;")
        out[f"access/{arr} loop if {guard}"] = _method(
            decl, "for (int i = 0; i < m; i++) {", *("    " + line for line in access), "}"
        )
        out[f"access/{arr} input if {guard}"] = _method(
            decl, "int i = parseInt(readLine());", *access
        )
        out[f"access/{arr} while-held if {guard}"] = _method(
            decl, "int i = parseInt(readLine());", f"while ({guard}) {{", "    a[i] = i;", "    i++;", "}"
        )
    for (arr, decl), index, guard in itertools.product(
        ARRAYS.items(), CONSTANT_INDICES, CONSTANT_GUARDS
    ):
        out[f"const/{arr} a[{index}] if {guard}"] = _method(
            decl, *_guarded(guard, f"a[{index}] = 1;")
        )
    for (arr, decl), value in itertools.product(ARRAYS.items(), ("0", "4", "5", "-2")):
        out[f"assign/{arr} i = {value}"] = _method(decl, "int i = 0;", f"i = {value};", "a[i] = 1;")
    return out


SNIPPETS = {
    "parameter index": """\
class T {
    static void use(int[] b, int p, int q) {
        int[] a = new int[10];
        a[p] = 1;
        if (q < 10) {
            a[q] = 2;
        }
        b[p] = 3;
    }
    static void main(String[] args) {
        use(new int[2], 3, 4);
    }
}
""",
    "catch parameter index": """\
class T {
    static void main(String[] args) {
        int[] a = new int[3];
        try {
            println("x");
        } catch (Exception e) {
            println("y");
        }
    }
}
""",
    "field array of field size": """\
class T {
    byte[] b;
    int size;
    T() {
        size = 25;
        b = new byte[size];
    }
    void fill() {
        for (int i = 0; i <= size; i++) {
            b[i] = 1;
        }
        for (int k = size; k >= 0; k--) {
            b[k] = 2;
        }
        b[0] = 3;
        if (0 < size) {
            b[1] = 4;
        }
    }
    static void main(String[] args) {
        T t = new T();
        t.fill();
    }
}
""",
    "field targets": """\
class T {
    int[] b;
    int k;
    T() {
        this.b = new int[4];
    }
    void use(T t) {
        this.b[k] = 1;
        t.b[2] = 2;
        t.b[7] = 3;
        int j;
        for (j = 5; j > 0; j--) {
            b[j] = j;
        }
    }
    static void main(String[] args) {
        T t = new T();
        t.use(t);
    }
}
""",
    "reallocated array": """\
class T {
    static void main(String[] args) {
        int[] a = new int[4];
        a = new int[6];
        for (int i = 0; i <= 4; i++) {
            a[i] = i;
        }
        a[5] = 1;
    }
}
""",
    "two indices": """\
class T {
    static void main(String[] args) {
        int[] a = new int[8];
        int j = parseInt(readLine());
        for (int i = 0; i < 4 && i <= 9; i++) {
            a[i + j] = i;
            if (j < 4 && i < 4) {
                a[j + i] = 0;
            }
        }
        for (int k = 0; k < 8; k++) {
            for (int l = 0; l <= k; l++) {
                a[l] = a[k];
            }
        }
    }
}
""",
    "nested guards": """\
class T {
    static void main(String[] args) {
        int n = parseInt(readLine());
        int[] a = new int[n];
        int lim = parseInt(readLine());
        if (lim < n) {
            if (lim > 2) {
                for (int i = 0; i <= lim; i++) {
                    a[i] = i;
                }
            }
        } else {
            for (int i = 0; i < lim; i++) {
                a[i] = i;
            }
        }
    }
}
""",
}


def inputs() -> dict[str, str]:
    """Input id -> SL source."""
    out = {}
    rng = random.Random(114)
    for k in range(500):
        out[f"fuzz/{k}"] = gen_bound_program(rng).source
    for path in sorted(CORPUS.glob("*.sl")):
        out[f"corpus/{path.name}"] = path.read_text()
    for seed in range(50):
        out[f"seeded/{seed}"] = seeded_unit(seed)
    for name, source in {**_grid(), **SNIPPETS}.items():
        out[f"snippet/{name}"] = source
    return out


def canonical(source: str) -> dict:
    unit = parse_source(source, "bound.sl")
    res = build_symbol_table(unit)
    arrays = find_arrays(unit, res)
    checks = check_loops(unit, track_index_vars(arrays, res), res)
    return {
        "findings": [[f.kind, str(f.span), f.detail] for f in run_bound_check(unit, res)],
        "loops": [
            [
                str(c.loop_span),
                c.index_symbol.name,
                c.comparison,
                c.limit_kind,
                c.limit_value,
                c.limit_symbol.name if c.limit_symbol is not None else None,
                c.verdict,
            ]
            for c in checks
        ],
    }


def _form(source: str) -> object:
    try:
        return canonical(source)
    except Exception as err:  # the error itself is part of the golden form
        return f"{type(err).__name__}: {err}"


def _digest(source: str) -> str:
    return hashlib.sha256(json.dumps(_form(source), sort_keys=True).encode("utf-8")).hexdigest()


INPUTS = inputs()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


def test_snippets_bring_in_every_kind_and_verdict():
    kinds, verdicts = set(), set()
    for input_id, source in INPUTS.items():
        if input_id.startswith("snippet/"):
            form = canonical(source)
            kinds.update(f[0] for f in form["findings"])
            verdicts.update(c[-1] for c in form["loops"])
    assert kinds == {v for k, v in vars(boundcheck).items() if k.startswith("KIND_")}
    assert verdicts == {v for k, v in vars(boundcheck).items() if k.startswith("VERDICT_")}


@pytest.mark.parametrize("group", ["fuzz/", "corpus/", "seeded/", "snippet/"])
def test_bound_verdicts_are_unchanged(group, golden):
    changed = [i for i in INPUTS if i.startswith(group) and _digest(INPUTS[i]) != golden[i]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_bound_golden.py --record")
    GOLDEN_FILE.write_text(
        json.dumps({i: _digest(source) for i, source in INPUTS.items()}, indent=1, sort_keys=True)
        + "\n"
    )
