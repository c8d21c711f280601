"""Seeded random program generators for the property harnesses."""

from __future__ import annotations

import random
from dataclasses import dataclass


def gen_structured_method(rng: random.Random, max_depth: int = 4, max_decisions: int = 10):
    """Random structured method body (ifs/whiles/fors, all binary decisions).

    Returns (source, decision_count).  Conditions always compare variables,
    so nothing constant-folds away.
    """
    decisions = 0
    var_count = 4
    fresh = [0]

    def var() -> str:
        return f"x{rng.randrange(var_count)}"

    def simple() -> str:
        kind = rng.randrange(3)
        if kind == 0:
            return f"{var()} = {var()} + {rng.randint(0, 9)};"
        if kind == 1:
            return f"println({var()});"
        return f"{var()} = {rng.randint(0, 99)};"

    def block(depth: int) -> list[str]:
        nonlocal decisions
        lines: list[str] = []
        for _ in range(rng.randint(1, 3)):
            can_nest = depth < max_depth and decisions < max_decisions
            choice = rng.randrange(6) if can_nest else rng.randrange(2)
            if choice <= 1 or not can_nest:
                lines.append(simple())
            elif choice == 2:
                decisions += 1
                lines.append(f"if ({var()} < {var()}) {{")
                lines += ["    " + l for l in block(depth + 1)]
                lines.append("}")
            elif choice == 3:
                decisions += 1
                lines.append(f"if ({var()} <= {var()}) {{")
                lines += ["    " + l for l in block(depth + 1)]
                lines.append("} else {")
                lines += ["    " + l for l in block(depth + 1)]
                lines.append("}")
            elif choice == 4:
                decisions += 1
                lines.append(f"while ({var()} > {var()}) {{")
                lines += ["    " + l for l in block(depth + 1)]
                lines.append("}")
            else:
                decisions += 1
                fresh[0] += 1
                i = f"i{fresh[0]}"
                lines.append(f"for (int {i} = 0; {i} < {var()}; {i}++) {{")
                lines += ["    " + l for l in block(depth + 1)]
                lines.append("}")
        return lines

    body = block(1)
    decls = [f"int x{k} = {rng.randint(0, 9)};" for k in range(var_count)]
    lines = ["class Gen {", "    static void work() {"]
    lines += ["        " + l for l in decls + body]
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n", decisions


def wrap_body_in_try(source: str) -> str:
    """Wrap the generated method body in try/catch/finally (same statements)."""
    lines = source.splitlines()
    head, body, tail = lines[:2], lines[2:-2], lines[-2:]
    out = head + ["        try {"]
    out += ["    " + l for l in body]
    out += [
        "        } catch (Exception e) {",
        "            println(0);",
        "        } finally {",
        "            println(1);",
        "        }",
    ]
    out += tail
    return "\n".join(out) + "\n"


@dataclass
class BoundProgram:
    source: str
    stdin_script: list[str]
    scenario: str
    array_name: str = "a"


def gen_bound_program(rng: random.Random) -> BoundProgram:
    """One array of size <= 16, one or two loops with <=/< and constant or
    stdin-fed variable limits, optionally guarded."""
    n = rng.randint(2, 16)
    scenario = rng.choices(
        [
            "safe_const",
            "off_by_one_const",
            "off_by_one_size",
            "exceed_const",
            "var_unguarded_fault",
            "var_unguarded_safe",
            "var_guarded",
            "safe_while",
            "off_by_one_while",
        ],
        weights=[22, 12, 10, 10, 14, 10, 14, 4, 4],
    )[0]
    use_second_loop = rng.random() < 0.3
    lines = ["class Fuzz {", "    static void main(String[] args) {"]
    body = [f"int[] a = new int[{n}];"]
    script: list[str] = []

    def emit_for(op: str, limit: str, guard: str | None = None) -> list[str]:
        loop = [
            f"for (int i = 0; i {op} {limit}; i++) {{",
            "    a[i] = i;",
            "}",
        ]
        if guard is not None:
            return [f"if ({guard}) {{"] + ["    " + l for l in loop] + ["}"]
        return loop

    if scenario == "safe_const":
        body += emit_for("<", str(rng.randint(1, n)))
    elif scenario == "off_by_one_const":
        body += emit_for("<=", str(n))
    elif scenario == "off_by_one_size":
        body = [f"int size = {n};", "int[] a = new int[size];"]
        body += emit_for("<=", "size")
    elif scenario == "exceed_const":
        body += emit_for("<", str(n + rng.randint(1, 3)))
    elif scenario == "var_unguarded_fault":
        value = n + rng.randint(1, 3)
        script = [str(value)]
        body += ["int limit = parseInt(readLine());"]
        body += emit_for("<", "limit")
    elif scenario == "var_unguarded_safe":
        value = rng.randint(1, n)
        script = [str(value)]
        body += ["int limit = parseInt(readLine());"]
        body += emit_for("<", "limit")
    elif scenario == "var_guarded":
        value = rng.randint(1, n + 3)
        script = [str(value)]
        body += ["int limit = parseInt(readLine());"]
        body += emit_for("<", "limit", guard=f"limit <= {n}")
    elif scenario == "safe_while":
        body += [
            "int i = 0;",
            f"while (i < {n}) {{",
            "    a[i] = i;",
            "    i++;",
            "}",
        ]
    else:  # off_by_one_while
        body += [
            "int i = 0;",
            f"while (i <= {n}) {{",
            "    a[i] = i;",
            "    i++;",
            "}",
        ]
    if use_second_loop:
        body += emit_for("<", str(rng.randint(1, n)))
    lines += ["        " + l for l in body]
    lines += ["    }", "}"]
    return BoundProgram(
        source="\n".join(lines) + "\n", stdin_script=script, scenario=scenario
    )


def seeded_unit(seed: int) -> str:
    """One class holding three random structured methods and four array
    methods, so that both the rules and the bound checker have work."""
    rng = random.Random(seed)
    lines = ["class Seeded {"]
    for k in range(3):
        source, _ = gen_structured_method(rng)
        body = source.splitlines()[2:-2]
        lines += [f"    static void work{k}() {{", *body, "    }"]
    for k in range(4):
        body = gen_bound_program(rng).source.splitlines()[2:-2]
        lines += [f"    static void fill{k}(String[] args) {{", *body, "    }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class NullProgram:
    source: str
    stdin_script: list[str]
    shapes: list[str]


# The shapes of gen_null_program's main, each a list of lines in which `#`
# stands for the shape's own number and `?` for a condition.  Null
# literals are only ever compared, never dereferenced, so every null a run
# dereferences came from readLine().
_NULL_SHAPES = {
    "branch_dependent": [
        "P p# = null;", "if (?) {", "    p# = new P();", "}",
        "if (p# == null) {", '    println("none");', "}",
    ],
    "loop_carried": [
        "P q# = new P();", "int i# = 0;", "while (i# < 2) {",
        "    if (q# == null) {", '        println("gone");', "    }",
        "    q# = null;", "    i# = i# + 1;", "}",
    ],
    "new_checked": ["P c# = new P();", "if (c# != null) {", "    println(c#.v);", "}"],
    "null_side": ["String s# = readLine();", "if (s# == null) {", "    println(length(s#));", "}"],
    "read_loop": ['String r# = "";', "while ((r# = readLine()) != null) {", "    println(length(r#));", "}"],
    "guarded": ["String g# = readLine();", "if (g# != null) {", "    println(length(g#));", "}"],
    "guarded_else": [
        "String e# = readLine();", "if (e# == null) {", '    println("eof");',
        "} else {", "    println(length(e#));", "}",
    ],
    "checked_twice": [
        "String t# = readLine();", "if (t# != null) {", "    println(length(t#));", "}",
        "if (t# == null) {", '    println("eof");', "}",
    ],
    "and_guard": ["String a# = readLine();", "if (a# != null && length(a#) > 1) {", "    println(length(a#));", "}"],
    "not_guard": ["String o# = readLine();", "if (!(o# == null)) {", "    println(length(o#));", "}"],
    "unguarded": ["String u# = readLine();", "println(length(u#));"],
    "direct": ["println(length(readLine()));"],
    "reassigned": ["String z# = readLine();", 'z# = "z";', "println(length(z#));"],
    "loop_carried_readline": [
        'String w# = "x";', "int j# = 0;", "while (j# < 2) {",
        "    println(length(w#));", "    w# = readLine();", "    j# = j# + 1;", "}",
    ],
    "branch_dependent_readline": ['String b# = "a";', "if (?) {", "    b# = readLine();", "}", "println(length(b#));"],
    # A catch body never runs, though the CFG chains it by fallthrough.
    "caught": [
        "String k# = readLine();", "try {", "    println(#);", "} catch (Exception x#) {", '    k# = "x";', "}",
        "println(length(k#));",
    ],
}

_CONDITIONS = ('exists("cfg")', "n > 2", "n < 3")


def gen_null_program(rng: random.Random) -> NullProgram:
    """A runnable program whose main strings together 2 to 6 null shapes,
    with a stdin script that may run out before every readLine() is
    answered, so that some runs meet the null at its end."""
    shapes = [rng.choice(sorted(_NULL_SHAPES)) for _ in range(rng.randint(2, 6))]
    lines = ["class P {", "    int v;", "", "    static void main(String[] args) {", f"        int n = {rng.randint(0, 5)};"]
    for k, shape in enumerate(shapes):
        cond = rng.choice(_CONDITIONS)
        lines += ["        " + line.replace("#", str(k)).replace("?", cond) for line in _NULL_SHAPES[shape]]
    lines += ["    }", "}"]
    reads = sum("readLine()" in line for shape in shapes for line in _NULL_SHAPES[shape])
    script = ["x" * rng.randint(1, 3) for _ in range(rng.randint(0, reads + 1))]
    return NullProgram("\n".join(lines) + "\n", script, shapes)
