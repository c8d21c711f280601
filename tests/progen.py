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


@dataclass
class RecursionProgram:
    source: str
    shapes: list[str]


# The shapes of gen_recursion_program: the methods each adds to class P,
# the classes it adds beside P, and the lines by which main enters it, in
# which `#` stands for the shape's own number and `@` for main's argument.
# Only the shapes that recurse on every path (every_branch, mutual,
# override_unmade, try_body, while_true) recurse without end, and no loop
# runs forever without recursing, so a run hits the step limit only through
# recursion that every path makes.
_RECURSION_SHAPES = {
    "base_case": (
        ["static int count#(int n) {", "    if (n <= 0) {", "        return 0;", "    }",
         "    return count#(n - 1) + 1;", "}"],
        [], ["println(count#(@));"],
    ),
    "every_branch": (
        ["static void split#(int n) {", "    if (n > 0) {", "        split#(n - 1);", "    } else {",
         "        split#(n + 1);", "    }", "}"],
        [], ["split#(@);"],
    ),
    "mutual": (
        ["static void ping#(int n) {", "    pong#(n + 1);", "}",
         "static void pong#(int n) {", "    if (n > 2) {", "        ping#(n - 3);", "    } else {",
         "        ping#(n);", "    }", "}"],
        [], ["ping#(@);"],
    ),
    # m calls a or b on every path and a always calls m, but b calls m
    # only sometimes, so m returns through b.
    "m_a_b": (
        ["static void m#(int n) {", "    if (n > 0) {", "        a#(n);", "    } else {", "        b#(n);", "    }", "}",
         "static void a#(int n) {", "    m#(n - 1);", "}",
         "static void b#(int n) {", "    if (n < -3) {", "        m#(n + 1);", "    }", "}"],
        [], ["m#(@);"],
    ),
    # f and g call each other, but g is overridden by a method that returns.
    "override": (
        [],
        ["class A# {", "    void f() {", "        g();", "    }", "    void g() {", "        f();", "    }", "}",
         "class B# extends A# {", "    void g() {", '        println("B#.g");', "    }", "}"],
        ["A# x# = new B#();", "x#.f();"],
    ),
    # The same classes, but the object is an A# and no B# is ever made, so
    # f and g call each other without end.
    "override_unmade": (
        [],
        ["class A# {", "    void f() {", "        g();", "    }", "    void g() {", "        f();", "    }", "}",
         "class B# extends A# {", "    void g() {", '        println("B#.g");', "    }", "}"],
        ["A# x# = new A#();", "x#.f();"],
    ),
    "and_right": (
        ["static boolean both#(int n) {", "    return n > 0 && both#(n - 1);", "}"],
        [], ["println(both#(@));"],
    ),
    # The check runs only under --ea, and the runs here leave it off.
    "assert": (
        ["static int checked#(int n) {", "    assert checked#(n) > 0;", "    return n;", "}"],
        [], ["println(checked#(@));"],
    ),
    "catch_body": (
        ["static void caught#(int n) {", "    try {", "        println(n);", "    } catch (Exception e) {",
         "        caught#(n);", "    }", "}"],
        [], ["caught#(@);"],
    ),
    "try_body": (
        ["static void tried#(int n) {", "    try {", "        tried#(n + 1);", "    } catch (Exception e) {",
         "        println(n);", "    }", "}"],
        [], ["tried#(@);"],
    ),
    "while_true": (
        ["static void spin#(int n) {", "    while (true) {", "        spin#(n - 1);", "    }", "}"],
        [], ["spin#(@);"],
    ),
    "loop_carried": (
        ["static int sum#(int n) {", "    int s = 0;", "    while (n > 0) {", "        if (n > 2) {",
         "            s = s + n;", "        } else {", "            s = s - 1;", "        }", "        n = n - 1;",
         "    }", "    return s;", "}"],
        [], ["println(sum#(@));"],
    ),
    "while_true_return": (
        ["static int upto#(int n) {", "    while (true) {", "        if (n > 3) {", "            return n;", "        }",
         "        n = n + 1;", "    }", "    println(n);", "}"],
        [], ["println(upto#(@));"],
    ),
    "if_false": (
        ["static void never#(int n) {", "    if (false) {", "        println(n);", "    }", "    println(n + 1);", "}"],
        [], ["never#(@);"],
    ),
    "while_false": (
        ["static void skip#(int n) {", "    while (false) {", "        println(n);", "    }", "    println(n);", "}"],
        [], ["skip#(@);"],
    ),
    "after_return": (
        ["static int early#(int n) {", "    if (n > 1) {", "        return n;", "    }", "    return 0;",
         "    println(n);", "}"],
        [], ["println(early#(@));"],
    ),
}

# Shapes that recurse without end, which the generator draws less often
# so that most runs reach the end of main.
_DIVERGING = ("every_branch", "mutual", "override_unmade", "try_body", "while_true")


def gen_recursion_program(rng: random.Random) -> RecursionProgram:
    """A runnable program whose main enters 1 to 4 recursion and dead-code
    shapes in turn, each with an argument of 0 to 4.  A shape that
    recurses without end is drawn for a third of the programs, and then
    last, so the shapes before it run to their end."""
    finite = sorted(set(_RECURSION_SHAPES) - set(_DIVERGING))
    shapes = [rng.choice(finite) for _ in range(rng.randint(1, 3))]
    if rng.random() < 1 / 3:
        shapes.append(rng.choice(_DIVERGING))
    members, classes, entry = [], [], []
    for k, shape in enumerate(shapes):
        arg = str(rng.randint(0, 4))
        shape_members, shape_classes, shape_entry = (
            [line.replace("#", str(k)).replace("@", arg) for line in part] for part in _RECURSION_SHAPES[shape]
        )
        members += ["    " + line for line in shape_members]
        classes += shape_classes
        entry += ["        " + line for line in shape_entry]
    lines = ["class P {", *members, "    static void main(String[] args) {", *entry, "    }", "}", *classes]
    return RecursionProgram("\n".join(lines) + "\n", shapes)
