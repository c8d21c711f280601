"""Seeded SL inputs for the benchmark, with the answers planted in them.

This generator belongs to the benchmark alone and imports nothing from the
test suite, so a test edit never shifts benchmark inputs.  The seed picks
every identifier, literal and ordering; the shape of a workload (how many
methods of each kind, files, clone copies and loop trip counts) is fixed, so
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from string import Template

BOUND_RULE = "BoundOffByOneLoop"
NP_RULE = "NP_DEREFERENCE_OF_READLINE_VALUE"
PRINTLN_RULE = "SystemPrintln"

WORKLOADS = ("large-unit", "project", "copy-paste", "interp")

# Shape constants.  large-unit's two units are LARGE_UNIT_GROUPS and four
# times that many method groups, so their ratio gives the growth exponents.
LARGE_UNIT_GROUPS = 32
PROJECT_FILES = 100
CLONE_PROJECTS = 6
CLONE_FILES = 4
CLONE_BACKGROUND_METHODS = 4
CLONE_SOURCES = 2
CLONE_COPIES = 3
METHOD_STATEMENTS = 10
METHOD_TOKENS = 240
INTERP_PROGRAMS = 6

_WORDS = (
    "amber", "basin", "cedar", "delta", "ember", "fable", "grove", "haven",
    "ivory", "jolly", "karma", "lemon", "maple", "noble", "olive", "pearl",
    "quill", "raven", "sable", "tango", "umber", "vivid", "wheat", "xenon",
    "yield", "zesty", "brisk", "coral", "dune", "flint", "glade", "hollow",
)

_TOKEN_RE = re.compile(
    r'"(?:\\.|[^"\\])*"|//[^\n]*|/\*.*?\*/|[A-Za-z_]\w*|\d+\.\d+|\d+'
    r"|&&|\|\||[=!<>]=|\+\+|--|\S",
    re.S,
)


def count_tokens(text: str) -> int:
    """Token count by the benchmark's own scanner (comments count as tokens)."""
    return len(_TOKEN_RE.findall(text))


@dataclass
class Source:
    """One SL file plus the answers planted in it."""

    name: str
    text: str
    # (rule id, line) pairs that the analyses must report.
    planted: list[tuple[str, int]] = field(default_factory=list)
    # Expected interpreter stdout (interp programs only).
    stdout: list[str] | None = None
    # The project a copy-paste file belongs to; each project is one job.
    project: str = ""

    @property
    def lines(self) -> int:
        return self.text.count("\n")


@dataclass(frozen=True)
class ClonePlant:
    """Two type-2 copies of one method: (file, first line, last line) each."""

    a: tuple[str, int, int]
    b: tuple[str, int, int]


@dataclass
class Workload:
    name: str
    sources: list[Source]
    clones: list[ClonePlant] = field(default_factory=list)

    def stats(self) -> dict[str, int]:
        return {
            "files": len(self.sources),
            "lines": sum(s.lines for s in self.sources),
            "tokens": sum(count_tokens(s.text) for s in self.sources),
        }


class _Names:
    """Fresh identifiers: a seeded word plus a running number."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next = 0

    def __call__(self, prefix: str = "") -> str:
        self.next += 1
        word = self.rng.choice(_WORDS)
        if prefix:
            word = prefix + word.capitalize()
        return f"{word}{self.next}"


class _Writer:
    """Accumulates lines and knows the current line number."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# --- lint shapes (large-unit, project, warm-up) --------------------------------


def _structured(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    """Locals, an if/else, a while, a for with a nested if; 20 lines."""
    m, p = names("calc"), names("p")
    v = [names() for _ in range(4)]
    i = names("i")
    rel = lambda: rng.choice(("<", "<=", ">", ">="))  # noqa: E731
    lit = lambda: rng.randint(1, 97)  # noqa: E731
    w.add(f"    static int {m}(int {p}) {{")
    for name in v:
        w.add(f"        int {name} = {lit()};")
    w.add(f"        if ({v[0]} {rel()} {v[1]}) {{")
    w.add(f"            {v[2]} = {v[3]} + {lit()};")
    w.add("        } else {")
    w.add(f"            {v[2]} = {v[0]} * {lit()};")
    w.add("        }")
    w.add(f"        while ({v[1]} > {v[3]}) {{")
    w.add(f"            {v[1]} = {v[1]} - {lit()};")
    w.add("        }")
    w.add(f"        for (int {i} = 0; {i} < {p}; {i}++) {{")
    w.add(f"            {v[0]} = {v[2]} + {i};")
    w.add(f"            if ({v[3]} {rel()} {v[0]}) {{")
    w.add(f"                {v[3]} = {v[3]} + {lit()};")
    w.add("            }")
    w.add("        }")
    w.add(f"        return {v[0]} + {v[1]} + {v[2]} + {v[3]};")
    w.add("    }")


def _off_by_one(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    """An array loop that runs one past the end: planted bound finding."""
    m, p, arr, i = names("fill"), names("p"), names("arr"), names("i")
    size = rng.randint(4, 64)
    w.add(f"    static void {m}(int {p}) {{")
    w.add(f"        int[] {arr} = new int[{size}];")
    w.add(f"        for (int {i} = 0; {i} <= {size}; {i}++) {{")
    planted.append((BOUND_RULE, w.add(f"            {arr}[{i}] = {i} * {p};")))
    w.add("        }")
    w.add("    }")


def _safe_loop(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    m, p, arr, i = names("scan"), names("p"), names("arr"), names("i")
    size = rng.randint(4, 64)
    w.add(f"    static void {m}(int {p}) {{")
    w.add(f"        int[] {arr} = new int[{size}];")
    w.add(f"        for (int {i} = 0; {i} < {size}; {i}++) {{")
    w.add(f"            {arr}[{i}] = {i} + {p};")
    w.add("        }")
    w.add("    }")


def _readline(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    """A readLine() value used without a null check: planted NP finding."""
    m, line = names("read"), names("line")
    w.add(f"    static int {m}() {{")
    w.add(f"        String {line} = readLine();")
    planted.append((NP_RULE, w.add(f"        return length({line}) + {rng.randint(1, 9)};")))
    w.add("    }")


def _guarded_readline(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    m, line = names("read"), names("line")
    w.add(f"    static int {m}() {{")
    w.add(f"        String {line} = readLine();")
    w.add(f"        if ({line} != null) {{")
    w.add(f"            return length({line});")
    w.add("        }")
    w.add(f"        return {rng.randint(0, 9)};")
    w.add("    }")


def _printer(w: _Writer, rng: random.Random, names: _Names, planted) -> None:
    """A println call: planted SystemPrintln finding."""
    m, p = names("show"), names("p")
    w.add(f"    static void {m}(int {p}) {{")
    planted.append((PRINTLN_RULE, w.add(f'        println("{rng.choice(_WORDS)}=" + {p});')))
    w.add("    }")


# One group: every lint shape, structured methods twice.  A unit is a
# shuffled sequence of whole groups, so its work scales with the group count.
_GROUP = (_structured, _structured, _off_by_one, _safe_loop, _readline, _guarded_readline, _printer)


def _lint_unit(rng: random.Random, file: str, shapes: list) -> Source:
    names = _Names(rng)
    planted: list[tuple[str, int]] = []
    w = _Writer()
    w.add("package bench;")
    w.add("")
    w.add(f"class {names('Unit')} {{")
    for k in range(3):
        w.add(f"    static int {names('total')} = {k};")
    for shape in shapes:
        w.add("")
        shape(w, rng, names, planted)
    w.add("}")
    return Source(file, w.text(), planted)


def _groups(rng: random.Random, count: int) -> list:
    shapes = list(_GROUP) * count
    rng.shuffle(shapes)
    return shapes


def _project_file(rng: random.Random, file: str, structured: int) -> Source:
    shapes = [_structured] * structured + list(_GROUP[2:])
    rng.shuffle(shapes)
    return _lint_unit(rng, file, shapes)


def large_unit(seed: int, groups: int = LARGE_UNIT_GROUPS) -> Workload:
    rng = random.Random(f"large-unit/{seed}")
    sources = [
        _lint_unit(rng, "LargeSmall.sl", _groups(rng, groups)),
        _lint_unit(rng, "LargeBig.sl", _groups(rng, 4 * groups)),
    ]
    return Workload("large-unit", sources)


def project(seed: int, files: int = PROJECT_FILES) -> Workload:
    rng = random.Random(f"project/{seed}")
    # One to five structured methods per file: 60 to 150 lines.
    counts = [1 + k % 5 for k in range(files)]
    rng.shuffle(counts)
    sources = [_project_file(rng, f"P{k:03d}.sl", n) for k, n in enumerate(counts)]
    return Workload("project", sources)


# --- copy-paste ---------------------------------------------------------------


def _expr(rng: random.Random, names: list[str], slots: list[str], depth: int = 0) -> str:
    """Random arithmetic over names and literal slots; mixed shapes keep
    unrelated code from matching under token normalization."""
    if depth >= 2 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return rng.choice(names)
        slots.append(f"$n{len(slots)}")
        return slots[-1]
    op = rng.choice(("+", "-", "*", "%", "+", "-"))
    left = _expr(rng, names, slots, depth + 1)
    right = _expr(rng, names, slots, depth + 1)
    if op == "%":
        slots.append(f"$n{len(slots)}")
        right = slots[-1]
    text = f"{left} {op} {right}"
    return f"({text})" if rng.random() < 0.4 else text


def _method_template(rng: random.Random) -> Template:
    """A random method whose identifiers ($vK, $m, $pK) and literals ($nK)
    are placeholders, so one template renders to type-2 copies.  Shapes are
    drawn until the method is within 2 % of METHOD_TOKENS long, because
    clone detection time grows with the square of a clone's length."""
    while True:
        template = _draw_method(rng, METHOD_STATEMENTS)
        tokens = count_tokens(template.substitute(defaultdict(lambda: "x")))
        if abs(tokens - METHOD_TOKENS) <= METHOD_TOKENS // 50:
            return template


def _draw_method(rng: random.Random, statements: int) -> Template:
    vars_ = ["$v0", "$v1", "$v2", "$p0", "$p1"]
    slots: list[str] = []
    lines = ["    static int $m(int $p0, int $p1) {"]
    for v in vars_[:3]:
        lines.append(f"        int {v} = {_expr(rng, vars_[3:], slots)};")
    loops = 0
    for _ in range(statements):
        kind = rng.randrange(5)
        target = rng.choice(vars_[:3])
        if kind <= 1:
            lines.append(f"        {target} = {_expr(rng, vars_, slots)};")
        elif kind == 2:
            rel = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            lines.append(f"        if ({_expr(rng, vars_, slots)} {rel} {_expr(rng, vars_, slots)}) {{")
            lines.append(f"            {target} = {_expr(rng, vars_, slots)};")
            if rng.random() < 0.5:
                lines.append("        } else {")
                lines.append(f"            {rng.choice(vars_[:3])} = {_expr(rng, vars_, slots)};")
            lines.append("        }")
        elif kind == 3:
            loops += 1
            i = f"$i{loops}"
            lines.append(f"        for (int {i} = 0; {i} < {rng.choice(vars_)}; {i}++) {{")
            lines.append(f"            {target} = {_expr(rng, vars_ + [i], slots)};")
            lines.append("        }")
        else:
            lines.append(f"        while ({target} > {_expr(rng, vars_, slots)}) {{")
            lines.append(f"            {target} = {target} - {_expr(rng, vars_, slots)};")
            lines.append("        }")
    lines.append(f"        return {_expr(rng, vars_, slots)};")
    lines.append("    }")
    return Template("\n".join(lines))


class _Fresh(dict):
    """Template mapping that invents each placeholder's value on first use."""

    def __init__(self, rng: random.Random, names: _Names):
        super().__init__()
        self.rng, self.names = rng, names

    def __missing__(self, key: str) -> str:
        if key == "m":
            value = self.names("calc")
        elif key.startswith("n"):
            value = str(self.rng.randint(1, 999))
        else:
            value = self.names("i" if key.startswith("i") else "")
        self[key] = value
        return value


def _render(template: Template, rng: random.Random, names: _Names) -> list[str]:
    return template.substitute(_Fresh(rng, names)).split("\n")


def _clone_project(rng: random.Random, prefix: str, files: int, background: int, clone_sources: int, copies: int):
    """Files of one project, and every pair of copies planted in them.  Each
    file gets `background` unique methods; each clone source is rendered
    1 + `copies` times into distinct files."""
    names = _Names(rng)
    bodies: list[list[tuple[int | None, Template]]] = [
        [(None, _method_template(rng)) for _ in range(background)] for _ in range(files)
    ]
    for k in range(clone_sources):
        template = _method_template(rng)
        for f in rng.sample(range(files), copies + 1):
            bodies[f].append((k, template))
    instances: dict[int, list[tuple[str, int, int]]] = {}
    sources = []
    for f, methods in enumerate(bodies):
        rng.shuffle(methods)
        file = f"{prefix}C{f}.sl"
        w = _Writer()
        w.add("package clones;")
        w.add("")
        w.add(f"class {names('Copy')} {{")
        for clone_of, template in methods:
            w.add("")
            first = len(w.lines) + 1
            for line in _render(template, rng, names):
                w.add(line)
            if clone_of is not None:
                instances.setdefault(clone_of, []).append((file, first, len(w.lines)))
        w.add("}")
        sources.append(Source(file, w.text(), project=prefix))
    plants = [
        ClonePlant(group[x], group[y])
        for group in instances.values()
        for x in range(len(group))
        for y in range(x + 1, len(group))
    ]
    return sources, plants


def copy_paste(
    seed: int,
    projects: int = CLONE_PROJECTS,
    files: int = CLONE_FILES,
    background: int = CLONE_BACKGROUND_METHODS,
    clone_sources: int = CLONE_SOURCES,
    copies: int = CLONE_COPIES,
) -> Workload:
    rng = random.Random(f"copy-paste/{seed}")
    sources, plants = [], []
    for k in range(projects):
        more, planted = _clone_project(rng, f"K{k}", files, background, clone_sources, copies)
        sources += more
        plants += planted
    return Workload("copy-paste", sources, plants)


# --- interp -------------------------------------------------------------------


def _wrap8(value: int) -> int:
    return ((value + 128) % 256) - 128


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _program(rng: random.Random, file: str, scale: int) -> Source:
    """Recursion, array loops, string building and byte wraparound, with the
    expected stdout worked out here in Python."""
    names = _Names(rng)
    cls, fib, fill, build, wrap = names("Prog"), names("fib"), names("fill"), names("build"), names("wrap")
    fib_n = 12 + scale
    size, mul, mod = 60 * scale, rng.randint(3, 97), rng.randint(50, 500)
    count, step = 40 * scale, rng.randint(1, 9)
    b_start, b_step, b_count = rng.randint(-128, 127), rng.randint(1, 40), 30 * scale
    text = Template(
        """class $cls {
    static int $fib(int n) {
        if (n < 2) {
            return n;
        }
        return $fib(n - 1) + $fib(n - 2);
    }

    static int $fill(int size, int mul, int mod) {
        int[] data = new int[size];
        for (int i = 0; i < size; i++) {
            data[i] = i * mul % mod;
        }
        int total = 0;
        for (int j = 0; j < size; j++) {
            total = total + data[j];
            assert total >= 0 : "sum went negative";
        }
        return total;
    }

    static String $build(int count, int step) {
        String text = "";
        for (int i = 0; i < count; i++) {
            text = text + (i * step % 10);
        }
        return text;
    }

    static int $wrap(int start, int step, int count) {
        byte acc = start;
        for (int i = 0; i < count; i++) {
            acc = acc + step;
        }
        return acc;
    }

    static void main(String[] args) {
        println($fib($fib_n));
        println($fill($size, $mul, $mod));
        String text = $build($count, $step);
        println(length(text));
        println(text);
        println($wrap($b_start, $b_step, $b_count));
    }
}
"""
    ).substitute(
        cls=cls, fib=fib, fill=fill, build=build, wrap=wrap, fib_n=fib_n, size=size, mul=mul,
        mod=mod, count=count, step=step, b_start=b_start, b_step=b_step, b_count=b_count,
    )
    built = "".join(str(i * step % 10) for i in range(count))
    acc = b_start
    for _ in range(b_count):
        acc = _wrap8(acc + b_step)
    stdout = [
        str(_fib(fib_n)),
        str(sum(i * mul % mod for i in range(size))),
        str(len(built)),
        built,
        str(acc),
    ]
    return Source(file, text, stdout=stdout)


def interp(seed: int, programs: int = INTERP_PROGRAMS, scale: int = 4) -> Workload:
    rng = random.Random(f"interp/{seed}")
    sources = [_program(rng, f"Prog{k}.sl", scale) for k in range(programs)]
    return Workload("interp", sources)


_MAKERS = {"large-unit": large_unit, "project": project, "copy-paste": copy_paste, "interp": interp}
# The warm-up is a small job of the workload's own kind.
_WARMUP_SHAPE = {
    "large-unit": {"groups": 1},
    "project": {"files": 1},
    "copy-paste": {"projects": 1, "files": 2, "background": 1, "clone_sources": 1, "copies": 1},
    "interp": {"programs": 1, "scale": 1},
}


def make(workload: str, seed: int) -> Workload:
    return _MAKERS[workload](seed)


def warmup(workload: str, seed: int) -> Workload:
    """Drawn from a seed stream of its own, so it never repeats a timed input."""
    return _MAKERS[workload](-1 - seed, **_WARMUP_SHAPE[workload])
